"""Factor time and peak memory of every SuperLU factor against its panel size.

    PYTHONPATH=src python3 tools/lu_panel.py [--panels 1,2,4,6,8,20] [--repeats 5]

Assembles the matrices of the benchmark workloads (FD p=2 on the circle,
mixed BC, at N=160, 320 and 640; FD p=2 and FEM alpha 1.5 on the flower,
mixed BC, at N=80, 160 and 320) and saves them to a temporary directory.
Each (matrix, panel size) sample is `sparse_linalg._factor` with
`PANEL_SIZE` set to the candidate, run in a fresh interpreter with
single-threaded BLAS, so its `ru_maxrss` is the peak of that one factor.
Each matrix also gets a baseline sample: one float64 no-pivot MMD `splu`
with panels of `PANEL_SIZE` of A^T, the CSC reading of A's CSR arrays that
`_factor` factors, without a solve.  Each FEM matrix also gets one sample
per panel size of the SSOR sweeps, `sparse_linalg._ssor_apply(A, 1.5)`:
the two no-fill factors that `solve_cg(..., "sor")` makes, of D/omega + L
for the backward sweep and of J (D/omega + L^T) J, J reversing the index
order, for the forward sweep.
Linux carries a parent's peak RSS into the children it starts, so the
driving interpreter imports neither numpy nor `uel`: the assembly runs in
a child too.
Within a repeat the samples of one matrix run back to back, in an order
rotated from repeat to repeat.  Prints one line per matrix and panel
size: the median `_factor` seconds (the factor and its refined solve), the
median peak RSS in MiB, the fill nnz(L) + nnz(U), the factor's precision,
its refinement steps and the fallback note if the first factor tried was
rejected; then the baseline's median seconds, peak RSS and fill; then, for
a FEM matrix, one line per panel size with the median seconds and peak RSS
of making both sweep factors, and the fill of each (backward + forward).
Each median of seconds is followed by the range over the repeats, in
parentheses.  20 is SuperLU's default panel size.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time

SYSTEMS = ([("fd", "circle", 2, n) for n in (160, 320, 640)]
           + [("fd", "flower", 2, n) for n in (80, 160, 320)]
           + [("fem", "flower", 1.5, n) for n in (80, 160, 320)])


def save_system(index, path):
    """Assemble SYSTEMS[index] and save A (the CSR matrix uel solves with)
    and b under path."""
    import numpy as np
    import scipy.sparse as sp
    from uel import Grid, assemble_fd, assemble_fem, make_bc_spec, make_case, make_domain
    scheme, domain_name, order, n = SYSTEMS[index]
    args = (Grid(n), make_domain(domain_name), make_case("paper_sin"),
            make_bc_spec(domain_name, "mixed"))
    if scheme == "fd":
        system = assemble_fd(*args, p=order)
    else:
        system = assemble_fem(*args, alpha=order)
    sp.save_npz(path + ".npz", system.matrix)
    np.save(path + ".npy", system.rhs)


def factor_once(path, panel):
    """One sample: load the system, factor it, print a JSON line.  panel
    "f64" is the baseline: a float64 no-pivot MMD splu of A^T with
    PANEL_SIZE; panel "ssor<k>" is the two SSOR sweep factors with panels
    of k."""
    import inspect
    import numpy as np
    import scipy.sparse as sp
    from uel import sparse_linalg
    A = sp.load_npz(path + ".npz")
    b = np.load(path + ".npy")
    t0 = time.perf_counter()
    if panel == "f64":
        lu = sparse_linalg._splu(A.T, **sparse_linalg._NO_PIVOT)
        factors = [sparse_linalg.LUFactor(lu)]
    elif panel.startswith("ssor"):
        sparse_linalg.PANEL_SIZE = int(panel[4:])
        sweeps = inspect.getclosurevars(sparse_linalg._ssor_apply(A, 1.5)).nonlocals
        factors = [sparse_linalg.LUFactor(sweeps[name]) for name in ("back", "fwd")]
    else:
        sparse_linalg.PANEL_SIZE = int(panel)
        factors = [sparse_linalg._factor(A, b)[0]]
    seconds = time.perf_counter() - t0
    factor = factors[0]
    print(json.dumps({"seconds": seconds,
                      "rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                      "fill": "+".join(str(f.lu.L.nnz + f.lu.U.nnz) for f in factors),
                      "dtype": np.dtype(factor.dtype).name,
                      "refinements": factor.refinements,
                      "note": factor.note}))


def child(*args):
    """Run this script in a fresh interpreter; returns its stdout."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    return subprocess.run([sys.executable, __file__, *map(str, args)], env=env,
                          check=True, capture_output=True, text=True).stdout


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--panels", default="1,2,4,6,8,20",
                    help="comma-separated panel sizes")
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--save", nargs=2, metavar=("INDEX", "PATH"),
                    help=argparse.SUPPRESS)
    ap.add_argument("--sample", nargs=2, metavar=("PATH", "PANEL"),
                    help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.save:
        save_system(int(args.save[0]), args.save[1])
        return
    if args.sample:
        factor_once(*args.sample)
        return
    sizes = args.panels.split(",")
    with tempfile.TemporaryDirectory() as tmp:
        for index, (scheme, domain_name, order, n) in enumerate(SYSTEMS):
            path = os.path.join(tmp, str(index))
            child("--save", index, path)
            panels = sizes + ["f64"]
            if scheme == "fem":
                panels += [f"ssor{k}" for k in sizes]
            runs = {panel: [] for panel in panels}
            for r in range(args.repeats):
                shift = r % len(panels)
                for panel in panels[shift:] + panels[:shift]:
                    out = child("--sample", path, panel)
                    runs[panel].append(json.loads(out.splitlines()[-1]))
            label = f"{scheme} {domain_name} {'p' if scheme == 'fd' else 'alpha'}={order} N={n}"
            for panel in panels:
                s = runs[panel]
                times = [x['seconds'] for x in s]
                seconds = f"{statistics.median(times):.4f} ({min(times):.4f}-{max(times):.4f})"
                rss = statistics.median(x['rss_mib'] for x in s)
                if panel == "f64":
                    print(f"{label:28s} float64 splu baseline  splu_s={seconds}  "
                          f"rss_mib={rss:.1f}  fill={s[0]['fill']}", flush=True)
                    continue
                if panel.startswith("ssor"):
                    print(f"{label:28s} SSOR sweeps panel={int(panel[4:]):2d}  "
                          f"sweep_s={seconds}  rss_mib={rss:.1f}  "
                          f"fill={s[0]['fill']}", flush=True)
                    continue
                print(f"{label:28s} panel={int(panel):2d}  factor_s={seconds}  "
                      f"rss_mib={rss:.1f}  fill={s[0]['fill']}  {s[0]['dtype']}  "
                      f"refinements={s[0]['refinements']}  "
                      f"note={s[0]['note'] or '-'}", flush=True)


if __name__ == "__main__":
    main()
