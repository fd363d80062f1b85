"""Experiment harness: parse a configuration, sweep grids, run
scheme + solver + error analysis, and emit CSV/JSON convergence reports."""

import argparse
import json
import sys
import time
from dataclasses import asdict, dataclass, fields

import numpy as np

from .analysis import (CASE_NAMES, ConvergenceReport, ErrorNorms, ReportRow,
                       make_case, relative_error)
from .errors import ConfigurationError, SolverError, UelError
from .fd_scheme import assemble_fd
from .fem_scheme import assemble_fem, nodal_interior_values
from .geometry import DOMAIN_NAMES, Grid, make_bc_spec, make_domain
from .sparse_linalg import estimate_cond2, solve_cg, solve_direct

CSV_COLUMNS = ("scheme,domain,bc,p,alpha,N,h,"
               "err_u_l1,err_u_l2,err_u_linf,err_g_l1,err_g_l2,err_g_linf,"
               "order_u_linf,order_g_linf,cond2,solver,precond,iters,residual,"
               "assemble_s,solve_s")

# The allowed values of each enumerated field.  The argparse options and
# ExperimentConfig's checks both read this table.  The constant case is left
# out: its gradient is zero, so no row could report a relative gradient error.
CHOICES = {"domain": DOMAIN_NAMES, "scheme": ("fd", "fem"), "bc": ("dirichlet", "mixed"),
           "case": tuple(c for c in CASE_NAMES if c != "constant"), "solver": ("direct", "cg"),
           "precond": ("none", "jacobi", "sor"), "fmt": ("csv", "json", "both")}
# How an unknown value's message names its field, and the hint after it.
_NAMED = {"precond": "preconditioner", "fmt": "format"}
_HINT = {"solver": ": use direct, or cg for the fem scheme",
         "case": (f": use {', '.join(CHOICES['case'])}; constant has a zero gradient, "
                  "which leaves the relative gradient error undefined")}

# Condition estimates above this grid are skipped unless forced.
COND_N_CAP = 320


@dataclass(frozen=True)
class ExperimentConfig:
    """A run configuration that checks itself: building an invalid one, from
    the command line or in code, raises ConfigurationError.  None means no
    value; parse_config fills the scheme defaults."""

    domain: str
    scheme: str
    bc: str = "dirichlet"
    case: str = "paper_sin"
    p: int = None
    alpha: float = None
    grids: tuple = (40, 80, 160, 320)
    solver: str = None
    precond: str = None
    omega: float = 1.5
    compute_cond: bool = False
    force_cond: bool = False
    tol_factor: float = 1e-4
    solver_tol: float = 1e-12
    maxit: int = 10000
    output: str = "uel_report"
    fmt: str = "csv"
    timings: bool = True

    def __post_init__(self):
        for name, allowed in CHOICES.items():
            value = getattr(self, name)
            if value not in allowed and (name, value) != ("precond", None):
                raise ConfigurationError(
                    f"unknown {_NAMED.get(name, name)} {value!r}{_HINT.get(name, '')}")
        if self.scheme == "fd":
            if self.alpha is not None:
                raise ConfigurationError("--alpha applies to the fem scheme only")
            if self.p not in (1, 2):
                raise ConfigurationError(f"p must be 1 or 2, got {self.p}")
            if self.solver == "cg":
                raise ConfigurationError(
                    "solver=cg needs a symmetric system; the fd scheme is "
                    "nonsymmetric (use direct)")
        else:
            if self.p is not None:
                raise ConfigurationError("--p applies to the fd scheme only")
            if self.alpha is None or not 1.5 <= self.alpha <= 2.0:
                raise ConfigurationError(f"alpha must be in [1.5, 2], got {self.alpha}")
        if (self.precond is None) == (self.solver == "cg"):
            raise ConfigurationError("--precond requires solver=cg" if self.precond
                                     else "solver=cg requires --precond")
        if not 0.0 < self.omega < 2.0:
            raise ConfigurationError(f"omega must be in (0, 2), got {self.omega}")
        for flag, value in (("--tol", self.solver_tol), ("--tol-factor", self.tol_factor)):
            if not 0.0 < value < np.inf:
                raise ConfigurationError(f"{flag} must be finite and positive, got {value}")
        if not self.grids:
            raise ConfigurationError("empty grid list")
        for g in self.grids:
            if g < 4 or g % 2:
                raise ConfigurationError(f"grid sizes must be even and >= 4, got {g}")
        if any(b <= a for a, b in zip(self.grids, self.grids[1:])):
            raise ConfigurationError(
                f"grid sizes must be strictly increasing, got {self.grids}")


def _parse_grids(grids):
    """The grid sizes of a "40,80" string or a JSON list.  Each entry is
    read from its text, so 40.5 or true is an invalid grid list."""
    text = grids if isinstance(grids, str) else ",".join(str(g) for g in grids)
    try:
        return tuple(int(tok) for tok in text.split(",") if tok)
    except ValueError as exc:
        raise ConfigurationError(f"invalid grid list {text!r}") from exc


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="uel",
        description="Convergence/conditioning experiments for the unfitted "
                    "Poisson solvers (ghost-point FD and penalized FEM).")
    ap.add_argument("--config", help="JSON file with defaults; flags override it")
    ap.add_argument("--domain", choices=CHOICES["domain"])
    ap.add_argument("--scheme", choices=CHOICES["scheme"])
    ap.add_argument("--bc", choices=CHOICES["bc"])
    # checked by ExperimentConfig, whose message says why constant is refused
    ap.add_argument("--case", help=f"manufactured solution: {', '.join(CHOICES['case'])}")
    ap.add_argument("--p", type=int, help="FD interpolation order (1 or 2)")
    ap.add_argument("--alpha", type=float,
                    help="FEM snapping/penalty exponent in [1.5, 2]")
    ap.add_argument("--grids", help="comma-separated cell counts, e.g. 40,80,160,320")
    ap.add_argument("--solver", choices=CHOICES["solver"])
    ap.add_argument("--precond", choices=CHOICES["precond"])
    ap.add_argument("--omega", type=float, help="SOR relaxation factor")
    ap.add_argument("--cond", action="store_const", const=True, dest="compute_cond",
                    help=f"estimate cond_2 of each system (skipped above N={COND_N_CAP})")
    ap.add_argument("--force-cond", action="store_const", const=True,
                    help="estimate cond_2 regardless of grid size")
    ap.add_argument("--tol-factor", type=float, help="boundary bisection tolerance in units of h")
    ap.add_argument("--tol", type=float, dest="solver_tol", metavar="TOL",
                    help="iterative solver relative tolerance")
    ap.add_argument("--maxit", type=int, help="iterative solver iteration cap")
    ap.add_argument("--output", help="output path stem (extension added per format)")
    ap.add_argument("--format", choices=CHOICES["fmt"], dest="fmt")
    ap.add_argument("--no-timings", action="store_const", const=False, dest="timings",
                    help="write n/a in the timing columns (reproducible output)")
    return ap


def _read_config_file(path):
    """Values of a JSON config file, keyed by ExperimentConfig field; a key
    that is no field, or a value of the wrong JSON type, is rejected."""
    try:
        with open(path) as fh:
            values = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigurationError(f"cannot read config file {path!r}: {exc}") from exc
    if not isinstance(values, dict):
        raise ConfigurationError(f"config file {path!r} must hold a JSON object")
    kinds = {f.name: f.type for f in fields(ExperimentConfig)}
    # JSON types per field type; grids may be a list or a "40,80" string
    accepted = {float: (int, float), int: int, bool: bool, str: str, tuple: (list, str)}
    for key, value in values.items():
        if key not in kinds:
            raise ConfigurationError(f"unknown config key {key!r} in {path!r}")
        kind = kinds[key]
        if isinstance(value, bool) != (kind is bool) or not isinstance(value, accepted[kind]):
            raise ConfigurationError(
                f"config key {key!r} must be {kind.__name__}, got {value!r}")
        if kind is float:
            # as a flag's value would be: 2 and 2.0 label a row alike
            values[key] = float(value)
    return values


def parse_config(argv):
    """Parse CLI flags (plus an optional JSON config file) into an
    ExperimentConfig, with the scheme defaults filled in.  Flags override
    file values."""
    ap = _build_parser()
    if not argv:
        ap.print_usage(sys.stderr)
        raise ConfigurationError("no arguments given; --domain and --scheme are required")
    flags = vars(ap.parse_args(argv))
    path = flags.pop("config")
    values = _read_config_file(path) if path else {}
    values.update({k: v for k, v in flags.items() if v is not None})

    if "domain" not in values or "scheme" not in values:
        raise ConfigurationError("--domain and --scheme are required")
    if "grids" in values:
        values["grids"] = _parse_grids(values["grids"])
    defaults = (dict(p=2, solver="direct") if values["scheme"] == "fd"
                else dict(alpha=2.0, solver="cg"))
    values = {**defaults, **values}
    if values["solver"] == "cg":
        values.setdefault("precond", "jacobi")
    return ExperimentConfig(**values)


def _solve(config, matrix, rhs):
    """Solve with the configured solver.

    A CG run that stops at --maxit before reaching --tol raises, so its
    errors never reach a report row.  Direct solves are not gated on their
    residual: SuperLU already raises on a singular or non-finite result, and
    its residual grows with N past any fixed limit.
    """
    if config.solver == "direct":
        return solve_direct(matrix, rhs)
    u, report = solve_cg(matrix, rhs, preconditioner=config.precond,
                         tol=config.solver_tol, maxit=config.maxit,
                         omega=config.omega)
    if not report.converged:
        raise SolverError(
            f"{report.method} did not converge: relative residual "
            f"{report.final_residual:.3e} after {report.iterations} iterations")
    return u, report


def solution_errors(system, u, case):
    """The relative (L1, L2, Linf) errors of u and of its gradient over the
    system's samples (u_blocks, gradient_samples), and the relative Linf
    error at its interior nodes, for an FD or FEM system solved by u."""
    # the u samples stream through in the blocks the norms sum
    norms = ErrorNorms()
    for pts, w, u_h in system.u_blocks(u):
        norms.add(u_h, case.u(pts[:, 0], pts[:, 1]), w)
    err_u = norms.relative_errors()
    pts, w, grads = system.gradient_samples(u)
    g_ex = np.column_stack(case.grad_u(pts[:, 0], pts[:, 1]))
    err_g = ErrorNorms().add(grads, g_ex, w).relative_errors()
    nodes, vals = nodal_interior_values(system, u)
    pts = system.grid.xs[nodes]
    nodal_linf = relative_error(vals, case.u(pts[:, 0], pts[:, 1]), "inf")
    return err_u, err_g, nodal_linf


def run_single(config, n, domain, case, bc):
    """One grid of the sweep; returns a ReportRow."""
    grid = Grid(n)
    t0 = time.perf_counter()
    if config.scheme == "fd":
        system = assemble_fd(grid, domain, case, bc, p=config.p,
                             tol_factor=config.tol_factor)
    else:
        system = assemble_fem(grid, domain, case, bc, alpha=config.alpha)
    assemble_s = time.perf_counter() - t0
    # the geometry is built inside the assembly: nothing past it reads the
    # level-set grid, so free it before the solve
    system.classification.phi_node = None
    u, report = _solve(config, system.matrix, system.rhs)

    cond2 = cond2_lower_bound = None
    cond2_note = ""
    if config.force_cond or (config.compute_cond and n <= COND_N_CAP):
        # a direct solve's LU serves the estimate too (report.factor is None
        # after CG)
        estimate = estimate_cond2(system.matrix, factor=report.factor)
        cond2, cond2_lower_bound = estimate.value, not estimate.converged
        cond2_note = estimate.note
    # neither the LU nor the matrix is needed past this point: free both
    # before post-processing
    report.factor = system.matrix = None

    err_u, err_g, nodal_linf = solution_errors(system, u, case)

    return ReportRow(
        scheme=config.scheme, domain=config.domain, bc=config.bc,
        p=config.p, alpha=config.alpha, n=n, h=grid.h,
        err_u=err_u, err_g=err_g, cond2=cond2,
        solver=config.solver,
        precond=config.precond, iters=report.iterations,
        residual=report.final_residual,
        assemble_s=assemble_s if config.timings else None,
        solve_s=report.wall_time if config.timings else None,
        err_u_linf_nodal=nodal_linf, cond2_lower_bound=cond2_lower_bound,
        solver_note=report.note, cond2_note=cond2_note)


def run(config):
    """Run the configured grid sweep and write the report files.

    Returns the ConvergenceReport.  The grids run one after another, in
    the order given (increasing N).
    """
    domain = make_domain(config.domain)
    case = make_case(config.case)
    bc = make_bc_spec(config.domain, config.bc)

    report = ConvergenceReport()
    for n in config.grids:
        try:
            row = run_single(config, n, domain, case, bc)
        except UelError as exc:
            raise UelError(
                f"{config.scheme}/{config.domain} (bc={config.bc}, N={n}): {exc}"
            ) from exc
        report.add(row)

    if config.fmt in ("csv", "both"):
        write_csv(report, _out_path(config, "csv"))
    if config.fmt in ("json", "both"):
        write_json(report, config, _out_path(config, "json"))
    return report


def _out_path(config, ext):
    stem = config.output
    if stem.endswith(".csv") or stem.endswith(".json"):
        stem = stem.rsplit(".", 1)[0]
    return f"{stem}.{ext}"


def _fmt(value):
    """Shortest round-trip scientific notation; integers plain; n/a literal."""
    if value is None:
        return "n/a"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return np.format_float_scientific(value, unique=True, trim="-")


def _row_cells(row):
    return [
        row.scheme, row.domain, row.bc, _fmt(row.p), _fmt(row.alpha),
        _fmt(row.n), _fmt(row.h),
        _fmt(row.err_u[0]), _fmt(row.err_u[1]), _fmt(row.err_u[2]),
        _fmt(row.err_g[0]), _fmt(row.err_g[1]), _fmt(row.err_g[2]),
        _fmt(row.order_u_linf), _fmt(row.order_g_linf), _fmt(row.cond2),
        row.solver, row.precond if row.precond else "n/a",
        _fmt(row.iters), _fmt(row.residual),
        _fmt(row.assemble_s), _fmt(row.solve_s),
    ]


def write_csv(report, path):
    lines = [CSV_COLUMNS]
    lines.extend(",".join(_row_cells(row)) for row in report.rows)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def write_json(report, config, path):
    """JSON report: the CSV rows, plus per-grid outcomes the CSV header has
    no column for (whether cond2 is only a lower bound, the solver's and
    the condition estimate's fallback notes, and the nodal Linf error at
    interior nodes)."""
    keys = CSV_COLUMNS.split(",")
    rows, outcomes = [], []
    for row in report.rows:
        cells = _row_cells(row)
        rows.append({k: (None if c == "n/a" else c) for k, c in zip(keys, cells)})
        outcomes.append({"N": row.n, "cond2_lower_bound": row.cond2_lower_bound,
                         "solver_note": row.solver_note, "cond2_note": row.cond2_note,
                         "err_u_linf_nodal": row.err_u_linf_nodal})
    payload = {"config": asdict(config), "rows": rows, "outcomes": outcomes}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    try:
        config = parse_config(argv)
        report = run(config)
    except UelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for row in report.rows:
        print(f"N={row.n:4d}  err_u_linf={_fmt(row.err_u[2])}  "
              f"err_g_linf={_fmt(row.err_g[2])}  "
              f"order_u={_fmt(row.order_u_linf)}  cond2={_fmt(row.cond2)}  "
              f"iters={row.iters}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
