"""Experiment harness: parse a configuration, sweep grids, run
scheme + solver + error analysis, and emit CSV/JSON convergence reports."""

import argparse
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from .analysis import (CASE_NAMES, ConvergenceReport, ReportRow, make_case,
                       relative_error)
from .errors import ConfigurationError, SolverError, UelError
from .fd_scheme import assemble_fd, fd_gradient
from .fem_scheme import (assemble_fem, fem_gradient, nodal_interior_values,
                         solution_samples)
from .geometry import (DOMAIN_NAMES, NODE_INTERIOR, Grid, classify,
                       make_bc_spec, make_domain, snap_small_cells)
from .sparse_linalg import (estimate_cond2, solve_cg, solve_direct,
                            solve_nonsymmetric)

CSV_COLUMNS = ("scheme,domain,bc,p,alpha,N,h,"
               "err_u_l1,err_u_l2,err_u_linf,err_g_l1,err_g_l2,err_g_linf,"
               "order_u_linf,order_g_linf,cond2,solver,precond,iters,residual,"
               "assemble_s,solve_s")

# Condition estimates above this grid are skipped unless forced.
COND_N_CAP = 320


@dataclass
class ExperimentConfig:
    """Validated run configuration (see parse_config for defaults)."""

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


def _parse_grids(text):
    try:
        grids = tuple(int(tok) for tok in text.split(",") if tok)
    except ValueError as exc:
        raise ConfigurationError(f"invalid grid list {text!r}") from exc
    if not grids:
        raise ConfigurationError("empty grid list")
    for g in grids:
        if g < 4 or g % 2:
            raise ConfigurationError(f"grid sizes must be even and >= 4, got {g}")
    if any(b <= a for a, b in zip(grids, grids[1:])):
        raise ConfigurationError(f"grid sizes must be strictly increasing, got {grids}")
    return grids


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="uel",
        description="Convergence/conditioning experiments for the unfitted "
                    "Poisson solvers (ghost-point FD and penalized FEM).")
    ap.add_argument("--config", help="JSON file with defaults; flags override it")
    ap.add_argument("--domain", choices=DOMAIN_NAMES)
    ap.add_argument("--scheme", choices=("fd", "fem"))
    ap.add_argument("--bc", choices=("dirichlet", "mixed"))
    ap.add_argument("--case", choices=CASE_NAMES)
    ap.add_argument("--p", type=int, help="FD interpolation order (1 or 2)")
    ap.add_argument("--alpha", type=float,
                    help="FEM snapping/penalty exponent in [1.5, 2]")
    ap.add_argument("--grids", help="comma-separated cell counts, e.g. 40,80,160,320")
    ap.add_argument("--solver", choices=("direct", "cg", "krylov"))
    ap.add_argument("--precond", choices=("none", "jacobi", "sor"))
    ap.add_argument("--omega", type=float, help="SOR relaxation factor")
    ap.add_argument("--cond", action="store_true",
                    help=f"estimate cond_2 of each system (skipped above N={COND_N_CAP})")
    ap.add_argument("--force-cond", action="store_true",
                    help="estimate cond_2 regardless of grid size")
    ap.add_argument("--tol-factor", type=float, help="boundary bisection tolerance in units of h")
    ap.add_argument("--tol", type=float, help="iterative solver relative tolerance")
    ap.add_argument("--maxit", type=int, help="iterative solver iteration cap")
    ap.add_argument("--output", help="output path stem (extension added per format)")
    ap.add_argument("--format", choices=("csv", "json", "both"), dest="fmt")
    ap.add_argument("--no-timings", action="store_true",
                    help="write n/a in the timing columns (reproducible output)")
    return ap


def parse_config(argv):
    """Parse CLI flags (plus an optional JSON config file) into a validated
    ExperimentConfig.  Flags override file values."""
    ap = _build_parser()
    if not argv:
        ap.print_usage(sys.stderr)
        raise ConfigurationError("no arguments given; --domain and --scheme are required")
    ns = ap.parse_args(argv)

    values = {}
    if ns.config:
        try:
            with open(ns.config) as fh:
                values.update(json.load(fh))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigurationError(f"cannot read config file {ns.config!r}: {exc}") from exc
    flag_map = {
        "domain": ns.domain, "scheme": ns.scheme, "bc": ns.bc, "case": ns.case,
        "p": ns.p, "alpha": ns.alpha, "grids": ns.grids, "solver": ns.solver,
        "precond": ns.precond, "omega": ns.omega,
        "compute_cond": True if ns.cond else None,
        "force_cond": True if ns.force_cond else None,
        "tol_factor": ns.tol_factor, "solver_tol": ns.tol, "maxit": ns.maxit,
        "output": ns.output, "fmt": ns.fmt,
        "timings": False if ns.no_timings else None,
    }
    values.update({k: v for k, v in flag_map.items() if v is not None})

    if "domain" not in values or "scheme" not in values:
        raise ConfigurationError("--domain and --scheme are required")
    if isinstance(values.get("grids"), str):
        values["grids"] = _parse_grids(values["grids"])
    elif "grids" in values:
        values["grids"] = _parse_grids(",".join(str(g) for g in values["grids"]))

    cfg = ExperimentConfig(**values)

    if cfg.domain not in DOMAIN_NAMES:
        raise ConfigurationError(f"unknown domain {cfg.domain!r}")
    if cfg.scheme not in ("fd", "fem"):
        raise ConfigurationError(f"unknown scheme {cfg.scheme!r}")
    if cfg.bc not in ("dirichlet", "mixed"):
        raise ConfigurationError(f"unknown bc {cfg.bc!r}")
    if cfg.case not in CASE_NAMES:
        raise ConfigurationError(f"unknown case {cfg.case!r}")
    if cfg.scheme == "fd":
        if cfg.alpha is not None:
            raise ConfigurationError("--alpha applies to the fem scheme only")
        cfg.p = 2 if cfg.p is None else cfg.p
        if cfg.p not in (1, 2):
            raise ConfigurationError(f"p must be 1 or 2, got {cfg.p}")
        cfg.solver = cfg.solver or "direct"
        if cfg.solver == "cg":
            raise ConfigurationError(
                "solver=cg needs a symmetric system; the fd scheme is "
                "nonsymmetric (use direct or krylov)")
    else:
        if cfg.p is not None:
            raise ConfigurationError("--p applies to the fd scheme only")
        cfg.alpha = 2.0 if cfg.alpha is None else cfg.alpha
        if not 1.5 <= cfg.alpha <= 2.0:
            raise ConfigurationError(f"alpha must be in [1.5, 2], got {cfg.alpha}")
        cfg.solver = cfg.solver or "cg"
    if cfg.precond is not None and cfg.solver != "cg":
        raise ConfigurationError("--precond requires solver=cg")
    if cfg.solver == "cg" and cfg.precond is None:
        cfg.precond = "jacobi"
    if not 0.0 < cfg.omega < 2.0:
        raise ConfigurationError(f"omega must be in (0, 2), got {cfg.omega}")
    if cfg.fmt not in ("csv", "json", "both"):
        raise ConfigurationError(f"unknown format {cfg.fmt!r}")
    return cfg


def _solve(config, matrix, rhs):
    """Solve with the configured solver.

    A CG run that stops at --maxit before reaching --tol raises, so its
    errors never reach a report row.  Direct solves are not gated on their
    residual: SuperLU already raises on a singular or non-finite result, and
    its residual grows with N past any fixed limit.  The krylov path falls
    back to LU whenever BiCGSTAB reports non-convergence.
    """
    if config.solver == "direct":
        return solve_direct(matrix, rhs)
    if config.solver == "krylov":
        return solve_nonsymmetric(matrix, rhs, tol=config.solver_tol,
                                  maxit=config.maxit)
    u, report = solve_cg(matrix, rhs, preconditioner=config.precond,
                         tol=config.solver_tol, maxit=config.maxit,
                         omega=config.omega)
    if not report.converged:
        raise SolverError(
            f"{report.method} did not converge: relative residual "
            f"{report.final_residual:.3e} after {report.iterations} iterations")
    return u, report


def _want_cond(config, n):
    if config.force_cond:
        return True
    return config.compute_cond and n <= COND_N_CAP


def run_single(config, n, domain, case, bc):
    """One grid of the sweep; returns a ReportRow."""
    grid = Grid(n)
    xs = grid.xs
    h = grid.h
    t0 = time.perf_counter()
    if config.scheme == "fd":
        system = assemble_fd(grid, domain, case, bc, p=config.p,
                             tol_factor=config.tol_factor)
        assemble_s = time.perf_counter() - t0
        u, report = _solve(config, system.matrix, system.rhs)

        role = system.classification.node_role
        ii, jj = np.nonzero(role == NODE_INTERIOR)
        u_h = u[system.index[ii, jj]]
        u_ex = case.u(xs[ii], xs[jj])
        w = np.full(len(u_h), h * h)
        err_u = tuple(relative_error(u_h, u_ex, b, w) for b in (1, 2, "inf"))
        gnodes, grads = fd_gradient(system, u)
        gx, gy = case.grad_u(xs[gnodes[:, 0]], xs[gnodes[:, 1]])
        g_ex = np.column_stack([gx, gy])
        wg = np.full(len(gnodes), h * h)
        err_g = tuple(relative_error(grads, g_ex, b, wg) for b in (1, 2, "inf"))
        nodal_linf = err_u[2]
    else:
        cls = snap_small_cells(classify(grid, domain, "eight"), grid, domain,
                               config.alpha)
        system = assemble_fem(grid, domain, case, bc, alpha=config.alpha,
                              classification=cls)
        assemble_s = time.perf_counter() - t0
        u, report = _solve(config, system.matrix, system.rhs)

        pts, w, u_h = solution_samples(system, u)
        u_ex = case.u(pts[:, 0], pts[:, 1])
        err_u = tuple(relative_error(u_h, u_ex, b, w) for b in (1, 2, "inf"))
        gpts, wg, grads = fem_gradient(system, u)
        gx, gy = case.grad_u(gpts[:, 0], gpts[:, 1])
        g_ex = np.column_stack([gx, gy])
        err_g = tuple(relative_error(grads, g_ex, b, wg) for b in (1, 2, "inf"))
        nodes, vals = nodal_interior_values(system, u)
        nodal_linf = relative_error(vals, case.u(xs[nodes[:, 0]], xs[nodes[:, 1]]),
                                    "inf")

    cond2 = None
    if _want_cond(config, n):
        cond2 = estimate_cond2(system.matrix).value

    return ReportRow(
        scheme=config.scheme, domain=config.domain, bc=config.bc,
        p=config.p, alpha=config.alpha, n=n, h=h,
        err_u=err_u, err_g=err_g, cond2=cond2,
        solver=report.method.split("+")[0] if config.solver != "cg" else "cg",
        precond=config.precond, iters=report.iterations,
        residual=report.final_residual,
        assemble_s=assemble_s if config.timings else None,
        solve_s=report.wall_time if config.timings else None,
        err_u_linf_nodal=nodal_linf)


def run(config):
    """Run the configured grid sweep and write the report files.

    Returns the ConvergenceReport.  Grid entries may run concurrently
    (UEL_THREADS caps the worker count); rows are ordered by N regardless.
    """
    domain = make_domain(config.domain)
    case = make_case(config.case)
    bc = make_bc_spec(config.domain, config.bc)

    workers = 1
    env = os.environ.get("UEL_THREADS")
    if env:
        try:
            workers = max(1, int(env))
        except ValueError as exc:
            raise ConfigurationError(f"UEL_THREADS must be an integer, got {env!r}") from exc

    def job(n):
        try:
            return run_single(config, n, domain, case, bc)
        except UelError as exc:
            raise UelError(
                f"{config.scheme}/{config.domain} (bc={config.bc}, N={n}): {exc}"
            ) from exc

    if workers > 1 and len(config.grids) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(job, config.grids))
    else:
        rows = [job(n) for n in config.grids]

    report = ConvergenceReport()
    for row in rows:
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
    keys = CSV_COLUMNS.split(",")
    rows = []
    for row in report.rows:
        cells = _row_cells(row)
        rows.append({k: (None if c == "n/a" else c) for k, c in zip(keys, cells)})
    payload = {"config": asdict(config), "rows": rows}
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
