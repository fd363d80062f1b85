"""Traced run of a workload, measured from outside the `uel` package.

`traced_run_single` calls the public layer functions that
`uel.cli.run_single` calls, in the same order and with the same arguments,
and records a span around each call.  Calls `run_single` does not make
(the classification and ghost projections inside `assemble_fd`, the cut
cells inside `assemble_fem`) are repeated standalone as probe spans after
each grid, outside the `cli.run_single` spans that make up
`cli.traced_run_s`.  Counts come from the objects the pipeline returns.
"""

import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

from uel import cli
from uel.analysis import ConvergenceReport, ReportRow, make_case, relative_error
from uel.fd_scheme import assemble_fd, fd_gradient
from uel.fem_scheme import (assemble_fem, fem_gradient, nodal_interior_values,
                            solution_samples)
from uel.geometry import (CELL_CUT, CELL_SNAPPED, NODE_GHOST, NODE_INTERIOR,
                          Grid, classify, extract_cut_cells, make_bc_spec,
                          make_domain, project_to_boundary, snap_small_cells)
from uel.sparse_linalg import (estimate_cond2, solve_cg, solve_direct,
                               solve_nonsymmetric)

# Per-layer metric -> span name whose durations it sums.
SPAN_METRICS = {
    "geometry.classify_s": "geometry.classify",
    "geometry.project_to_boundary_s": "geometry.project_to_boundary",
    "geometry.snap_small_cells_s": "geometry.snap_small_cells",
    "geometry.extract_cut_cells_s": "geometry.extract_cut_cells",
    "fd_scheme.assemble_fd_s": "fd_scheme.assemble_fd",
    "fd_scheme.fd_gradient_s": "fd_scheme.fd_gradient",
    "fem_scheme.assemble_fem_s": "fem_scheme.assemble_fem",
    "fem_scheme.solution_samples_s": "fem_scheme.solution_samples",
    "fem_scheme.fem_gradient_s": "fem_scheme.fem_gradient",
    "sparse_linalg.solve_direct_s": "sparse_linalg.solve_direct",
    "sparse_linalg.solve_cg_s": "sparse_linalg.solve_cg",
    "sparse_linalg.estimate_cond2_s": "sparse_linalg.estimate_cond2",
    "analysis.relative_error_s": "analysis.relative_error",
    "cli.traced_run_s": "cli.run_single",
}
COUNT_METRICS = (
    "geometry.ghost_nodes", "geometry.cut_cells", "geometry.snapped_cells",
    "geometry.polygon_cells", "fd_scheme.rows", "fd_scheme.nnz",
    "fd_scheme.extended_ghosts", "fd_scheme.enlarged_stencils",
    "fem_scheme.rows", "fem_scheme.nnz", "fem_scheme.quad_points",
    "sparse_linalg.cg_iters", "sparse_linalg.not_converged",
)
# Metrics derived from other measurements rather than read from one span or
# count; the self times subtract probe spans, not child spans.
DERIVED = {
    "fd_scheme.assemble_fd_self_s":
        "fd_scheme.assemble_fd_s - FD probes of geometry.classify and "
        "geometry.project_to_boundary (run again standalone)",
    "fem_scheme.assemble_fem_self_s":
        "fem_scheme.assemble_fem_s - geometry.extract_cut_cells_s "
        "(cut cells extracted again standalone)",
    "geometry.cut_useful_frac":
        "(CELL_CUT cells + cells carrying boundary segments) / polygon_cells",
    "sparse_linalg.cg_s_per_iter": "solve_cg_s / cg_iters",
}


class Tracer:
    """Spans kept in memory: name, start, end, parent and attributes."""

    def __init__(self):
        self.spans = []
        self._open = []
        self._origin = time.perf_counter()

    @contextmanager
    def span(self, name, **attrs):
        record = {"id": len(self.spans), "name": name,
                  "parent": self._open[-1] if self._open else None, **attrs}
        self.spans.append(record)
        self._open.append(record["id"])
        record["start"] = time.perf_counter() - self._origin
        try:
            yield record
        finally:
            record["end"] = time.perf_counter() - self._origin
            self._open.pop()

    def call(self, name, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)


def _solve(tr, config, matrix, rhs):
    if config.solver == "direct":
        return tr.call("sparse_linalg.solve_direct", solve_direct, matrix, rhs)
    if config.solver == "cg":
        return tr.call("sparse_linalg.solve_cg", solve_cg, matrix, rhs,
                       preconditioner=config.precond, tol=config.solver_tol,
                       maxit=config.maxit, omega=config.omega)
    return tr.call("sparse_linalg.solve_nonsymmetric", solve_nonsymmetric,
                   matrix, rhs, tol=config.solver_tol, maxit=config.maxit)


def _errors(tr, values, exact, weights):
    return tuple(tr.call("analysis.relative_error", relative_error,
                         values, exact, beta, weights)
                 for beta in (1, 2, "inf"))


def traced_run_single(tr, counts, config, n, domain, case, bc):
    """Mirror of uel.cli.run_single with a span around each layer call;
    probes and counts follow outside the cli.run_single span.  Returns
    the ReportRow."""
    grid = Grid(n)
    xs = grid.xs
    h = grid.h
    with tr.span("cli.run_single", scheme=config.scheme, domain=config.domain,
                 n=n):
        t0 = time.perf_counter()
        if config.scheme == "fd":
            system = tr.call("fd_scheme.assemble_fd", assemble_fd, grid, domain,
                             case, bc, p=config.p, tol_factor=config.tol_factor)
            assemble_s = time.perf_counter() - t0
            u, report = _solve(tr, config, system.matrix, system.rhs)

            role = system.classification.node_role
            ii, jj = np.nonzero(role == NODE_INTERIOR)
            u_h = u[system.index[ii, jj]]
            u_ex = case.u(xs[ii], xs[jj])
            err_u = _errors(tr, u_h, u_ex, np.full(len(u_h), h * h))
            gnodes, grads = tr.call("fd_scheme.fd_gradient", fd_gradient, system, u)
            gx, gy = case.grad_u(xs[gnodes[:, 0]], xs[gnodes[:, 1]])
            err_g = _errors(tr, grads, np.column_stack([gx, gy]),
                            np.full(len(gnodes), h * h))
            nodal_linf = err_u[2]
        else:
            raw = tr.call("geometry.classify", classify, grid, domain, "eight")
            cls = tr.call("geometry.snap_small_cells", snap_small_cells, raw,
                          grid, domain, config.alpha)
            system = tr.call("fem_scheme.assemble_fem", assemble_fem, grid,
                             domain, case, bc, alpha=config.alpha,
                             classification=cls)
            assemble_s = time.perf_counter() - t0
            u, report = _solve(tr, config, system.matrix, system.rhs)

            pts, w, u_h = tr.call("fem_scheme.solution_samples",
                                  solution_samples, system, u)
            err_u = _errors(tr, u_h, case.u(pts[:, 0], pts[:, 1]), w)
            gpts, wg, grads = tr.call("fem_scheme.fem_gradient", fem_gradient,
                                      system, u)
            gx, gy = case.grad_u(gpts[:, 0], gpts[:, 1])
            err_g = _errors(tr, grads, np.column_stack([gx, gy]), wg)
            nodes, vals = tr.call("fem_scheme.nodal_interior_values",
                                  nodal_interior_values, system, u)
            nodal_linf = tr.call(
                "analysis.relative_error", relative_error, vals,
                case.u(xs[nodes[:, 0]], xs[nodes[:, 1]]), "inf")

        cond2 = None
        if config.force_cond or (config.compute_cond and n <= cli.COND_N_CAP):
            cond2 = tr.call("sparse_linalg.estimate_cond2", estimate_cond2,
                            system.matrix).value

    if config.scheme == "fd":
        _fd_probes(tr, counts, config, system, grid, domain, n)
    else:
        _fem_probes(tr, counts, system, domain, n, len(w))
    if config.solver == "cg":
        counts["sparse_linalg.cg_iters"] += report.iterations
    counts["sparse_linalg.not_converged"] += int(not report.converged)

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


def _fd_probes(tr, counts, config, system, grid, domain, n):
    ghosts = np.argwhere(system.classification.node_role == NODE_GHOST)
    with tr.span("geometry.classify", probe=True, n=n):
        classify(grid, domain, "four")
    with tr.span("geometry.project_to_boundary", probe=True, n=n,
                 calls=len(ghosts)):
        for gi, gj in ghosts:
            project_to_boundary((int(gi), int(gj)), domain, grid,
                                config.tol_factor)
    counts["geometry.ghost_nodes"] += len(ghosts)
    counts["fd_scheme.rows"] += system.matrix.shape[0]
    counts["fd_scheme.nnz"] += system.matrix.nnz
    counts["fd_scheme.extended_ghosts"] += len(system.projections) - len(ghosts)
    counts["fd_scheme.enlarged_stencils"] += sum(
        proj.enlarged for proj in system.projections.values())


def _fem_probes(tr, counts, system, domain, n, quad_points):
    with tr.span("geometry.extract_cut_cells", probe=True, n=n):
        extract_cut_cells(system.classification, domain)
    role = system.classification.cell_role
    counts["geometry.cut_cells"] += int(np.count_nonzero(role == CELL_CUT))
    counts["geometry.snapped_cells"] += int(np.count_nonzero(role == CELL_SNAPPED))
    counts["geometry.polygon_cells"] += len(system.cells)
    counts["geometry.useful_cells"] += sum(
        1 for (ci, cj), cut in system.cells.items()
        if role[ci, cj] == CELL_CUT or cut.boundary_segments)
    counts["fem_scheme.rows"] += system.matrix.shape[0]
    counts["fem_scheme.nnz"] += system.matrix.nnz
    counts["fem_scheme.quad_points"] += quad_points


def traced_sweep(configs):
    """Traced run of every stage of a workload.

    Returns (tracer, counts, reports) with one ConvergenceReport per stage.
    """
    tr = Tracer()
    counts = Counter()
    reports = []
    for config in configs:
        domain = make_domain(config.domain)
        case = make_case(config.case)
        bc = make_bc_spec(config.domain, config.bc)
        report = ConvergenceReport()
        for n in config.grids:
            report.add(traced_run_single(tr, counts, config, n, domain, case, bc))
        reports.append(report)
    return tr, counts, reports


def layer_metrics(spans, counts):
    """Per-layer metrics from the spans and counts of one traced run
    (everything except cli.trace_overhead_s, which needs an untraced run)."""
    totals = Counter()
    for s in spans:
        totals[s["name"]] += s["end"] - s["start"]
    fd_probes = sum(s["end"] - s["start"] for s in spans
                    if s.get("probe") and s["name"] in
                    ("geometry.classify", "geometry.project_to_boundary"))
    m = {metric: totals[name] for metric, name in SPAN_METRICS.items()}
    m.update({name: int(counts[name]) for name in COUNT_METRICS})
    m["fd_scheme.assemble_fd_self_s"] = m["fd_scheme.assemble_fd_s"] - fd_probes
    m["fem_scheme.assemble_fem_self_s"] = (m["fem_scheme.assemble_fem_s"]
                                           - m["geometry.extract_cut_cells_s"])
    m["geometry.cut_useful_frac"] = (counts["geometry.useful_cells"]
                                     / counts["geometry.polygon_cells"]
                                     if counts["geometry.polygon_cells"] else 0.0)
    m["sparse_linalg.cg_s_per_iter"] = (m["sparse_linalg.solve_cg_s"]
                                        / counts["sparse_linalg.cg_iters"]
                                        if counts["sparse_linalg.cg_iters"] else 0.0)
    return m


def self_times(spans):
    """Per span name: summed duration minus the part its child spans cover
    (children of one span run one after another, so they never overlap)."""
    out = Counter()
    for s in spans:
        out[s["name"]] += s["end"] - s["start"]
        if s["parent"] is not None:
            out[spans[s["parent"]]["name"]] -= s["end"] - s["start"]
    return dict(out)


def shares(spans):
    """Share of cli.traced_run_s per span name.  Probe spans are included:
    they repeat work done inside an assembly span, so their share is part of
    that span's share."""
    total = sum(s["end"] - s["start"] for s in spans if s["name"] == "cli.run_single")
    out = Counter()
    for s in spans:
        if s["name"] != "cli.run_single":
            out[s["name"]] += (s["end"] - s["start"]) / total
    return dict(sorted(out.items(), key=lambda kv: -kv[1]))
