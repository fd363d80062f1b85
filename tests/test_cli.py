import dataclasses
import json
import re
import tracemalloc

import numpy as np
import pytest

from conftest import (counted_splu, csr_bytes, omega_h_area, run_fd, run_fem,
                      traced_peak)
from uel import Grid, assemble_fem, make_bc_spec, make_case, make_domain, relative_error
from uel.analysis import NORM_BLOCK
from uel.cli import (CSV_COLUMNS, ExperimentConfig, main, parse_config, run,
                     run_single)
from uel.errors import ConfigurationError
from uel.fd_scheme import FdSystem, fd_gradient
from uel.fem_scheme import FemSystem, fem_gradient, solution_samples
from uel.geometry import NODE_INACTIVE, NODE_INTERIOR
from uel.sparse_linalg import CondEstimate


def test_parse_echo():
    cfg = parse_config(["--domain", "circle", "--scheme", "fem",
                        "--alpha", "1.7", "--grids", "40,80"])
    assert cfg.domain == "circle"
    assert cfg.scheme == "fem"
    assert cfg.alpha == 1.7
    assert cfg.grids == (40, 80)
    assert cfg.bc == "dirichlet"
    assert cfg.solver == "cg" and cfg.precond == "jacobi"


def test_fd_defaults():
    cfg = parse_config(["--domain", "leaf", "--scheme", "fd"])
    assert cfg.p == 2 and cfg.alpha is None
    assert cfg.solver == "direct" and cfg.precond is None
    assert cfg.tol_factor == 1e-4
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.solver = "cg"


def test_alpha_rejected_for_fd():
    with pytest.raises(ConfigurationError):
        parse_config(["--domain", "circle", "--scheme", "fd", "--alpha", "1.7"])


def test_p_rejected_for_fem():
    with pytest.raises(ConfigurationError):
        parse_config(["--domain", "circle", "--scheme", "fem", "--p", "2"])


def test_cg_rejected_for_fd():
    with pytest.raises(ConfigurationError):
        parse_config(["--domain", "circle", "--scheme", "fd", "--solver", "cg"])


@pytest.mark.parametrize("flag, scheme", [("--tol", "fem"), ("--tol-factor", "fd")])
@pytest.mark.parametrize("value", ("0", "-1", "nan", "inf", "-inf"))
def test_tolerances_must_be_finite_and_positive(monkeypatch, capsys, flag, scheme, value):
    # unchecked, a --tol-factor of 0, -1 or NaN never ends the boundary
    # bisection, and a --tol of -1 or NaN ends CG in a false "operator is
    # not positive definite"
    import uel.cli as cli

    def assemble(*args, **kwargs):
        raise AssertionError("a grid was assembled")

    monkeypatch.setattr(cli, "assemble_fd", assemble)
    monkeypatch.setattr(cli, "assemble_fem", assemble)
    assert main(["--domain", "flower", "--scheme", scheme, "--grids", "8",
                 f"{flag}={value}"]) == 1
    assert f"{flag} must be finite and positive, got {float(value)}" in capsys.readouterr().err


def test_grid_validation():
    with pytest.raises(ConfigurationError):
        parse_config(["--domain", "circle", "--scheme", "fd", "--grids", "40,80,60"])
    with pytest.raises(ConfigurationError):
        parse_config(["--domain", "circle", "--scheme", "fd", "--grids", "41,80"])


def test_empty_args_fail():
    with pytest.raises(ConfigurationError):
        parse_config([])
    assert main([]) == 1


def test_unknown_flag_exits_nonzero():
    with pytest.raises(SystemExit):
        parse_config(["--domain", "circle", "--scheme", "fd", "--bogus"])


def test_config_file_with_flag_override(tmp_path):
    cfgfile = tmp_path / "exp.json"
    cfgfile.write_text(json.dumps({
        "domain": "circle", "scheme": "fem", "alpha": 1.55,
        "grids": [40, 80], "bc": "mixed"}))
    cfg = parse_config(["--config", str(cfgfile), "--alpha", "1.85"])
    assert cfg.alpha == 1.85        # flag wins
    assert cfg.bc == "mixed"        # file value kept
    assert cfg.grids == (40, 80)


@pytest.mark.parametrize("payload,named", [
    ({"domain": "circle", "scheme": "fem", "domian": "circle"}, "'domian'"),
    ({"domain": "circle", "scheme": "fem", "alpha": "x"}, "'alpha'"),
    (["circle", "fem"], "JSON object"),
    ({"domain": "circle", "scheme": "fd", "solver": "foo"}, "solver 'foo'"),
    ({"domain": "circle", "scheme": "fd", "solver": "krylov"},
     "solver 'krylov': use direct"),
    ({"domain": "circle", "scheme": "fem", "precond": "ilu"},
     "preconditioner 'ilu'"),
    ({"domain": "circle", "scheme": "fd", "grids": [40.5, 80]}, "invalid grid list"),
    ({"domain": "circle", "scheme": "fd", "grids": [True]}, "invalid grid list")])
def test_bad_config_file_is_a_configuration_error(tmp_path, capsys, payload, named):
    cfgfile = tmp_path / "exp.json"
    cfgfile.write_text(json.dumps(payload))
    with pytest.raises(ConfigurationError, match=named):
        parse_config(["--config", str(cfgfile)])
    assert main(["--config", str(cfgfile)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err


def test_constant_case_fails_before_assembly(monkeypatch, capsys):
    # its gradient is zero, so err_g's reference norm is zero on every grid
    import uel.cli as cli

    def assemble(*args, **kwargs):
        raise AssertionError("a grid was assembled")

    monkeypatch.setattr(cli, "assemble_fd", assemble)
    monkeypatch.setattr(cli, "assemble_fem", assemble)
    for scheme in ("fd", "fem"):
        assert main(["--domain", "circle", "--scheme", scheme, "--grids", "16",
                     "--case", "constant"]) == 1
        err = capsys.readouterr().err
        assert "unknown case 'constant'" in err and "zero gradient" in err


def test_config_file_int_for_a_float_field_labels_rows_as_the_flag_does(tmp_path):
    # a JSON 2 for alpha is read as 2.0, so the rows and the config echo
    # match those of --alpha 2
    cfgfile = tmp_path / "exp.json"
    cfgfile.write_text(json.dumps({"domain": "circle", "scheme": "fem", "alpha": 2,
                                   "omega": 1, "grids": [8, 16]}))
    common = ["--no-timings", "--format", "both"]
    assert main(["--config", str(cfgfile), "--output", str(tmp_path / "file")] + common) == 0
    assert main(["--domain", "circle", "--scheme", "fem", "--alpha", "2", "--omega", "1",
                 "--grids", "8,16", "--output", str(tmp_path / "flag")] + common) == 0
    assert (tmp_path / "file.csv").read_bytes() == (tmp_path / "flag.csv").read_bytes()
    file, flag = (json.loads((tmp_path / f"{stem}.json").read_text())["config"]
                  for stem in ("file", "flag"))
    assert {**file, "output": None} == {**flag, "output": None}
    assert json.dumps(file["omega"]) == "1.0"


def small_config(tmp_path, **kw):
    base = dict(domain="circle", scheme="fd", p=2, grids=(8, 16),
                solver="direct", output=str(tmp_path / "report"),
                timings=False)
    base.update(kw)
    return ExperimentConfig(**base)


FEM = dict(scheme="fem", p=None, alpha=2.0, solver="cg", precond="jacobi")


@pytest.mark.parametrize("changed, named", [
    pytest.param(dict(solver="krylov"), "unknown solver 'krylov'", id="krylov"),
    pytest.param(dict(solver=None), "unknown solver None", id="None"),
    pytest.param(dict(scheme="xyz"), "unknown scheme 'xyz'", id="scheme"),
    pytest.param(dict(fmt="xml"), "unknown format 'xml'", id="fmt"),
    pytest.param(dict(FEM, alpha=None), "alpha must be in [1.5, 2], got None", id="fem-alpha"),
    pytest.param(dict(alpha=1.7), "--alpha applies to the fem scheme only", id="fd-alpha"),
    pytest.param(dict(FEM, precond=None), "solver=cg requires --precond", id="cg-precond"),
    pytest.param(dict(solver="cg", precond="jacobi"), "solver=cg needs a symmetric system",
                 id="fd-cg"),
    pytest.param(dict(grids=(16, 9)), "grid sizes must be even and >= 4, got 9", id="grids"),
    pytest.param(dict(case="constant"), "unknown case 'constant'", id="constant")])
def test_run_rejects_an_unknown_solver_before_assembly(tmp_path, monkeypatch, changed, named):
    # a configuration built in code keeps the rules parse_config's keeps:
    # an invalid one fails when built, before any grid or report
    import uel.cli as cli

    def assemble(*args, **kwargs):
        raise AssertionError("a grid was assembled")

    monkeypatch.setattr(cli, "assemble_fd", assemble)
    monkeypatch.setattr(cli, "assemble_fem", assemble)
    with pytest.raises(ConfigurationError, match=re.escape(named)) as info:
        run(small_config(tmp_path, **{"grids": (8,), **changed}))
    assert info.traceback[-1].name == "__post_init__"
    assert not (tmp_path / "report.csv").exists()


def test_run_writes_csv_with_exact_header(tmp_path):
    cfg = small_config(tmp_path)
    report = run(cfg)
    path = tmp_path / "report.csv"
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_COLUMNS
    assert len(lines) == 3
    n_cols = len(CSV_COLUMNS.split(","))
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == n_cols
        assert all(c != "" for c in cells)
    # first row has no order yet, fd rows have no alpha, timings disabled
    first = dict(zip(CSV_COLUMNS.split(","), lines[1].split(",")))
    assert first["order_u_linf"] == "n/a"
    assert first["alpha"] == "n/a"
    assert first["assemble_s"] == "n/a" and first["solve_s"] == "n/a"
    assert first["cond2"] == "n/a"
    assert len(report.rows) == 2
    # shortest round-trip notation: the CSV cell parses back to the exact value
    assert float(first["err_u_linf"]) == report.rows[0].err_u[2]
    assert float(first["h"]) == report.rows[0].h


def test_csv_byte_identical_across_runs(tmp_path):
    cfg1 = small_config(tmp_path, output=str(tmp_path / "a"))
    cfg2 = small_config(tmp_path, output=str(tmp_path / "b"))
    run(cfg1)
    run(cfg2)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_json_mirrors_csv(tmp_path):
    cfg = small_config(tmp_path, fmt="both")
    run(cfg)
    payload = json.loads((tmp_path / "report.json").read_text())
    assert "config" in payload and payload["config"]["domain"] == "circle"
    keys = CSV_COLUMNS.split(",")
    csv_lines = (tmp_path / "report.csv").read_text().splitlines()[1:]
    assert len(payload["rows"]) == len(csv_lines)
    for row, line in zip(payload["rows"], csv_lines):
        assert list(row.keys()) == keys or set(row.keys()) == set(keys)
        cells = line.split(",")
        for k, cell in zip(keys, cells):
            assert row[k] == (None if cell == "n/a" else cell)


def test_json_outcomes_flag_a_cond2_lower_bound(tmp_path, monkeypatch):
    import uel.cli as cli

    def unconverged(matrix, factor=None):
        return CondEstimate(123.0, False, "ARPACK did not converge; value is a lower bound")

    monkeypatch.setattr(cli, "estimate_cond2", unconverged)
    report = run(small_config(tmp_path, fmt="json", compute_cond=True))
    payload = json.loads((tmp_path / "report.json").read_text())
    assert [o["N"] for o in payload["outcomes"]] == [8, 16]
    for outcome, row in zip(payload["outcomes"], report.rows):
        assert outcome["cond2_lower_bound"] is True
        assert outcome["solver_note"] == ""
        assert outcome["cond2_note"] == "ARPACK did not converge; value is a lower bound"
        assert outcome["err_u_linf_nodal"] == row.err_u_linf_nodal > 0.0
    assert [r["cond2"] for r in payload["rows"]] == ["1.23e+02"] * 2


def test_json_outcomes_carry_the_cond2_note(tmp_path, monkeypatch):
    # an LU fallback inside the condition estimate reaches the report
    import uel.cli as cli

    note = ("no-pivot MMD factor rejected (refined residual 1.0e-06); "
            "fell back to COLAMD with partial pivoting")

    def refactored(matrix, factor=None):
        return CondEstimate(45.0, True, note)

    monkeypatch.setattr(cli, "estimate_cond2", refactored)
    run(small_config(tmp_path, fmt="json", compute_cond=True))
    payload = json.loads((tmp_path / "report.json").read_text())
    assert [o["cond2_note"] for o in payload["outcomes"]] == [note, note]
    assert [o["cond2_lower_bound"] for o in payload["outcomes"]] == [False, False]


@pytest.mark.parametrize("flag, estimated", [("--cond", [True, False]),
                                             ("--force-cond", [True, True])])
def test_cond_skips_grids_above_the_cap_unless_forced(tmp_path, monkeypatch, flag, estimated):
    import uel.cli as cli
    monkeypatch.setattr(cli, "COND_N_CAP", 40)
    assert main(["--domain", "circle", "--scheme", "fd", "--bc", "mixed", "--p", "2",
                 "--grids", "40,80", "--format", "json", "--no-timings", flag,
                 "--output", str(tmp_path / "report")]) == 0
    payload = json.loads((tmp_path / "report.json").read_text())
    # a skipped estimate reads n/a (null in JSON) and flags no lower bound
    assert [r["cond2"] is not None for r in payload["rows"]] == estimated
    assert [o["cond2_lower_bound"] is not None for o in payload["outcomes"]] == estimated


@pytest.mark.parametrize("solver", ("direct",))
def test_fd_cond_sweep_factors_each_grid_once(tmp_path, monkeypatch, solver):
    # the condition estimate reuses the LU of the solve
    from uel import Grid, assemble_fd, make_bc_spec, make_case, make_domain
    from uel.sparse_linalg import estimate_cond2
    calls = counted_splu(monkeypatch)
    report = run(small_config(tmp_path, solver=solver, compute_cond=True))
    assert [ordering for _, ordering in calls] == ["MMD_AT_PLUS_A"] * 2
    for row in report.rows:
        system = assemble_fd(Grid(row.n), make_domain("circle"),
                             make_case("paper_sin"),
                             make_bc_spec("circle", "dirichlet"), p=2)
        assert row.cond2 == estimate_cond2(system.matrix).value
        assert row.cond2_note == ""


def test_solve_fallback_to_colamd_reaches_the_cond2_note(tmp_path, monkeypatch):
    import uel.sparse_linalg as sparse_linalg
    # no refined residual passes: every no-pivot factor is rejected
    monkeypatch.setattr(sparse_linalg, "_REFINED_RESIDUAL_MAX", -1.0)
    calls = counted_splu(monkeypatch)
    run(small_config(tmp_path, fmt="json", compute_cond=True))
    assert calls == [(np.float32, "MMD_AT_PLUS_A"), (np.float64, "MMD_AT_PLUS_A"),
                     (np.float64, "COLAMD")] * 2
    payload = json.loads((tmp_path / "report.json").read_text())
    for outcome in payload["outcomes"]:
        assert outcome["solver_note"].startswith(
            "single-precision no-pivot MMD factor rejected (refined residual ")
        assert "; double-precision no-pivot MMD factor rejected (" in outcome["solver_note"]
        assert outcome["solver_note"].endswith(
            "fell back to COLAMD with partial pivoting")
        assert outcome["cond2_note"] == outcome["solver_note"]


def test_fd_row_iters_count_the_refinement_solves(tmp_path):
    from uel import Grid, assemble_fd, make_bc_spec, make_case, make_domain
    from uel.sparse_linalg import solve_direct
    report = run(small_config(tmp_path, grids=(32,)))
    system = assemble_fd(Grid(32), make_domain("circle"), make_case("paper_sin"),
                         make_bc_spec("circle", "dirichlet"), p=2)
    _, solve = solve_direct(system.matrix, system.rhs)
    assert solve.factor.dtype == np.float32
    assert report.rows[0].iters == solve.iterations == 1 + solve.factor.refinements
    assert report.rows[0].iters >= 2


def test_json_outcomes_carry_the_solver_note(tmp_path, monkeypatch):
    # SuperLU fails on every single-precision factor: the solve falls back to
    # double precision and the note says so
    import uel.sparse_linalg as sparse_linalg
    real = sparse_linalg.spla.splu

    def splu(M, *args, **kwargs):
        if M.dtype == np.float32:
            raise RuntimeError("Factor is exactly singular")
        return real(M, *args, **kwargs)

    monkeypatch.setattr(sparse_linalg.spla, "splu", splu)
    run(small_config(tmp_path, fmt="json"))
    payload = json.loads((tmp_path / "report.json").read_text())
    for outcome in payload["outcomes"]:
        assert outcome["solver_note"] == (
            "single-precision no-pivot MMD factor rejected (Factor is exactly "
            "singular); fell back to double-precision no-pivot MMD factor")
        assert outcome["cond2_lower_bound"] is None


def test_fd_run_builds_no_per_ghost_views(monkeypatch):
    # FdSystem.projections is built on access for the tracing harness only;
    # a run never reads it
    def projections(self):
        raise AssertionError("per-ghost views built during a run")

    monkeypatch.setattr(FdSystem, "projections", property(projections))
    cfg = ExperimentConfig(domain="flower", scheme="fd", p=2, bc="mixed",
                           grids=(40,), solver="direct", timings=False)
    row = run_single(cfg, 40, make_domain("flower"), make_case("paper_sin"),
                     make_bc_spec("flower", "mixed"))
    assert row.err_u[2] < 1e-2


def test_fem_run_builds_no_per_cell_views(monkeypatch):
    # FemSystem.cells is built on access for the tracing harness only; a
    # run never reads it
    def cells(self):
        raise AssertionError("per-cell views built during a run")

    monkeypatch.setattr(FemSystem, "cells", property(cells))
    cfg = ExperimentConfig(domain="flower", scheme="fem", alpha=1.5, bc="mixed",
                           grids=(40,), solver="cg", precond="jacobi", timings=False)
    row = run_single(cfg, 40, make_domain("flower"), make_case("paper_sin"),
                     make_bc_spec("flower", "mixed"))
    assert row.err_u[2] < 1e-2


def test_fem_row_reports_iterations(tmp_path):
    cfg = ExperimentConfig(domain="circle", scheme="fem", alpha=2.0,
                           grids=(16,), solver="cg", precond="jacobi",
                           output=str(tmp_path / "fem"), timings=False)
    report = run(cfg)
    row = report.rows[0]
    assert row.iters > 1
    assert row.residual <= 1e-12
    assert row.p is None


def full_array_errors(system, u, case):
    """(err_u, err_g, nodal Linf) by relative_error over the full arrays of
    the public sample functions."""
    xs, h = system.grid.xs, system.grid.h
    ii, jj = np.nonzero(system.classification.node_role == NODE_INTERIOR)
    u_nodal, u_nodal_ex = u[system.index[ii, jj]], case.u(xs[ii], xs[jj])
    if isinstance(system, FdSystem):
        u_h, u_ex, w = u_nodal, u_nodal_ex, np.full(len(ii), h * h)
        nodes, grads = fd_gradient(system, u)
        gpts, wg = xs[nodes], np.full(len(nodes), h * h)
    else:
        pts, w, u_h = solution_samples(system, u)
        u_ex = case.u(pts[:, 0], pts[:, 1])
        gpts, wg, grads = fem_gradient(system, u)
    g_ex = np.column_stack(case.grad_u(gpts[:, 0], gpts[:, 1]))
    return (tuple(relative_error(u_h, u_ex, beta, w) for beta in (1, 2, "inf")),
            tuple(relative_error(grads, g_ex, beta, wg) for beta in (1, 2, "inf")),
            relative_error(u_nodal, u_nodal_ex, "inf"))


def solved(scheme, domain, n, param):
    """(grid, system, u, case, {"p" or "alpha": param}) of one mixed-BC grid."""
    kw = {"p" if scheme == "fd" else "alpha": param}
    grid, system, u, _, case = (run_fd if scheme == "fd" else run_fem)(
        domain, "paper_sin", "mixed", n, **kw)
    return grid, system, u, case, kw


@pytest.mark.parametrize("scheme, domain, param, n, blocks", [
    ("fem", "circle", 2.0, 160, 4), ("fem", "flower", 1.5, 160, 2), ("fd", "circle", 2, 320, 2)])
def test_run_single_norms_equal_the_full_array_norms(scheme, domain, param, n, blocks):
    # run_single streams the u samples in blocks of NORM_BLOCK (FEM), or
    # feeds one block that ErrorNorms sums in NORM_BLOCK pieces (FD); the
    # norms of the full arrays give the same bits
    _, system, u, case, kw = solved(scheme, domain, n, param)
    m = sum(len(w) for _, w, _ in system.u_blocks(u))
    assert -(-m // NORM_BLOCK) == blocks
    cfg = ExperimentConfig(domain=domain, scheme=scheme, bc="mixed", grids=(n,),
                           solver="direct", timings=False, **kw)
    row = run_single(cfg, n, make_domain(domain), case, make_bc_spec(domain, "mixed"))
    assert (row.err_u, row.err_g, row.err_u_linf_nodal) == full_array_errors(system, u, case)


@pytest.mark.parametrize("domain", ["circle", "flower"])
@pytest.mark.parametrize("scheme, param", [("fd", 2), ("fem", 1.5), ("fem", 2.0)])
def test_systems_share_the_sample_interface(scheme, param, domain):
    grid, system, u, _, _ = solved(scheme, domain, 40, param)
    blocks = list(system.u_blocks(u))
    # each sample set with its field's trailing shape: u scalar, grad u a 2-vector
    for (pts, w, vals), tail in [(b, ()) for b in blocks] + [(system.gradient_samples(u), (2,))]:
        assert pts.shape == (len(w), 2) and vals.shape == (len(w),) + tail
        assert np.isfinite(pts).all() and np.isfinite(vals).all() and (w > 0).all()
    if scheme == "fd":
        area = grid.h ** 2 * np.count_nonzero(system.classification.node_role == NODE_INTERIOR)
    else:
        area = omega_h_area(system.classification, system.band)
    assert sum(w.sum() for _, w, _ in blocks) == pytest.approx(area, rel=1e-12)


@pytest.mark.parametrize("bc", ["dirichlet", "mixed"])
@pytest.mark.parametrize("domain", ["circle", "leaf", "flower", "hourglass"])
def test_fd_nodal_error_is_the_u_linf_error(domain, bc):
    # the FD u samples are the interior nodes, and the Linf sums ignore weights
    cfg = ExperimentConfig(domain=domain, scheme="fd", bc=bc, p=2, grids=(40,),
                           solver="direct", timings=False)
    row = run_single(cfg, 40, make_domain(domain), make_case("paper_sin"),
                     make_bc_spec(domain, bc))
    assert row.err_u_linf_nodal == row.err_u[2]


def test_fem_post_processing_peak_stays_within_the_assembly_guard():
    # with the Omega_h samples streamed, a FEM run at circle, mixed BC,
    # alpha=2, N=160 peaks at 3.4x the CSR matrix's bytes (assembly alone
    # 3.1x); materialized samples and their error arrays reached 5.8x
    args = (make_domain("circle"), make_case("paper_sin"), make_bc_spec("circle", "mixed"))
    matrix = assemble_fem(Grid(160), *args, alpha=2.0).matrix
    cfg = ExperimentConfig(domain="circle", scheme="fem", bc="mixed", alpha=2.0,
                           grids=(160,), solver="cg", precond="jacobi", timings=False)
    _, peak = traced_peak(lambda: run_single(cfg, 160, *args))
    assert peak <= 4.5 * csr_bytes(matrix)


def test_fd_solve_entry_holds_little_beside_the_matrix(monkeypatch):
    # the FD factor sets a run's peak, so what the run holds when it enters
    # the solve adds to that peak: at circle, mixed BC, p=2, N=320 it is
    # 1.33x the CSR matrix's bytes (the matrix, rhs, the int32 row map and
    # the geometry records); a stored (M, 2) int64 node list and the
    # float64 level-set grid took it to 1.82x
    import uel.cli as cli

    entry = []

    def probe(config, matrix, rhs):
        entry.append((tracemalloc.get_traced_memory()[0], csr_bytes(matrix)))
        return solve(config, matrix, rhs)

    solve = cli._solve
    monkeypatch.setattr(cli, "_solve", probe)
    cfg = ExperimentConfig(domain="circle", scheme="fd", bc="mixed", p=2, grids=(320,),
                           solver="direct", timings=False)
    args = (make_domain("circle"), make_case("paper_sin"), make_bc_spec("circle", "mixed"))
    traced_peak(lambda: run_single(cfg, 320, *args))
    memory, matrix_bytes = entry[-1]
    assert memory <= 1.4 * matrix_bytes


@pytest.mark.parametrize("domain", ["circle", "leaf", "flower", "hourglass"])
@pytest.mark.parametrize("scheme, param", [("fd", 2), ("fem", 1.5), ("fem", 2.0)])
def test_systems_derive_the_row_map_from_index(scheme, param, domain):
    # nodes is not stored: it is the active nodes in lexicographic order,
    # the order both assemblies number the rows in
    _, system, u, _, _ = solved(scheme, domain, 40, param)
    assert "nodes" not in {f.name for f in dataclasses.fields(system)}
    rows = system.matrix.shape[0]
    assert np.array_equal(system.index[tuple(system.nodes.T)], np.arange(rows))
    active = system.classification.node_role != NODE_INACTIVE
    if scheme == "fd":
        # extended ghosts are active without a role of their own
        active[tuple(system.ghosts.ghost.T)] = True
    nodes = np.argwhere(active)
    assert np.array_equal(system.nodes, nodes)
    if scheme == "fd":
        # fd_gradient's scatter through index gives the bits of a scatter
        # through the node list
        full = np.full(system.index.shape, np.nan)
        full[nodes[:, 0], nodes[:, 1]] = u
        gnodes, grads = fd_gradient(system, u)
        ii, jj = gnodes.T
        h = system.grid.h
        reference = np.column_stack([(full[ii + 1, jj] - full[ii - 1, jj]) / (2.0 * h),
                                     (full[ii, jj + 1] - full[ii, jj - 1]) / (2.0 * h)])
        assert np.array_equal(grads, reference)


def test_cond_column_populated_when_requested(tmp_path):
    cfg = small_config(tmp_path, compute_cond=True, grids=(8,))
    report = run(cfg)
    assert report.rows[0].cond2 is not None and report.rows[0].cond2 > 1.0


def test_flower_mixed_p1_gradient_first_order():
    # first-order gradient behavior of the 4-point stencil under mixed data
    cfg = ExperimentConfig(domain="flower", scheme="fd", p=1, bc="mixed",
                           grids=(40, 80, 160), solver="direct", timings=False)
    domain_rows = []
    from uel import make_bc_spec, make_case, make_domain
    domain = make_domain("flower")
    case = make_case("paper_sin")
    bc = make_bc_spec("flower", "mixed")
    for n in cfg.grids:
        domain_rows.append(run_single(cfg, n, domain, case, bc))
    hs = [r.h for r in domain_rows]
    errs = [r.err_g[1] for r in domain_rows]
    from uel.analysis import fitted_order
    assert 0.6 <= fitted_order(hs, errs) <= 1.6


def test_unconverged_solve_fails_the_run(tmp_path, capsys):
    # CG capped at 5 iterations: no row with meaningless errors is written
    out = tmp_path / "capped"
    code = main(["--scheme", "fem", "--domain", "circle", "--bc", "mixed",
                 "--grids", "40,80", "--maxit", "5", "--no-timings",
                 "--output", str(out)])
    assert code == 1
    assert not (tmp_path / "capped.csv").exists()
    err = capsys.readouterr().err
    assert "fem/circle (bc=mixed, N=40)" in err
    assert "did not converge" in err


@pytest.mark.parametrize("solver,target", [("direct", "solve_direct")])
def test_direct_residual_above_1e10_does_not_fail_the_run(
        tmp_path, monkeypatch, solver, target):
    # solve_direct flags converged=False above a fixed 1e-10 residual, which
    # fine FD grids reach although SuperLU solved them accurately
    import uel.cli as cli
    real = getattr(cli, target)

    def loose(*args, **kwargs):
        u, report = real(*args, **kwargs)
        report.final_residual = 1.5e-10
        report.converged = False
        return u, report

    monkeypatch.setattr(cli, target, loose)
    out = tmp_path / "loose"
    code = main(["--scheme", "fd", "--domain", "circle", "--bc", "mixed",
                 "--solver", solver, "--grids", "16,32", "--no-timings",
                 "--output", str(out)])
    assert code == 0
    lines = (tmp_path / "loose.csv").read_text().splitlines()
    assert len(lines) == 3
