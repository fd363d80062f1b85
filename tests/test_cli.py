import json
import os

import pytest

from uel.cli import (CSV_COLUMNS, ExperimentConfig, main, parse_config, run,
                     run_single)
from uel.errors import ConfigurationError


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


def test_alpha_rejected_for_fd():
    with pytest.raises(ConfigurationError):
        parse_config(["--domain", "circle", "--scheme", "fd", "--alpha", "1.7"])


def test_p_rejected_for_fem():
    with pytest.raises(ConfigurationError):
        parse_config(["--domain", "circle", "--scheme", "fem", "--p", "2"])


def test_cg_rejected_for_fd():
    with pytest.raises(ConfigurationError):
        parse_config(["--domain", "circle", "--scheme", "fd", "--solver", "cg"])


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


def small_config(tmp_path, **kw):
    base = dict(domain="circle", scheme="fd", p=2, grids=(8, 16),
                solver="direct", output=str(tmp_path / "report"),
                timings=False)
    base.update(kw)
    return ExperimentConfig(**base)


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


def test_threaded_sweep_matches_serial(tmp_path):
    cfg1 = small_config(tmp_path, output=str(tmp_path / "serial"), grids=(8, 16, 24))
    run(cfg1)
    os.environ["UEL_THREADS"] = "3"
    try:
        cfg2 = small_config(tmp_path, output=str(tmp_path / "threaded"), grids=(8, 16, 24))
        run(cfg2)
    finally:
        del os.environ["UEL_THREADS"]
    assert (tmp_path / "serial.csv").read_bytes() == (tmp_path / "threaded.csv").read_bytes()


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


def test_fem_row_reports_iterations(tmp_path):
    cfg = ExperimentConfig(domain="circle", scheme="fem", alpha=2.0,
                           grids=(16,), solver="cg", precond="jacobi",
                           output=str(tmp_path / "fem"), timings=False)
    report = run(cfg)
    row = report.rows[0]
    assert row.iters > 1
    assert row.residual <= 1e-12
    assert row.p is None


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


@pytest.mark.parametrize("solver,target", [("direct", "solve_direct"),
                                           ("krylov", "solve_nonsymmetric")])
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
