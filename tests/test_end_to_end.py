"""End-to-end checks of what users see: committed golden report rows and the
README library sketch."""

import csv
import math
from pathlib import Path

import pytest

from uel.cli import parse_config, run

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

# golden CSV -> CLI flags that produced it (with --no-timings)
GOLDEN_RUNS = {
    "fd-circle-mixed-p2.csv": ["--scheme", "fd", "--domain", "circle", "--bc", "mixed",
                               "--p", "2", "--grids", "16,32,64"],
    "fd-flower-mixed-p1.csv": ["--scheme", "fd", "--domain", "flower", "--bc", "mixed",
                               "--p", "1", "--grids", "32,64"],
    "fem-circle-mixed-a2.csv": ["--scheme", "fem", "--domain", "circle", "--bc", "mixed",
                                "--alpha", "2", "--grids", "16,32,64"],
    "fem-flower-mixed-a1.5-sor.csv": ["--scheme", "fem", "--domain", "flower",
                                      "--bc", "mixed", "--alpha", "1.5",
                                      "--precond", "sor", "--grids", "32,64"],
}

EXACT_COLUMNS = ("scheme", "domain", "bc", "p", "alpha", "N", "h", "solver", "precond")
# iters, residual, cond2 and the timings can move between BLAS builds
CLOSE_COLUMNS = ("err_u_l1", "err_u_l2", "err_u_linf", "err_g_l1", "err_g_l2",
                 "err_g_linf", "order_u_linf", "order_g_linf")


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_report_rows_match_golden(name, tmp_path):
    config = parse_config(GOLDEN_RUNS[name] + ["--no-timings",
                                               "--output", str(tmp_path / "run")])
    run(config)
    got = read_rows(tmp_path / "run.csv")
    want = read_rows(GOLDEN / name)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        for col in EXACT_COLUMNS:
            assert g[col] == w[col], (name, w["N"], col)
        for col in CLOSE_COLUMNS:
            if w[col] == "n/a":
                assert g[col] == "n/a", (name, w["N"], col)
            else:
                assert math.isclose(float(g[col]), float(w[col]), rel_tol=1e-10), \
                    (name, w["N"], col, g[col], w[col])


def test_readme_library_sketch_runs():
    # the package-root exports must keep every name the README imports
    text = (ROOT / "README.md").read_text()
    start = text.index("```python\n") + len("```python\n")
    code = text[start:text.index("```", start)]
    exec(compile(code, "README.md", "exec"), {"__name__": "readme_sketch"})
