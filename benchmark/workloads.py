"""Workload definitions shared by run.py, its worker process (child.py),
the reference generator and the self-tests.

A workload is a list of stages; each stage is the argument list of one
`uel` invocation (one `uel.cli.run` over a grid list).  The stages of a
workload run in order in one fresh interpreter.
"""

import os

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(BENCH_DIR, "reference")

WORKLOADS = {
    # Cut-cell extraction dominates FEM assembly (ROADMAP item 2).
    "fem-circle": [
        ["--scheme", "fem", "--domain", "circle", "--bc", "mixed",
         "--alpha", "2", "--grids", "80,160,320"],
    ],
    # SuperLU dominates; no cut cells are built (ROADMAP item 3).
    "fd-circle": [
        ["--scheme", "fd", "--domain", "circle", "--bc", "mixed",
         "--p", "2", "--grids", "160,320,640"],
    ],
    # Non-convex domain, wider snapping band, SSOR-CG and cond2 estimates.
    "flower-cond": [
        ["--scheme", "fd", "--domain", "flower", "--bc", "mixed", "--cond",
         "--p", "2", "--grids", "80,160,320"],
        ["--scheme", "fem", "--domain", "flower", "--bc", "mixed", "--cond",
         "--alpha", "1.5", "--precond", "sor", "--grids", "80,160,320"],
    ],
}


def reference_path(workload, stage):
    """Committed `--no-timings` CSV of one stage of a workload."""
    return os.path.join(REFERENCE_DIR, f"{workload}.{stage}.csv")


def stage_grids(argv):
    """Grid sizes named by a stage's --grids flag."""
    return [int(tok) for tok in argv[argv.index("--grids") + 1].split(",")]
