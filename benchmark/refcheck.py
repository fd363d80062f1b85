"""Correctness check of `uel` report rows against committed reference rows.

A grid solve fails when its row is missing (the sweep raised), when a column
naming the problem differs from the reference, when its residual is above
its solver's tolerance, or when an error norm differs from the reference by
more than ERR_RTOL relative.

ERR_RTOL = 1e-4.  Measured on the flower FEM (N = 80, 160): swapping the
solver at tolerance 1e-12 (SSOR-CG, Jacobi-CG, SuperLU) moves the norms by at
most 6.3e-7 relative, loosening the CG tolerance to 1e-11 by 1.4e-5; changing
the discretization (alpha 1.6 for 1.5, or p=1 for p=2 in FD) moves at least
one norm by 0.19 or more.  Iteration counts are not checked: a new solver
changes them legitimately.
"""

import csv
import math

ERR_RTOL = 1e-4
ERR_COLUMNS = ("err_u_l1", "err_u_l2", "err_u_linf",
               "err_g_l1", "err_g_l2", "err_g_linf")
# The problem a row solved; solver and preconditioner may change.
ID_COLUMNS = ("scheme", "domain", "bc", "p", "alpha", "N", "h")
# Relative residual accepted as converged: solve_direct's own threshold, and
# the CLI's default tolerance for every iterative solver.
DIRECT_TOL = 1e-10
ITERATIVE_TOL = 1e-12


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _float(text):
    try:
        return float(text)
    except (TypeError, ValueError):
        return math.nan


def row_problems(ref, got):
    """Reasons one reported row fails against its reference row."""
    problems = []
    for col in ID_COLUMNS:
        if got.get(col) != ref[col]:
            problems.append(f"{col}={got.get(col)!r}, reference {ref[col]!r}")
    tol = DIRECT_TOL if got.get("solver") == "direct" else ITERATIVE_TOL
    res = _float(got.get("residual"))
    if not res <= tol:
        problems.append(f"residual {got.get('residual')} above tolerance {tol}")
    for col in ERR_COLUMNS:
        want, have = _float(ref[col]), _float(got.get(col))
        if not abs(have - want) <= ERR_RTOL * abs(want):
            problems.append(f"{col}={have!r}, reference {want!r}")
    return problems


def check_rows(ref_rows, got_rows):
    """Compare reported rows with reference rows, one grid per row.

    Returns (attempted, failures) where failures maps N to a list of
    reasons; a reference grid without a reported row counts as failed.
    """
    by_n = {row.get("N"): row for row in got_rows}
    failures = {}
    for ref in ref_rows:
        got = by_n.get(ref["N"])
        problems = ["no row (the sweep raised)"] if got is None else row_problems(ref, got)
        if problems:
            failures[int(ref["N"])] = problems
    return len(ref_rows), failures
