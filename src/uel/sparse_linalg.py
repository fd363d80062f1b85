"""Sparse direct and Krylov solvers with Jacobi/SSOR preconditioning, plus a
2-norm condition-number estimator (power iteration on A^T A)."""

import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ConfigurationError, SolverError

DIRECT_FALLBACK_SIZE = 200_000


@dataclass
class SolveReport:
    """Outcome of one linear solve; final_residual is the recomputed relative
    2-norm residual ||Ax - b|| / ||b||."""

    method: str
    iterations: int
    final_residual: float
    converged: bool
    wall_time: float
    note: str = ""


def _true_residual(A, x, b):
    bn = np.linalg.norm(b)
    if bn == 0.0:
        return float(np.linalg.norm(A @ x))
    return float(np.linalg.norm(b - A @ x) / bn)


def solve_direct(A, b):
    """Sparse LU solve (SuperLU with partial pivoting).

    Returns (x, SolveReport); raises SolverError on a singular factorization.
    """
    t0 = time.perf_counter()
    try:
        lu = spla.splu(sp.csc_matrix(A))
        x = lu.solve(np.asarray(b, dtype=float))
    except RuntimeError as exc:
        raise SolverError(f"sparse LU factorization failed: {exc}") from exc
    res = _true_residual(A, x, b)
    report = SolveReport("direct", 1, res, res <= 1e-10, time.perf_counter() - t0)
    if not np.all(np.isfinite(x)):
        raise SolverError("direct solve produced non-finite entries (singular system?)")
    return x, report


def _jacobi_apply(A):
    d = A.diagonal()
    if np.any(d == 0.0):
        raise SolverError("Jacobi preconditioner needs a zero-free diagonal")
    return lambda r: r / d


def _ssor_apply(A, omega):
    if not 0.0 < omega < 2.0:
        raise ConfigurationError(f"SOR relaxation factor must be in (0, 2), got {omega}")
    d = A.diagonal()
    if np.any(d == 0.0):
        raise SolverError("SSOR preconditioner needs a zero-free diagonal")
    lower = (sp.tril(A, -1) + sp.diags(d / omega)).tocsr()
    upper = (sp.triu(A, 1) + sp.diags(d / omega)).tocsr()
    scale = (2.0 - omega) / omega

    def apply(r):
        y = spla.spsolve_triangular(lower, r, lower=True)
        y = d * y
        z = spla.spsolve_triangular(upper, y, lower=False)
        return scale * z

    return apply


def solve_cg(A, b, preconditioner="none", tol=1e-12, maxit=10000, omega=1.5):
    """Preconditioned conjugate gradients for symmetric positive-definite
    systems.

    preconditioner is "none", "jacobi" or "sor" (applied as a symmetric
    forward+backward sweep, so it stays SPD).  Iterations start from zero.
    A non-converged run returns a report with converged=False rather than
    raising.

    Returns (x, SolveReport).
    """
    t0 = time.perf_counter()
    A = sp.csr_matrix(A)
    b = np.asarray(b, dtype=float)
    n = A.shape[0]
    if preconditioner == "none":
        apply_m = lambda r: r
    elif preconditioner == "jacobi":
        apply_m = _jacobi_apply(A)
    elif preconditioner == "sor":
        apply_m = _ssor_apply(A, omega)
    else:
        raise ConfigurationError(f"unknown preconditioner {preconditioner!r}")

    b_norm = np.linalg.norm(b)
    if b_norm == 0.0:
        return np.zeros(n), SolveReport(f"cg+{preconditioner}", 0, 0.0, True,
                                        time.perf_counter() - t0)
    x = np.zeros(n)
    r = b - A @ x
    z = apply_m(r)
    p = z.copy()
    rz = float(r @ z)
    iterations = 0
    converged = False
    for _ in range(maxit):
        Ap = A @ p
        pAp = float(p @ Ap)
        if pAp <= 0.0:
            raise SolverError("CG breakdown: operator is not positive definite")
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        iterations += 1
        if np.linalg.norm(r) / b_norm <= tol:
            # guard against drift of the recurrence residual
            r = b - A @ x
            if np.linalg.norm(r) / b_norm <= tol:
                converged = True
                break
        z = apply_m(r)
        rz_new = float(r @ z)
        beta = rz_new / rz
        p = z + beta * p
        rz = rz_new
    res = _true_residual(A, x, b)
    return x, SolveReport(f"cg+{preconditioner}", iterations, res, converged,
                          time.perf_counter() - t0)


def solve_nonsymmetric(A, b, tol=1e-12, maxit=10000,
                       direct_threshold=DIRECT_FALLBACK_SIZE):
    """Solver for general (ghost-point) systems: sparse LU below the size
    threshold, BiCGSTAB with an incomplete-LU preconditioner above it, with a
    direct fallback on breakdown.

    Returns (x, SolveReport).
    """
    A = sp.csr_matrix(A)
    n = A.shape[0]
    if n < direct_threshold:
        x, report = solve_direct(A, b)
        report.method = "direct"
        report.note = f"direct fallback below n={direct_threshold}"
        return x, report
    t0 = time.perf_counter()
    b = np.asarray(b, dtype=float)
    try:
        ilu = spla.spilu(sp.csc_matrix(A), drop_tol=1e-5, fill_factor=10.0)
        M = spla.LinearOperator(A.shape, ilu.solve)
        count = {"k": 0}

        def cb(_):
            count["k"] += 1

        x, info = spla.bicgstab(A, b, rtol=tol, atol=0.0, maxiter=maxit, M=M,
                                callback=cb)
        if info != 0:
            raise SolverError(f"BiCGSTAB did not converge (info={info})")
        res = _true_residual(A, x, b)
        return x, SolveReport("bicgstab+ilu", count["k"], res, res <= tol,
                              time.perf_counter() - t0)
    except (SolverError, RuntimeError) as exc:
        x, report = solve_direct(A, b)
        report.note = f"BiCGSTAB breakdown, direct fallback ({exc})"
        return x, report


@dataclass
class CondEstimate:
    """2-norm condition estimate sigma_max / sigma_min; converged is False
    when either power iteration hit its iteration cap (the value is then a
    lower bound)."""

    value: float
    sigma_max: float
    sigma_min: float
    converged: bool
    note: str = ""


def estimate_cond2(A, tol=1e-3, maxit=500, seed=0):
    """Estimate cond_2(A) = sigma_max / sigma_min.

    sigma_max comes from power iteration on A^T A; sigma_min from inverse
    power iteration on (A^T A)^-1 through one sparse LU of A.
    """
    A = sp.csr_matrix(A)
    n = A.shape[0]
    if n == 0:
        raise ConfigurationError("cannot estimate the condition of an empty matrix")
    At = A.T.tocsr()
    try:
        lu = spla.splu(sp.csc_matrix(A))
    except RuntimeError as exc:
        raise SolverError(f"condition estimate needs a nonsingular matrix: {exc}") from exc
    rng = np.random.default_rng(seed)

    def power(step):
        v = rng.standard_normal(n)
        v /= np.linalg.norm(v)
        est_prev = 0.0
        converged = False
        for _ in range(maxit):
            w = step(v)
            nw = np.linalg.norm(w)
            if nw == 0.0:
                raise SolverError("power iteration collapsed to the null vector")
            est = nw
            v = w / nw
            if abs(est - est_prev) <= tol * est:
                converged = True
                break
            est_prev = est
        return est, converged

    mu_max, ok_max = power(lambda v: At @ (A @ v))
    sigma_max = float(np.sqrt(mu_max))
    mu_inv, ok_min = power(lambda v: lu.solve(lu.solve(v, trans="T"), trans="N"))
    sigma_min = float(1.0 / np.sqrt(mu_inv))
    converged = ok_max and ok_min
    note = "" if converged else "iteration cap reached; value is a lower bound"
    return CondEstimate(sigma_max / sigma_min, sigma_max, sigma_min, converged, note)
