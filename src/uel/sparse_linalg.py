"""Sparse LU and conjugate-gradient solvers (CG with Jacobi/SSOR
preconditioning), plus a 2-norm condition-number estimator (ARPACK Lanczos
on A^T A and on its inverse).

Every general LU goes through ``_factor``.  It takes A as canonical CSR
and hands SuperLU, which reads compressed columns, the CSC reading of A's
arrays: that is A^T, so the factor copies nothing of A, and ``LUFactor``
solves with A through SuperLU's transposed solve.  The factor uses the
minimum-degree ordering of A^T + A, symmetric mode and no pivoting (the
ghost-point and Nitsche matrices are nearly structurally symmetric, so
this keeps the fill at about half of COLAMD's) and panels of
``PANEL_SIZE`` columns.  The factor is made in single precision when
every stored value of A is a normal float32, and its solve is refined
against the float64 A (mixed-precision iterative refinement), so the
answer has double-precision accuracy from a factor whose values take half
the memory.  A factor whose refined solve is non-finite or leaves a
relative residual above ``_REFINED_RESIDUAL_MAX`` is discarded for the
next one: the same factor in double precision, then COLAMD with partial
pivoting; the factor's note names each one rejected.  ``solve_direct``
hands its factor on in ``SolveReport.factor``, and ``estimate_cond2``
takes it instead of factoring A again.  The SSOR preconditioner of CG
makes two no-fill factors of triangles of A instead, and runs both of its
sweeps as SuperLU's transposed solve (``_ssor_apply``).
"""

import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ConfigurationError, SolverError

# About 500x the worst refined residual of the no-pivot factor on the FD and
# FEM systems; a larger one means a tiny pivot blew up the factor.
_REFINED_RESIDUAL_MAX = 1e-8

# Refinement stops when a step no longer halves the relative residual; the
# single-precision factors of the FD and FEM systems stop after 3-5 steps
# (FD N=40..640, FEM N=40..320), at the double-precision residual.
_REFINE_STEPS_MAX = 10

# SuperLU's panel width (its default is 20), for every factor (_splu).  On
# the benchmark's FD and FEM matrices every width gives the same fill, and
# narrower panels take less workspace.  With panels of 1, _factor at FD
# circle N=640 takes 1.15 s (1.08-1.40 over 5 repeats) and 183.9 MiB, with 2
# 1.15 s (1.08-1.29) and 186.3 MiB; on the other matrices 1 times within
# the spread of 2's repeats (tools/lu_panel.py --panels 1,2 --repeats 5,
# 2 vCPUs, one BLAS thread).  The two factors of the SSOR sweeps take
# 0.016 s and 75.0 MiB at FEM flower N=320 with 1, 0.015 s and 75.5 MiB
# with 2 (--repeats 3).  Earlier runs gave 191 MiB with 4, and 229 MiB and
# the slowest factor with 20.
PANEL_SIZE = 1

_NO_PIVOT = {"permc_spec": "MMD_AT_PLUS_A", "diag_pivot_thresh": 0.0,
             "options": {"SymmetricMode": True}}

_SINGLE = np.finfo(np.float32)

# LUFactor holds a factor of A^T, so a solve with A is SuperLU's transposed one
_FLIP = {"N": "T", "T": "N"}


@dataclass
class LUFactor:
    """A SuperLU factor of A^T, from the CSC reading of A's CSR arrays, in
    precision dtype (float32 or float64); solve flips trans, so that it
    solves with A.

    note names the factors rejected before this one and is empty for the
    first one tried; refinements counts the refinement steps of the solve
    that accepted it."""

    lu: spla.SuperLU
    dtype: type = np.float64
    note: str = ""
    refinements: int = 0

    def solve(self, r, trans="N"):
        """A^-1 r (A^-T r for trans="T") as float64; a single-precision
        factor solves r rounded to float32."""
        return np.asarray(self.lu.solve(r.astype(self.dtype, copy=False),
                                        trans=_FLIP[trans]), dtype=float)


@dataclass
class SolveReport:
    """Outcome of one linear solve; final_residual is the recomputed relative
    2-norm residual ||Ax - b|| / ||b||.  factor is the LU a direct solve
    used (None for CG), for estimate_cond2 to reuse."""

    method: str
    iterations: int
    final_residual: float
    converged: bool
    wall_time: float
    note: str = ""
    factor: LUFactor = None


def _join_notes(*notes):
    return "; ".join(n for n in notes if n)


def _fits_single(values):
    """True when every value is zero or a normal float32 in magnitude, so
    casting to float32 neither overflows nor underflows.  Checked a block
    at a time, with no full-size temporary."""
    block = 1 << 16
    for start in range(0, len(values), block):
        a = np.abs(values[start:start + block])
        if not np.all((a == 0.0) | ((a >= _SINGLE.tiny) & (a <= _SINGLE.max))):
            return False
    return True


def _refined_solve(A, b, factor):
    """Solve A x = b with factor, then refine x += LU^-1 (b - A x) against A
    while a step at least halves the relative residual, for at most
    _REFINE_STEPS_MAX steps.  A step that does not lower the residual is
    discarded.  Returns (x, residual, steps taken)."""
    bn = np.linalg.norm(b) or 1.0
    x = factor.solve(b)
    r = b - A @ x
    res = float(np.linalg.norm(r) / bn)
    steps = 0
    # a non-finite x gives a non-finite residual, which fails res > 0
    while res > 0.0 and steps < _REFINE_STEPS_MAX:
        steps += 1
        y = x + factor.solve(r)
        r_y = b - A @ y
        res_y = float(np.linalg.norm(r_y) / bn)
        if not res_y < res:
            break
        x, r, res, prev = y, r_y, res_y, res
        if res > 0.5 * prev:
            break
    return x, res, steps


def _splu(A, **options):
    """SuperLU's splu of the CSC matrix A with panels of PANEL_SIZE columns;
    every factor in this module, the SSOR sweep included, is made here."""
    return spla.splu(A, panel_size=PANEL_SIZE, **options)


def _factor(A, b):
    """Sparse LU of A checked on the solve of A x = b.

    A is taken as canonical CSR, and SuperLU factors the CSC reading of its
    arrays, which is A^T: the float32 attempt shares A's indices and
    indptr, the float64 attempt copies nothing, and LUFactor.solve flips
    trans to solve with A.  Tries, in order: the no-pivot MMD factor of A^T
    rounded to float32 (only when every stored value of A is zero or a
    normal float32), the same factor in float64, and COLAMD with partial
    pivoting.  Each factor's solve is refined against the float64 CSR A
    (_refined_solve), and a factor is kept when its refined relative
    residual is finite and at most _REFINED_RESIDUAL_MAX; the last one is
    kept whatever its residual.  The kept factor's note names each factor
    rejected before it and why.

    Returns (LUFactor, x, residual), residual being the relative residual
    of x.  Raises SolverError when the COLAMD factor is singular too.
    """
    A = sp.csr_matrix(A)
    if not A.has_canonical_format:
        A = A.copy()
        A.sum_duplicates()
    b = np.asarray(b, dtype=float)
    attempts = [("double-precision no-pivot MMD factor", np.float64, _NO_PIVOT),
                ("COLAMD with partial pivoting", np.float64, {})]
    if _fits_single(A.data):
        attempts.insert(0, ("single-precision no-pivot MMD factor",
                            np.float32, _NO_PIVOT))
    rejected = []
    for name, dtype, options in attempts:
        last = name == attempts[-1][0]
        try:
            lu = _splu(sp.csc_matrix((A.data.astype(dtype, copy=False),
                                      A.indices, A.indptr), shape=A.shape),
                       **options)
        except RuntimeError as exc:
            if last:
                raise SolverError(f"sparse LU factorization failed: {exc}") from exc
            rejected.append(f"{name} rejected ({exc})")
            continue
        factor = LUFactor(lu, dtype, _join_notes(
            *rejected, f"fell back to {name}" if rejected else ""))
        with np.errstate(all="ignore"):
            x, res, factor.refinements = _refined_solve(A, b, factor)
        if res <= _REFINED_RESIDUAL_MAX or last:
            return factor, x, res
        rejected.append(f"{name} rejected (refined residual {res:.1e})")


def solve_direct(A, b):
    """Sparse LU solve.

    _factor factors A^T, read from A's CSR arrays without a copy, with the
    MMD ordering of A^T + A, no pivoting and panels of PANEL_SIZE columns,
    in single precision when A's values fit, and refines the solve against
    A until a step no longer halves the relative residual.  If that factor
    fails or its refined residual is above 1e-8, the next factor is tried
    (double precision, then COLAMD with partial pivoting) and report.note
    names the fallback.  report.iterations counts the factor's solves
    (1 + refinement steps).
    report.factor is the factor used; pass it to estimate_cond2 to
    estimate cond_2(A) without a second LU.

    Returns (x, SolveReport); raises SolverError on a singular factorization
    or a non-finite solution.
    """
    t0 = time.perf_counter()
    factor, x, res = _factor(A, b)
    if not np.all(np.isfinite(x)):
        raise SolverError("direct solve produced non-finite entries (singular system?)")
    return x, SolveReport("direct", 1 + factor.refinements, res, res <= 1e-10,
                          time.perf_counter() - t0, factor.note, factor)


def _jacobi_apply(A):
    d = A.diagonal()
    if np.any(d <= 0.0):
        raise SolverError("Jacobi preconditioner: CG needs a positive diagonal")
    return lambda r: r / d


def _ssor_apply(A, omega):
    """The SSOR preconditioner r -> (2-w)/w (D/w + L^T)^-1 D (D/w + L)^-1 r
    of A = L + D + L^T, as a function of r.

    Both sweeps are SuperLU's transposed solve, about twice as fast as its
    plain one on these triangles.  back factors D/w + L, so back^-T is the
    backward sweep; fwd factors J (D/w + L^T) J, J reversing the index
    order, so the forward sweep is (D/w + L)^-1 r = J fwd^-T J r.  Without
    ordering or pivoting the factor of a triangle has no fill and no column
    updates, so both sweeps are bit-identical at any PANEL_SIZE."""
    if not 0.0 < omega < 2.0:
        raise ConfigurationError(f"SOR relaxation factor must be in (0, 2), got {omega}")
    d = A.diagonal()
    if np.any(d <= 0.0):
        raise SolverError("SSOR preconditioner: CG needs a positive diagonal")
    lower = sp.tril(A, -1, format="csr") + sp.diags(d / omega)
    lower.sort_indices()
    n, nnz = A.shape[0], lower.nnz
    # the CSC arrays of J (D/w + L^T) J are the CSR arrays of J (D/w + L) J:
    # those of D/w + L read backwards
    flipped = sp.csc_matrix((lower.data[::-1].copy(), n - 1 - lower.indices[::-1],
                             nnz - lower.indptr[::-1]), shape=A.shape)
    back, fwd = (_splu(M, permc_spec="NATURAL", diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True})
                 for M in (lower.tocsc(), flipped))
    scale = (2.0 - omega) / omega
    return lambda r: scale * back.solve(d * fwd.solve(r[::-1], trans="T")[::-1],
                                        trans="T")


def solve_cg(A, b, preconditioner="none", tol=1e-12, maxit=10000, omega=1.5):
    """Preconditioned conjugate gradients for symmetric positive-definite
    systems.

    preconditioner is "none", "jacobi" or "sor"; the last two need a
    positive diagonal.  The SSOR sweeps are SuperLU's transposed solves
    with two no-fill, no-pivot factors made with panels of PANEL_SIZE
    columns: one of D/omega + L for the backward sweep and one of D/omega
    + L^T in reversed index order for the forward sweep (_ssor_apply), so
    the preconditioner (2-omega)/omega (D/omega + L^T)^-1 D (D/omega + L)^-1
    stays SPD.
    Iterations start from zero.
    A non-converged run returns a report with converged=False rather than
    raising; a tol that is not finite and positive raises ConfigurationError.

    Returns (x, SolveReport).
    """
    t0 = time.perf_counter()
    A = sp.csr_matrix(A)
    b = np.asarray(b, dtype=float)
    n = A.shape[0]
    if not 0.0 < tol < np.inf:
        raise ConfigurationError(f"CG tolerance must be finite and positive, got {tol}")
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
    res = float(np.linalg.norm(b - A @ x) / b_norm)
    return x, SolveReport(f"cg+{preconditioner}", iterations, res, converged,
                          time.perf_counter() - t0)


# Only the benchmark's tracing mirror imports this name.  Its third _solve
# branch, the one that calls it, is unreachable now that ExperimentConfig
# rejects solver=krylov; ROADMAP item 1 deletes both.
solve_nonsymmetric = solve_direct


@dataclass
class CondEstimate:
    """2-norm condition estimate sigma_max / sigma_min, a lower bound;
    converged is False when ARPACK did not converge (a looser one then)."""

    value: float
    converged: bool
    note: str = ""


# ARPACK's tolerance and subspace sizes.  On the six flower-cond systems (N=80..320)
# they take 120 operator applications in all and land within 3.1e-3 of a tol=1e-10
# value; tol=1e-3 with ncv=12 gets within 3e-5 but takes 0.46 s more.
_COND_TOL = 1e-2
_COND_NCV = 8
_COND_NCV_INV = 3


def _largest_eigenvalue(apply, n, ncv):
    """(value, converged) for the largest eigenvalue of the SPD operator
    apply, by ARPACK Lanczos from a fixed start vector v0.  Converged, the
    value is within _COND_TOL relative of an eigenvalue (the largest unless
    the top ones are closer than that); unconverged, it is v0's Rayleigh
    quotient.  Either way it is at most the largest eigenvalue."""
    v0 = np.random.default_rng(0).standard_normal(n)
    if n > 1:   # a 1 x 1 operator's Rayleigh quotient is its eigenvalue
        try:
            op = spla.LinearOperator((n, n), matvec=apply, dtype=float)
            return float(spla.eigsh(op, k=1, ncv=min(ncv, n), tol=_COND_TOL, v0=v0,
                                    return_eigenvectors=False)[0]), True
        except spla.ArpackNoConvergence:
            pass
        except spla.ArpackError as exc:   # a non-finite operator
            raise SolverError(f"condition estimate failed: {exc}") from exc
    return float(v0 @ apply(v0) / (v0 @ v0)), n == 1


def estimate_cond2(A, factor=None):
    """Estimate cond_2(A) = sigma_max / sigma_min.

    sigma_max^2 and sigma_min^-2 are the largest eigenvalues of A^T A and
    A^-1 A^-T (_largest_eigenvalue), so the value is a lower bound, within
    about _COND_TOL relative when converged.  The inverse uses factor, the
    LUFactor a direct solve of A made (SolveReport.factor), or else factors
    A as solve_direct does, checked on A x = A 1; a single-precision
    factor's solves take one refinement step each (within about 1e-6 of a
    double-precision factor's estimate).  The note names any LU fallback.
    """
    A = sp.csr_matrix(A)
    n = A.shape[0]
    if n == 0:
        raise ConfigurationError("cannot estimate the condition of an empty matrix")
    At = A.T
    if factor is None:
        try:
            factor = _factor(A, A @ np.ones(n))[0]
        except SolverError as exc:
            raise SolverError(
                f"condition estimate needs a nonsingular matrix: {exc}") from exc

    def solve(M, r, trans):
        x = factor.solve(r, trans)
        return x + factor.solve(r - M @ x, trans) if factor.dtype == np.float32 else x

    mu_max, ok_max = _largest_eigenvalue(lambda v: At @ (A @ v), n, _COND_NCV)
    mu_inv, ok_min = _largest_eigenvalue(
        lambda v: solve(A, solve(At, v, "T"), "N"), n, _COND_NCV_INV)
    converged = ok_max and ok_min
    note = _join_notes(factor.note, "" if converged else
                       "ARPACK did not converge; value is a lower bound")
    return CondEstimate(float(np.sqrt(mu_max) * np.sqrt(mu_inv)), converged, note)
