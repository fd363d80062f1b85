import numpy as np
import pytest
import scipy.sparse as sp

from conftest import jacobi_eigenvalues, run_fd, run_fem
from uel.errors import ConfigurationError, SolverError
from uel.sparse_linalg import (estimate_cond2, solve_cg, solve_direct,
                               solve_nonsymmetric)


def laplacian_1d(n, h):
    main = np.full(n, 2.0 / h ** 2)
    off = np.full(n - 1, -1.0 / h ** 2)
    return sp.diags([off, main, off], (-1, 0, 1)).tocsr()


def random_spd(n, seed, shift=None):
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((n, n))
    a = b @ b.T + (shift if shift is not None else n) * np.eye(n)
    return a


# ----------------------------------------------------------------------
# direct solver
# ----------------------------------------------------------------------

def test_direct_identity():
    b = np.array([1.0, -2.0, 3.0])
    x, report = solve_direct(sp.eye(3).tocsr(), b)
    assert np.allclose(x, b)
    assert report.converged and report.final_residual <= 1e-14


def test_direct_tridiagonal_oracle():
    # tridiag(-1, 2, -1)/h^2 with h=0.25, b=(1,1,1): hand elimination of the
    # unscaled system gives (1.5, 2, 1.5), so x = (1.5, 2, 1.5) * h^2 / ... =
    # (1.5, 2, 1.5) / 16
    A = laplacian_1d(3, 0.25)
    x, _ = solve_direct(A, np.ones(3))
    assert np.allclose(x, np.array([1.5, 2.0, 1.5]) / 16.0, atol=1e-14)


def test_direct_on_fd_system():
    _, system, _, report, _ = run_fd("circle", "paper_sin", "dirichlet", 4)
    assert report.final_residual <= 1e-12


def test_direct_singular_raises():
    A = sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 4.0]]))
    with pytest.raises(SolverError):
        solve_direct(A, np.ones(2))


# ----------------------------------------------------------------------
# conjugate gradients
# ----------------------------------------------------------------------

def test_cg_identity_single_iteration():
    b = np.arange(1.0, 6.0)
    x, report = solve_cg(sp.eye(5).tocsr(), b, "none")
    assert np.allclose(x, b)
    assert report.iterations == 1


def test_cg_jacobi_on_diagonal_matrix():
    n = 50
    A = sp.diags(np.arange(1.0, n + 1.0)).tocsr()
    b = np.ones(n)
    x, report = solve_cg(A, b, "jacobi")
    assert report.iterations <= 2
    assert np.allclose(x, 1.0 / np.arange(1.0, n + 1.0))


@pytest.mark.parametrize("precond", ("none", "jacobi", "sor"))
def test_cg_converges_on_random_spd(precond):
    A = sp.csr_matrix(random_spd(40, seed=3))
    b = np.sin(np.arange(40.0))
    x, report = solve_cg(A, b, precond, tol=1e-12)
    assert report.converged
    # reported residual matches an independent recomputation
    again = np.linalg.norm(b - A @ x) / np.linalg.norm(b)
    assert report.final_residual == pytest.approx(again, rel=1e-9, abs=1e-15)
    assert report.final_residual <= 1e-12


def test_cg_breakdown_on_indefinite_matrix():
    A = sp.diags([1.0, -1.0]).tocsr()
    with pytest.raises(SolverError):
        solve_cg(A, np.ones(2), "none")


def test_cg_nonconvergence_reported_not_raised():
    A = laplacian_1d(200, 0.01)
    x, report = solve_cg(A, np.ones(200), "none", tol=1e-14, maxit=3)
    assert not report.converged
    assert report.iterations == 3
    assert report.final_residual > 1e-14


def test_cg_rejects_unknown_preconditioner():
    with pytest.raises(ConfigurationError):
        solve_cg(sp.eye(3).tocsr(), np.ones(3), "ilu")
    with pytest.raises(ConfigurationError):
        solve_cg(sp.eye(3).tocsr(), np.ones(3), "sor", omega=2.5)


def test_preconditioner_ordering_on_fem_system():
    _, system, _, _, _ = run_fem("circle", "paper_sin", "dirichlet", 80)
    iters = {}
    for pc in ("none", "jacobi", "sor"):
        _, report = solve_cg(system.matrix, system.rhs, pc, tol=1e-12)
        assert report.converged
        iters[pc] = report.iterations
    assert iters["none"] > iters["jacobi"] > iters["sor"]


# ----------------------------------------------------------------------
# nonsymmetric solver
# ----------------------------------------------------------------------

def test_nonsymmetric_agrees_with_cg_on_spd():
    A = sp.csr_matrix(random_spd(30, seed=5))
    b = np.ones(30)
    x1, _ = solve_nonsymmetric(A, b)
    x2, _ = solve_cg(A, b, "jacobi", tol=1e-14)
    assert np.allclose(x1, x2, atol=1e-8)


def test_nonsymmetric_permuted_identity():
    n = 6
    P = sp.csr_matrix(np.eye(n)[np.random.default_rng(0).permutation(n)])
    b = np.arange(1.0, n + 1.0)
    x, report = solve_nonsymmetric(P, b)
    assert np.allclose(P @ x, b, atol=1e-12)


def test_nonsymmetric_on_fd_system():
    _, system, _, _, _ = run_fd("circle", "paper_sin", "dirichlet", 80)
    x, report = solve_nonsymmetric(system.matrix, system.rhs)
    assert report.final_residual <= 1e-10


def test_bicgstab_path_exercised():
    # force the Krylov branch by lowering the direct-fallback threshold
    A = sp.csr_matrix(random_spd(60, seed=9))
    b = np.ones(60)
    x, report = solve_nonsymmetric(A, b, tol=1e-11, direct_threshold=1)
    assert report.method == "bicgstab+ilu"
    assert report.final_residual <= 1e-11
    assert report.converged


# ----------------------------------------------------------------------
# condition estimation
# ----------------------------------------------------------------------

def test_cond_identity_and_diagonal():
    assert estimate_cond2(sp.eye(10).tocsr()).value == pytest.approx(1.0, rel=1e-3)
    est = estimate_cond2(sp.diags([1.0, 10.0]).tocsr())
    assert est.value == pytest.approx(10.0, rel=1e-3)


def test_cond_permutation_invariance():
    A = sp.csr_matrix(random_spd(25, seed=12))
    perm = np.random.default_rng(1).permutation(25)
    P = sp.csr_matrix(np.eye(25)[perm])
    B = (P @ A @ P.T).tocsr()
    a = estimate_cond2(A).value
    b = estimate_cond2(B).value
    assert abs(a - b) / a < 0.01


def test_cond_against_jacobi_svd_oracle():
    rng = np.random.default_rng(2024)
    for k in range(5):
        n = 20
        b = rng.standard_normal((n, n))
        A = b @ b.T + n * np.eye(n)
        est = estimate_cond2(sp.csr_matrix(A))
        eigs = jacobi_eigenvalues(A)
        exact = eigs[-1] / eigs[0]
        assert abs(est.value - exact) / exact < 0.10


def test_cond_iteration_cap_flags_lower_bound():
    A = sp.csr_matrix(random_spd(30, seed=17, shift=1e-6))
    est = estimate_cond2(A, maxit=1)
    assert not est.converged
    assert "lower bound" in est.note
    assert est.value > 0.0


def test_jacobi_oracle_self_check():
    # rotations leave the spectrum of a known diagonal matrix unchanged
    d = np.diag([3.0, 1.0, 7.0, 5.0])
    q, _ = np.linalg.qr(np.random.default_rng(4).standard_normal((4, 4)))
    eigs = jacobi_eigenvalues(q @ d @ q.T)
    assert np.allclose(eigs, [1.0, 3.0, 5.0, 7.0], atol=1e-9)
