import inspect

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import solve_triangular

from conftest import (counted_splu, csr_bytes, jacobi_eigenvalues, run_fd, run_fem,
                      traced_peak)
from uel import (Grid, assemble_fd, assemble_fem, make_bc_spec, make_case,
                 make_domain, sparse_linalg)
from uel.errors import ConfigurationError, SolverError
from uel.sparse_linalg import (PANEL_SIZE, LUFactor, _factor, _ssor_apply,
                               estimate_cond2, solve_cg, solve_direct)


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


def test_blown_up_pivot_falls_back_to_partial_pivoting_with_a_note():
    A = sp.csr_matrix(np.array([[1e-300, 1.0, 2.0], [1.0, 1e-300, 3.0],
                                [2.0, 1.0, 1e-300]]))
    b = np.array([1.0, 2.0, 3.0])
    # the premise: _factor's no-pivot factor (of the CSC reading of A's CSR
    # arrays, A^T) is wrecked by the 1e-300 pivot
    raw = LUFactor(spla.splu(A.T, panel_size=PANEL_SIZE, **sparse_linalg._NO_PIVOT))
    assert not np.abs(raw.solve(b)).max() < 1e200
    x, report = solve_direct(A, b)
    assert np.allclose(x, [1.25, 0.5, 0.25], rtol=0.0, atol=1e-14)
    assert report.converged
    assert "fell back to COLAMD with partial pivoting" in report.note
    est = estimate_cond2(A)
    assert est.value == pytest.approx(np.linalg.cond(A.toarray()), rel=1e-12)
    assert est.converged and "fell back to COLAMD" in est.note


def fd_system(domain, bc_kind, p, n):
    return assemble_fd(Grid(n), make_domain(domain), make_case("paper_sin"),
                       make_bc_spec(domain, bc_kind), p=p)


def paper_systems(domain, bc_kind, n):
    """(A, b) of FD p=1, 2 and FEM alpha=1.5, 2 on one domain and BC."""
    args = (Grid(n), make_domain(domain), make_case("paper_sin"),
            make_bc_spec(domain, bc_kind))
    systems = [assemble_fd(*args, p=p) for p in (1, 2)]
    systems += [assemble_fem(*args, alpha=alpha) for alpha in (1.5, 2.0)]
    return [(system.matrix, system.rhs) for system in systems]


def test_no_pivot_factor_is_never_less_accurate_than_colamd():
    # the refined no-pivot solve against SuperLU's default COLAMD solve on
    # every FD configuration up to N=64 (worst measured ratio 0.91)
    for domain in ("circle", "leaf", "flower", "hourglass"):
        for bc_kind in ("dirichlet", "mixed"):
            for p in (1, 2):
                for n in (40, 64):
                    system = fd_system(domain, bc_kind, p, n)
                    A, b = system.matrix, system.rhs
                    _, report = solve_direct(A, b)
                    ref = spla.splu(sp.csc_matrix(A)).solve(b)
                    ref_res = np.linalg.norm(b - A @ ref) / np.linalg.norm(b)
                    assert report.note == ""
                    assert report.final_residual <= ref_res, (domain, bc_kind, p, n)


def test_factor_fill_is_below_colamd():
    # FD circle, mixed BC, p=2, N=160: measured 576k against 1.07M
    system = fd_system("circle", "mixed", 2, 160)
    factor = _factor(system.matrix, system.rhs)[0]
    colamd = spla.splu(sp.csc_matrix(system.matrix))
    assert factor.note == ""
    assert factor.lu.L.nnz + factor.lu.U.nnz < colamd.L.nnz + colamd.U.nnz


def test_factor_copies_no_full_matrix():
    # SuperLU reads A's CSR arrays as A^T, so _factor's traced peak (the
    # float32 values and the refinement vectors) stays below the CSR
    # matrix's bytes: 0.91x at circle, mixed BC, p=2, N=160 (1.93x with a
    # float64 CSC copy of A)
    system = fd_system("circle", "mixed", 2, 160)
    (factor, _, _), peak = traced_peak(lambda: _factor(system.matrix, system.rhs))
    assert factor.dtype == np.float32 and factor.note == ""
    assert peak <= 1.0 * csr_bytes(system.matrix)


@pytest.mark.parametrize("kind", ("float32 MMD", "float64 MMD", "COLAMD"))
def test_factor_solves_with_a_and_its_transpose(kind, monkeypatch):
    # the factor is of A^T; solve flips trans so that solve(b) is A^-1 b
    # and solve(b, "T") is A^-T b on a nonsymmetric FD matrix, whichever
    # factor was kept (the wrong one is 0.9 to 2.7 off)
    system = fd_system("circle", "mixed", 2, 40)
    A, b = system.matrix, system.rhs
    assert abs(A - A.T).max() > 100.0
    if kind == "float64 MMD":
        A = A * 1e40      # values beyond float32
    if kind == "COLAMD":  # reject both no-pivot factors
        monkeypatch.setattr(sparse_linalg, "_REFINED_RESIDUAL_MAX", -1.0)
    factor = _factor(A, b)[0]
    assert (factor.dtype == np.float32) == (kind == "float32 MMD")
    assert ("fell back to COLAMD" in factor.note) == (kind == "COLAMD")
    tol = 1e-4 if factor.dtype == np.float32 else 1e-12
    for trans, M in (("N", A), ("T", A.T)):
        x = factor.solve(b, trans)
        assert np.linalg.norm(M @ x - b) <= tol * np.linalg.norm(b), trans


@pytest.mark.parametrize("domain", ("circle", "leaf", "flower", "hourglass"))
@pytest.mark.parametrize("bc_kind", ("dirichlet", "mixed"))
def test_no_pivot_factor_is_kept_with_narrow_panels(domain, bc_kind):
    # PANEL_SIZE changes the time of the factor, not its fill or its
    # acceptance, on every FD and FEM system; the fill is compared at the
    # factor's own precision (leaf Dirichlet FD N=40 stores 10,457 entries
    # in float32 and 10,458 in float64: one exact cancellation)
    for A, b in paper_systems(domain, bc_kind, 40):
        factor, x, res = _factor(A, b)
        assert factor.note == ""
        assert res <= 1e-10
        assert res == np.linalg.norm(b - A @ x) / np.linalg.norm(b)
        # SuperLU's default panels on the same A^T input as _factor
        default = spla.splu(A.T.astype(factor.dtype),
                            permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                            options={"SymmetricMode": True})
        assert factor.lu.L.nnz + factor.lu.U.nnz == default.L.nnz + default.U.nnz


@pytest.mark.parametrize("domain", ("circle", "leaf", "flower", "hourglass"))
@pytest.mark.parametrize("bc_kind", ("dirichlet", "mixed"))
def test_paper_systems_factor_in_single_precision(domain, bc_kind):
    # the float32 factor, refined against the float64 A, reaches the
    # double-precision answer (measured: at most 1.2e-12 from splu's)
    for A, b in paper_systems(domain, bc_kind, 40):
        factor, x, res = _factor(A, b)
        assert factor.dtype == np.float32 and factor.lu.L.dtype == np.float32
        assert factor.note == ""
        assert 2 <= factor.refinements < 10
        assert res <= 1e-10
        ref = spla.splu(sp.csc_matrix(A)).solve(b)
        assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)


def test_single_precision_singular_factor_falls_back_to_double(monkeypatch):
    # 1 + 2**-30 rounds to 1 in float32, so the single factor is singular
    A = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0 + 2.0 ** -30]]))
    with pytest.raises(RuntimeError, match="singular"):
        spla.splu(sp.csc_matrix(A).astype(np.float32), permc_spec="MMD_AT_PLUS_A",
                  diag_pivot_thresh=0.0, options={"SymmetricMode": True})
    calls = counted_splu(monkeypatch)
    factor, x, res = _factor(A, np.array([1.0, 2.0]))
    assert calls == [(np.float32, "MMD_AT_PLUS_A"), (np.float64, "MMD_AT_PLUS_A")]
    assert factor.dtype == np.float64
    assert factor.note == ("single-precision no-pivot MMD factor rejected "
                           "(Factor is exactly singular); fell back to "
                           "double-precision no-pivot MMD factor")
    assert res <= 1e-10
    assert np.allclose(x, [1.0 - 2.0 ** 30, 2.0 ** 30], rtol=1e-6, atol=0.0)


@pytest.mark.parametrize("value", (1e-50, -1e-40, 1e39))
def test_values_outside_float32_go_straight_to_double(value, monkeypatch):
    calls = counted_splu(monkeypatch)
    A = sp.csr_matrix(np.array([[4.0, value], [1.0, 3.0]]))
    factor, _, res = _factor(A, np.array([1.0, 2.0]))
    assert calls == [(np.float64, "MMD_AT_PLUS_A")]
    assert factor.dtype == np.float64 and factor.note == ""
    assert res <= 1e-15
    # a value that fits is factored in single precision
    calls.clear()
    A[0, 1] = 1e-30
    factor = _factor(A, np.array([1.0, 2.0]))[0]
    assert calls == [(np.float32, "MMD_AT_PLUS_A")]
    assert factor.dtype == np.float32 and factor.note == ""


def test_every_factor_uses_the_narrow_panels(monkeypatch):
    # the direct solve, the condition estimate's own factor and the two
    # factors of the SSOR sweeps all reach SuperLU with panels of
    # PANEL_SIZE, not its default 20
    _, fd, fem, _ = paper_systems("flower", "mixed", 40)
    kwargs = []
    real = sparse_linalg.spla.splu

    def splu(A, **options):
        kwargs.append(options)
        return real(A, **options)

    monkeypatch.setattr(sparse_linalg.spla, "splu", splu)
    solve_direct(*fd)
    estimate_cond2(fem[0])
    assert solve_cg(*fem, preconditioner="sor")[1].converged
    assert [options.get("panel_size") for options in kwargs] == [PANEL_SIZE] * 4


def test_fits_single_checks_every_block():
    from uel.sparse_linalg import _fits_single
    # more than three of the 65,536-value blocks, the bad value in the last
    values = np.ones(3 * 65536 + 5)
    assert _fits_single(values) and _fits_single(np.zeros(0))
    for bad in (1e-39, 4e38, np.nan, -np.inf):
        values[-1] = bad
        assert not _fits_single(values)
    values[-1] = -3e38
    assert _fits_single(values)


@pytest.mark.parametrize("scheme", ("fd", "fem"))
@pytest.mark.parametrize("n", (80, 160))
def test_cond2_with_single_factor_matches_double_factor(scheme, n):
    # one refinement step per inverse-operator solve (measured: at most 2.3e-8)
    args = (Grid(n), make_domain("flower"), make_case("paper_sin"),
            make_bc_spec("flower", "mixed"))
    if scheme == "fd":
        A = assemble_fd(*args, p=2).matrix
    else:
        A = assemble_fem(*args, alpha=1.5).matrix
    factor = _factor(A, A @ np.ones(A.shape[0]))[0]
    assert factor.dtype == np.float32
    # a double-precision factor of the same A^T input as _factor's
    double = LUFactor(spla.splu(A.T, panel_size=PANEL_SIZE,
                                permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                                options={"SymmetricMode": True}))
    single = estimate_cond2(A, factor=factor)
    ref = estimate_cond2(A, factor=double)
    assert single.converged and ref.converged
    assert single.note == ref.note == ""
    assert single.value == pytest.approx(ref.value, rel=1e-5)
    assert estimate_cond2(A).value == single.value


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


@pytest.mark.parametrize("tol", (0.0, -1.0, np.nan, np.inf, -np.inf))
def test_cg_rejects_a_tolerance_that_is_not_finite_and_positive(tol):
    # -1 or NaN is never met: CG would run until p = 0 and report a false breakdown
    with pytest.raises(ConfigurationError, match="CG tolerance must be finite and positive"):
        solve_cg(laplacian_1d(20, 0.05), np.ones(20), "jacobi", tol=tol)


def dense_ssor(A, omega, r):
    """(2-w)/w (D/w+U)^-1 D (D/w+L)^-1 r by dense triangular solves."""
    a = A.toarray()
    d = np.diag(a)
    lower = np.tril(a, -1) + np.diag(d / omega)
    upper = np.triu(a, 1) + np.diag(d / omega)
    y = solve_triangular(lower, r, lower=True)
    return (2.0 - omega) / omega * solve_triangular(upper, d * y, lower=False)


def test_ssor_apply_matches_dense_sweep_and_is_symmetric():
    spd = sp.csr_matrix(random_spd(40, seed=3))
    _, fem, _, _, _ = run_fem("flower", "paper_sin", "mixed", 32, alpha=1.5)
    rng = np.random.default_rng(7)
    for A, omega in ((spd, 1.0), (spd, 1.5), (fem.matrix, 1.5)):
        n = A.shape[0]
        apply = _ssor_apply(A, omega)
        r, x, y = rng.standard_normal((3, n))
        ref = dense_ssor(A, omega, r)
        assert np.linalg.norm(apply(r) - ref) <= 1e-13 * np.linalg.norm(ref)
        xMy, yMx = x @ apply(y), y @ apply(x)
        assert abs(xMy - yMx) <= 1e-12 * max(abs(xMy), abs(yMx))
        # the stored factors of D/w + L and of J (D/w + L^T) J did no
        # pivoting and made no fill
        for name in ("back", "fwd"):
            sweep = inspect.getclosurevars(apply).nonlocals[name]
            assert np.array_equal(sweep.perm_r, np.arange(n))
            assert np.array_equal(sweep.perm_c, np.arange(n))
            assert sweep.L.nnz + sweep.U.nnz == (sp.tril(A, -1).nnz + n) + n


def test_ssor_cg_takes_the_dense_sweeps_iterations(monkeypatch):
    # CG with the sparse SSOR sweeps and with dense_ssor's triangular
    # solves take the same steps on the FEM flower system
    _, fem, _, _, _ = run_fem("flower", "paper_sin", "mixed", 80, alpha=1.5)
    x, report = solve_cg(fem.matrix, fem.rhs, "sor")
    monkeypatch.setattr(sparse_linalg, "_ssor_apply",
                        lambda A, omega: lambda r: dense_ssor(A, omega, r))
    x_dense, report_dense = solve_cg(fem.matrix, fem.rhs, "sor")
    assert report.converged and report_dense.converged
    assert report.iterations == report_dense.iterations
    assert np.linalg.norm(x - x_dense) <= 1e-10 * np.linalg.norm(x_dense)


def test_ssor_sweep_is_bit_identical_at_any_panel_width(monkeypatch):
    # the no-fill factor of D/w + L has no column updates, so the panel
    # width sets only SuperLU's workspace, never a bit of the sweep
    _, fem, _, _, _ = run_fem("flower", "paper_sin", "mixed", 80, alpha=1.5)
    x, report = solve_cg(fem.matrix, fem.rhs, "sor")
    monkeypatch.setattr(sparse_linalg, "PANEL_SIZE", 20)
    x20, report20 = solve_cg(fem.matrix, fem.rhs, "sor")
    assert report.converged and report.iterations == report20.iterations
    assert np.array_equal(x, x20)


@pytest.mark.parametrize("precond", ("jacobi", "sor"))
def test_cg_preconditioners_reject_nonpositive_diagonal(precond):
    A = sp.diags([1.0, -1.0]).tocsr()
    with pytest.raises(SolverError, match="CG needs a positive diagonal"):
        solve_cg(A, np.ones(2), precond)


def test_preconditioner_ordering_on_fem_system():
    _, system, _, _, _ = run_fem("circle", "paper_sin", "dirichlet", 80)
    iters = {}
    for pc in ("none", "jacobi", "sor"):
        _, report = solve_cg(system.matrix, system.rhs, pc, tol=1e-12)
        assert report.converged
        iters[pc] = report.iterations
    assert iters["none"] > iters["jacobi"] > iters["sor"]


# ----------------------------------------------------------------------
# direct solver on general matrices
# ----------------------------------------------------------------------

def test_nonsymmetric_agrees_with_cg_on_spd():
    A = sp.csr_matrix(random_spd(30, seed=5))
    b = np.ones(30)
    x1, _ = solve_direct(A, b)
    x2, _ = solve_cg(A, b, "jacobi", tol=1e-14)
    assert np.allclose(x1, x2, atol=1e-8)


def test_nonsymmetric_permuted_identity():
    n = 6
    P = sp.csr_matrix(np.eye(n)[np.random.default_rng(0).permutation(n)])
    b = np.arange(1.0, n + 1.0)
    x, report = solve_direct(P, b)
    assert np.allclose(P @ x, b, atol=1e-12)
    # SuperLU pivots off a zero diagonal even at diag_pivot_thresh=0, so the
    # single-precision no-pivot factor stands and no fallback is noted
    assert report.factor.dtype == np.float32 and report.note == ""


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


def test_cond_no_convergence_flags_lower_bound(monkeypatch):
    # one Lanczos restart cannot reach a 1e-14 tolerance, so ARPACK raises
    # ArpackNoConvergence on this 30 x 30 matrix (cond about 1.1e6)
    A = sp.csr_matrix(random_spd(30, seed=17, shift=1e-6))
    eigsh = spla.eigsh
    monkeypatch.setattr(spla, "eigsh", lambda *a, **kw: eigsh(*a, **{**kw, "maxiter": 1}))
    monkeypatch.setattr(sparse_linalg, "_COND_TOL", 1e-14)
    est = estimate_cond2(A)
    assert not est.converged
    assert "lower bound" in est.note
    assert 0.0 < est.value <= np.linalg.cond(A.toarray())


# FD p=2 and FEM alpha=1.5, mixed BC.  Circle N=80 is left out: its dense
# SVD (3,389 rows) takes about 13 s; these six take about 3 s together.
@pytest.mark.parametrize("scheme", ("fd", "fem"))
@pytest.mark.parametrize("domain, n", (("circle", 40), ("flower", 40), ("flower", 80)))
def test_cond_against_dense_svd(scheme, domain, n):
    # worst measured: 1.9e-3 (FD flower N=80)
    args = (Grid(n), make_domain(domain), make_case("paper_sin"),
            make_bc_spec(domain, "mixed"))
    if scheme == "fd":
        A = assemble_fd(*args, p=2).matrix
    else:
        A = assemble_fem(*args, alpha=1.5).matrix
    s = np.linalg.svd(A.toarray(), compute_uv=False)
    est = estimate_cond2(A)
    assert est.converged
    assert est.value == pytest.approx(s[0] / s[-1], rel=5e-3)


def test_cond_of_a_scalar():
    est = estimate_cond2(sp.csr_matrix(np.array([[-3.0]])))
    assert est.value == pytest.approx(1.0, rel=1e-15) and est.converged


def test_cond_of_a_non_finite_operator_raises():
    A = sp.diags([1.0, np.inf, 1.0]).tocsr()
    factor = LUFactor(spla.splu(sp.eye(3).tocsc()))
    with pytest.raises(SolverError, match="condition estimate failed"):
        estimate_cond2(A, factor=factor)


def test_jacobi_oracle_self_check():
    # rotations leave the spectrum of a known diagonal matrix unchanged
    d = np.diag([3.0, 1.0, 7.0, 5.0])
    q, _ = np.linalg.qr(np.random.default_rng(4).standard_normal((4, 4)))
    eigs = jacobi_eigenvalues(q @ d @ q.T)
    assert np.allclose(eigs, [1.0, 3.0, 5.0, 7.0], atol=1e-9)
