"""Acceptance suite: one test per criterion, each printing a pass/fail line
with the measured quantities (run pytest with -s to see them inline)."""

import math
import time

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import jacobi_eigenvalues, omega_h_area, run_fd, run_fem, segment_lengths
from uel import (Grid, assemble_fd, assemble_fem, make_bc_spec, make_case,
                 make_domain, solve_cg, solve_direct)
from uel.analysis import fitted_order
from uel.cli import solution_errors
from uel.fd_scheme import _weights
from uel.geometry import (NODE_INACTIVE, NODE_INTERIOR, classify,
                          extract_cut_cells, snap_small_cells)
from uel.sparse_linalg import estimate_cond2

GRIDS_FULL = (40, 80, 160, 320)
GRIDS_SMOKE = (40, 80, 160)
DOMAINS = ("circle", "leaf", "flower", "hourglass")


def report(criterion, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}")


def sweep_fd(domain, bc, p, grids=GRIDS_FULL, tol_factor=1e-4):
    out = []
    for n in grids:
        grid, system, u, _, case = run_fd(domain, "paper_sin", bc, n, p=p,
                                          tol_factor=tol_factor)
        eu, eg, _ = solution_errors(system, u, case)
        out.append((grid.h, eu, eg))
    return out


def sweep_fem(domain, bc, alpha, grids=GRIDS_FULL):
    out = []
    for n in grids:
        grid, system, u, _, case = run_fem(domain, "paper_sin", bc, n, alpha=alpha)
        eu, eg, nodal = solution_errors(system, u, case)
        out.append((grid.h, eu, eg, nodal))
    return out


# cached sweeps shared between criteria 1 and 2
SWEEP_SECONDS = {}


@pytest.fixture(scope="module")
def fd_circle_p2():
    t0 = time.perf_counter()
    rows = sweep_fd("circle", "dirichlet", 2)
    SWEEP_SECONDS["fd"] = time.perf_counter() - t0
    return rows


@pytest.fixture(scope="module")
def fem_circle():
    t0 = time.perf_counter()
    rows = sweep_fem("circle", "dirichlet", 2.0)
    SWEEP_SECONDS["fem"] = time.perf_counter() - t0
    return rows


def test_criterion_1_solution_convergence(fd_circle_p2, fem_circle):
    hs = [row[0] for row in fd_circle_p2]
    fd_order = fitted_order(hs, [row[1][2] for row in fd_circle_p2])
    fem_order = fitted_order([r[0] for r in fem_circle],
                             [r[1][1] for r in fem_circle])
    elapsed = SWEEP_SECONDS["fd"] + SWEEP_SECONDS["fem"]

    fem_ok = 1.7 <= fem_order <= 2.3
    fd_ok = 1.7 <= fd_order <= 2.3
    report("1", fem_ok and fd_ok,
           f"FD Linf order {fd_order:.2f} (band [1.7, 2.3]), "
           f"FEM L2 order {fem_order:.2f} (band [1.7, 2.3])")
    assert fem_ok, f"FEM L2 order {fem_order:.3f} outside [1.7, 2.3]"
    assert elapsed < 120.0
    # Known red: on this window the measured FD order is ~2.7, genuinely
    # above the stated band.  The p=2 boundary-interpolation residual decays
    # like h^3 while the interior truncation constant of sin(x)sin(y) on the
    # centered circle is anomalously small (the forcing vanishes at the
    # center), so the h^3 term dominates until N >~ 1000.  The same code
    # measures 1.97 on cos(x)cos(y), 1.99 on the full square and 1.90 for
    # p=1, confirming plain second-order behavior wherever the interior
    # constant is healthy.
    assert fd_ok, (
        f"FD Linf order {fd_order:.3f} outside [1.7, 2.3]: superconvergent "
        "window of this manufactured case (see decision ledger)")


def test_criterion_2_gradient_convergence(fd_circle_p2, fem_circle):
    hs = [row[0] for row in fd_circle_p2]
    fd_g = fitted_order(hs, [row[2][1] for row in fd_circle_p2])
    fem_g = fitted_order([r[0] for r in fem_circle],
                         [r[2][1] for r in fem_circle])

    mixed_p1 = sweep_fd("circle", "mixed", 1)
    u_mixed = fitted_order([r[0] for r in mixed_p1],
                           [r[1][2] for r in mixed_p1])
    dir_p1 = sweep_fd("circle", "dirichlet", 1)
    g_dir = fitted_order([r[0] for r in dir_p1], [r[2][1] for r in dir_p1])

    ok = (fd_g >= 1.6 and fem_g >= 1.6
          and 0.7 <= u_mixed <= 1.5 and 0.7 <= g_dir <= 1.5)
    report("2", ok,
           f"FD p=2 grad L2 {fd_g:.2f} (>=1.6), FEM grad L2 {fem_g:.2f} (>=1.6), "
           f"FD p=1 mixed u Linf {u_mixed:.2f} (in [0.7,1.5]), "
           f"FD p=1 Dirichlet grad L2 {g_dir:.2f} (in [0.7,1.5])")
    assert fd_g >= 1.6
    assert fem_g >= 1.6
    assert 0.7 <= u_mixed <= 1.5
    assert 0.7 <= g_dir <= 1.5


def test_criterion_3_exactness_oracles():
    worst_fd = worst_fem = 0.0
    for n in (40, 80):
        _, system, u, _, case = run_fd("circle", "quadratic", "dirichlet",
                                       n, p=2, tol_factor=1e-12)
        eu, _, _ = solution_errors(system, u, case)
        worst_fd = max(worst_fd, eu[2])
        _, system, u, _, case = run_fem("circle", "linear", "dirichlet", n)
        _, _, nodal = solution_errors(system, u, case)
        worst_fem = max(worst_fem, nodal)
    ok = worst_fd <= 1e-8 and worst_fem <= 1e-8
    report("3", ok, f"FD quadratic Linf {worst_fd:.2e} (<=1e-8), "
                    f"FEM linear nodal Linf {worst_fem:.2e} (<=1e-8)")
    assert worst_fd <= 1e-8
    assert worst_fem <= 1e-8


def test_criterion_4_all_domain_smoke():
    t0 = time.perf_counter()
    worst = ("", math.inf)
    for dom in DOMAINS:
        for bc in ("dirichlet", "mixed"):
            rows = sweep_fd(dom, bc, 2, grids=GRIDS_SMOKE)
            fit = fitted_order([r[0] for r in rows], [r[1][1] for r in rows])
            if fit < worst[1]:
                worst = (f"fd/{dom}/{bc}", fit)
            assert fit >= 1.5, f"fd/{dom}/{bc}: L2 order {fit:.2f}"
            rows = sweep_fem(dom, bc, 2.0, grids=GRIDS_SMOKE)
            fit = fitted_order([r[0] for r in rows], [r[1][1] for r in rows])
            if fit < worst[1]:
                worst = (f"fem/{dom}/{bc}", fit)
            assert fit >= 1.5, f"fem/{dom}/{bc}: L2 order {fit:.2f}"
    elapsed = time.perf_counter() - t0
    report("4", True, f"16 configurations converged; slowest L2 order "
                      f"{worst[1]:.2f} ({worst[0]}), {elapsed:.0f}s")
    assert elapsed < 600.0


def test_criterion_5_conditioning_trends():
    domain = make_domain("circle")
    case = make_case("paper_sin")
    bc = make_bc_spec("circle", "dirichlet")
    grid = Grid(160)
    conds = {}
    for alpha in (1.55, 1.7, 1.85, 2.0):
        system = assemble_fem(grid, domain, case, bc, alpha=alpha)
        conds[alpha] = estimate_cond2(system.matrix).value
    fd_cond = estimate_cond2(assemble_fd(grid, domain, case, bc, p=2).matrix).value

    seq = [conds[a] for a in (1.55, 1.7, 1.85, 2.0)]
    monotone = all(a < b for a, b in zip(seq, seq[1:]))
    ok = monotone and conds[2.0] > conds[1.55] and conds[2.0] > fd_cond
    report("5", ok,
           "cond2(FEM) over alpha {1.55,1.7,1.85,2}: "
           + ", ".join(f"{c:.2e}" for c in seq)
           + f"; cond2(FD p=2) {fd_cond:.2e}")
    assert monotone
    assert conds[2.0] > conds[1.55]
    assert conds[2.0] > fd_cond


def test_criterion_6_preconditioner_ordering():
    domain = make_domain("circle")
    case = make_case("paper_sin")
    bc = make_bc_spec("circle", "dirichlet")
    iters = {}
    for n in (160, 320):
        system = assemble_fem(Grid(n), domain, case, bc, alpha=2.0)
        for pc in ("none", "jacobi", "sor"):
            _, rep = solve_cg(system.matrix, system.rhs, pc, tol=1e-12)
            assert rep.converged, f"CG {pc} did not converge at N={n}"
            iters[(n, pc)] = rep.iterations
    ok = all(iters[(n, "none")] > iters[(n, "jacobi")] > iters[(n, "sor")]
             for n in (160, 320))
    growth = all(iters[(320, pc)] > iters[(160, pc)]
                 for pc in ("none", "jacobi", "sor"))
    report("6", ok and growth,
           f"iterations N=160: {iters[(160, 'none')]}/{iters[(160, 'jacobi')]}"
           f"/{iters[(160, 'sor')]} (none/jacobi/sor); "
           f"N=320: {iters[(320, 'none')]}/{iters[(320, 'jacobi')]}"
           f"/{iters[(320, 'sor')]}")
    assert ok
    assert growth


def test_criterion_7_geometry_convergence():
    domain = make_domain("circle")
    hs, ea, ep = [], [], []
    for n in GRIDS_FULL:
        grid = Grid(n)
        cls = classify(grid, domain, "four")
        band = extract_cut_cells(cls, domain)
        area = omega_h_area(cls, band)
        peri = segment_lengths(band).sum()
        hs.append(grid.h)
        ea.append(abs(area - math.pi * 0.64))
        ep.append(abs(peri - 1.6 * math.pi))
    a_order = fitted_order(hs, ea)
    p_order = fitted_order(hs, ep)
    ok = a_order >= 1.5 and p_order >= 1.5
    report("7", ok, f"area order {a_order:.2f}, perimeter order {p_order:.2f} "
                    "(targets pi*0.64 and 1.6*pi, >=1.5)")
    assert a_order >= 1.5
    assert p_order >= 1.5


def test_criterion_8_linear_algebra_oracles():
    rng = np.random.default_rng(88)
    worst = 0.0
    for _ in range(20):
        n = 20
        b = rng.standard_normal((n, n))
        A = b @ b.T + n * np.eye(n)
        est = estimate_cond2(sp.csr_matrix(A)).value
        eigs = jacobi_eigenvalues(A)
        exact = eigs[-1] / eigs[0]
        worst = max(worst, abs(est - exact) / exact)
    assert worst < 0.10

    # every converged solve's reported residual is verified by recomputation
    checked = 0
    _, system, _, _, _ = run_fem("circle", "paper_sin", "dirichlet", 40)
    for pc in ("none", "jacobi", "sor"):
        x, rep = solve_cg(system.matrix, system.rhs, pc, tol=1e-12)
        again = np.linalg.norm(system.rhs - system.matrix @ x) / np.linalg.norm(system.rhs)
        assert rep.converged and rep.final_residual == pytest.approx(again, rel=1e-6)
        assert rep.final_residual <= 1e-12
        checked += 1
    _, fd_system, _, _, _ = run_fd("circle", "paper_sin", "dirichlet", 40)
    x, rep = solve_direct(fd_system.matrix, fd_system.rhs)
    again = (np.linalg.norm(fd_system.rhs - fd_system.matrix @ x)
             / np.linalg.norm(fd_system.rhs))
    assert rep.final_residual == pytest.approx(again, rel=1e-6)
    checked += 1
    report("8", True, f"cond2 within {worst * 100:.1f}% of the Jacobi-rotation "
                      f"oracle over 20 SPD matrices; {checked} residual "
                      "recomputations matched")


def test_criterion_9_invariant_suites():
    # Lagrange partition of unity / zero derivative sum, 1000 random offsets
    rng = np.random.default_rng(99)
    for theta in rng.uniform(0.0, 1.0 - 1e-9, 1000):
        for p in (1, 2):
            for spacing in (1, 2):
                l, l_prime = _weights(theta, p, 0.05, spacing)
                assert sum(l) == pytest.approx(1.0, abs=1e-12)
                assert sum(l_prime) == pytest.approx(0.0, abs=1e-9)

    # FD row sums: interior rows 0, Dirichlet ghost rows 1, for every row
    rows_checked = 0
    for dom, bc_kind in (("circle", "mixed"), ("leaf", "dirichlet")):
        grid, system, _, _, _ = run_fd(dom, "paper_sin", bc_kind, 40)
        sums = np.asarray(system.matrix.sum(axis=1)).ravel()
        role = system.classification.node_role
        scale = 4.0 / grid.h ** 2
        dirichlet = dict(zip(map(tuple, system.ghosts.ghost.tolist()),
                             system.ghosts.dirichlet.tolist()))
        for k, (i, j) in enumerate(system.nodes):
            value_row = dirichlet.get((int(i), int(j)))
            if value_row is None:
                assert role[i, j] == NODE_INTERIOR
                assert abs(sums[k]) <= 1e-11 * scale
            elif value_row:
                assert sums[k] == pytest.approx(1.0, abs=1e-12)
            rows_checked += 1

    # FEM symmetry for every assembled system
    sym_worst = 0.0
    for dom, alpha in (("circle", 2.0), ("hourglass", 1.55), ("flower", 1.7)):
        _, system, _, _, _ = run_fem(dom, "paper_sin", "mixed", 40, alpha=alpha)
        A = system.matrix
        sym_worst = max(sym_worst, abs(A - A.T).max() / abs(A).max())
        assert sym_worst <= 1e-12

    # snapping never increases the active node set
    for dom in DOMAINS:
        domain = make_domain(dom)
        for n in (40, 80):
            grid = Grid(n)
            cls = classify(grid, domain, "eight")
            snapped = snap_small_cells(cls, grid, domain, 2.0)
            grew = ((snapped.node_role != NODE_INACTIVE)
                    & (cls.node_role == NODE_INACTIVE))
            assert not np.any(grew)
    report("9", True,
           f"Lagrange sums over 1000 offsets, {rows_checked} FD row sums, "
           f"FEM symmetry <= {sym_worst:.1e}, snapping monotone on "
           "4 domains x 2 grids")
