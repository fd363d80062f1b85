import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from conftest import fem_errors, full_square_domain, run_fem
from uel import Grid, assemble_fem, make_bc_spec, make_case, make_domain
from uel.analysis import fitted_order
from uel.errors import ConfigurationError
from uel.fem_scheme import (RULE, S_FULL, _local_basis, _tri_points,
                            boundary_terms, element_volume_terms,
                            fem_gradient, solution_samples)
from uel.geometry import (CELL_INSIDE, BCSpec, CutCell, LevelSetDomain,
                          classify, cut_cell_geometry, extract_cut_cells,
                          snap_small_cells)

DOMAINS = ("circle", "leaf", "flower", "hourglass")


# ----------------------------------------------------------------------
# quadrature and basis
# ----------------------------------------------------------------------

def test_quadrature_weights_positive_and_normalized():
    assert np.all(RULE.tri_weights > 0)
    assert RULE.tri_weights.sum() == pytest.approx(1.0, abs=1e-14)
    assert np.all(RULE.seg_weights > 0)
    assert RULE.seg_weights.sum() == pytest.approx(1.0, abs=1e-14)


def test_basis_is_nodal():
    # the four cell hats (SW, SE, NE, NW) at the four corners: identity
    grid = Grid(10)
    corners = np.array([grid.node(4, 4), grid.node(5, 4),
                        grid.node(5, 5), grid.node(4, 5)])
    vals, _, _ = _local_basis(grid, 4, 4, corners)
    assert np.allclose(vals, np.eye(4), atol=1e-14)


def test_basis_at_support_cell_center():
    grid = Grid(10)
    h = grid.h
    x, y = grid.node(4, 4)
    vals, gx, gy = _local_basis(grid, 4, 4, np.array([[x + h / 2, y + h / 2]]))
    assert vals[0] == pytest.approx([0.25] * 4)
    assert (gx[0, 0], gy[0, 0]) == pytest.approx((-1.0 / (2 * h), -1.0 / (2 * h)))


# ----------------------------------------------------------------------
# element matrices
# ----------------------------------------------------------------------

def gauss_square_oracle(h, integrand, npts=4):
    """Independent tensor Gauss-Legendre integration over [0, h]^2."""
    x, w = leggauss(npts)
    x = 0.5 * h * (x + 1.0)
    w = 0.5 * h * w
    total = 0.0
    for xi, wi in zip(x, w):
        for yj, wj in zip(x, w):
            total += wi * wj * integrand(xi, yj)
    return total


def local_hats(h):
    vals = [lambda s, t, h=h: (1 - s / h) * (1 - t / h),
            lambda s, t, h=h: (s / h) * (1 - t / h),
            lambda s, t, h=h: (s / h) * (t / h),
            lambda s, t, h=h: (1 - s / h) * (t / h)]
    grads = [lambda s, t, h=h: (-(1 - t / h) / h, -(1 - s / h) / h),
             lambda s, t, h=h: ((1 - t / h) / h, -(s / h) / h),
             lambda s, t, h=h: ((t / h) / h, (s / h) / h),
             lambda s, t, h=h: (-(t / h) / h, (1 - s / h) / h)]
    return vals, grads


def test_full_cell_matrices_against_gauss_oracle():
    h = 0.25
    _, grads = local_hats(h)
    for a in range(4):
        for b in range(4):
            s_ref = gauss_square_oracle(h, lambda x, y: np.dot(grads[a](x, y), grads[b](x, y)))
            assert S_FULL[a, b] == pytest.approx(s_ref, abs=1e-12)


def test_element_volume_terms_full_cell_closed_form():
    grid = Grid(8)
    cut = cut_cell_geometry((3, 3), grid, full_square_domain())
    assert np.allclose(element_volume_terms(cut, grid), S_FULL, atol=1e-14)


def test_triangle_quadrature_matches_closed_form():
    # force the quadrature path on a full cell by perturbing the area field
    grid = Grid(8)
    cut = cut_cell_geometry((3, 3), grid, full_square_domain())
    forced = CutCell(cut.cell, cut.polygons, cut.triangles, [], cut.area * (1 - 1e-9))
    assert np.allclose(element_volume_terms(forced, grid), S_FULL, atol=1e-12)


def test_triangle_rule_exact_to_degree_four():
    # the two fan triangles of a full cell integrate every monomial
    # s^a t^b, a + b <= 4, in cell-local coordinates exactly
    grid = Grid(8)
    h = grid.h
    cut = cut_cell_geometry((3, 3), grid, full_square_domain())
    x0, y0 = grid.node(3, 3)
    assert len(cut.triangles) == 2
    for a in range(5):
        for b in range(5 - a):
            total = 0.0
            for tri in cut.triangles:
                pts, w = _tri_points(tri)
                total += np.sum(w * (pts[:, 0] - x0) ** a * (pts[:, 1] - y0) ** b)
            ref = gauss_square_oracle(h, lambda s, t: s ** a * t ** b)
            assert total == pytest.approx(ref, rel=1e-12)


def test_empty_cell_contributes_nothing():
    grid = Grid(8)
    S4 = element_volume_terms(CutCell((0, 0), [], [], [], 0.0), grid)
    assert np.all(S4 == 0.0)


# ----------------------------------------------------------------------
# boundary terms
# ----------------------------------------------------------------------

def test_neumann_segment_leaves_dirichlet_blocks_empty():
    grid = Grid(8)
    domain = make_domain("circle")
    case = make_case("constant")
    all_neumann = BCSpec("mixed", lambda p: False)
    cls = classify(grid, domain, "eight")
    cells = extract_cut_cells(cls, domain)
    cut = next(c for c in cells.values() if c.boundary_segments)
    P, D, _ = boundary_terms(cut, grid, all_neumann, case, 1.0)
    assert np.all(P == 0.0) and np.all(D == 0.0)


@pytest.mark.parametrize("name", DOMAINS)
@pytest.mark.parametrize("n", (16, 40))
@pytest.mark.parametrize("snapped", (False, True))
def test_neumann_rhs_obeys_divergence_theorem(name, n, snapped):
    # u = x^2 + y^2 with all-Neumann data: the hats sum to one on every
    # cell, so the summed boundary rhs is the flux of grad(u) through the
    # closed Gamma_h, i.e. int lap(u) = 4 * area(Omega_h)
    grid = Grid(n)
    domain = make_domain(name)
    case = make_case("quadratic")
    all_neumann = BCSpec("mixed", lambda p: False)
    cls = classify(grid, domain, "eight")
    if snapped:
        cls = snap_small_cells(cls, grid, domain, 2.0)
    cells = extract_cut_cells(cls, domain)
    flux = sum(boundary_terms(cut, grid, all_neumann, case, 1.0)[2].sum()
               for cut in cells.values() if cut.boundary_segments)
    area = sum(cut.area for cut in cells.values())
    assert flux == pytest.approx(4.0 * area, rel=1e-12)


def test_dirichlet_mass_total_equals_length():
    # partition of unity: sum_ij of the local P block equals the Dirichlet
    # boundary length of the cell
    grid = Grid(16)
    domain = make_domain("circle")
    case = make_case("constant")
    bc = make_bc_spec("circle", "dirichlet")
    cells = extract_cut_cells(classify(grid, domain, "eight"), domain)
    for cut in cells.values():
        if not cut.boundary_segments:
            continue
        P, _, _ = boundary_terms(cut, grid, bc, case, 1.0)
        length = sum(s.length for s in cut.boundary_segments)
        assert P.sum() == pytest.approx(length, rel=1e-12)


def test_constant_solution_consistency():
    # g_D from u == 1 with f = 0: the assembled rhs equals A @ ones
    for bc_kind in ("dirichlet", "mixed"):
        grid, system, _, _, _ = run_fem("circle", "constant", bc_kind, 20)
        ones = np.ones(system.n_rows)
        resid = system.matrix @ ones - system.rhs
        scale = max(1.0, abs(system.rhs).max())
        assert abs(resid).max() <= 1e-11 * scale


# ----------------------------------------------------------------------
# global assembly
# ----------------------------------------------------------------------

def test_matrix_symmetry():
    for name, n, alpha in (("circle", 40, 2.0), ("hourglass", 24, 1.7)):
        _, system, _, _, _ = run_fem(name, "paper_sin", "mixed", n, alpha=alpha)
        A = system.matrix
        denom = abs(A).max()
        assert abs(A - A.T).max() <= 1e-12 * denom


def test_linear_case_is_exact():
    for n in (40, 80):
        grid, system, u, _, case = run_fem("circle", "linear", "dirichlet", n)
        _, _, nodal = fem_errors(grid, system, u, case)
        assert nodal <= 1e-8


def test_circle_l2_convergence():
    hs, errs = [], []
    for n in (40, 80, 160):
        grid, system, u, _, case = run_fem("circle", "paper_sin", "dirichlet", n)
        eu, _, _ = fem_errors(grid, system, u, case)
        hs.append(grid.h)
        errs.append(eu[1])
    assert fitted_order(hs, errs) >= 1.7


def test_mass_matrix_totals():
    # the Dirichlet mass blocks sum to the Dirichlet part of the boundary
    # length under the mixed split (the area total is checked by
    # test_solution_sample_weights_cover_domain)
    grid, system, _, _, case = run_fem("circle", "paper_sin", "mixed", 40)
    bc = make_bc_spec("circle", "mixed")
    dlen = nlen = dmass = 0.0
    for cut in system.cells.values():
        if cut.boundary_segments:
            dmass += boundary_terms(cut, grid, bc, case, 1.0)[0].sum()
        for seg in cut.boundary_segments:
            pieces = [(seg.p0, seg.p1)]
            x0, x1 = seg.p0[0], seg.p1[0]
            if (x0 < 0.0 < x1) or (x1 < 0.0 < x0):
                t = x0 / (x0 - x1)
                pm = seg.p0 + t * (seg.p1 - seg.p0)
                pieces = [(seg.p0, pm), (pm, seg.p1)]
            for a, b in pieces:
                mid = 0.5 * (a + b)
                if bc.is_dirichlet(mid):
                    dlen += float(np.hypot(*(b - a)))
                else:
                    nlen += float(np.hypot(*(b - a)))
    assert dlen > 0.0 and nlen > 0.0
    assert dmass == pytest.approx(dlen, rel=1e-10)


def test_stiffness_rows_sum_to_zero_in_the_interior():
    # away from Gamma_h the system rows are pure stiffness rows
    grid, system, _, _, _ = run_fem("circle", "paper_sin", "dirichlet", 24)
    inside = system.classification.cell_role == CELL_INSIDE
    sums = np.asarray(system.matrix.sum(axis=1)).ravel()
    checked = 0
    for k, (i, j) in enumerate(system.nodes):
        cells = [(i - 1, j - 1), (i, j - 1), (i - 1, j), (i, j)]
        if all(0 <= a < grid.n and 0 <= b < grid.n and inside[a, b]
               and not system.cells[(a, b)].boundary_segments for a, b in cells):
            assert abs(sums[k]) <= 1e-12
            checked += 1
    assert checked > 0


def test_pure_neumann_rejected():
    grid = Grid(20)
    domain = make_domain("circle")
    case = make_case("constant")
    with pytest.raises(ConfigurationError):
        assemble_fem(grid, domain, case, BCSpec("mixed", lambda p: False))


def test_alpha_validated():
    grid = Grid(20)
    with pytest.raises(ConfigurationError):
        assemble_fem(grid, make_domain("circle"), make_case("constant"),
                     make_bc_spec("circle", "dirichlet"), alpha=2.5)


# ----------------------------------------------------------------------
# discrete gradient
# ----------------------------------------------------------------------

def nodal_fill(system, grid, func):
    return np.asarray(func(grid.xs[system.nodes[:, 0]],
                           grid.xs[system.nodes[:, 1]]), dtype=float)


def test_fem_gradient_linear_and_constant():
    grid, system, _, _, _ = run_fem("circle", "paper_sin", "dirichlet", 20)
    _, _, grads = fem_gradient(system, nodal_fill(system, grid, lambda x, y: x + y))
    assert np.allclose(grads, 1.0, atol=1e-11)
    _, _, grads = fem_gradient(system, nodal_fill(system, grid, lambda x, y: 0 * x + 2.0))
    assert np.allclose(grads, 0.0, atol=1e-12)


def test_fem_gradient_bilinear_at_centers():
    # u = x*y on a fully interior grid: gradient at a cell center is (y_c, x_c)
    domain = full_square_domain()
    grid = Grid(8)
    case = make_case("constant")
    bc = make_bc_spec("circle", "dirichlet")
    system = assemble_fem(grid, domain, case, bc, alpha=2.0)
    pts, w, grads = fem_gradient(system, nodal_fill(system, grid, lambda x, y: x * y))
    assert len(pts) > 0
    assert np.allclose(grads[:, 0], pts[:, 1], atol=1e-11)
    assert np.allclose(grads[:, 1], pts[:, 0], atol=1e-11)


def test_solution_sample_weights_cover_domain():
    grid, system, _, _, _ = run_fem("circle", "paper_sin", "dirichlet", 40)
    _, w, _ = solution_samples(system, np.zeros(system.n_rows))
    area = sum(c.area for c in system.cells.values())
    assert w.sum() == pytest.approx(area, rel=1e-12)
