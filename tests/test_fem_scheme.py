import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss

from conftest import (ELLIPSES, csr_bytes, ellipse_domain, full_square_domain,
                      omega_h_area, run_fem, segment_lengths, traced_peak)
from uel import Grid, assemble_fem, make_bc_spec, make_case, make_domain
from uel.analysis import fitted_order
from uel.cli import solution_errors
from uel.errors import ConfigurationError
from uel.fem_scheme import (S_FULL, SEG_WEIGHTS, TRI_WEIGHTS, _boundary_blocks,
                            _cell_basis, _eroded, _stiffness_blocks,
                            _triangle_quadrature, fem_gradient, solution_samples)
from uel.geometry import (CELL_CUT, CELL_INSIDE, BCSpec, LevelSetDomain, _band,
                          classify, extract_cut_cells, snap_small_cells)

DOMAINS = ("circle", "leaf", "flower", "hourglass")


# ----------------------------------------------------------------------
# quadrature and basis
# ----------------------------------------------------------------------

def test_quadrature_weights_positive_and_normalized():
    assert np.all(TRI_WEIGHTS > 0)
    assert TRI_WEIGHTS.sum() == pytest.approx(1.0, abs=1e-14)
    assert np.all(SEG_WEIGHTS > 0)
    assert SEG_WEIGHTS.sum() == pytest.approx(1.0, abs=1e-14)


def test_basis_is_nodal():
    # the four cell hats (SW, SE, NE, NW) at the four corners: identity
    grid = Grid(10)
    corners = np.array([grid.node(4, 4), grid.node(5, 4),
                        grid.node(5, 5), grid.node(4, 5)])
    vals, _, _ = _cell_basis(grid, np.array([4, 4]), corners)
    assert np.allclose(vals, np.eye(4), atol=1e-14)


def test_basis_at_support_cell_center():
    grid = Grid(10)
    h = grid.h
    x, y = grid.node(4, 4)
    vals, gx, gy = _cell_basis(grid, np.array([4, 4]), np.array([[x + h / 2, y + h / 2]]))
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


def full_cell_triangles(grid, cell):
    """Fan triangles (T, 3, 2) of a cell lying wholly inside Omega."""
    return _band(grid, np.ones((grid.n + 1, grid.n + 1)), np.array([cell]),
                 np.zeros(1, dtype=np.int64)).triangles


def stiffness_of(grid, tris, cell):
    """4x4 stiffness block of triangles tris lying in one cell."""
    _, w, _, gx, gy = _triangle_quadrature(grid, tris, np.tile(cell, (len(tris), 1)))
    return _stiffness_blocks(gx, gy, w, np.zeros(len(tris), dtype=np.int64), 1)[0]


def test_full_area_cut_cells_take_the_closed_form():
    # phi = |x - x_c|^2 vanishes only at node c = (4, 4): its four cells are
    # cut cells covering the whole square, without boundary segments, so
    # the assembled row of c is the closed-form 9-point stiffness stencil
    grid = Grid(8)
    xc, yc = grid.node(4, 4)
    domain = LevelSetDomain("point", lambda x, y: (x - xc) ** 2 + (y - yc) ** 2,
                            lambda x, y: (2.0 * (x - xc), 2.0 * (y - yc)))
    system = assemble_fem(grid, domain, make_case("constant"),
                          make_bc_spec("circle", "dirichlet"), alpha=2.0)
    around = ((3, 3), (4, 3), (4, 4), (3, 4))
    assert all(system.classification.cell_role[c] == CELL_CUT for c in around)
    keys = list(map(tuple, system.band.cells.tolist()))
    at = [keys.index(c) for c in around]
    assert np.all(system.band.area[at] == grid.h ** 2)
    assert not np.isin(system.band.segment_owner, at).any()
    row = system.matrix[system.index[4, 4]].toarray().ravel()
    # S_FULL summed over the four cells: 4 * 4/6 on the diagonal, 2 * -1/6
    # to the edge neighbors and -2/6 to the diagonal ones
    stencil = np.full((3, 3), -1.0 / 3.0)
    stencil[1, 1] = 8.0 / 3.0
    assert np.allclose(row[system.index[3:6, 3:6]], stencil, atol=1e-14)
    assert np.count_nonzero(row) == 9


def test_triangle_quadrature_matches_closed_form():
    # the quadrature path on the two fan triangles of a full cell
    grid = Grid(8)
    assert np.allclose(stiffness_of(grid, full_cell_triangles(grid, (3, 3)), (3, 3)),
                       S_FULL, atol=1e-12)


def test_triangle_rule_exact_to_degree_four():
    # the two fan triangles of a full cell integrate every monomial
    # s^a t^b, a + b <= 4, in cell-local coordinates exactly
    grid = Grid(8)
    h = grid.h
    tris = full_cell_triangles(grid, (3, 3))
    x0, y0 = grid.node(3, 3)
    assert len(tris) == 2
    pts, w, _, _, _ = _triangle_quadrature(grid, tris, np.array([[3, 3]] * 2))
    for a in range(5):
        for b in range(5 - a):
            total = np.sum(w * (pts[..., 0] - x0) ** a * (pts[..., 1] - y0) ** b)
            ref = gauss_square_oracle(h, lambda s, t: s ** a * t ** b)
            assert total == pytest.approx(ref, rel=1e-12)


def test_empty_cell_contributes_nothing():
    grid = Grid(8)
    S4 = stiffness_of(grid, np.zeros((0, 3, 2)), (0, 0))
    assert np.all(S4 == 0.0)


# ----------------------------------------------------------------------
# boundary terms
# ----------------------------------------------------------------------

def boundary_blocks(band, grid, bc, case):
    """(P, D, rhs) of every band cell, each (C, ...), with lambda = 1."""
    return _boundary_blocks(grid, bc, case, 1.0, band)


def test_neumann_segment_leaves_dirichlet_blocks_empty():
    grid = Grid(8)
    domain = make_domain("circle")
    case = make_case("constant")
    all_neumann = BCSpec(-math.inf)
    cls = classify(grid, domain, "eight")
    band = extract_cut_cells(cls, domain)
    assert len(band.p0)
    P, D, _ = boundary_blocks(band, grid, all_neumann, case)
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
    all_neumann = BCSpec(-math.inf)
    cls = classify(grid, domain, "eight")
    if snapped:
        cls = snap_small_cells(cls, grid, domain, 2.0)
    band = extract_cut_cells(cls, domain)
    flux = boundary_blocks(band, grid, all_neumann, case)[2].sum()
    assert flux == pytest.approx(4.0 * omega_h_area(cls, band), rel=1e-12)


def test_dirichlet_mass_total_equals_length():
    # partition of unity: sum_ij of the local P block equals the Dirichlet
    # boundary length of the cell
    grid = Grid(16)
    domain = make_domain("circle")
    case = make_case("constant")
    bc = make_bc_spec("circle", "dirichlet")
    band = extract_cut_cells(classify(grid, domain, "eight"), domain)
    P, _, _ = boundary_blocks(band, grid, bc, case)
    lengths = np.bincount(band.segment_owner, segment_lengths(band), minlength=len(band.cells))
    for length, P_cell in zip(lengths, P):
        assert P_cell.sum() == pytest.approx(length, rel=1e-12)


def test_constant_solution_consistency():
    # g_D from u == 1 with f = 0: the assembled rhs equals A @ ones
    for bc_kind in ("dirichlet", "mixed"):
        grid, system, _, _, _ = run_fem("circle", "constant", bc_kind, 20)
        ones = np.ones(len(system.nodes))
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
        # exact: each entry's terms are summed in the same cell order as
        # its transpose's
        assert A.has_canonical_format
        assert (A != A.T).nnz == 0


@settings(derandomize=True, deadline=None, max_examples=15)
@given(**ELLIPSES, n=st.sampled_from((16, 24, 32, 48)))
def test_matrix_symmetry_on_random_ellipses(cx, cy, a, b, n):
    # the linear case has the same matrix as any other; the method is
    # consistent and its quadrature exact for u = 1 + x + y, so the nodal
    # interpolant solves A u_I = F up to round-off.  The Dirichlet part is
    # left of the centre, off the grid lines, so boundary segments cross
    # the interface and are split there.
    domain = ellipse_domain(cx, cy, a, b)
    grid = Grid(n)
    case, bc = make_case("linear"), BCSpec(cx)
    raw = classify(grid, domain, "eight")
    for alpha in (1.5, 2.0):
        for cls in (raw, None):  # None: assemble_fem snaps with alpha
            system = assemble_fem(grid, domain, case, bc, alpha=alpha,
                                  classification=cls)
            A = system.matrix
            assert A.has_canonical_format
            assert (A != A.T).nnz == 0
            u_I = case.u(grid.xs[system.nodes[:, 0]], grid.xs[system.nodes[:, 1]])
            assert np.abs(A @ u_I - system.rhs).max() <= 1e-12 * np.abs(system.rhs).max()
            assert dirichlet_mass(system.band, grid, bc, case) == pytest.approx(
                dirichlet_length(system.band, cx), rel=1e-10)


def test_assembly_peak_memory_is_a_small_multiple_of_the_matrix():
    # the full cells enter as one 9-point stencil entry per node and
    # neighbour, merged with the band entries into the CSR arrays
    # directly: circle, mixed BC, alpha=2, N=160 peaks at 2.9x the CSR
    # matrix's bytes (11x with 16 int64 COO entries per cell and three
    # CSR sums)
    args = (Grid(160), make_domain("circle"), make_case("paper_sin"),
            make_bc_spec("circle", "mixed"))
    system, peak = traced_peak(lambda: assemble_fem(*args, alpha=2.0))
    assert system.matrix.indices.dtype == np.int32
    assert peak <= 4.5 * csr_bytes(system.matrix)


def test_solution_samples_peak_memory_is_close_to_its_output():
    # preallocated outputs filled in place: 1.2x their bytes at circle,
    # mixed BC, alpha=2, N=160 (2.2x when stacked from per-block arrays)
    grid = Grid(160)
    system = assemble_fem(grid, make_domain("circle"), make_case("paper_sin"),
                          make_bc_spec("circle", "mixed"), alpha=2.0)
    u = nodal_fill(system, grid, lambda x, y: x * y)
    samples, peak = traced_peak(lambda: solution_samples(system, u))
    assert peak <= 1.25 * sum(a.nbytes for a in samples)


def test_linear_case_is_exact():
    for n in (40, 80):
        _, system, u, _, case = run_fem("circle", "linear", "dirichlet", n)
        _, _, nodal = solution_errors(system, u, case)
        assert nodal <= 1e-8


def test_circle_l2_convergence():
    hs, errs = [], []
    for n in (40, 80, 160):
        grid, system, u, _, case = run_fem("circle", "paper_sin", "dirichlet", n)
        eu, _, _ = solution_errors(system, u, case)
        hs.append(grid.h)
        errs.append(eu[1])
    assert fitted_order(hs, errs) >= 1.7


def dirichlet_length(band, c):
    """Length of the boundary segments left of the line x = c, each clipped
    at the line (segments on the line count as left, as for a non-strict
    interface): an oracle for the Dirichlet part that splits nothing."""
    total = 0.0
    for p0, p1, length in zip(band.p0, band.p1, segment_lengths(band)):
        lo, hi = sorted((p0[0], p1[0]))
        total += length * (1.0 if hi <= c else 0.0 if lo >= c else (c - lo) / (hi - lo))
    return total


def dirichlet_mass(band, grid, bc, case):
    return boundary_blocks(band, grid, bc, case)[0].sum()


def test_mass_matrix_totals():
    # the Dirichlet mass blocks sum to the Dirichlet part of the boundary
    # length under the mixed split (the area total is checked by
    # test_solution_sample_weights_cover_domain)
    grid, system, _, _, case = run_fem("circle", "paper_sin", "mixed", 40)
    bc = make_bc_spec("circle", "mixed")
    dlen = dirichlet_length(system.band, bc.interface)
    assert 0.0 < dlen < segment_lengths(system.band).sum()
    assert dirichlet_mass(system.band, grid, bc, case) == pytest.approx(dlen, rel=1e-10)


def test_stiffness_rows_sum_to_zero_in_the_interior():
    # away from Gamma_h the system rows are pure stiffness rows
    grid, system, _, _, _ = run_fem("circle", "paper_sin", "dirichlet", 24)
    inside = system.classification.cell_role == CELL_INSIDE
    sums = np.asarray(system.matrix.sum(axis=1)).ravel()
    band = set(map(tuple, system.band.cells.tolist()))
    checked = 0
    for k, (i, j) in enumerate(system.nodes):
        cells = [(i - 1, j - 1), (i, j - 1), (i - 1, j), (i, j)]
        if all(0 <= a < grid.n and 0 <= b < grid.n and inside[a, b]
               and (a, b) not in band for a, b in cells):
            assert abs(sums[k]) <= 1e-12
            checked += 1
    assert checked > 0


def test_pure_neumann_rejected():
    grid = Grid(20)
    domain = make_domain("circle")
    case = make_case("constant")
    with pytest.raises(ConfigurationError):
        assemble_fem(grid, domain, case, BCSpec(-math.inf))


def test_alpha_validated():
    grid = Grid(20)
    with pytest.raises(ConfigurationError):
        assemble_fem(grid, make_domain("circle"), make_case("constant"),
                     make_bc_spec("circle", "dirichlet"), alpha=2.5)


def small_disk(r):
    c = 0.0625
    return LevelSetDomain(
        "disk", lambda x, y: r - np.sqrt((x - c) ** 2 + (y - c) ** 2),
        lambda x, y: (-(x - c) / np.hypot(x - c, y - c), -(y - c) / np.hypot(x - c, y - c)))


@pytest.mark.parametrize("r, message", [
    # 4 interior nodes, but all 9 cut cells fall to the snapping
    (0.1, "snapping at alpha=2.0 disregarded every cut cell"),
    # no interior node, nothing snapped
    (0.05, "the domain does not intersect the grid")])
def test_empty_band_error_names_its_cause(r, message):
    with pytest.raises(ConfigurationError, match=f"no active cells: {message}"):
        assemble_fem(Grid(16), small_disk(r), make_case("constant"),
                     make_bc_spec("circle", "dirichlet"), alpha=2.0)


@pytest.mark.parametrize("name, alpha", [("circle", 2.0), ("flower", 1.5)])
def test_cells_view_agrees_with_the_band(name, alpha):
    # what the benchmark tracing harness reads of FemSystem.cells: its keys
    # and size, and which cells carry boundary segments
    grid, system, _, _, _ = run_fem(name, "paper_sin", "mixed", 40, alpha=alpha)
    band, cells = system.band, system.cells
    assert list(cells) == list(map(tuple, band.cells.tolist()))
    assert len(cells) == len(band.cells)
    carries = np.zeros(len(band.cells), dtype=bool)
    carries[band.segment_owner] = True
    assert [bool(c.boundary_segments) for c in cells.values()] == carries.tolist()


# ----------------------------------------------------------------------
# discrete gradient
# ----------------------------------------------------------------------

def nodal_fill(system, grid, func):
    return np.asarray(func(grid.xs[system.nodes[:, 0]],
                           grid.xs[system.nodes[:, 1]]), dtype=float)


@pytest.mark.parametrize("shape", [(3, 3), (4, 5), (5, 5), (7, 4), (16, 16), (33, 30)])
@pytest.mark.parametrize("k", (1, 2, 3))
@pytest.mark.parametrize("fill", (0.5, 0.9, 0.99, 1.0))
def test_eroded_matches_the_window_definition(shape, k, fill):
    # a cell survives when every cell of its (2k+1)^2 window is in the
    # mask; windows reaching off the array never do (all of them when a
    # side is shorter than 2k+1)
    mask = np.random.default_rng(7).random(shape) < fill
    n0, n1 = shape
    expect = np.array([[i - k >= 0 and i + k < n0 and j - k >= 0 and j + k < n1
                        and mask[i - k:i + k + 1, j - k:j + k + 1].all()
                        for j in range(n1)] for i in range(n0)], dtype=bool)
    assert np.array_equal(_eroded(mask, k), expect)


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
    _, w, _ = solution_samples(system, np.zeros(len(system.nodes)))
    area = omega_h_area(system.classification, system.band)
    assert w.sum() == pytest.approx(area, rel=1e-12)


def test_fem_gradient_fallback_walks_the_solution_samples():
    # hourglass at N=16, alpha=2 has no inside cell with a fully inside
    # two-ring, so fem_gradient falls back to the Omega_h quadrature points
    grid, system, _, _, _ = run_fem("hourglass", "paper_sin", "mixed", 16, alpha=2.0)
    u = nodal_fill(system, grid, lambda x, y: 2.0 * x + 3.0 * y)
    pts, w, grads = fem_gradient(system, u)
    spts, sw, _ = solution_samples(system, u)
    assert len(pts) == len(spts) == len(w) == len(grads)
    order = np.lexsort(np.round(pts, 9).T)
    sorder = np.lexsort(np.round(spts, 9).T)
    assert np.allclose(pts[order], spts[sorder], rtol=0.0, atol=1e-14)
    assert np.allclose(w[order], sw[sorder], rtol=1e-13, atol=0.0)
    assert np.abs(grads - [2.0, 3.0]).max() <= 1e-12
