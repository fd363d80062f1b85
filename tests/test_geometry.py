import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ELLIPSES, ellipse_domain, omega_h_area
from uel import Grid, make_bc_spec, make_domain
from uel.analysis import fitted_order
from uel.errors import ConfigurationError, GeometryError
from uel.geometry import (CELL_CUT, CELL_INSIDE, CELL_OUTSIDE, CELL_SNAPPED,
                          NODE_GHOST, NODE_INACTIVE, NODE_INTERIOR,
                          LevelSetDomain, _cut_cell, _cut_polygons, classify,
                          extract_cut_cells, project_to_boundary,
                          snap_small_cells)

DOMAINS = ("circle", "leaf", "flower", "hourglass")

# A point inside each built-in domain (the hourglass one sits on its pinch).
SEEDS = {"circle": (0.0, 0.0), "leaf": (0.0, 0.0),
         "flower": (0.03 * math.sqrt(3.0), 0.04 * math.sqrt(2.0)),
         "hourglass": (0.03 * math.sqrt(3.0), 0.04 * math.sqrt(2.0))}


def role_count(cls, role):
    return int(np.count_nonzero(cls.node_role == role))


def const_domain(value):
    return LevelSetDomain(
        "const", lambda x, y: np.full_like(np.asarray(x, dtype=float), value),
        lambda x, y: (np.zeros_like(np.asarray(x, dtype=float)),
                      np.zeros_like(np.asarray(x, dtype=float))))


# ----------------------------------------------------------------------
# domains
# ----------------------------------------------------------------------

def test_circle_values():
    d = make_domain("circle")
    assert float(d.phi(0.0, 0.0)) == pytest.approx(0.8, abs=1e-15)
    assert float(d.phi(0.8, 0.0)) == pytest.approx(0.0, abs=1e-14)


def test_leaf_normalized_positive_at_origin():
    # evaluate the printed formula by hand: max(R1, R2) - 0.7 at the origin,
    # negated by the sign normalization
    c = 0.25 * math.cos(math.pi / 4.0)
    expected = 0.7 - c
    d = make_domain("leaf")
    assert float(d.phi(0.0, 0.0)) == pytest.approx(expected, rel=1e-13)
    assert expected > 0


def test_unknown_domain_rejected():
    with pytest.raises(ConfigurationError):
        make_domain("square")


@pytest.mark.parametrize("name", DOMAINS)
def test_sign_normalization_positive_inside(name):
    d = make_domain(name)
    sx, sy = SEEDS[name]
    # the hourglass seed sits exactly on the pinch point, probe just off it
    probe = (sx, sy + 1e-3) if name == "hourglass" else (sx + 1e-3, sy)
    assert float(d.phi(*probe)) > 0.0


@pytest.mark.parametrize("name", DOMAINS)
def test_analytic_gradient_matches_finite_differences(name):
    d = make_domain(name)
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 50:
        x, y = rng.uniform(-0.9, 0.9, 2)
        v = float(d.phi(x, y))
        if not np.isfinite(v) or abs(v) > 0.2:
            continue
        gx, gy = d.grad_phi(x, y)
        s = 1e-6
        fx = (float(d.phi(x + s, y)) - float(d.phi(x - s, y))) / (2 * s)
        fy = (float(d.phi(x, y + s)) - float(d.phi(x, y - s))) / (2 * s)
        scale = max(1.0, abs(fx), abs(fy))
        assert abs(float(gx) - fx) / scale < 1e-6
        assert abs(float(gy) - fy) / scale < 1e-6
        checked += 1


@pytest.mark.parametrize("name", DOMAINS)
def test_gradient_nonzero_near_boundary(name):
    d = make_domain(name)
    grid = Grid(80)
    cls = classify(grid, d, "four")
    gi, gj = np.nonzero(cls.node_role == NODE_GHOST)
    for i, j in zip(gi[::5], gj[::5]):
        gx, gy = d.gradient(grid.xs[i], grid.xs[j])
        assert math.hypot(gx, gy) > 1e-8


# ----------------------------------------------------------------------
# classification
# ----------------------------------------------------------------------

def test_classify_circle_n4_counts():
    # enumerate all 25 nodes of the N=4 grid against x^2 + y^2 < 0.64
    grid = Grid(4)
    cls = classify(grid, make_domain("circle"), "four")
    assert role_count(cls, NODE_INTERIOR) == 9
    assert role_count(cls, NODE_GHOST) == 12
    assert role_count(cls, NODE_INACTIVE) == 4
    corners = [(0, 0), (0, 4), (4, 0), (4, 4)]
    assert all(cls.node_role[i, j] == NODE_INACTIVE for i, j in corners)


def test_classify_full_and_empty_domains():
    grid = Grid(8)
    full = classify(grid, const_domain(1.0), "four")
    assert np.all(full.node_role == NODE_INTERIOR)
    assert np.all(full.cell_role == CELL_INSIDE)
    empty = classify(grid, const_domain(-1.0), "four")
    assert np.all(empty.node_role == NODE_INACTIVE)
    assert np.all(empty.cell_role == CELL_OUTSIDE)


def test_eight_neighborhood_extends_ghost_set():
    grid = Grid(4)
    d = make_domain("circle")
    four = classify(grid, d, "four")
    eight = classify(grid, d, "eight")
    # the four corner nodes gain interior diagonal neighbors
    assert role_count(eight, NODE_GHOST) == 16
    assert role_count(eight, NODE_INACTIVE) == 0
    assert np.all((four.node_role != NODE_GHOST) | (eight.node_role == NODE_GHOST))


@pytest.mark.parametrize("name", DOMAINS)
@pytest.mark.parametrize("n", (16, 40))
def test_role_partition(name, n):
    grid = Grid(n)
    cls = classify(grid, make_domain(name), "four")
    assert cls.node_role.shape == (n + 1, n + 1)
    assert np.all(np.isin(cls.node_role, (NODE_INTERIOR, NODE_GHOST, NODE_INACTIVE)))


def test_classify_rejects_bad_neighborhood():
    with pytest.raises(ConfigurationError):
        classify(Grid(8), make_domain("circle"), "six")


def test_grid_needs_four_cells():
    with pytest.raises(ConfigurationError):
        Grid(2)


# ----------------------------------------------------------------------
# normals
# ----------------------------------------------------------------------

def test_normal_at_circle_points():
    d = make_domain("circle")
    assert np.allclose(d.outward_normal(0.8, 0.0), [1.0, 0.0], atol=1e-14)
    assert np.allclose(d.outward_normal(0.0, -0.5), [0.0, -1.0], atol=1e-14)


def test_normal_at_half_plane_follows_gradient():
    # Omega = {x > 0}: phi grows inward, so the outward normal is
    # -grad(phi)/|grad(phi)|
    d = LevelSetDomain("half", lambda x, y: 2.0 * x + 0.0 * y,
                       lambda x, y: (np.full_like(np.asarray(x, dtype=float), 2.0),
                                     np.zeros_like(np.asarray(x, dtype=float))))
    assert np.allclose(d.outward_normal(0.3, -0.2), [-1.0, 0.0], atol=1e-14)


def test_normal_degenerate_gradient_raises():
    d = const_domain(1.0)
    with pytest.raises(GeometryError):
        d.outward_normal(0.1, 0.1)


# ----------------------------------------------------------------------
# boundary projection
# ----------------------------------------------------------------------

def small_circle(radius):
    def phi(x, y):
        return radius - np.sqrt(x * x + y * y)

    def grad(x, y):
        r = np.maximum(np.sqrt(x * x + y * y), 1e-300)
        return -x / r, -y / r

    return LevelSetDomain("c", phi, grad, circle_center=(0.0, 0.0))


def test_projection_radial_example():
    # circle r=0.77, G=(0.8, 0), h=0.1
    grid = Grid(20)
    proj = project_to_boundary((18, 10), small_circle(0.77), grid, tol_factor=1e-12)
    assert proj.point == pytest.approx([0.77, 0.0], abs=1e-12)
    assert proj.nu == pytest.approx(0.03, abs=1e-11)
    assert proj.theta[0] == pytest.approx(0.3, abs=1e-10)
    assert proj.theta[1] == 0.0
    assert proj.signs == (-1, 0)


def test_projection_half_plane_example():
    # same setup scaled so theta_x = 0.5: phi = -x, G = (0.25, 0.4), h = 0.5
    d = LevelSetDomain("left", lambda x, y: -x + 0.0 * y,
                       lambda x, y: (-np.ones_like(np.asarray(x, dtype=float)),
                                     np.zeros_like(np.asarray(x, dtype=float))))

    class FakeGrid:
        n = 4
        h = 0.5
        xs = np.array([-1.0, -0.5, 0.0, 0.25, 0.4])

        def node(self, i, j):
            return self.xs[i], self.xs[j]

    proj = project_to_boundary((3, 4), d, FakeGrid(), tol_factor=1e-12)
    assert proj.point == pytest.approx([0.0, 0.4], abs=1e-12)
    assert proj.nu == pytest.approx(0.25, abs=1e-11)
    assert proj.theta[0] == pytest.approx(0.5, abs=1e-10)
    assert proj.signs[0] == -1


def test_projection_rejects_interior_node():
    grid = Grid(20)
    with pytest.raises(GeometryError):
        project_to_boundary((10, 10), make_domain("circle"), grid)


@pytest.mark.parametrize("name", DOMAINS)
def test_projection_consistency_invariants(name):
    domain = make_domain(name)
    grid = Grid(40)
    cls = classify(grid, domain, "four")
    gi, gj = np.nonzero(cls.node_role == NODE_GHOST)
    for i, j in zip(gi, gj):
        proj = project_to_boundary((int(i), int(j)), domain, grid)
        g = np.array(grid.node(i, j))
        assert np.hypot(*(g - proj.point)) == pytest.approx(proj.nu, abs=1e-12)
        assert np.hypot(*proj.normal) == pytest.approx(1.0, abs=1e-12)
        assert 0.0 <= proj.theta[0] < 1.0
        assert 0.0 <= proj.theta[1] < 1.0
        # B lies on Gamma within the bisection tolerance (gradient ~ 1 for
        # the circle/leaf; allow a generous factor for the generic domains)
        if name in ("circle", "leaf"):
            assert abs(float(domain.phi(*proj.point))) < 2e-4 * grid.h * 10


# ----------------------------------------------------------------------
# cut cells
# ----------------------------------------------------------------------

def cut_cell(cell, grid, phi):
    """CutCell of one cell from nodal values phi, with its Gamma_h chords as
    the only boundary segments (no side of the cell exposed)."""
    return _cut_cell(*_cut_polygons(cell, grid, phi), 0, grid.h)


def test_cut_cell_full_and_empty():
    grid = Grid(8)
    h = grid.h
    full = cut_cell((3, 3), grid, np.full((9, 9), 1.0))
    assert full.area == pytest.approx(h * h)
    assert not full.boundary_segments
    empty = cut_cell((3, 3), grid, np.full((9, 9), -1.0))
    assert empty.area == 0.0
    assert not empty.polygons


def test_cut_cell_vertical_midcell_cut():
    # phi = h/2 - (x - x_left): linear cut through the middle of cell (0, 0)
    grid = Grid(8)
    h = grid.h
    x_left = grid.xs[0]
    phi = np.broadcast_to(((x_left + h / 2.0) - grid.xs)[:, None], (9, 9))
    cell = cut_cell((0, 0), grid, phi)
    assert cell.area == pytest.approx(h * h / 2.0, rel=1e-12)
    assert len(cell.boundary_segments) == 1
    seg = cell.boundary_segments[0]
    assert seg.length == pytest.approx(h, rel=1e-12)
    assert np.allclose(seg.normal, [1.0, 0.0], atol=1e-12)


def test_segment_normals_point_to_decreasing_phi():
    domain = make_domain("circle")
    grid = Grid(40)
    cells = extract_cut_cells(classify(grid, domain, "four"), domain)
    eps = 1e-7
    for cut in cells.values():
        for seg in cut.boundary_segments:
            mid = 0.5 * (seg.p0 + seg.p1)
            outside = float(domain.phi(*(mid + eps * seg.normal)))
            inside = float(domain.phi(*(mid - eps * seg.normal)))
            assert outside < inside


def test_saddle_cell_disconnected_polygons():
    # bilinear vertex data (+, -, +, -) with negative center: two triangles
    grid = Grid(4)
    phi = np.full((5, 5), -1.0)
    phi[0, 0] = 0.4
    phi[1, 1] = 0.4
    cell = cut_cell((0, 0), grid, phi)
    assert len(cell.polygons) == 2
    assert cell.area == pytest.approx(2 * 0.5 * (0.4 / 1.4 * grid.h) ** 2, rel=1e-12)
    assert len(cell.boundary_segments) == 2


def test_circle_area_and_perimeter_convergence():
    domain = make_domain("circle")
    hs, ea, ep = [], [], []
    for n in (40, 80, 160):
        grid = Grid(n)
        cls = classify(grid, domain, "four")
        cells = extract_cut_cells(cls, domain)
        area = omega_h_area(cls, cells)
        peri = sum(s.length for c in cells.values() for s in c.boundary_segments)
        hs.append(grid.h)
        ea.append(abs(area - math.pi * 0.64))
        ep.append(abs(peri - 1.6 * math.pi))
    assert fitted_order(hs, ea) >= 1.5
    assert fitted_order(hs, ep) >= 1.5


def boundary_band(classification):
    """Reference band, cell by cell: positive-area cut cells, and inside
    cells with an edge neighbor that is off the grid or carries no area."""
    grid = classification.grid
    role = classification.cell_role
    n = grid.n

    def occupied(ci, cj):
        if not (0 <= ci < n and 0 <= cj < n):
            return False
        if role[ci, cj] == CELL_CUT:
            return _cut_polygons((ci, cj), grid, classification.phi_node)[1] > 0.0
        return role[ci, cj] == CELL_INSIDE

    band = set()
    for ci in range(n):
        for cj in range(n):
            if role[ci, cj] == CELL_CUT and occupied(ci, cj):
                band.add((ci, cj))
            elif role[ci, cj] == CELL_INSIDE and not all(
                    occupied(ci + di, cj + dj)
                    for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1))):
                band.add((ci, cj))
    return band


@pytest.mark.parametrize("name", DOMAINS)
@pytest.mark.parametrize("n", (16, 40))
@pytest.mark.parametrize("snapped", (False, True))
def test_extract_cut_cells_is_the_boundary_band(name, n, snapped):
    domain = make_domain(name)
    grid = Grid(n)
    cls = classify(grid, domain, "eight")
    if snapped:
        cls = snap_small_cells(cls, grid, domain, 2.0)
    cells = extract_cut_cells(cls, domain)
    assert set(cells) == boundary_band(cls)
    assert list(cells) == sorted(cells)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(**ELLIPSES, n=st.sampled_from((16, 24, 32, 48, 64)),
       alpha=st.sampled_from((1.5, 2.0)))
def test_band_geometry_on_random_ellipses(cx, cy, a, b, n, alpha):
    domain = ellipse_domain(cx, cy, a, b)
    grid = Grid(n)
    raw = classify(grid, domain, "eight")
    for cls in (raw, snap_small_cells(raw, grid, domain, alpha)):
        cells = extract_cut_cells(cls, domain)
        # Gamma_h is closed
        total = sum((s.length * s.normal for c in cells.values()
                     for s in c.boundary_segments), np.zeros(2))
        assert np.abs(total).max() <= 1e-12
        # the keys are the band: every segment sits on a band cell, and
        # every cut cell with positive area is a key
        assert set(cells) == boundary_band(cls)
    assert abs(omega_h_area(raw, extract_cut_cells(raw, domain))
               - math.pi * a * b) <= 4.0 * grid.h ** 2


# ----------------------------------------------------------------------
# snapping
# ----------------------------------------------------------------------

def bilinear_domain(grid, cell, corners):
    """Domain whose phi is the global bilinear extension of the given corner
    values on one cell."""
    ci, cj = cell
    x0, y0 = grid.node(ci, cj)
    h = grid.h
    v00, v10, v11, v01 = corners

    def phi(x, y):
        s = (np.asarray(x, dtype=float) - x0) / h
        t = (np.asarray(y, dtype=float) - y0) / h
        return (v00 * (1 - s) * (1 - t) + v10 * s * (1 - t)
                + v11 * s * t + v01 * (1 - s) * t)

    def grad(x, y):
        s = (np.asarray(x, dtype=float) - x0) / h
        t = (np.asarray(y, dtype=float) - y0) / h
        return (((v10 - v00) * (1 - t) + (v11 - v01) * t) / h,
                ((v01 - v00) * (1 - s) + (v11 - v10) * s) / h)

    return LevelSetDomain("bilinear", phi, grad)


def test_snap_sliver_cell_without_interior_vertex():
    # two vertices inside the band, none interior -> snapped
    grid = Grid(4)
    q = grid.h ** 2.0
    d = bilinear_domain(grid, (1, 1), (-q / 2.0, -2 * q, -3 * q, -q / 2.0))
    cls = classify(grid, d, "eight")
    snapped = snap_small_cells(cls, grid, d, 2.0)
    assert snapped.cell_role[1, 1] == CELL_SNAPPED


def test_snap_leaves_clear_cells_untouched():
    grid = Grid(8)
    cls = classify(grid, const_domain(1.0), "eight")
    snapped = snap_small_cells(cls, grid, const_domain(1.0), 2.0)
    assert np.all(snapped.cell_role == CELL_INSIDE)
    assert np.array_equal(snapped.phi_node, cls.phi_node)


def test_snap_area_change_small():
    # alpha=2, N=160 circle: snapped area differs from the raw area by O(h^2)
    domain = make_domain("circle")
    grid = Grid(160)
    cls = classify(grid, domain, "eight")
    raw = omega_h_area(cls, extract_cut_cells(cls, domain))
    snapped_cls = snap_small_cells(cls, grid, domain, 2.0)
    snapped = omega_h_area(snapped_cls, extract_cut_cells(snapped_cls, domain))
    assert abs(snapped - raw) < 5.0 * grid.h ** 2


@pytest.mark.parametrize("name", DOMAINS)
@pytest.mark.parametrize("alpha", (1.55, 2.0))
def test_snap_never_grows_active_set(name, alpha):
    domain = make_domain(name)
    for n in (40, 80):
        grid = Grid(n)
        cls = classify(grid, domain, "eight")
        snapped = snap_small_cells(cls, grid, domain, alpha)
        before = cls.node_role != NODE_INACTIVE
        after = snapped.node_role != NODE_INACTIVE
        assert not np.any(after & ~before)


def test_snap_alpha_range_checked():
    grid = Grid(8)
    d = make_domain("circle")
    cls = classify(grid, d, "eight")
    with pytest.raises(ConfigurationError):
        snap_small_cells(cls, grid, d, 1.2)


def test_extracted_boundary_is_closed_after_snapping():
    # the union of polygons has a closed boundary: the integral of the
    # outward normal over all boundary segments vanishes
    domain = make_domain("circle")
    grid = Grid(40)
    cls = snap_small_cells(classify(grid, domain, "eight"), grid, domain, 2.0)
    cells = extract_cut_cells(cls, domain)
    total = np.zeros(2)
    for cut in cells.values():
        for seg in cut.boundary_segments:
            total += seg.length * seg.normal
    assert np.allclose(total, 0.0, atol=1e-12)


@pytest.mark.parametrize("snapped", (False, True))
def test_boundary_on_grid_lines_is_covered_once(snapped):
    # Gamma runs along grid lines, so boundary vertices sit on phi = 0
    # exactly and the polygon edges along cell sides come from zero corners
    square = LevelSetDomain(
        "square", lambda x, y: np.minimum(0.5 - np.abs(x), 0.5 - np.abs(y)),
        lambda x, y: (-np.sign(x), -np.sign(y)))
    grid = Grid(16)
    cls = classify(grid, square, "eight")
    if snapped:
        cls = snap_small_cells(cls, grid, square, 2.0)
    segs = [s for c in extract_cut_cells(cls, square).values()
            for s in c.boundary_segments]
    assert sum(s.length for s in segs) == pytest.approx(4.0, abs=1e-12)
    total = sum((s.length * s.normal for s in segs), np.zeros(2))
    assert np.abs(total).max() <= 1e-12
    ends = {frozenset((tuple(s.p0), tuple(s.p1))) for s in segs}
    assert len(ends) == len(segs)


def test_bc_spec_regions():
    assert make_bc_spec("circle", "dirichlet").is_dirichlet(0.5, 0.1)
    mixed = make_bc_spec("circle", "mixed")
    assert mixed.is_dirichlet(-0.1, 0.5) and mixed.is_dirichlet(0.0, 0.5)
    assert not mixed.is_dirichlet(0.1, 0.5)
    assert mixed.is_dirichlet(np.array([-0.1, 0.0, 0.1]), 0.5).tolist() == [True, True, False]
    leaf = make_bc_spec("leaf", "mixed")
    assert not leaf.is_dirichlet(0.0, 0.5)  # strict x < 0
    with pytest.raises(ConfigurationError):
        make_bc_spec("circle", "robin")
