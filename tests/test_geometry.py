import math
import re
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from conftest import ELLIPSES, SHIFTS, ellipse_domain, omega_h_area, segment_lengths
from uel import Grid, assemble_fd, assemble_fem, make_bc_spec, make_case, make_domain
from uel.analysis import fitted_order
from uel.errors import ConfigurationError, GeometryError
from uel.geometry import (CELL_CUT, CELL_INSIDE, CELL_OUTSIDE, CELL_SNAPPED,
                          NODE_GHOST, NODE_INACTIVE, NODE_INTERIOR, SHAPE_OFFSET,
                          LevelSetDomain, _band, _march, classify,
                          extract_cut_cells, project_ghosts,
                          project_to_boundary, snap_small_cells)

DOMAINS = ("circle", "leaf", "flower", "hourglass")

# A point inside each built-in domain (the hourglass one sits on its pinch).
SEEDS = {"circle": (0.0, 0.0), "leaf": (0.0, 0.0),
         "flower": SHAPE_OFFSET, "hourglass": SHAPE_OFFSET}


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
        gx, gy = d.grad_phi(grid.xs[i], grid.xs[j])
        assert math.hypot(gx, gy) > 1e-8


def printed_hourglass(x, y):
    """The centred hourglass's (phi, dphi/dx, dphi/dy) in the printed **
    form, and the sums of the absolute values of their terms, which bound
    their round-off."""
    ax, ay = np.abs(x), np.abs(y)
    values = (-(256.0 * y ** 4 - 16.0 * x ** 4 - 128.0 * y ** 2 + 36.0 * x ** 2),
              -(-64.0 * x ** 3 + 72.0 * x), -(1024.0 * y ** 3 - 256.0 * y))
    scales = (256.0 * y ** 4 + 16.0 * x ** 4 + 128.0 * y ** 2 + 36.0 * x ** 2,
              64.0 * ax ** 3 + 72.0 * ax, 1024.0 * ay ** 3 + 256.0 * ay)
    return values, scales


def printed_flower(x, y):
    """The centred flower's (phi, dphi/dx, dphi/dy) in the printed ** form,
    min(-(R - 0.52 - w) / (5 R^5), 0.66 - R) with w = R^5 sin(5t), and the
    sums of the absolute values of their terms."""
    ax, ay = np.abs(x), np.abs(y)
    r = np.sqrt(x * x + y * y)
    rs = np.where(r == 0.0, 1.0, r)
    a = r - 0.52 - (y ** 5 + 5.0 * x ** 4 * y - 10.0 * x ** 2 * y ** 3)
    a_scale = r + 0.52 + ay ** 5 + 5.0 * ax ** 4 * ay + 10.0 * ax ** 2 * ay ** 3
    da = (x / rs - (20.0 * x ** 3 * y - 20.0 * x * y ** 3),
          y / rs - (5.0 * y ** 4 + 5.0 * x ** 4 - 30.0 * x ** 2 * y ** 2))
    da_scale = (ax / rs + 20.0 * ax ** 3 * ay + 20.0 * ax * ay ** 3,
                ay / rs + 5.0 * ay ** 4 + 5.0 * ax ** 4 + 30.0 * ax ** 2 * ay ** 2)
    b = 5.0 * rs ** 5
    db = (25.0 * rs ** 3 * x, 25.0 * rs ** 3 * y)
    raw = np.where(r == 0.0, -np.inf, a / b)
    petal = -raw <= 0.66 - r
    values = (np.minimum(-raw, 0.66 - r),
              *(np.where(petal, -(dak * b - a * dbk) / (b * b), -xk / rs)
                for dak, dbk, xk in zip(da, db, (x, y))))
    scales = (np.where(petal, a_scale / b, 0.66 + r),
              *(np.where(petal, (sk * b + a_scale * np.abs(dbk)) / (b * b), 1.0)
                for sk, dbk in zip(da_scale, db)))
    return values, scales


PRINTED = {"flower": printed_flower, "hourglass": printed_hourglass}


@pytest.mark.parametrize("name", sorted(PRINTED))
def test_level_sets_match_the_printed_powers(name):
    # make_domain evaluates the printed powers as products: phi and
    # grad_phi stay within a few ulps of the ** form, relative to the sum
    # of the terms' magnitudes (3.7 at most over 500,000 points), the
    # centre R = 0 included, and every node and cell keeps its role
    domain = make_domain(name)
    dx, dy = SHAPE_OFFSET
    x, y = np.random.default_rng(13).uniform(-1.0, 1.0, (2, 20000))
    x, y = np.append(x, dx), np.append(y, dy)
    values, scales = PRINTED[name](x - dx, y - dy)
    for got, value, scale in zip((domain.phi(x, y), *domain.grad_phi(x, y)),
                                 values, scales):
        differs = got != value
        assert np.isfinite(got).all() and got[-1] == value[-1]
        assert (np.abs(got - value)[differs]
                <= 8.0 * np.finfo(float).eps * scale[differs]).all()
    printed = LevelSetDomain(name, lambda x, y: PRINTED[name](x, y)[0][0],
                             lambda x, y: PRINTED[name](x, y)[0][1:]).shifted(dx, dy)
    for n in (80, 160, 320):
        for neighborhood in ("four", "eight"):
            got = classify(Grid(n), domain, neighborhood)
            want = classify(Grid(n), printed, neighborhood)
            assert np.array_equal(got.node_role, want.node_role)
            assert np.array_equal(got.cell_role, want.cell_role)


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


def test_circle_normal_undefined_at_its_centre():
    # grad(phi) of the circle is zero at its centre: the normal there is
    # undefined, with the message of any vanishing level-set gradient
    with pytest.raises(GeometryError, match=re.escape(
            "vanishing level-set gradient at (0.0, 0.0) on domain 'circle'")):
        make_domain("circle").outward_normal(0.0, 0.0)


# ----------------------------------------------------------------------
# boundary projection
# ----------------------------------------------------------------------

def small_circle(radius):
    def phi(x, y):
        return radius - np.sqrt(x * x + y * y)

    def grad(x, y):
        r = np.maximum(np.sqrt(x * x + y * y), 1e-300)
        return -x / r, -y / r

    return LevelSetDomain("c", phi, grad)


def test_projection_radial_example():
    # circle r=0.77, G=(0.8, 0), h=0.1
    grid = Grid(20)
    proj = project_ghosts([(18, 10)], small_circle(0.77), grid, tol_factor=1e-12)
    assert proj.point[0] == pytest.approx([0.77, 0.0], abs=1e-12)
    assert np.hypot(*(proj.point[0] - grid.node(18, 10))) == pytest.approx(0.03, abs=1e-11)
    assert proj.theta[0, 0] == pytest.approx(0.3, abs=1e-10)
    assert proj.theta[0, 1] == 0.0
    assert proj.signs.tolist() == [[-1, 0]]


def test_project_to_boundary_is_the_one_row_record():
    # the benchmark tracing harness probes the projection one ghost at a time
    grid, domain = Grid(20), small_circle(0.77)
    one = project_to_boundary((18, 10), domain, grid)
    ref = project_ghosts([(18, 10)], domain, grid)
    assert [getattr(one, f.name).tobytes() for f in fields(one)] == \
        [getattr(ref, f.name).tobytes() for f in fields(ref)]


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

    grid = FakeGrid()
    proj = project_ghosts([(3, 4)], d, grid, tol_factor=1e-12)
    assert proj.point[0] == pytest.approx([0.0, 0.4], abs=1e-12)
    assert np.hypot(*(proj.point[0] - grid.node(3, 4))) == pytest.approx(0.25, abs=1e-11)
    assert proj.theta[0, 0] == pytest.approx(0.5, abs=1e-10)
    assert proj.signs[0, 0] == -1


def test_projection_rejects_interior_node():
    grid = Grid(20)
    with pytest.raises(GeometryError):
        project_ghosts([(10, 10)], make_domain("circle"), grid)


@pytest.mark.parametrize("tol_factor", (0.0, -1.0, math.nan, math.inf, -math.inf))
def test_projection_rejects_a_tolerance_that_is_not_finite_and_positive(tol_factor):
    # 0, -1 or NaN would never end the bisection loop
    domain, grid = make_domain("flower"), Grid(40)
    ghosts = np.argwhere(classify(grid, domain, "four").node_role == NODE_GHOST)
    message = f"bisection tolerance must be finite and positive, got {tol_factor * grid.h}"
    with pytest.raises(ConfigurationError, match=message):
        project_ghosts(ghosts, domain, grid, tol_factor=tol_factor)


def test_projection_bisection_stops_at_adjacent_floats():
    # a tolerance below the spacing of the floats near the feet can never
    # be met: the bisection stops at two adjacent floats instead
    domain, grid = make_domain("flower"), Grid(40)
    ghosts = np.argwhere(classify(grid, domain, "four").node_role == NODE_GHOST)

    def foot_distances(tol_factor):
        record = project_ghosts(ghosts, domain, grid, tol_factor=tol_factor)
        return np.hypot(*(record.point - grid.xs[ghosts]).T)

    assert np.abs(foot_distances(1e-20) - foot_distances(1e-12)).max() <= 1e-12 * grid.h


def test_projection_errors_follow_check_order():
    # Omega = {x > 0.55} on N=20: the column x = 0.5 is all ghosts.  phi is
    # NaN at node A = (15, 5) and grad(phi) vanishes at node B = (15, 10);
    # the phi check runs before the normal check, so A's error is raised
    # whichever node comes first in the node array.
    grid = Grid(20)
    xa, ya = grid.node(15, 5)
    xb, yb = grid.node(15, 10)

    def phi(x, y):
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        return np.where((x == xa) & (y == ya), np.nan, x - 0.55)

    def grad(x, y):
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        return np.where((x == xb) & (y == yb), 0.0, 1.0), np.zeros_like(y)

    d = LevelSetDomain("slab", phi, grad)
    vanishing = re.escape(f"vanishing level-set gradient at ({xb}, {yb})")
    nonfinite = re.escape("phi is not finite along a projection ray from node (15, 5)")
    with pytest.raises(GeometryError, match=vanishing):
        project_ghosts([(15, 10)], d, grid)
    for order in ([(15, 8), (15, 10), (15, 5)], [(15, 8), (15, 5), (15, 10)]):
        with pytest.raises(GeometryError, match=nonfinite):
            project_ghosts(order, d, grid)


def test_non_finite_gradient_leaves_the_normal_undefined():
    # Omega = {x > 0.55} on N=20 with grad(phi) NaN at node B = (15, 10):
    # phi is finite everywhere, so the error names the gradient, and node
    # order still decides between it and an earlier ghost's error
    grid = Grid(20)
    xb, yb = grid.node(15, 10)

    def phi(x, y):
        return np.asarray(x, dtype=float) - 0.55

    def grad(x, y):
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        return np.where((x == xb) & (y == yb), np.nan, 1.0), np.zeros_like(y)

    d = LevelSetDomain("slab", phi, grad)
    nonfinite = re.escape(f"non-finite level-set gradient at ({xb}, {yb})")
    with pytest.raises(GeometryError, match=nonfinite):
        project_ghosts([(15, 10)], d, grid)
    with pytest.raises(GeometryError, match=nonfinite):
        d.outward_normal(xb, yb)
    with pytest.raises(GeometryError, match=nonfinite):
        d.outward_normal(np.array([0.5, xb]), np.array([0.1, yb]))
    assert np.array_equal(d.outward_normal(0.5, 0.1), [-1.0, 0.0])

    def grad_vanishing_first(x, y):
        gx, gy = grad(x, y)
        return np.where((x == xb) & (y == grid.node(15, 5)[1]), 0.0, gx), gy

    d2 = LevelSetDomain("slab", phi, grad_vanishing_first)
    with pytest.raises(GeometryError, match=re.escape("vanishing level-set gradient")):
        project_ghosts([(15, 5), (15, 10)], d2, grid)
    with pytest.raises(GeometryError, match=nonfinite):
        project_ghosts([(15, 10), (15, 5)], d2, grid)


@pytest.mark.parametrize("name", DOMAINS)
def test_projection_consistency_invariants(name):
    domain = make_domain(name)
    grid = Grid(40)
    cls = classify(grid, domain, "four")
    proj = project_ghosts(np.argwhere(cls.node_role == NODE_GHOST), domain, grid)
    g = grid.xs[proj.ghost]
    # the foot sits theta h from G along each stencil direction
    assert np.abs(proj.point - g) == pytest.approx(proj.theta * grid.h, abs=1e-12)
    assert ((0.0 <= proj.theta) & (proj.theta < 1.0)).all()
    # B lies on Gamma within the bisection tolerance (gradient ~ 1 for
    # the circle/leaf; allow a generous factor for the generic domains)
    if name in ("circle", "leaf"):
        assert (np.abs(domain.phi(*proj.point.T)) < 2e-4 * grid.h * 10).all()


# ----------------------------------------------------------------------
# cut cells
# ----------------------------------------------------------------------

def cut_cell(cell, grid, phi, exposed=0):
    """One-cell BoundaryBand of a cell from nodal values phi; only the sides
    set in exposed add boundary segments to its Gamma_h chords."""
    return _band(grid, phi, np.array([cell]), np.array([exposed]))


def polygon_sizes(cell, grid, phi):
    """Vertex counts of the marching-squares polygons of one cell."""
    return _march(grid, phi, np.array([cell]))[3]


def test_cut_cell_full_and_empty():
    grid = Grid(8)
    h = grid.h
    full = cut_cell((3, 3), grid, np.full((9, 9), 1.0))
    assert full.area[0] == pytest.approx(h * h)
    assert not len(full.p0)
    phi = np.full((9, 9), -1.0)
    empty = cut_cell((3, 3), grid, phi)
    assert empty.area[0] == 0.0
    assert not len(polygon_sizes((3, 3), grid, phi))


def test_cut_cell_vertical_midcell_cut():
    # phi = h/2 - (x - x_left): linear cut through the middle of cell (0, 0)
    grid = Grid(8)
    h = grid.h
    x_left = grid.xs[0]
    phi = np.broadcast_to(((x_left + h / 2.0) - grid.xs)[:, None], (9, 9))
    cell = cut_cell((0, 0), grid, phi)
    assert cell.area[0] == pytest.approx(h * h / 2.0, rel=1e-12)
    assert len(cell.p0) == 1
    assert segment_lengths(cell)[0] == pytest.approx(h, rel=1e-12)
    assert np.allclose(cell.normal[0], [1.0, 0.0], atol=1e-12)


def test_segment_normals_point_to_decreasing_phi():
    domain = make_domain("circle")
    grid = Grid(40)
    band = extract_cut_cells(classify(grid, domain, "four"), domain)
    eps = 1e-7
    mid = 0.5 * (band.p0 + band.p1)
    outside = domain.phi(*(mid + eps * band.normal).T)
    inside = domain.phi(*(mid - eps * band.normal).T)
    assert len(mid) and np.all(outside < inside)


def test_saddle_cell_disconnected_polygons():
    # bilinear vertex data (+, -, +, -) with negative center: two triangles
    grid = Grid(4)
    phi = np.full((5, 5), -1.0)
    phi[0, 0] = 0.4
    phi[1, 1] = 0.4
    cell = cut_cell((0, 0), grid, phi)
    assert len(polygon_sizes((0, 0), grid, phi)) == 2
    assert cell.area[0] == pytest.approx(2 * 0.5 * (0.4 / 1.4 * grid.h) ** 2, rel=1e-12)
    assert len(cell.p0) == 2


def test_saddle_cell_connected_hexagon():
    # the same corner signs with a non-negative center: one hexagon, the
    # square minus the two negative corner triangles, cut by two chords
    grid = Grid(4)
    h = grid.h
    phi = np.full((5, 5), -0.2)
    phi[0, 0] = 0.4
    phi[1, 1] = 0.4
    cell = cut_cell((0, 0), grid, phi)
    assert polygon_sizes((0, 0), grid, phi).tolist() == [6]
    corner = 0.5 * (0.2 / 0.6 * h) ** 2
    assert cell.area[0] == pytest.approx(h * h - 2 * corner, rel=1e-12)
    assert len(cell.p0) == 2
    assert segment_lengths(cell) == pytest.approx([math.sqrt(2.0) * 0.2 / 0.6 * h] * 2,
                                                  rel=1e-12)


def test_root_next_to_a_corner_merges_into_it():
    # corner 1 sits 1e-13 above zero and corner 0 well below: the bottom
    # root lies within 1e-12 h of corner 1, which merges into it and lends
    # it the right-side bit, so the edge up the right side is a side piece,
    # not a chord, and an exposed right side yields exactly one segment
    grid = Grid(4)
    h = grid.h
    phi = np.full((5, 5), 1.0)
    phi[0, 0] = -1.0
    phi[1, 0] = 1e-13
    assert polygon_sizes((0, 0), grid, phi).tolist() == [4]
    for exposed, n_segments in ((0b0000, 1), (0b0010, 2)):
        cell = cut_cell((0, 0), grid, phi, exposed)
        assert cell.area[0] == pytest.approx(0.75 * h * h, rel=1e-10)
        assert len(cell.p0) == n_segments
        assert np.hypot(*(cell.p1[0] - grid.node(1, 0))) <= 1e-12 * h
    assert np.array_equal(cell.normal[1], [1.0, 0.0])
    assert np.hypot(*(cell.p0[1] - grid.node(1, 0))) <= 1e-12 * h
    assert tuple(cell.p1[1]) == grid.node(1, 1)
    assert segment_lengths(cell)[1] == pytest.approx(h, rel=1e-10)
    # mirrored: the root comes after its corner in the walk and merges into
    # it; the exposed left side runs into that corner exactly
    phi[0, 0], phi[1, 0] = 1e-13, -1.0
    cell = cut_cell((0, 0), grid, phi, 0b1000)
    assert polygon_sizes((0, 0), grid, phi)[0] == 4 and len(cell.p0) == 2
    assert np.array_equal(cell.normal[1], [-1.0, 0.0])
    assert tuple(cell.p1[1]) == grid.node(0, 0)


def test_circle_area_and_perimeter_convergence():
    domain = make_domain("circle")
    hs, ea, ep = [], [], []
    for n in (40, 80, 160):
        grid = Grid(n)
        cls = classify(grid, domain, "four")
        band = extract_cut_cells(cls, domain)
        area = omega_h_area(cls, band)
        peri = segment_lengths(band).sum()
        hs.append(grid.h)
        ea.append(abs(area - math.pi * 0.64))
        ep.append(abs(peri - 1.6 * math.pi))
    assert fitted_order(hs, ea) >= 1.5
    assert fitted_order(hs, ep) >= 1.5


def boundary_band(classification):
    """Reference band, cell by cell: positive-area cut cells, and inside
    cells with an edge neighbor that is off the grid or carries no area.
    Only the area of a cut cell comes from the marching-squares kernel."""
    grid = classification.grid
    role = classification.cell_role
    n = grid.n

    def occupied(ci, cj):
        if not (0 <= ci < n and 0 <= cj < n):
            return False
        if role[ci, cj] == CELL_CUT:
            return _march(grid, classification.phi_node, np.array([[ci, cj]]))[-1][0] > 0.0
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
    keys = list(map(tuple, extract_cut_cells(cls, domain).cells.tolist()))
    assert set(keys) == boundary_band(cls)
    assert keys == sorted(keys)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(**ELLIPSES, n=st.sampled_from((16, 24, 32, 48, 64)),
       alpha=st.sampled_from((1.5, 2.0)))
def test_band_geometry_on_random_ellipses(cx, cy, a, b, n, alpha):
    domain = ellipse_domain(cx, cy, a, b)
    grid = Grid(n)
    raw = classify(grid, domain, "eight")
    for cls in (raw, snap_small_cells(raw, grid, domain, alpha)):
        band = extract_cut_cells(cls, domain)
        # Gamma_h is closed
        total = (segment_lengths(band)[:, None] * band.normal).sum(axis=0)
        assert np.abs(total).max() <= 1e-12
        # the keys are the band: every segment sits on a band cell, and
        # every cut cell with positive area is a key
        assert set(map(tuple, band.cells.tolist())) == boundary_band(cls)
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
    band = extract_cut_cells(cls, domain)
    total = (segment_lengths(band)[:, None] * band.normal).sum(axis=0)
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
    band = extract_cut_cells(cls, square)
    length = segment_lengths(band)
    assert length.sum() == pytest.approx(4.0, abs=1e-12)
    total = (length[:, None] * band.normal).sum(axis=0)
    assert np.abs(total).max() <= 1e-12
    ends = {frozenset((tuple(p0), tuple(p1))) for p0, p1 in zip(band.p0, band.p1)}
    assert len(ends) == len(band.p0)


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


# ----------------------------------------------------------------------
# shifted built-in domains
# ----------------------------------------------------------------------

@pytest.mark.parametrize("name", DOMAINS)
def test_shifted_reads_the_domain_at_the_moved_point(name):
    base = make_domain(name)
    x, y = np.random.default_rng(11).uniform(-1.0, 1.0, (2, 200))
    for dx, dy in SHIFTS[:3]:
        domain = base.shifted(dx, dy)
        assert domain.name == base.name
        assert np.array_equal(domain.phi(x, y), base.phi(x - dx, y - dy))
        assert np.array_equal(domain.grad_phi(x, y), base.grad_phi(x - dx, y - dy))
    # a domain carries nothing but its level set
    assert [f.name for f in fields(LevelSetDomain)] == ["name", "phi", "grad_phi"]
    if name == "circle":
        # the circles drawn about the moved centres lie on Gamma
        t = np.linspace(0.0, 2.0 * np.pi, 97)
        for dx, dy in [(0.0, 0.0)] + SHIFTS:
            x, y = dx + 0.8 * np.cos(t), dy + 0.8 * np.sin(t)
            assert np.abs(base.shifted(dx, dy).phi(x, y)).max() <= 1e-15


@pytest.mark.parametrize("name, shift", [(name, SHIFTS[2 * k + m])
                                         for k, name in enumerate(DOMAINS) for m in (0, 1)])
@pytest.mark.parametrize("bc_kind", ("dirichlet", "mixed"))
def test_shifted_domains_assemble(name, shift, bc_kind):
    # two shifts per built-in domain (the circle's second one has extended
    # ghosts at N=40, p=2): every FD and FEM system assembles into a
    # canonical int32 CSR matrix, the FD feet lie on Gamma within the
    # bisection tolerance, Gamma_h of FEM is closed, every segment end
    # shared with another segment up to round-off, and area(Omega_h), raw
    # and snapped at alpha=2, is that of the centred domain within the
    # ellipse test's 4 h^2 (1.3 h^2 at most over 12 shifts)
    centred = make_domain(name)
    domain, case, bc = centred.shifted(*shift), make_case("paper_sin"), make_bc_spec(name, bc_kind)
    for n in (40, 80, 160):
        grid = Grid(n)
        fd = [assemble_fd(grid, domain, case, bc, p=p) for p in (1, 2)]
        fem = [assemble_fem(grid, domain, case, bc, alpha=alpha) for alpha in (1.5, 2.0)]
        for system in fd + fem:
            assert system.matrix.has_canonical_format
            assert system.matrix.indices.dtype == system.matrix.indptr.dtype == np.int32
        for system in fd:
            x, y = system.ghosts.point.T
            assert (np.abs(domain.phi(x, y)) <= 1e-4 * grid.h
                    * np.hypot(*domain.grad_phi(x, y))).all()
        for system in fem:
            ends = np.concatenate([system.band.p0, system.band.p1])
            shared = cKDTree(ends).query_ball_point(ends, 1e-12 * grid.h, return_length=True)
            assert (shared >= 2).all() and (shared % 2 == 0).all()
        raw, centred_raw = classify(grid, domain, "eight"), classify(grid, centred, "eight")
        centred_snapped = snap_small_cells(centred_raw, grid, centred, 2.0)
        for area, cls in ((omega_h_area(raw, extract_cut_cells(raw)), centred_raw),
                          (omega_h_area(fem[1].classification, fem[1].band), centred_snapped)):
            assert abs(area - omega_h_area(cls, extract_cut_cells(cls))) <= 4.0 * grid.h ** 2
