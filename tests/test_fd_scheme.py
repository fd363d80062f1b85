from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ELLIPSES, ellipse_domain, fd_errors, full_square_domain, run_fd
from uel import (Grid, assemble_fd, make_bc_spec, make_case, make_domain,
                 relative_error, solve_direct)
from uel.analysis import fitted_order
from uel.errors import ConfigurationError, GeometryError
from uel.fd_scheme import (_stencil_nodes, _weights, fd_gradient, ghost_row,
                           mitigate_ill_conditioning)
from uel.geometry import (NODE_GHOST, NODE_INTERIOR, BoundaryProjection,
                          LevelSetDomain, classify, project_ghosts,
                          project_to_boundary)


# ----------------------------------------------------------------------
# Lagrange weights
# ----------------------------------------------------------------------

def test_weights_p2_theta0():
    w = _weights(0.0, 2, 0.1, 1)
    assert w.l == pytest.approx((1.0, 0.0, 0.0))
    assert tuple(0.1 * v for v in w.l_prime) == pytest.approx((-1.5, 2.0, -0.5))


def test_weights_p1_midpoint():
    w = _weights(0.5, 1, 0.2, 1)
    assert w.l == pytest.approx((0.5, 0.5))


def test_weights_p2_midpoint():
    w = _weights(0.5, 2, 1.0, 1)
    assert w.l == pytest.approx((0.375, 0.75, -0.125))


def test_weights_reject_out_of_range_theta():
    # ghost_row refuses an offset past the stencil span before weighting it
    grid = Grid(20)
    domain = half_plane(0.3)
    for theta in ((2.0, 0.0), (0.5, 2.5)):
        with pytest.raises(GeometryError, match="outside the stencil span"):
            ghost_row(make_proj(theta), 2, grid, domain,
                      phi_node_of(grid, domain), lambda p: 0.0, None)
    with pytest.raises(ConfigurationError):
        _weights(0.5, 3, 0.1, 1)


@pytest.mark.parametrize("p", (1, 2))
@pytest.mark.parametrize("spacing", (1, 2))
def test_weights_partition_of_unity(p, spacing):
    rng = np.random.default_rng(11)
    for theta in rng.uniform(0.0, 1.0 - 1e-12, 200):
        w = _weights(theta, p, 0.05, spacing)
        assert sum(w.l) == pytest.approx(1.0, abs=1e-13)
        assert sum(w.l_prime) == pytest.approx(0.0, abs=1e-10)


# ----------------------------------------------------------------------
# interior rows
# ----------------------------------------------------------------------

def five_point_rows(system):
    """(rows, i, j) of the 5-point rows: interior nodes off the grid frame."""
    n = system.grid.n
    ii, jj = np.nonzero(system.classification.node_role == NODE_INTERIOR)
    keep = (ii > 0) & (ii < n) & (jj > 0) & (jj < n)
    ii, jj = ii[keep], jj[keep]
    return system.index[ii, jj], ii, jj


def apply_matrix(system, func):
    """Assembled matrix applied to func sampled at the active nodes."""
    x = system.grid.xs[system.nodes[:, 0]]
    y = system.grid.xs[system.nodes[:, 1]]
    return system.matrix @ np.broadcast_to(func(x, y), x.shape)


def circle_fd_system():
    return assemble_fd(Grid(10), make_domain("circle"), make_case("paper_sin"),
                       make_bc_spec("circle", "mixed"), p=2)


def test_interior_row_annihilates_constants_and_linears():
    system = circle_fd_system()
    rows, _, _ = five_point_rows(system)
    assert len(rows) > 0
    for func in (lambda x, y: 3.0, lambda x, y: x, lambda x, y: y):
        assert np.allclose(apply_matrix(system, func)[rows], 0.0, atol=1e-10)


def test_interior_row_on_quadratic():
    # rows encode -lap_h, exact on quadratics: -lap(x^2 + y^2) = -4
    system = circle_fd_system()
    rows, _, _ = five_point_rows(system)
    vals = apply_matrix(system, lambda x, y: x * x + y * y)[rows]
    assert np.allclose(vals, -4.0, atol=1e-9)


def test_interior_row_rhs_and_bounds():
    # 5-point rows carry f(node); interior nodes on the grid frame (Omega
    # fills the box) have no 5-point stencil and are pinned to u(node)
    grid = Grid(10)
    xs = grid.xs
    case = make_case("paper_sin")
    system = assemble_fd(grid, full_square_domain(), case,
                         make_bc_spec("circle", "dirichlet"), p=2)
    rows, ii, jj = five_point_rows(system)
    assert np.array_equal(system.rhs[rows], case.f(xs[ii], xs[jj]))
    fi, fj = np.nonzero(system.classification.node_role == NODE_INTERIOR)
    on_frame = (fi == 0) | (fi == grid.n) | (fj == 0) | (fj == grid.n)
    fi, fj = fi[on_frame], fj[on_frame]
    assert len(fi) == 4 * grid.n
    frame_rows = system.index[fi, fj]
    block = system.matrix[frame_rows].tocoo()
    assert np.array_equal(frame_rows[block.row], block.col)
    assert np.all(block.data == 1.0)
    assert np.array_equal(system.rhs[frame_rows], case.u(xs[fi], xs[fj]))


# ----------------------------------------------------------------------
# ghost rows
# ----------------------------------------------------------------------

def apply_row(nodes, coeffs, grid, func):
    return sum(c * func(*grid.node(i, j)) for (i, j), c in zip(nodes, coeffs))


def half_plane(c):
    """Omega = {x < c} with unit slope."""
    return LevelSetDomain("hp", lambda x, y: c - x + 0.0 * y,
                          lambda x, y: (-np.ones_like(np.asarray(x, dtype=float)),
                                        np.zeros_like(np.asarray(x, dtype=float))))


def phi_node_of(grid, domain):
    return classify(grid, domain, "four").phi_node


def test_ghost_row_dirichlet_collapses_to_nodal_value():
    proj = BoundaryProjection((5, 5), np.array([0.0, 0.0]), 0.0,
                              np.array([1.0, 0.0]), (0.0, 0.0), (1, 1),
                              bc_kind="dirichlet")
    grid = Grid(10)
    nodes, coeffs, rhs = ghost_row(proj, 2, grid, half_plane(0.3),
                                   phi_node_of(grid, half_plane(0.3)),
                                   lambda p: 7.0, None)
    assert nodes == [(5, 5)]
    assert coeffs == pytest.approx([1.0])
    assert rhs == 7.0


def test_ghost_row_dirichlet_p1_two_point_stencil():
    proj = BoundaryProjection((5, 5), np.array([0.0, 0.0]), 0.0,
                              np.array([1.0, 0.0]), (0.5, 0.0), (1, 0),
                              bc_kind="dirichlet")
    grid = Grid(10)
    nodes, coeffs, _ = ghost_row(proj, 1, grid, half_plane(0.3),
                                 phi_node_of(grid, half_plane(0.3)),
                                 lambda p: 0.0, None)
    assert nodes == [(5, 5), (6, 5)]
    assert coeffs == pytest.approx([0.5, 0.5])


def test_ghost_row_neumann_reproduces_unit_slope():
    # u = x sampled on the stencil: the derivative row returns exactly 1
    # (the interpolated level-set normal of the half plane is (1, 0))
    domain = half_plane(0.37)
    grid = Grid(20)  # h = 0.1; node (14, 10) = (0.4, 0.0) is exterior
    proj = project_to_boundary((14, 10), domain, grid, tol_factor=1e-12)
    proj = replace(proj, bc_kind="neumann")
    captured = {}

    def g_n(point, normal):
        captured["normal"] = normal
        return float(normal[0])  # grad(x) . n

    nodes, coeffs, rhs = ghost_row(proj, 2, grid, domain,
                                   phi_node_of(grid, domain), None, g_n)
    val = apply_row(nodes, coeffs, grid, lambda x, y: x)
    assert val == pytest.approx(1.0, abs=1e-11)
    assert captured["normal"] == pytest.approx([1.0, 0.0], abs=1e-12)
    assert rhs == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("p", (1, 2))
def test_ghost_row_polynomial_reproduction(p):
    # p=1 rows reproduce bilinear functions at B, p=2 rows biquadratics;
    # the p=2 derivative rows reproduce their normal derivative.
    domain = make_domain("circle")
    grid = Grid(20)
    phi_node = phi_node_of(grid, domain)

    if p == 1:
        def u(x, y):
            return 2.0 - 3.0 * x + y + 0.5 * x * y

        def grad_u(x, y):
            return -3.0 + 0.5 * y, 1.0 + 0.5 * x
    else:
        def u(x, y):
            return (1.0 + x + 0.5 * x * x) * (2.0 - y + 0.25 * y * y)

        def grad_u(x, y):
            return (1.0 + x) * (2.0 - y + 0.25 * y * y), \
                   (1.0 + x + 0.5 * x * x) * (-1.0 + 0.5 * y)

    cls = classify(grid, domain, "four")
    gi, gj = np.nonzero(cls.node_role == NODE_GHOST)
    for i, j in zip(gi, gj):
        proj = project_to_boundary((int(i), int(j)), domain, grid, 1e-12)
        bx, by = proj.point
        # value row
        pd = replace(proj, bc_kind="dirichlet")
        nodes, coeffs, _ = ghost_row(pd, p, grid, domain, phi_node,
                                     lambda pt: 0.0, None)
        val = apply_row(nodes, coeffs, grid, u)
        assert val == pytest.approx(u(bx, by), rel=1e-10, abs=1e-11)
        if p == 2:
            # derivative row with the exact circle normal
            pn = replace(proj, bc_kind="neumann")
            nodes, coeffs, _ = ghost_row(pn, 2, grid, domain, phi_node,
                                         None, lambda pt, nb: 0.0)
            val = apply_row(nodes, coeffs, grid, u)
            nb = proj.point / np.hypot(*proj.point)
            gx, gy = grad_u(bx, by)
            assert val == pytest.approx(gx * nb[0] + gy * nb[1], rel=1e-9, abs=1e-10)


def test_ghost_row_sums():
    # Dirichlet rows sum to one, Neumann rows to zero
    domain = make_domain("circle")
    case = make_case("paper_sin")
    bc = make_bc_spec("circle", "mixed")
    grid = Grid(20)
    system = assemble_fd(grid, domain, case, bc, p=2)
    for node, proj in system.projections.items():
        row = system.matrix.getrow(system.index[node])
        total = row.sum()
        if proj.bc_kind == "dirichlet":
            assert total == pytest.approx(1.0, abs=1e-12)
        else:
            assert abs(total) <= 1e-12 * max(1.0, abs(row).max())


@settings(derandomize=True, deadline=None, max_examples=15)
@given(**ELLIPSES, n=st.sampled_from((16, 24, 32)))
def test_value_rows_and_offsets_on_random_ellipses(cx, cy, a, b, n):
    # every ghost of an all-Dirichlet system carries a value row: applied to
    # a biquadratic (a quadratic along a diagonal column) it gives u(B);
    # primary offsets lie in [0, 1), halved ones just below 1/2, extended
    # ones below 2
    grid = Grid(n)
    system = assemble_fd(grid, ellipse_domain(cx, cy, a, b), make_case("paper_sin"),
                         make_bc_spec("ellipse", "dirichlet"), p=2)
    x, y = grid.xs[system.nodes[:, 0]], grid.xs[system.nodes[:, 1]]
    biquadratic = (lambda x, y: (1.0 + x + 0.5 * x * x) * (2.0 - y + 0.25 * y * y))
    quadratic = (lambda x, y: 1.0 + x - 2.0 * y + x * x - x * y + 0.5 * y * y)
    rows = {u: system.matrix @ u(x, y) for u in (biquadratic, quadratic)}
    primary = system.classification.node_role == NODE_GHOST
    for node, proj in system.projections.items():
        u = quadratic if proj.diagonal else biquadratic
        assert rows[u][system.index[node]] == pytest.approx(u(*proj.point), abs=1e-8)
        upper = 1.0 if primary[node] else 2.0
        for theta, spacing in zip(proj.theta, proj.spacing):
            assert 0.0 <= theta < upper
            if spacing == 2:
                assert 0.5 * (1.0 - grid.h) < theta < 0.5


# ----------------------------------------------------------------------
# mitigation
# ----------------------------------------------------------------------

def make_proj(theta, kind="dirichlet", signs=(1, 1)):
    return BoundaryProjection((5, 5), np.array([0.0, 0.0]), 0.01,
                              np.array([1.0, 0.0]), theta, signs, bc_kind=kind)


def test_mitigation_halves_theta():
    [out] = mitigate_ill_conditioning([make_proj((0.99, 0.2))], 0.05)
    assert out.theta[0] == pytest.approx(0.495)
    assert out.theta[1] == 0.2
    assert out.spacing == (2, 1)
    assert out.enlarged


def test_mitigation_not_triggered():
    [out] = mitigate_ill_conditioning([make_proj((0.5, 0.5))], 0.05)
    assert out is make_proj((0.5, 0.5)) or not out.enlarged
    assert out.theta == (0.5, 0.5)


def test_mitigation_skips_neumann():
    [out] = mitigate_ill_conditioning([make_proj((0.99, 0.99), kind="neumann")], 0.05)
    assert not out.enlarged
    assert out.theta == (0.99, 0.99)


def test_mitigated_diagonal_bounded():
    # after mitigation the diagonal of the constructed near-1 example is
    # l0(0.495) per direction, far above the unmitigated l0(0.99)
    grid = Grid(20)
    domain = half_plane(0.37)
    [proj] = mitigate_ill_conditioning([make_proj((0.99, 0.0), signs=(1, 0))], grid.h)
    nodes, coeffs, _ = ghost_row(proj, 1, grid, domain,
                                 phi_node_of(grid, domain), lambda p: 0.0, None)
    diag = coeffs[nodes.index((5, 5))]
    assert diag == pytest.approx(1.0 - 0.495)
    assert diag >= 0.05


# ----------------------------------------------------------------------
# assembly
# ----------------------------------------------------------------------

def test_assemble_circle_n4_size():
    grid, system, _, _, _ = run_fd("circle", "paper_sin", "dirichlet", 4)
    assert system.matrix.shape == (21, 21)
    assert np.count_nonzero(system.classification.node_role == NODE_INTERIOR) == 9
    assert len(system.projections) == 12


def test_full_square_recovers_classical_five_point():
    # phi == 1 on all of R: frame nodes carry the boundary data and the
    # interior is the textbook 5-point scheme; second-order over N=20..80
    domain = full_square_domain()
    case = make_case("paper_sin")
    bc = make_bc_spec("circle", "dirichlet")
    hs, errs = [], []
    for n in (20, 40, 80):
        grid = Grid(n)
        system = assemble_fd(grid, domain, case, bc, p=2)
        u, _ = solve_direct(system.matrix, system.rhs)
        ii, jj = np.nonzero(system.classification.node_role == NODE_INTERIOR)
        errs.append(relative_error(u[system.index[ii, jj]],
                                   case.u(grid.xs[ii], grid.xs[jj]), "inf"))
        hs.append(grid.h)
    assert 1.8 <= fitted_order(hs, errs) <= 2.2


def test_quadratic_case_is_exact():
    for n in (40, 80):
        grid, system, u, _, case = run_fd("circle", "quadratic", "dirichlet", n,
                                          p=2, tol_factor=1e-12)
        eu, _ = fd_errors(grid, system, u, case)
        assert eu[2] <= 1e-8


def test_interior_rows_sum_to_zero():
    for bc_kind in ("dirichlet", "mixed"):
        grid, system, _, _, _ = run_fd("circle", "paper_sin", bc_kind, 20)
        role = system.classification.node_role
        ghost_nodes = set(map(tuple, np.argwhere(role == NODE_GHOST)))
        sums = np.asarray(system.matrix.sum(axis=1)).ravel()
        scale = 4.0 / grid.h ** 2
        for k, (i, j) in enumerate(system.nodes):
            if (i, j) not in ghost_nodes and role[i, j] == NODE_INTERIOR:
                assert abs(sums[k]) <= 1e-12 * scale


def test_matrix_is_nonsymmetric():
    _, system, _, _, _ = run_fd("circle", "paper_sin", "dirichlet", 20)
    asym = abs(system.matrix - system.matrix.T).max()
    assert asym > 0.0


def test_assemble_rejects_bad_p():
    grid = Grid(8)
    with pytest.raises(ConfigurationError):
        assemble_fd(grid, make_domain("circle"), make_case("constant"),
                    make_bc_spec("circle", "dirichlet"), p=3)


@pytest.mark.parametrize("name,n", [("leaf", 80), ("flower", 40), ("flower", 80)])
def test_extended_ghosts_assemble_and_solve(name, n):
    # concave geometries force stencil nodes beyond the ghost layer
    grid, system, u, report, case = run_fd(name, "paper_sin", "dirichlet", n)
    extended = (len(system.projections)
                - np.count_nonzero(system.classification.node_role == NODE_GHOST))
    assert extended >= 0
    assert report.final_residual <= 1e-10
    eu, _ = fd_errors(grid, system, u, case)
    assert eu[2] < 5e-3


def test_extended_ghost_without_axis_or_diagonal_foot_raises():
    # flower at N=12: extended ghost (1, 8) has no axis crossing within two
    # cells and no diagonal column on active nodes
    grid = Grid(12)
    with pytest.raises(GeometryError,
                       match=r"no usable boundary projection for extended ghost \(1, 8\)"):
        assemble_fd(grid, make_domain("flower"), make_case("paper_sin"),
                    make_bc_spec("flower", "mixed"), p=2)


def test_stencil_beyond_one_active_layer_raises():
    # strip |y| < 0.01 at N=16: the enlarged Dirichlet stencil of the ghost
    # above the strip reaches node (0, 11), two layers below the active set
    strip = LevelSetDomain("strip", lambda x, y: 0.01 - np.abs(y) + 0.0 * x,
                           lambda x, y: (0.0 * x, -np.sign(y)))
    with pytest.raises(GeometryError,
                       match=r"stencil node \(0, 11\) lies beyond one layer of the active set"):
        assemble_fd(Grid(16), strip, make_case("paper_sin"),
                    make_bc_spec("strip", "dirichlet"), p=2)


def test_nonfinite_phi_on_a_projection_ray_raises():
    # phi is NaN in the strip 0.01 < y < 0.115, which holds no node of the
    # N=16 grid (its rows nearby are y = 0 and y = 0.125), so the
    # classification is the ellipse's; the normal rays of the ghosts in the
    # row y = 0.125 run through the strip, (3, 9) first in node order
    ellipse = ellipse_domain(0.0, 0.0, 0.55, 0.55)
    strip = LevelSetDomain(
        "nan-strip",
        lambda x, y: np.where((0.01 < y) & (y < 0.115), np.nan, ellipse.phi(x, y)),
        ellipse.grad_phi)
    with pytest.raises(GeometryError,
                       match=r"phi is not finite along a projection ray from node \(3, 9\)"):
        assemble_fd(Grid(16), strip, make_case("paper_sin"),
                    make_bc_spec("ellipse", "dirichlet"), p=2)


def test_stencil_nodes_respect_collapsed_directions():
    ii, jj, used = _stencil_nodes([make_proj((0.3, 0.0), signs=(1, 0))], 2)
    assert np.all(jj[used] == 5)
    assert ii[used].tolist() == [5, 6, 7]


# ----------------------------------------------------------------------
# gradient
# ----------------------------------------------------------------------

def test_fd_gradient_exactness():
    grid, system, _, _, _ = run_fd("circle", "paper_sin", "dirichlet", 20)

    def fill(func):
        vals = func(grid.xs[system.nodes[:, 0]], grid.xs[system.nodes[:, 1]])
        return np.asarray(vals, dtype=float)

    nodes, grads = fd_gradient(system, fill(lambda x, y: x + 0.0 * y))
    assert np.allclose(grads[:, 0], 1.0, atol=1e-11)
    assert np.allclose(grads[:, 1], 0.0, atol=1e-11)

    nodes, grads = fd_gradient(system, fill(lambda x, y: x * x + 0.0 * y))
    xs = grid.xs[nodes[:, 0]]
    assert np.allclose(grads[:, 0], 2.0 * xs, atol=1e-10)

    nodes, grads = fd_gradient(system, fill(lambda x, y: 0.0 * x + 1.0))
    assert np.allclose(grads, 0.0, atol=1e-12)


# ----------------------------------------------------------------------
# batched projection
# ----------------------------------------------------------------------

DOMAINS = ("circle", "leaf", "flower", "hourglass")
# fixtures whose concave corners take both batched fallback branches: the
# axis route of primary ghosts and the diagonal route of extended ghosts
BOTH_ROUTES = {("flower", 16), ("flower", 40), ("hourglass", 40)}


def projection_bytes(proj):
    return [np.asarray(getattr(proj, f.name)).tobytes() for f in fields(proj)]


def check_batched_projections(domain, n):
    """Project all ghosts at once and compare each with its one-node call,
    byte for byte (or error for error); check that phi changes sign within tol_factor*h of every
    foot point along its ray, for the ghosts and the extended ghosts of the
    p=2 system.  Returns the number of axis-fallback and diagonal routes."""
    grid = Grid(n)
    ghosts = np.argwhere(classify(grid, domain, "four").node_role == NODE_GHOST)
    singles = []
    for g in ghosts:
        try:
            singles.append(projection_bytes(project_to_boundary(tuple(g), domain, grid)))
        except GeometryError as exc:
            singles.append(str(exc))
    try:
        batch = project_ghosts(ghosts, domain, grid)
    except GeometryError as exc:
        # e.g. a node interior by round-off next to a tangent Gamma: the
        # batch names its first failing ghost, as the one-node calls do
        assert str(exc) == next(s for s in singles if isinstance(s, str))
        return 0, 0
    assert [projection_bytes(q) for q in batch] == singles
    try:
        system = assemble_fd(grid, domain, make_case("paper_sin"),
                             make_bc_spec("x", "dirichlet"), p=2)
        projections = list(system.projections.values())
    except GeometryError:  # grid too coarse for one extension layer
        projections = batch
    tol = 1e-4 * grid.h
    for proj in projections:
        g = np.array(grid.node(*proj.ghost))
        ray = -proj.normal  # every route has B = G - normal * nu
        assert domain.phi(*(g + max(proj.nu - tol, 0.0) * ray)) <= 0.0
        assert domain.phi(*(g + (proj.nu + tol) * ray)) >= 0.0
    axis = sum(not np.array_equal(q.normal, domain.outward_normal(*grid.node(*q.ghost)))
               for q in batch)
    return axis, sum(q.diagonal for q in projections)


@settings(derandomize=True, deadline=None, max_examples=20)
@given(**ELLIPSES, n=st.sampled_from((16, 24, 40, 64)))
def test_batched_projection_on_random_ellipses(cx, cy, a, b, n):
    check_batched_projections(ellipse_domain(cx, cy, a, b), n)


@pytest.mark.parametrize("name", DOMAINS)
@pytest.mark.parametrize("n", (16, 24, 40, 64))
def test_batched_projection_on_builtin_domains(name, n):
    axis, diagonal = check_batched_projections(make_domain(name), n)
    if (name, n) in BOTH_ROUTES:
        assert axis > 0 and diagonal > 0
