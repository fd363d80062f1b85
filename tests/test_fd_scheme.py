from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (ELLIPSES, SHIFTS, csr_bytes, ellipse_domain, full_square_domain,
                      run_fd, traced_peak)
from uel import (Grid, assemble_fd, fd_scheme, make_bc_spec, make_case, make_domain,
                 solve_direct)
from uel.analysis import fitted_order
from uel.cli import solution_errors
from uel.errors import AssemblyError, ConfigurationError, GeometryError
from uel.fd_scheme import (_stencil_nodes, _weights, fd_gradient, ghost_rows,
                           mitigate_ill_conditioning)
from uel.geometry import (NODE_GHOST, NODE_INACTIVE, NODE_INTERIOR, GhostProjections,
                          LevelSetDomain, classify, project_ghosts)


# ----------------------------------------------------------------------
# Lagrange weights
# ----------------------------------------------------------------------

def test_weights_p2_theta0():
    l, l_prime = _weights(0.0, 2, 0.1, 1)
    assert l == pytest.approx((1.0, 0.0, 0.0))
    assert tuple(0.1 * v for v in l_prime) == pytest.approx((-1.5, 2.0, -0.5))


def test_weights_p1_midpoint():
    l, _ = _weights(0.5, 1, 0.2, 1)
    assert l == pytest.approx((0.5, 0.5))


def test_weights_p2_midpoint():
    l, _ = _weights(0.5, 2, 1.0, 1)
    assert l == pytest.approx((0.375, 0.75, -0.125))


def test_weights_reject_out_of_range_theta():
    # ghost_rows refuses an offset past the stencil span before weighting it
    grid = Grid(20)
    domain = half_plane(0.3)
    for theta in ((2.0, 0.0), (0.5, 2.5)):
        with pytest.raises(GeometryError, match="outside the stencil span"):
            ghost_rows(make_proj(theta), 2, grid, domain, phi_node_of(grid, domain))
    with pytest.raises(ConfigurationError):
        _weights(0.5, 3, 0.1, 1)


@pytest.mark.parametrize("p", (1, 2))
@pytest.mark.parametrize("spacing", (1, 2))
def test_weights_partition_of_unity(p, spacing):
    rng = np.random.default_rng(11)
    for theta in rng.uniform(0.0, 1.0 - 1e-12, 200):
        l, l_prime = _weights(theta, p, 0.05, spacing)
        assert sum(l) == pytest.approx(1.0, abs=1e-13)
        assert sum(l_prime) == pytest.approx(0.0, abs=1e-10)


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


def make_proj(theta, kind="dirichlet", signs=(1, 1), ghost=(5, 5)):
    """One-row GhostProjections at node ghost."""
    return GhostProjections(np.array([ghost]), np.zeros((1, 2)), np.array([theta], dtype=float),
                            np.array([signs]), np.array([kind == "dirichlet"]),
                            np.ones((1, 2), dtype=int), np.zeros(1, dtype=bool))


def one_row(projections, p, grid, domain):
    """(nodes, coefficients, normal) of the ghost row of a one-row record."""
    _, ii, jj, coeffs, normal = ghost_rows(projections, p, grid, domain,
                                           phi_node_of(grid, domain))
    return list(zip(ii.tolist(), jj.tolist())), coeffs.tolist(), normal[0]


def test_ghost_row_dirichlet_collapses_to_nodal_value():
    nodes, coeffs, normal = one_row(make_proj((0.0, 0.0)), 2, Grid(10), half_plane(0.3))
    assert nodes == [(5, 5)]
    assert coeffs == pytest.approx([1.0])
    assert np.isnan(normal).all()  # value rows use no normal


def test_ghost_row_dirichlet_p1_two_point_stencil():
    nodes, coeffs, _ = one_row(make_proj((0.5, 0.0), signs=(1, 0)), 1, Grid(10),
                               half_plane(0.3))
    assert nodes == [(5, 5), (6, 5)]
    assert coeffs == pytest.approx([0.5, 0.5])


def test_ghost_row_neumann_reproduces_unit_slope():
    # u = x sampled on the stencil: the derivative row returns exactly 1
    # (the interpolated level-set normal of the half plane is (1, 0))
    domain = half_plane(0.37)
    grid = Grid(20)  # h = 0.1; node (14, 10) = (0.4, 0.0) is exterior
    proj = project_ghosts([(14, 10)], domain, grid, tol_factor=1e-12)
    proj.dirichlet[:] = False
    nodes, coeffs, normal = one_row(proj, 2, grid, domain)
    val = apply_row(nodes, coeffs, grid, lambda x, y: x)
    assert val == pytest.approx(1.0, abs=1e-11)
    assert normal == pytest.approx([1.0, 0.0], abs=1e-12)
    assert normal @ (1.0, 0.0) == pytest.approx(1.0, abs=1e-12)  # g_N = grad(x) . n


@pytest.mark.parametrize("p", (1, 2))
def test_ghost_row_polynomial_reproduction(p):
    # p=1 rows reproduce bilinear functions at B, p=2 rows biquadratics;
    # the p=2 derivative rows reproduce their normal derivative.
    domain = make_domain("circle")
    grid = Grid(20)

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

    ghosts = np.argwhere(classify(grid, domain, "four").node_role == NODE_GHOST)
    for i, j in ghosts:
        proj = project_ghosts([(i, j)], domain, grid, 1e-12)
        bx, by = proj.point[0]
        # value row
        nodes, coeffs, _ = one_row(proj, p, grid, domain)
        val = apply_row(nodes, coeffs, grid, u)
        assert val == pytest.approx(u(bx, by), rel=1e-10, abs=1e-11)
        if p == 2:
            # derivative row with the exact circle normal
            proj.dirichlet[:] = False
            nodes, coeffs, _ = one_row(proj, 2, grid, domain)
            val = apply_row(nodes, coeffs, grid, u)
            nb = proj.point[0] / np.hypot(bx, by)
            gx, gy = grad_u(bx, by)
            assert val == pytest.approx(gx * nb[0] + gy * nb[1], rel=1e-9, abs=1e-10)


def test_ghost_row_sums():
    # Dirichlet rows sum to one, Neumann rows to zero
    domain = make_domain("circle")
    case = make_case("paper_sin")
    bc = make_bc_spec("circle", "mixed")
    grid = Grid(20)
    system = assemble_fd(grid, domain, case, bc, p=2)
    for (i, j), dirichlet in zip(system.ghosts.ghost, system.ghosts.dirichlet):
        row = system.matrix.getrow(system.index[i, j])
        total = row.sum()
        if dirichlet:
            assert total == pytest.approx(1.0, abs=1e-12)
        else:
            assert abs(total) <= 1e-12 * max(1.0, abs(row).max())


def test_ghost_row_rhs_is_boundary_data():
    # value rows carry u(B), derivative rows grad(u)(B) . n with the normal
    # the circle's rows use: its level-set normal at B, radial up to round-off
    case = make_case("paper_sin")
    system = assemble_fd(Grid(20), make_domain("circle"), case,
                         make_bc_spec("circle", "mixed"), p=2)
    ghosts = system.ghosts
    for (i, j), point, dirichlet in zip(ghosts.ghost, ghosts.point, ghosts.dirichlet):
        rhs = system.rhs[system.index[i, j]]
        if dirichlet:
            assert rhs == case.u(*point)
        else:
            nb = point / np.hypot(*point)
            gx, gy = case.grad_u(*point)
            assert rhs == pytest.approx(gx * nb[0] + gy * nb[1], rel=1e-12, abs=1e-14)
    assert set(ghosts.dirichlet.tolist()) == {True, False}


def neumann_normals(system, domain):
    """The normals ghost_rows gives a p=2 system's Neumann rows, and their
    feet."""
    ghosts = system.ghosts
    normal = ghost_rows(ghosts, 2, system.grid, domain, system.classification.phi_node)[-1]
    return normal[~ghosts.dirichlet], ghosts.point[~ghosts.dirichlet]


def test_neumann_rows_of_any_circle_use_its_level_set_normal():
    # a circle of radius 0.55 about c, built by hand with the analytic
    # Neumann-normal rule: its feet lie on Gamma and its Neumann normals,
    # taken from grad(phi) alone, are radial about c.  The shifted built-in
    # circles keep the rule (outward_normal at the feet, bit for bit); a
    # shifted flower interpolates its normals from the nodal phi.
    c = np.array([0.3, -0.2])

    def phi(x, y):
        return 0.55 - np.hypot(x - c[0], y - c[1])

    def grad(x, y):
        r = np.hypot(x - c[0], y - c[1])
        return -(x - c[0]) / r, -(y - c[1]) / r

    domain = LevelSetDomain("off-origin circle", phi, grad, analytic_neumann_normal=True)
    grid, case, bc = Grid(40), make_case("paper_sin"), make_bc_spec("circle", "mixed")
    system = assemble_fd(grid, domain, case, bc, p=2)
    assert np.abs(phi(*system.ghosts.point.T)).max() <= 1e-4 * grid.h
    normal, feet = neumann_normals(system, domain)
    radial = (feet - c) / np.hypot(*(feet - c).T)[:, None]
    assert len(normal) and np.abs(normal - radial).max() <= 1e-12
    for name, shifts in (("circle", SHIFTS), ("flower", SHIFTS[:1])):
        for shift in shifts:
            moved = make_domain(name).shifted(*shift)
            normal, feet = neumann_normals(assemble_fd(grid, moved, case, bc, p=2), moved)
            assert len(normal)
            assert (normal.tobytes() == moved.outward_normal(*feet.T).tobytes()) == \
                (name == "circle")


@pytest.mark.parametrize("p", (1, 2))
def test_ghost_rows_rejects_a_stencil_off_the_grid(p):
    # from (0, 5) the stencil runs to i < 0
    grid, domain = Grid(10), half_plane(0.3)
    with pytest.raises(GeometryError, match=r"ghost stencil leaves the grid at node \(0, 5\)"):
        one_row(make_proj((0.5, 0.0), signs=(-1, 0), ghost=(0, 5)), p, grid, domain)


def test_assemble_fd_rejects_a_stencil_off_the_grid():
    # Omega = {x < -0.95} on N=20: the ghosts sit in the column i = 1 and
    # their stencils point toward the frame, i = 1, 0, -1 for p=2;
    # assemble_fd leaves this check to ghost_rows
    grid, domain, case = Grid(20), half_plane(-0.95), make_case("paper_sin")
    bc = make_bc_spec("hp", "dirichlet")
    with pytest.raises(GeometryError, match=r"ghost stencil leaves the grid at node \(1, 0\)"):
        assemble_fd(grid, domain, case, bc, p=2)
    system = assemble_fd(grid, domain, case, bc, p=1)
    assert set(system.ghosts.ghost[:, 0].tolist()) == {1}


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
    ghosts = system.ghosts
    for (i, j), point, diagonal, thetas, spacings in zip(
            ghosts.ghost, ghosts.point, ghosts.diagonal, ghosts.theta, ghosts.spacing):
        u = quadratic if diagonal else biquadratic
        assert rows[u][system.index[i, j]] == pytest.approx(u(*point), abs=1e-8)
        upper = 1.0 if primary[i, j] else 2.0
        for theta, spacing in zip(thetas, spacings):
            assert 0.0 <= theta < upper
            if spacing == 2:
                assert 0.5 * (1.0 - grid.h) < theta < 0.5


def test_ghost_next_to_on_gamma_node_assembles():
    # node (20, 14) of the N=40 grid lies on Gamma of this ellipse up to
    # round-off (phi = 4.4e-16 > 0), so the axis ray of the ghost (20, 13)
    # below it meets Gamma exactly one cell away
    domain = ellipse_domain(0.0, 0.0, 0.5, 0.3)
    case = make_case("paper_sin")
    grid = Grid(40)
    for kind in ("dirichlet", "mixed"):
        for p in (1, 2):
            system = assemble_fd(grid, domain, case, make_bc_spec("ellipse", kind), p=p)
            [row] = np.flatnonzero((system.ghosts.ghost == (20, 13)).all(axis=1))
            assert system.ghosts.point[row] == pytest.approx([0.0, -0.3], abs=1e-15)
            assert system.ghosts.signs[row].tolist() == [0, 1]
            u, report = solve_direct(system.matrix, system.rhs)
            assert report.final_residual <= 1e-10
            eu, eg, _ = solution_errors(system, u, case)
            assert np.isfinite(eu + eg).all() and eu[2] < 1e-2


# ----------------------------------------------------------------------
# mitigation
# ----------------------------------------------------------------------

def test_mitigation_halves_theta():
    proj = make_proj((0.99, 0.2))
    mitigate_ill_conditioning(proj, 0.05)
    assert proj.theta[0, 0] == pytest.approx(0.495)
    assert proj.theta[0, 1] == 0.2
    assert proj.spacing.tolist() == [[2, 1]]


def test_mitigation_not_triggered():
    proj = make_proj((0.5, 0.5))
    mitigate_ill_conditioning(proj, 0.05)
    assert proj.theta.tolist() == [[0.5, 0.5]]
    assert proj.spacing.tolist() == [[1, 1]]


def test_mitigation_skips_neumann():
    proj = make_proj((0.99, 0.99), kind="neumann")
    mitigate_ill_conditioning(proj, 0.05)
    assert proj.theta.tolist() == [[0.99, 0.99]]
    assert proj.spacing.tolist() == [[1, 1]]
    assert proj.dirichlet.tolist() == [False]


def test_mitigated_diagonal_bounded():
    # after mitigation the diagonal of the constructed near-1 example is
    # l0(0.495) per direction, far above the unmitigated l0(0.99)
    grid = Grid(20)
    proj = make_proj((0.99, 0.0), signs=(1, 0))
    mitigate_ill_conditioning(proj, grid.h)
    nodes, coeffs, _ = one_row(proj, 1, grid, half_plane(0.37))
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
    assert len(system.ghosts.ghost) == 12


def test_assembly_peak_memory_is_a_small_multiple_of_the_matrix():
    # the 5-point stencils and the frame and ghost rows are written into the
    # CSR arrays directly: circle, mixed BC, p=2, N=160 peaks at 2.4x the
    # CSR matrix's bytes (3.6x through int32 COO parts and tocsr)
    args = (Grid(160), make_domain("circle"), make_case("paper_sin"),
            make_bc_spec("circle", "mixed"))
    system, peak = traced_peak(lambda: assemble_fd(*args, p=2))
    assert system.index.dtype == system.matrix.indices.dtype == np.int32
    assert system.matrix.has_canonical_format
    assert peak <= 3.5 * csr_bytes(system.matrix)


def test_domain_without_nodes_assembles_an_empty_system():
    nothing = LevelSetDomain("nothing", lambda x, y: -1.0 + 0.0 * x,
                             lambda x, y: (0.0 * x, 0.0 * y))
    system = assemble_fd(Grid(8), nothing, make_case("paper_sin"),
                         make_bc_spec("nothing", "dirichlet"), p=2)
    assert system.matrix.shape == (0, 0) and system.rhs.shape == (0,)


def test_interior_node_with_an_inactive_neighbor_raises(monkeypatch):
    # a classification that breaks its invariant: the circle's centre node
    # is marked inactive, so its four interior neighbours' stencils reach it
    real = fd_scheme.classify

    def classify(grid, domain, neighborhood):
        cls = real(grid, domain, neighborhood)
        cls.node_role[grid.n // 2, grid.n // 2] = NODE_INACTIVE
        return cls

    monkeypatch.setattr(fd_scheme, "classify", classify)
    with pytest.raises(AssemblyError, match="interior node with an inactive neighbor"):
        assemble_fd(Grid(16), make_domain("circle"), make_case("paper_sin"),
                    make_bc_spec("circle", "dirichlet"), p=2)


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
        errs.append(solution_errors(system, u, case)[0][2])
        hs.append(grid.h)
    assert 1.8 <= fitted_order(hs, errs) <= 2.2


def test_quadratic_case_is_exact():
    for n in (40, 80):
        _, system, u, _, case = run_fd("circle", "quadratic", "dirichlet", n,
                                       p=2, tol_factor=1e-12)
        eu, _, _ = solution_errors(system, u, case)
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
    _, system, u, report, case = run_fd(name, "paper_sin", "dirichlet", n)
    extended = (len(system.ghosts.ghost)
                - np.count_nonzero(system.classification.node_role == NODE_GHOST))
    assert extended >= 0
    assert report.final_residual <= 1e-10
    eu, _, _ = solution_errors(system, u, case)
    assert eu[2] < 5e-3


@pytest.mark.parametrize("name, bc_kind", [("flower", "mixed"), ("hourglass", "dirichlet")])
def test_projections_view_agrees_with_the_ghosts(name, bc_kind):
    # what the benchmark tracing harness reads of FdSystem.projections: its
    # keys and size, and which ghost rows have an enlarged stencil
    system = assemble_fd(Grid(40), make_domain(name), make_case("paper_sin"),
                         make_bc_spec(name, bc_kind), p=2)
    ghosts, projections = system.ghosts, system.projections
    enlarged = (ghosts.spacing != 1).any(axis=1)
    assert len(ghosts.ghost) > np.count_nonzero(system.classification.node_role == NODE_GHOST)
    assert enlarged.any()
    assert list(projections) == list(map(tuple, ghosts.ghost.tolist()))
    assert len(projections) == len(ghosts.ghost)
    assert [q.enlarged for q in projections.values()] == enlarged.tolist()


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
    ii, jj, used = _stencil_nodes(make_proj((0.3, 0.0), signs=(1, 0)), 2)
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


def row_bytes(record, k):
    return [getattr(record, f.name)[k].tobytes() for f in fields(record)]


def check_batched_projections(domain, n):
    """Project all ghosts at once and compare each with its one-node call,
    byte for byte, and likewise each ghost's outward normal; on a domain
    with analytic_neumann_normal set, check that Neumann rows use
    outward_normal at their foot points.  Check that phi changes sign
    within tol_factor*h of every foot point along its ray from G (the
    inward normal where the foot is G), for the ghosts and the extended
    ghosts of the p=2 system.  Returns the number of axis-fallback and
    diagonal routes: an axis foot lies along one axis from G although the
    outward normal at G is along neither."""
    grid = Grid(n)
    cls = classify(grid, domain, "four")
    ghosts = np.argwhere(cls.node_role == NODE_GHOST)
    singles = [row_bytes(project_ghosts([g], domain, grid), 0) for g in ghosts]
    record = project_ghosts(ghosts, domain, grid)
    assert [row_bytes(record, k) for k in range(len(ghosts))] == singles
    normals = domain.outward_normal(grid.xs[ghosts[:, 0]], grid.xs[ghosts[:, 1]])
    assert normals.tobytes() == b"".join(
        domain.outward_normal(*grid.node(*g)).tobytes() for g in ghosts)
    if domain.analytic_neumann_normal:
        record.dirichlet[:] = False
        normal = ghost_rows(record, 2, grid, domain, cls.phi_node)[-1]
        assert normal.tobytes() == domain.outward_normal(*record.point.T).tobytes()
    try:
        system = assemble_fd(grid, domain, make_case("paper_sin"),
                             make_bc_spec("x", "dirichlet"), p=2)
        checked = system.ghosts
    except GeometryError:  # grid too coarse for one extension layer
        checked = record
    tol = 1e-4 * grid.h
    for ghost, point in zip(checked.ghost, checked.point):
        g = np.array(grid.node(*ghost))
        nu = np.hypot(*(point - g))
        ray = (point - g) / nu if nu else -domain.outward_normal(*g)
        assert domain.phi(*(g + max(nu - tol, 0.0) * ray)) <= 0.0
        assert domain.phi(*(g + (nu + tol) * ray)) >= 0.0
    feet = record.point - grid.xs[record.ghost]
    axis = np.count_nonzero(((feet == 0.0).sum(axis=1) == 1) & (normals != 0.0).all(axis=1))
    return axis, np.count_nonzero(checked.diagonal)


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
