"""Ghost-point finite-difference discretization: 5-point interior rows plus
interpolation rows enforcing the boundary condition at projected boundary
points, kept in the system as non-eliminated equations."""

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import scipy.sparse as sp

from .errors import AssemblyError, ConfigurationError, GeometryError
from .fem_scheme import nodal_interior_values, stencil_csr
from .geometry import (AXES, NODE_GHOST, NODE_INACTIVE, NODE_INTERIOR, NONFINITE,
                       GhostProjections, _neighbor_any, _shortest_crossing,
                       classify, project_ghosts, raise_first)

DIAGONALS = np.array([(1, 1), (1, -1), (-1, 1), (-1, -1)])
# the 5-point stencil's node offsets in lexicographic order, so that a
# row's columns come out sorted
FIVE_POINT = [(-1, 0), (0, -1), (0, 0), (0, 1), (1, 0)]


def _weights(theta, p, h, spacing):
    """Closed-form 1D Lagrange weights (l, l_prime) on the upwind stencil
    for linear (p=1, 4-point tensor stencil) and quadratic (p=2, 9-point
    tensor stencil) boundary interpolation, for one offset or elementwise
    for arrays of offsets and spacings.

    l are the p+1 interpolation weights at offset theta (in units of the
    stencil spacing); l_prime carry the 1/(spacing*h) factor.  spacing=2
    evaluates the enlarged stencil of the ill-conditioning mitigation
    (nodes 0, 2h, 4h).  The offset range is checked by the callers:
    project_ghosts keeps primary ghosts in [0, 1) and ghost_rows rejects
    offsets of 2 or more.
    """
    if p == 1:
        l = (1.0 - theta, theta)
        lp = (-1.0, 1.0)
    elif p == 2:
        l = ((1.0 - theta) * (2.0 - theta) / 2.0,
             theta * (2.0 - theta),
             theta * (theta - 1.0) / 2.0)
        lp = ((2.0 * theta - 3.0) / 2.0,
              2.0 * (1.0 - theta),
              (2.0 * theta - 1.0) / 2.0)
    else:
        raise ConfigurationError(f"stencil order p must be 1 or 2, got {p}")
    scale = 1.0 / (spacing * h)
    return l, tuple(v * scale for v in lp)


def mitigate_ill_conditioning(projections, epsilon):
    """Enlarge the interpolation stencil of each Dirichlet projection whose
    offset approaches 1: doubling the spacing in the triggered direction
    halves theta and restores a usable diagonal.  Updates theta and spacing
    of the GhostProjections in place; Neumann rows are left unchanged."""
    hit = (projections.dirichlet[:, None] & (projections.signs != 0)
           & (np.abs(1.0 - projections.theta) < epsilon))
    projections.theta = np.where(hit, projections.theta / 2.0, projections.theta)
    projections.spacing = np.where(hit, 2 * projections.spacing, projections.spacing)


def _stencil_nodes(projections, p):
    """Grid indices referenced by the upwind stencils, as (m, (p+1)^2)
    arrays (ii, jj, used) over the slots (mx, my) in lexicographic order:
    the tensor block, where a collapsed direction uses only its first
    column, or the slots mx == my of the diagonal column for diagonal
    projections (which keep unit spacing)."""
    ghost, signs = projections.ghost, projections.signs
    step = signs * projections.spacing
    mx, my = np.divmod(np.arange((p + 1) ** 2), p + 1)
    tensor = ((signs[:, :1] != 0) | (mx == 0)) & ((signs[:, 1:] != 0) | (my == 0))
    used = np.where(projections.diagonal[:, None], mx == my, tensor)
    return ghost[:, :1] + step[:, :1] * mx, ghost[:, 1:] + step[:, 1:] * my, used


def _stencil_entries(projections, p, n):
    """Used stencil entries in row order: (owner, ii, jj, on_grid), owner
    indexing projections and ii, jj clipped to the grid."""
    ii, jj, used = _stencil_nodes(projections, p)
    owner = np.nonzero(used)[0]
    ii, jj = ii[used], jj[used]
    on_grid = (ii >= 0) & (ii <= n) & (jj >= 0) & (jj <= n)
    return owner, np.clip(ii, 0, n), np.clip(jj, 0, n), on_grid


def ghost_rows(projections, p, grid, domain, phi_node):
    """Boundary-condition rows of the ghost nodes, as COO entries.

    Dirichlet: tensor Lagrange interpolation of u at B (along the diagonal
    line through G for diagonal projections).  Neumann: the interpolated
    gradient at B dotted with the boundary normal.  That normal comes from
    the same derivative stencil applied to the nodal level-set values, or,
    on a domain with analytic_neumann_normal set (the circle),
    domain.outward_normal at B.  The Neumann data g_N(B, normal) should use
    the returned normal, so data and operator stay consistent where the
    level-set normal is ambiguous (domain corners).

    Returns (owner, ii, jj, coeff, normal): the nonzero entries in row
    order, entry e in row owner[e] of the GhostProjections at node
    (ii[e], jj[e]), and per row the normal its Neumann row uses (NaN for
    value rows).  The checks run in this order, each raising at its first
    failing row: the stencil stays on the grid, the offset within the
    stencil span, diagonal and enlarged stencils on value rows, and the
    interpolated normal is not degenerate.
    """
    h, n = grid.h, grid.n
    ghost, theta, signs = projections.ghost, projections.theta, projections.signs
    spacing, diagonal, value = projections.spacing, projections.diagonal, projections.dirichlet
    ii, jj, used = _stencil_nodes(projections, p)

    def node(k):
        return tuple(ghost[k].tolist())

    raise_first((used & ((ii < 0) | (ii > n) | (jj < 0) | (jj > n))).any(axis=1),
                lambda k: GeometryError(f"ghost stencil leaves the grid at node {node(k)}; "
                                        "the grid is too coarse for this geometry"))
    # Primary ghosts carry theta in [0, 1); extended ghosts may sit with
    # their foot up to one extra cell away (theta < 2), still inside the
    # quadratic column and a mild extrapolation for p=1.
    raise_first(theta.max(axis=1) >= 2.0, lambda k: GeometryError(
        f"projection offset {theta[k].max():.3f} outside the stencil span at node {node(k)}"))
    lx, lpx = _weights(theta[:, 0], p, h, spacing[:, 0])
    ly, lpy = _weights(theta[:, 1], p, h, spacing[:, 1])
    mx, my = np.divmod(np.arange((p + 1) ** 2), p + 1)
    lx, lpx = np.array(lx)[mx].T, np.array(lpx)[mx].T
    ly, lpy = np.array(ly)[my].T, np.array(lpy)[my].T
    raise_first(diagonal & ~value,
                lambda k: AssemblyError("diagonal stencils carry value rows only"))
    # Neumann: spacing is never enlarged (mitigation is Dirichlet-only).
    raise_first(~value & (spacing != 1).any(axis=1), lambda k: AssemblyError(
        "Neumann projections must not carry an enlarged stencil"))

    neu = np.flatnonzero(~value)
    normal = np.full((len(ghost), 2), np.nan)
    if domain.analytic_neumann_normal:
        normal[neu] = domain.outward_normal(*projections.point[neu].T)
    else:
        # the level-set gradient from the derivative stencil, summed in
        # stencil order (unused slots add exact zeros)
        phi = np.where(used, phi_node[np.clip(ii, 0, n), np.clip(jj, 0, n)], 0.0)[neu]
        dpx = dpy = 0.0
        for s in range(len(mx)):
            dpx = dpx + lpx[neu, s] * ly[neu, s] * phi[:, s]
            dpy = dpy + lx[neu, s] * lpy[neu, s] * phi[:, s]
        dp = np.column_stack([signs[neu, 0] * dpx, signs[neu, 1] * dpy])
        norm = np.hypot(dp[:, 0], dp[:, 1])
        raise_first(norm < 1e-14, lambda k: GeometryError(
            f"degenerate interpolated normal at ghost {node(neu[k])}"))
        # phi grows inward, so the outward normal is the negated direction.
        normal[neu] = -dp / norm[:, None]

    coeff = np.where(diagonal[:, None], lx, lx * ly)
    nb, sx, sy = normal[neu], signs[neu, :1], signs[neu, 1:]
    coeff[neu] = (nb[:, :1] * sx * lpx[neu] * ly[neu]
                  + nb[:, 1:] * sy * lx[neu] * lpy[neu])
    keep = used & (coeff != 0.0)
    return np.nonzero(keep)[0], ii[keep], jj[keep], coeff[keep], normal


@dataclass
class FdSystem:
    """Assembled ghost-point system A u = f over the active nodes; ghosts
    holds one GhostProjections row per ghost row, extended ghosts last.
    The active nodes are numbered in lexicographic order, so nodes is
    derived from index rather than stored."""

    matrix: sp.csr_matrix
    rhs: np.ndarray
    index: np.ndarray          # (N+1, N+1) int32 row per node, -1 if inactive
    ghosts: GhostProjections
    classification: object
    grid: object

    @property
    def nodes(self):
        """(M, 2) active node indices in row order."""
        return np.argwhere(self.index >= 0)

    @property
    def projections(self):
        """{ghost node: namespace(enlarged=...)}, for the tracing harness only."""
        enlarged = (self.ghosts.spacing != 1).any(axis=1).tolist()
        keys = map(tuple, self.ghosts.ghost.tolist())
        return {g: SimpleNamespace(enlarged=e) for g, e in zip(keys, enlarged)}

    def u_blocks(self, u):
        """One block of u samples (points, weights, values): the interior
        nodes of nodal_interior_values, each of weight h^2."""
        nodes, values = nodal_interior_values(self, u)
        yield self.grid.xs[nodes], np.full(len(values), self.grid.h * self.grid.h), values

    def gradient_samples(self, u):
        """fd_gradient as (points, weights, gradients), each of weight h^2."""
        nodes, grads = fd_gradient(self, u)
        return self.grid.xs[nodes], np.full(len(nodes), self.grid.h * self.grid.h), grads


def _extended_projections(nodes, domain, grid, tol_factor, active, p):
    """GhostProjections for the stencil nodes beyond the ghost layer (an
    (m, 2) index array), in order; such nodes always receive a
    value-interpolation (Dirichlet-type) row at their foot.

    First choice is the shortest axis crossing within two cells: the
    single-column stencil it induces references only active nodes (the next
    node along the axis is interior or itself a ghost), so activation never
    cascades.  In concave corners without an axis crossing, a diagonal
    column is used instead, provided the nodes it references are already
    active.
    """
    h, n = grid.h, grid.n
    i, j = nodes[:, 0], nodes[:, 1]
    gx, gy = grid.xs[i], grid.xs[j]
    owner, d = np.divmod(np.arange(4 * len(nodes)), 4)
    t, best, finite = _shortest_crossing(domain, gx, gy, owner, d, AXES,
                                         2.0 * h, tol_factor * h)
    diagonal = np.isnan(t) & finite
    usable = diagonal[:, None]
    for m in range(1, p + 1):
        ii, jj = i[:, None] + m * DIAGONALS[:, 0], j[:, None] + m * DIAGONALS[:, 1]
        usable = (usable & (ii >= 0) & (ii <= n) & (jj >= 0) & (jj <= n)
                  & active[np.clip(ii, 0, n), np.clip(jj, 0, n)])
    owner, d = np.nonzero(usable)
    step = math.sqrt(2.0) * h
    td, best_d, finite_d = _shortest_crossing(
        domain, gx, gy, owner, d, DIAGONALS / math.sqrt(2.0), 2.0 * step, tol_factor * h)
    raise_first(~(finite & finite_d), lambda k: GeometryError(NONFINITE.format(i[k], j[k])))
    raise_first(diagonal & np.isnan(td), lambda k: GeometryError(
        f"no usable boundary projection for extended ghost ({i[k]}, {j[k]}); "
        "the grid is too coarse for this geometry"))

    e, ed = AXES[best], DIAGONALS[best_d]
    g = np.column_stack([gx, gy])
    diag = diagonal[:, None]
    point = np.where(diag, g + ed * td[:, None] / math.sqrt(2.0), g + e * t[:, None])
    theta = np.where(diag, (td / step)[:, None], np.where(e != 0.0, t[:, None] / h, 0.0))
    signs = np.where(diag, ed, e).astype(int)
    return GhostProjections(nodes, point, theta, signs, np.ones_like(diagonal),
                            np.ones_like(signs), diagonal)


def assemble_fd(grid, domain, case, bc, p=2, tol_factor=1e-4):
    """Assemble the ghost-point finite-difference system for a manufactured
    case and boundary-condition split.

    Parameters
    ----------
    grid, domain : Grid, LevelSetDomain
    case : object with callables u(x, y), grad_u(x, y), f(x, y)
        Manufactured solution supplying volume and boundary data.
    bc : BCSpec
        Interface deciding Dirichlet vs Neumann at each foot point.
    p : 1 or 2
        Interpolation stencil order for the ghost rows.
    tol_factor : float
        Boundary bisection tolerance, in units of h.

    Dirichlet ghost rows with an offset |1 - theta| < h get the enlarged
    stencil of mitigate_ill_conditioning.
    """
    if p not in (1, 2):
        raise ConfigurationError(f"stencil order p must be 1 or 2, got {p}")
    cls = classify(grid, domain, "four")
    n = grid.n
    h = grid.h
    role = cls.node_role

    primary = project_ghosts(np.argwhere(role == NODE_GHOST), domain, grid, tol_factor)
    primary.dirichlet = bc.is_dirichlet(primary.point[:, 0], primary.point[:, 1])
    mitigate_ill_conditioning(primary, h)

    # Stencils may reach exterior nodes beyond the ghost layer: activate them
    # with boundary rows of their own (one extension layer only).  Off-grid
    # entries are never new: ghost_rows rejects their stencils.
    active = role != NODE_INACTIVE
    _, si, sj, on_grid = _stencil_entries(primary, p, n)
    new = on_grid & ~active[si, sj]
    raise_first(new & ~_neighbor_any(active, True)[si, sj], lambda k: GeometryError(
        f"stencil node ({si[k]}, {sj[k]}) lies beyond one layer of the "
        "active set; the grid is too coarse for this geometry"))
    ids = (si * (n + 1) + sj)[new]
    ids = ids[np.sort(np.unique(ids, return_index=True)[1])]
    # Extended ghosts are pinned by value interpolation at their own foot
    # regardless of the boundary-condition region: their row only closes the
    # system, and manufactured data supplies u there.
    extended = _extended_projections(np.column_stack(np.divmod(ids, n + 1)),
                                     domain, grid, tol_factor, active, p)
    active.flat[ids] = True
    owner, si, sj, on_grid = _stencil_entries(extended, p, n)
    raise_first(on_grid & ~active[si, sj], lambda k: GeometryError(
        f"extended ghost {tuple(extended.ghost[owner[k]].tolist())} needs a second "
        "extension layer; the grid is too coarse for this geometry"))
    ghosts = primary + extended

    # rows in lexicographic node order; int32, the CSR matrix's index type
    n_rows = np.count_nonzero(active)
    index = np.full((n + 1, n + 1), -1, dtype=np.int32)
    index[active] = np.arange(n_rows)
    rhs = np.zeros(n_rows)
    xs = grid.xs

    # Interior nodes on the grid frame only occur when Omega touches the box
    # (e.g. phi == 1 on all of R): pin them to the boundary data.  The others
    # carry the 5-point stencil.
    interior = role == NODE_INTERIOR
    stencil = np.zeros_like(interior)
    stencil[1:-1, 1:-1] = interior[1:-1, 1:-1]
    ii, jj = np.nonzero(stencil)
    rhs[index[ii, jj]] = case.f(xs[ii], xs[jj])
    ii, jj = np.nonzero(interior & ~stencil)
    r = index[ii, jj]
    rhs[r] = case.u(xs[ii], xs[jj])
    pinned = (r, r, np.ones(len(r)))

    # Ghost rows (including extended ghosts), with g_D = u at value rows and
    # g_N = grad(u) . n at derivative rows, n the row's own normal.
    owner, si, sj, coeff, normal = ghost_rows(ghosts, p, grid, domain, cls.phi_node)
    r = index[ghosts.ghost[:, 0], ghosts.ghost[:, 1]]
    point, value = ghosts.point, ghosts.dirichlet
    rhs[r[value]] = case.u(point[value, 0], point[value, 1])
    ux, uy = case.grad_u(point[~value, 0], point[~value, 1])
    rhs[r[~value]] = ux * normal[~value, 0] + uy * normal[~value, 1]

    keep = np.repeat(stencil[active][:, None], len(FIVE_POINT), axis=1)
    slot = np.tile(np.arange(len(FIVE_POINT), dtype=np.uint8), (n_rows, 1))
    matrix = stencil_csr(index, FIVE_POINT, keep, slot,
                         np.array([-1.0, -1.0, 4.0, -1.0, -1.0]) * (1.0 / (h * h)),
                         [pinned, (r[owner], index[si, sj], coeff)])
    return FdSystem(matrix, rhs, index, ghosts, cls, grid)


def fd_gradient(system, u):
    """Centered-difference gradient of the discrete solution at interior
    nodes (ghost values supply the one-sided neighbors near Gamma).

    Nodes sitting on the grid frame are skipped: they only exist when Omega
    fills the whole box and have no centered stencil.

    Returns (nodes, gradients) with gradients of shape (M, 2).
    """
    grid = system.grid
    n = grid.n
    full = np.full((n + 1, n + 1), np.nan)
    full[system.index >= 0] = u
    role = system.classification.node_role
    ii, jj = np.nonzero(role == NODE_INTERIOR)
    keep = (ii > 0) & (ii < n) & (jj > 0) & (jj < n)
    ii, jj = ii[keep], jj[keep]
    gx = (full[ii + 1, jj] - full[ii - 1, jj]) / (2.0 * grid.h)
    gy = (full[ii, jj + 1] - full[ii, jj - 1]) / (2.0 * grid.h)
    if np.any(np.isnan(gx)) or np.any(np.isnan(gy)):
        raise AssemblyError("interior node with an inactive neighbor; "
                            "classification invariant violated")
    return np.column_stack([ii, jj]), np.column_stack([gx, gy])
