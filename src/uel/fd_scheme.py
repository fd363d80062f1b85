"""Ghost-point finite-difference discretization: 5-point interior rows plus
interpolation rows enforcing the boundary condition at projected boundary
points, kept in the system as non-eliminated equations."""

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from .errors import AssemblyError, ConfigurationError, GeometryError
from .geometry import (AXES, NODE_GHOST, NODE_INACTIVE, NODE_INTERIOR, NONFINITE,
                       BoundaryProjection, _neighbor_any, _shortest_crossing,
                       classify, project_ghosts)

DIAGONALS = np.array([(1, 1), (1, -1), (-1, 1), (-1, -1)])


@dataclass(frozen=True)
class LagrangeWeights:
    """1D Lagrange value/derivative weights on the upwind stencil.

    l are the p+1 interpolation weights at offset theta (in units of the
    stencil spacing); l_prime carry the 1/(spacing*h) factor.
    """

    l: tuple
    l_prime: tuple


def _weights(theta, p, h, spacing):
    """Closed-form weights for linear (p=1, 4-point tensor stencil) and
    quadratic (p=2, 9-point tensor stencil) boundary interpolation, for one
    offset or elementwise for arrays of offsets and spacings.

    spacing=2 evaluates the enlarged stencil of the ill-conditioning
    mitigation (nodes 0, 2h, 4h).  The offset range is checked by the
    callers: project_ghosts keeps primary ghosts in [0, 1) and ghost_rows
    rejects offsets of 2 or more.
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
    return LagrangeWeights(l, tuple(v * scale for v in lp))


def _pairs(projections, field, dtype=float):
    """One pair-valued field of every projection, as an (m, 2) array."""
    return np.array([getattr(q, field) for q in projections], dtype=dtype).reshape(-1, 2)


def _flags(projections, test):
    return np.array([test(q) for q in projections], dtype=bool)


def mitigate_ill_conditioning(projections, epsilon):
    """Enlarge the interpolation stencil of each Dirichlet projection whose
    offset approaches 1: doubling the spacing in the triggered direction
    halves theta and restores a usable diagonal.  Returns the projections in
    order, the triggered ones replaced; Neumann projections are returned
    unchanged."""
    theta = _pairs(projections, "theta")
    spacing = _pairs(projections, "spacing", int)
    hit = (_flags(projections, lambda q: q.bc_kind == "dirichlet")[:, None]
           & (_pairs(projections, "signs", int) != 0)
           & (np.abs(1.0 - theta) < epsilon))
    theta = np.where(hit, theta / 2.0, theta).tolist()
    spacing = np.where(hit, 2 * spacing, spacing).tolist()
    return [replace(q, theta=tuple(th), spacing=tuple(sp), enlarged=True)
            if row.any() else q
            for q, th, sp, row in zip(projections, theta, spacing, hit)]


def _stencil_nodes(projections, p):
    """Grid indices referenced by the upwind stencils, as (m, (p+1)^2)
    arrays (ii, jj, used) over the slots (mx, my) in lexicographic order:
    the tensor block, where a collapsed direction uses only its first
    column, or the slots mx == my of the diagonal column for diagonal
    projections (which keep unit spacing)."""
    ghost = _pairs(projections, "ghost", int)
    signs = _pairs(projections, "signs", int)
    step = signs * _pairs(projections, "spacing", int)
    mx, my = np.divmod(np.arange((p + 1) ** 2), p + 1)
    tensor = ((signs[:, :1] != 0) | (mx == 0)) & ((signs[:, 1:] != 0) | (my == 0))
    used = np.where(_flags(projections, lambda q: q.diagonal)[:, None], mx == my, tensor)
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
    gradient at B dotted with the boundary normal, from the same derivative
    stencil applied to the nodal level-set values, or the exact radial
    direction on circles.

    Returns (owner, ii, jj, coeff, normal): the nonzero entries in row
    order, entry e in the row of projections[owner[e]] at node
    (ii[e], jj[e]), and per projection the normal its Neumann row uses (NaN
    for value rows).  Errors are raised for the first offending projection.
    """
    h, n = grid.h, grid.n
    ghost = _pairs(projections, "ghost", int)
    theta = _pairs(projections, "theta")
    signs = _pairs(projections, "signs")
    spacing = _pairs(projections, "spacing", int)
    diagonal = _flags(projections, lambda q: q.diagonal)
    value = _flags(projections, lambda q: q.bc_kind == "dirichlet")
    ii, jj, used = _stencil_nodes(projections, p)
    errors = {}

    def fail(rows, error, message):
        for k in rows:
            errors.setdefault(k, error(message(tuple(ghost[k].tolist()), k)))

    fail(np.flatnonzero((used & ((ii < 0) | (ii > n) | (jj < 0) | (jj > n))).any(axis=1)),
         GeometryError, lambda g, k: (f"ghost stencil leaves the grid at node {g}; "
                                      "the grid is too coarse for this geometry"))
    # Primary ghosts carry theta in [0, 1); extended ghosts may sit with
    # their foot up to one extra cell away (theta < 2), still inside the
    # quadratic column and a mild extrapolation for p=1.
    fail(np.flatnonzero(theta.max(axis=1) >= 2.0), GeometryError, lambda g, k: (
        f"projection offset {theta[k].max():.3f} outside the stencil span at node {g}"))
    wx = _weights(theta[:, 0], p, h, spacing[:, 0])
    wy = _weights(theta[:, 1], p, h, spacing[:, 1])
    mx, my = np.divmod(np.arange((p + 1) ** 2), p + 1)
    lx, lpx = np.array(wx.l)[mx].T, np.array(wx.l_prime)[mx].T
    ly, lpy = np.array(wy.l)[my].T, np.array(wy.l_prime)[my].T
    fail(np.flatnonzero(diagonal & ~value), AssemblyError,
         lambda g, k: "diagonal stencils carry value rows only")
    # Neumann: spacing is never enlarged (mitigation is Dirichlet-only).
    fail(np.flatnonzero(~value & (spacing != 1).any(axis=1)), AssemblyError,
         lambda g, k: "Neumann projections must not carry an enlarged stencil")

    neu = np.flatnonzero(~value)
    if domain.is_circle:
        bd = _pairs(projections, "point")[neu] - np.array(domain.circle_center)
        dp = -bd
        norm = np.hypot(bd[:, 0], bd[:, 1])
    else:
        # the level-set gradient from the derivative stencil, summed in
        # stencil order (unused slots add exact zeros)
        phi = np.where(used, phi_node[np.clip(ii, 0, n), np.clip(jj, 0, n)], 0.0)[neu]
        dpx = dpy = 0.0
        for s in range(len(mx)):
            dpx = dpx + lpx[neu, s] * ly[neu, s] * phi[:, s]
            dpy = dpy + lx[neu, s] * lpy[neu, s] * phi[:, s]
        dp = np.column_stack([signs[neu, 0] * dpx, signs[neu, 1] * dpy])
        norm = np.array([math.hypot(a, b) for a, b in dp])
        fail(neu[norm < 1e-14], GeometryError,
             lambda g, k: f"degenerate interpolated normal at ghost {g}")
    if errors:
        raise errors[min(errors)]
    normal = np.full((len(projections), 2), np.nan)
    # phi grows inward, so the outward normal is the negated direction.
    normal[neu] = -dp / norm[:, None]

    coeff = np.where(diagonal[:, None], lx, lx * ly)
    nb, sx, sy = normal[neu], signs[neu, :1], signs[neu, 1:]
    coeff[neu] = (nb[:, :1] * sx * lpx[neu] * ly[neu]
                  + nb[:, 1:] * sy * lx[neu] * lpy[neu])
    keep = used & (coeff != 0.0)
    return np.nonzero(keep)[0], ii[keep], jj[keep], coeff[keep], normal


def ghost_row(projection, p, grid, domain, phi_node, g_dirichlet, g_neumann):
    """Boundary-condition row for one ghost node: ghost_rows for one
    projection, with the right-hand side g_dirichlet(B) or
    g_neumann(B, normal).  g_neumann receives the operator's own normal, so
    data and operator stay consistent where the level-set normal is
    ambiguous (domain corners).

    Returns (nodes, coefficients, rhs).
    """
    _, ii, jj, coeffs, normal = ghost_rows([projection], p, grid, domain, phi_node)
    nodes = list(zip(ii.tolist(), jj.tolist()))
    if projection.bc_kind == "dirichlet":
        return nodes, coeffs.tolist(), float(g_dirichlet(projection.point))
    return nodes, coeffs.tolist(), float(g_neumann(projection.point, normal[0]))


@dataclass
class FdSystem:
    """Assembled ghost-point system A u = f over the active nodes."""

    matrix: sp.csr_matrix
    rhs: np.ndarray
    nodes: np.ndarray          # (M, 2) active node indices, row order
    index: np.ndarray          # (N+1, N+1) row index per node, -1 if inactive
    projections: dict          # ghost node -> BoundaryProjection
    classification: object
    grid: object


def _extended_projections(nodes, domain, grid, tol_factor, active, p):
    """Projections for the stencil nodes beyond the ghost layer (an (m, 2)
    index array), in order; such nodes always receive a value-interpolation
    (Dirichlet-type) row at their foot.

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
    finite &= finite_d
    bad = ~finite | (diagonal & np.isnan(td))
    if bad.any():
        k = bad.argmax()
        if not finite[k]:
            raise GeometryError(NONFINITE.format(i[k], j[k]))
        raise GeometryError(
            f"no usable boundary projection for extended ghost ({i[k]}, {j[k]}); "
            "the grid is too coarse for this geometry")

    e, ed = AXES[best], DIAGONALS[best_d]
    g = np.column_stack([gx, gy])
    diag = diagonal[:, None]
    point = np.where(diag, g + ed * td[:, None] / math.sqrt(2.0), g + e * t[:, None])
    normal = np.where(diag, -ed / math.sqrt(2.0), -e)
    theta = np.where(diag, (td / step)[:, None], np.where(e != 0.0, t[:, None] / h, 0.0))
    signs = np.where(diag, ed, e).astype(int)
    return [BoundaryProjection(tuple(node), pt, v, nrm, tuple(th), tuple(s), diagonal=dg)
            for node, pt, v, nrm, th, s, dg in zip(
                nodes.tolist(), point, np.where(diagonal, td, t).tolist(), normal,
                theta.tolist(), signs.tolist(), diagonal.tolist())]


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
    point = _pairs(primary, "point")
    dirichlet = bc.is_dirichlet(point[:, 0], point[:, 1])
    primary = mitigate_ill_conditioning(
        [q if d else replace(q, bc_kind="neumann") for q, d in zip(primary, dirichlet)], h)

    # Stencils may reach exterior nodes beyond the ghost layer: activate them
    # with boundary rows of their own (one extension layer only).
    active = role != NODE_INACTIVE
    owner, si, sj, on_grid = _stencil_entries(primary, p, n)
    new = on_grid & ~active[si, sj]
    bad = ~on_grid | (new & ~_neighbor_any(active, True)[si, sj])
    stop = int(bad.argmax()) if bad.any() else len(bad)
    ids = (si * (n + 1) + sj)[:stop][new[:stop]]
    ids = ids[np.sort(np.unique(ids, return_index=True)[1])]
    # Extended ghosts are pinned by value interpolation at their own foot
    # regardless of the boundary-condition region: their row only closes the
    # system, and manufactured data supplies u there.
    extended = _extended_projections(np.column_stack(np.divmod(ids, n + 1)),
                                     domain, grid, tol_factor, active, p)
    if stop < len(bad):
        if not on_grid[stop]:
            raise GeometryError(
                f"ghost stencil leaves the grid at node {primary[owner[stop]].ghost}; "
                "the grid is too coarse for this geometry")
        raise GeometryError(
            f"stencil node ({si[stop]}, {sj[stop]}) lies beyond one layer of the "
            "active set; the grid is too coarse for this geometry")
    active.flat[ids] = True
    owner, si, sj, on_grid = _stencil_entries(extended, p, n)
    bad = ~on_grid | ~active[si, sj]
    if bad.any():
        k = bad.argmax()
        ghost = extended[owner[k]].ghost
        if not on_grid[k]:
            raise GeometryError(f"ghost stencil leaves the grid at node {ghost}")
        raise GeometryError(f"extended ghost {ghost} needs a second extension "
                            "layer; the grid is too coarse for this geometry")
    projections = {q.ghost: q for q in primary + extended}

    nodes = np.argwhere(active)
    n_rows = len(nodes)
    index = np.full((n + 1, n + 1), -1, dtype=np.int64)
    index[nodes[:, 0], nodes[:, 1]] = np.arange(n_rows)

    rows_parts, cols_parts, vals_parts = [], [], []
    rhs = np.zeros(n_rows)
    inv_h2 = 1.0 / (h * h)
    xs = grid.xs

    ii, jj = np.nonzero(role == NODE_INTERIOR)
    on_frame = (ii == 0) | (ii == n) | (jj == 0) | (jj == n)

    # Interior 5-point rows (vectorized).
    ic, jc = ii[~on_frame], jj[~on_frame]
    if len(ic):
        r = index[ic, jc]
        neighbor_cols = np.stack([index[ic, jc], index[ic + 1, jc], index[ic - 1, jc],
                                  index[ic, jc + 1], index[ic, jc - 1]])
        if neighbor_cols.min() < 0:
            raise AssemblyError("interior node with an inactive neighbor; "
                                "classification invariant violated")
        rows_parts.append(np.tile(r, 5))
        cols_parts.append(neighbor_cols.ravel())
        stamp = np.array([4.0, -1.0, -1.0, -1.0, -1.0]) * inv_h2
        vals_parts.append(np.repeat(stamp, len(ic)))
        rhs[r] = case.f(xs[ic], xs[jc])

    # Interior nodes on the grid frame only occur when Omega touches the box
    # (e.g. phi == 1 on all of R): pin them to the boundary data.
    if_, jf = ii[on_frame], jj[on_frame]
    if len(if_):
        r = index[if_, jf]
        rows_parts.append(r)
        cols_parts.append(r)
        vals_parts.append(np.ones(len(r)))
        rhs[r] = case.u(xs[if_], xs[jf])

    # Ghost rows (including extended ghosts), with g_D = u at value rows and
    # g_N = grad(u) . n at derivative rows, n the row's own normal.
    ghosts = list(projections.values())
    owner, si, sj, coeff, normal = ghost_rows(ghosts, p, grid, domain, cls.phi_node)
    r = index[tuple(_pairs(ghosts, "ghost", int).T)]
    rows_parts.append(r[owner])
    cols_parts.append(index[si, sj])
    vals_parts.append(coeff)
    point = _pairs(ghosts, "point")
    value = _flags(ghosts, lambda q: q.bc_kind == "dirichlet")
    rhs[r[value]] = case.u(point[value, 0], point[value, 1])
    ux, uy = case.grad_u(point[~value, 0], point[~value, 1])
    rhs[r[~value]] = ux * normal[~value, 0] + uy * normal[~value, 1]

    matrix = sp.coo_matrix(
        (np.concatenate(vals_parts),
         (np.concatenate(rows_parts), np.concatenate(cols_parts))),
        shape=(n_rows, n_rows)).tocsr()
    return FdSystem(matrix, rhs, nodes, index, projections, cls, grid)


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
    full[system.nodes[:, 0], system.nodes[:, 1]] = u
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
