"""Ghost-point finite-difference discretization: 5-point interior rows plus
interpolation rows enforcing the boundary condition at projected boundary
points, kept in the system as non-eliminated equations."""

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from .errors import AssemblyError, ConfigurationError, GeometryError
from .geometry import (NODE_GHOST, NODE_INTERIOR, BoundaryProjection,
                       _bisect_ray, _neighbor_any, classify, project_to_boundary)


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
    quadratic (p=2, 9-point tensor stencil) boundary interpolation.

    spacing=2 evaluates the enlarged stencil of the ill-conditioning
    mitigation (nodes 0, 2h, 4h).  The offset range is checked by the
    callers: project_to_boundary keeps primary ghosts in [0, 1) and
    ghost_row rejects offsets of 2 or more.
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


def mitigate_ill_conditioning(projection, epsilon):
    """Enlarge the interpolation stencil of a Dirichlet projection whose
    offset approaches 1: doubling the spacing in the triggered direction
    halves theta and restores a usable diagonal.  Neumann projections are
    returned unchanged."""
    if projection.bc_kind != "dirichlet":
        return projection
    tx, ty = projection.theta
    sx, sy = projection.signs
    kx, ky = projection.spacing
    changed = False
    if sx != 0 and abs(1.0 - tx) < epsilon:
        tx, kx, changed = tx / 2.0, 2 * kx, True
    if sy != 0 and abs(1.0 - ty) < epsilon:
        ty, ky, changed = ty / 2.0, 2 * ky, True
    if not changed:
        return projection
    return replace(projection, theta=(tx, ty), spacing=(kx, ky), enlarged=True)


def _stencil_nodes(projection, p):
    """Grid indices referenced by the upwind stencil: the tensor block
    (collapsed directions contribute a single column), or the diagonal
    column for diagonal projections."""
    i, j = projection.ghost
    sx, sy = projection.signs
    kx, ky = projection.spacing
    if projection.diagonal:
        return [(m, m, i + sx * m, j + sy * m) for m in range(p + 1)]
    mxs = range(p + 1) if sx != 0 else (0,)
    mys = range(p + 1) if sy != 0 else (0,)
    return [(mx, my, i + sx * kx * mx, j + sy * ky * my) for mx in mxs for my in mys]


def ghost_row(projection, p, grid, domain, phi_node, g_dirichlet, g_neumann):
    """Boundary-condition row for one ghost node.

    Dirichlet: tensor Lagrange interpolation of u at B equals g_D(B).
    Neumann: the interpolated gradient at B dotted with the boundary normal
    (from the same derivative stencil applied to the nodal level-set values,
    or the exact radial direction on circles) equals the flux data.
    g_neumann is called as g_neumann(B, normal) with the operator's own
    normal, so data and operator stay consistent where the level-set normal
    is ambiguous (domain corners).

    Returns (nodes, coefficients, rhs).
    """
    h = grid.h
    tx, ty = projection.theta
    sx, sy = projection.signs
    kx, ky = projection.spacing
    stencil = _stencil_nodes(projection, p)
    n = grid.n
    for _, _, ii, jj in stencil:
        if not (0 <= ii <= n and 0 <= jj <= n):
            raise GeometryError(
                f"ghost stencil leaves the grid at node {projection.ghost}; "
                "the grid is too coarse for this geometry")
    if max(tx, ty) >= 2.0:
        raise GeometryError(
            f"projection offset {max(tx, ty):.3f} outside the stencil span "
            f"at node {projection.ghost}")

    # Primary ghosts carry theta in [0, 1); extended ghosts may sit with
    # their foot up to one extra cell away (theta < 2), still inside the
    # quadratic column and a mild extrapolation for p=1.
    wx = _weights(tx, p, h, kx)
    wy = _weights(ty, p, h, ky)

    if projection.diagonal:
        if projection.bc_kind != "dirichlet":
            raise AssemblyError("diagonal stencils carry value rows only")
        # 1D Lagrange interpolation along the diagonal line through G.
        nodes, coeffs = [], []
        for m, _, ii, jj in stencil:
            c = wx.l[m]
            if c != 0.0:
                nodes.append((ii, jj))
                coeffs.append(c)
        return nodes, coeffs, float(g_dirichlet(projection.point))

    if projection.bc_kind == "dirichlet":
        nodes, coeffs = [], []
        for mx, my, ii, jj in stencil:
            c = wx.l[mx] * wy.l[my]
            if c != 0.0:
                nodes.append((ii, jj))
                coeffs.append(c)
        return nodes, coeffs, float(g_dirichlet(projection.point))

    # Neumann: spacing is never enlarged (mitigation is Dirichlet-only).
    if (kx, ky) != (1, 1):
        raise AssemblyError("Neumann projections must not carry an enlarged stencil")
    if domain.is_circle:
        cx, cy = domain.circle_center
        bd = projection.point - np.array([cx, cy])
        nb = bd / np.hypot(*bd)
    else:
        dpx = sx * sum(wx.l_prime[mx] * wy.l[my] * phi_node[ii, jj]
                       for mx, my, ii, jj in stencil)
        dpy = sy * sum(wx.l[mx] * wy.l_prime[my] * phi_node[ii, jj]
                       for mx, my, ii, jj in stencil)
        norm = math.hypot(dpx, dpy)
        if norm < 1e-14:
            raise GeometryError(
                f"degenerate interpolated normal at ghost {projection.ghost}")
        # phi grows inward, so the outward normal is the negated direction.
        nb = np.array([-dpx / norm, -dpy / norm])
    nodes, coeffs = [], []
    for mx, my, ii, jj in stencil:
        c = (nb[0] * sx * wx.l_prime[mx] * wy.l[my]
             + nb[1] * sy * wx.l[mx] * wy.l_prime[my])
        if c != 0.0:
            nodes.append((ii, jj))
            coeffs.append(c)
    return nodes, coeffs, float(g_neumann(projection.point, nb))


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


def _extended_projection(node, domain, grid, tol_factor, active, p):
    """Projection for a stencil node beyond the ghost layer; such nodes
    always receive a value-interpolation (Dirichlet-type) row at their foot.

    First choice is the shortest axis crossing within two cells: the
    single-column stencil it induces references only active nodes (the next
    node along the axis is interior or itself a ghost), so activation never
    cascades.  In concave corners without an axis crossing, a diagonal
    column is used instead, provided the nodes it references are already
    active.
    """
    i, j = node
    h = grid.h
    n = grid.n
    gx, gy = grid.node(i, j)
    phi_g = float(domain.phi(gx, gy))
    if phi_g > 0.0:
        raise AssemblyError(f"extended ghost ({i}, {j}) is interior; "
                            "classification invariant violated")

    best = None
    for ex, ey in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        t = _bisect_ray(domain, (gx, gy), (ex, ey), 2.0 * h, tol_factor * h)
        if t is not None and (best is None or t < best[0]):
            best = (t, ex, ey)
    if best is not None:
        t, ex, ey = best
        point = np.array([gx + ex * t, gy + ey * t])
        normal = np.array([-float(ex), -float(ey)])
        theta = (t / h if ex else 0.0, t / h if ey else 0.0)
        return BoundaryProjection((int(i), int(j)), point, float(t), normal,
                                  theta, (ex, ey))

    step = math.sqrt(2.0) * h
    best = None
    for ex, ey in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        ok = all(0 <= i + m * ex <= n and 0 <= j + m * ey <= n
                 and (active[i + m * ex, j + m * ey] or m == 0)
                 for m in range(p + 1))
        if not ok:
            continue
        t = _bisect_ray(domain, (gx, gy),
                        (ex / math.sqrt(2.0), ey / math.sqrt(2.0)),
                        2.0 * step, tol_factor * h)
        if t is not None and (best is None or t < best[0]):
            best = (t, ex, ey)
    if best is not None:
        t, ex, ey = best
        point = np.array([gx + ex * t / math.sqrt(2.0),
                          gy + ey * t / math.sqrt(2.0)])
        normal = np.array([-ex / math.sqrt(2.0), -ey / math.sqrt(2.0)])
        td = t / step
        return BoundaryProjection((int(i), int(j)), point, float(t), normal,
                                  (td, td), (ex, ey), diagonal=True)

    raise GeometryError(
        f"no usable boundary projection for extended ghost ({i}, {j}); "
        "the grid is too coarse for this geometry")


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

    def g_dir(pt):
        return float(case.u(pt[0], pt[1]))

    def g_neu(pt, normal):
        gx, gy = case.grad_u(pt[0], pt[1])
        return float(gx) * normal[0] + float(gy) * normal[1]

    def make_projection(node):
        proj = project_to_boundary(node, domain, grid, tol_factor)
        kind = "dirichlet" if bc.is_dirichlet(*proj.point) else "neumann"
        proj = replace(proj, bc_kind=kind)
        if kind == "dirichlet":
            proj = mitigate_ill_conditioning(proj, h)
        return proj

    projections = {}
    for gi, gj in np.argwhere(role == NODE_GHOST):
        node = (int(gi), int(gj))
        projections[node] = make_projection(node)

    # Stencils may reach exterior nodes beyond the ghost layer: activate them
    # with boundary rows of their own (one extension layer only).
    active = role != 0
    near_active = _neighbor_any(active, True)
    extended = {}
    for proj in list(projections.values()):
        for _, _, ii, jj in _stencil_nodes(proj, p):
            if not (0 <= ii <= n and 0 <= jj <= n):
                raise GeometryError(
                    f"ghost stencil leaves the grid at node {proj.ghost}; "
                    "the grid is too coarse for this geometry")
            if active[ii, jj] or (ii, jj) in extended:
                continue
            if not near_active[ii, jj]:
                raise GeometryError(
                    f"stencil node ({ii}, {jj}) lies beyond one layer of the "
                    "active set; the grid is too coarse for this geometry")
            # Extended ghosts are pinned by value interpolation at their own
            # foot regardless of the boundary-condition region: their row
            # only closes the system, and manufactured data supplies u there.
            extended[(ii, jj)] = _extended_projection(
                (ii, jj), domain, grid, tol_factor, active, p)
    for proj in extended.values():
        for _, _, ii, jj in _stencil_nodes(proj, p):
            if not (0 <= ii <= n and 0 <= jj <= n):
                raise GeometryError(
                    f"ghost stencil leaves the grid at node {proj.ghost}")
            if not active[ii, jj] and (ii, jj) not in extended:
                raise GeometryError(
                    f"extended ghost {proj.ghost} needs a second extension "
                    "layer; the grid is too coarse for this geometry")
    projections.update(extended)
    if extended:
        active = active.copy()
        for ii, jj in extended:
            active[ii, jj] = True

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

    # Ghost rows (including extended ghosts).
    g_rows, g_cols, g_vals = [], [], []
    for node, proj in projections.items():
        stencil_nodes, coeffs, rv = ghost_row(proj, p, grid, domain,
                                              cls.phi_node, g_dir, g_neu)
        r = index[node]
        for (si, sj), c in zip(stencil_nodes, coeffs):
            col = index[si, sj]
            if col < 0:
                raise AssemblyError(f"ghost stencil references inactive node ({si}, {sj})")
            g_rows.append(r)
            g_cols.append(col)
            g_vals.append(c)
        rhs[r] = rv
    if g_rows:
        rows_parts.append(np.array(g_rows))
        cols_parts.append(np.array(g_cols))
        vals_parts.append(np.array(g_vals))

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
