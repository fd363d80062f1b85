"""Penalized nodal finite element method on cut cells: bilinear hats on the
background grid, volume integrals over the polygonal domain approximation,
symmetric Nitsche boundary terms on the Dirichlet part and a penalty
lambda = h^(-alpha) shared with the small-cut snapping."""

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import AssemblyError, ConfigurationError
from .geometry import (CELL_INSIDE, NODE_INTERIOR, classify,
                       extract_cut_cells, snap_small_cells)


@dataclass(frozen=True)
class QuadratureRule:
    """Reference quadrature: barycentric points/weights on a triangle and
    normalized points/weights on a segment.  Weights sum to one and scale
    with the element measure."""

    tri_bary: np.ndarray
    tri_weights: np.ndarray
    seg_points: np.ndarray
    seg_weights: np.ndarray


def _default_rule():
    a1, w1 = 0.445948490915965, 0.223381589678011
    a2, w2 = 0.091576213509771, 0.109951743655322
    bary = np.array([
        [a1, a1, 1 - 2 * a1], [a1, 1 - 2 * a1, a1], [1 - 2 * a1, a1, a1],
        [a2, a2, 1 - 2 * a2], [a2, 1 - 2 * a2, a2], [1 - 2 * a2, a2, a2],
    ])
    tw = np.array([w1, w1, w1, w2, w2, w2])
    g = math.sqrt(3.0 / 5.0)
    seg = np.array([0.5 * (1 - g), 0.5, 0.5 * (1 + g)])
    sw = np.array([5.0, 8.0, 5.0]) / 18.0
    return QuadratureRule(bary, tw / tw.sum(), seg, sw)


RULE = _default_rule()

# Safety factor on the penalty lambda = c * h^(-alpha).  The h^(-alpha)
# scaling matches the inverse area fraction the snapping floor guarantees;
# the constant covers the trace-inequality margin (values around 10 are the
# usual choice for penalized bilinear elements) so the form stays positive
# definite on grazing cuts.
PENALTY_SAFETY = 10.0

# Closed-form stiffness matrix of bilinear elements on a full square cell,
# node order SW, SE, NE, NW.
S_FULL = np.array([
    [4.0, -1.0, -2.0, -1.0],
    [-1.0, 4.0, -1.0, -2.0],
    [-2.0, -1.0, 4.0, -1.0],
    [-1.0, -2.0, -1.0, 4.0],
]) / 6.0


def _cell_rows(index, ci, cj):
    """Row indices of the four corner nodes of cell (ci, cj), in the order
    SW, SE, NE, NW along the last axis; ci, cj may be scalars or arrays."""
    return np.stack([index[ci, cj], index[ci + 1, cj],
                     index[ci + 1, cj + 1], index[ci, cj + 1]], axis=-1)


def _local_basis(grid, ci, cj, pts):
    """Values and gradients of the 4 cell basis functions at points inside
    cell (ci, cj); shapes (m, 4)."""
    x0, y0 = grid.node(ci, cj)
    h = grid.h
    s = (pts[:, 0] - x0) / h
    t = (pts[:, 1] - y0) / h
    vals = np.stack([(1 - s) * (1 - t), s * (1 - t), s * t, (1 - s) * t], axis=1)
    gx = np.stack([-(1 - t), (1 - t), t, -t], axis=1) / h
    gy = np.stack([-(1 - s), -s, s, (1 - s)], axis=1) / h
    return vals, gx, gy


def _tri_points(tri):
    pts = RULE.tri_bary @ tri
    area = 0.5 * abs(
        (tri[1, 0] - tri[0, 0]) * (tri[2, 1] - tri[0, 1])
        - (tri[2, 0] - tri[0, 0]) * (tri[1, 1] - tri[0, 1]))
    return pts, RULE.tri_weights * area


def element_volume_terms(cut, grid):
    """Local 4x4 stiffness contribution of one cut cell.

    Full cells use the closed-form bilinear element matrix; cut polygons
    are integrated with the triangle rule (exact for all products of bilinear
    functions).
    """
    if cut.area == grid.h * grid.h:
        return S_FULL.copy()
    S = np.zeros((4, 4))
    ci, cj = cut.cell
    for tri in cut.triangles:
        pts, w = _tri_points(tri)
        _, gx, gy = _local_basis(grid, ci, cj, pts)
        S += (gx * w[:, None]).T @ gx + (gy * w[:, None]).T @ gy
    return 0.5 * (S + S.T)


def _split_segment(seg, bc):
    """Split a boundary segment at the Dirichlet/Neumann interface (the
    x = 0 line) so each piece is classified by one predicate value."""
    if bc.kind != "mixed":
        return [(seg.p0, seg.p1)]
    x0, x1 = seg.p0[0], seg.p1[0]
    if (x0 < 0.0 < x1) or (x1 < 0.0 < x0):
        t = x0 / (x0 - x1)
        pm = seg.p0 + t * (seg.p1 - seg.p0)
        return [(seg.p0, pm), (pm, seg.p1)]
    return [(seg.p0, seg.p1)]


def boundary_terms(cut, grid, bc, case, lam):
    """Local boundary contributions of one cut cell.

    Returns (P, D, rhs): Dirichlet mass, Dirichlet consistency
    (D[a, b] = int phi_b dphi_a/dn), and the right-hand-side pieces with
    g_D, g_N evaluated pointwise at the quadrature points.
    Neumann data samples the manufactured flux through the segment normal,
    so the discrete form sees the flux of the polygonal boundary it actually
    integrates over (snapped boundary pieces run along grid lines, where the
    level-set normal would be O(1) wrong).
    """
    P = np.zeros((4, 4))
    D = np.zeros((4, 4))
    rhs = np.zeros(4)
    ci, cj = cut.cell
    h = grid.h
    tiny = 1e-13 * h
    for seg in cut.boundary_segments:
        for q0, q1 in _split_segment(seg, bc):
            d = q1 - q0
            length = float(np.hypot(*d))
            if length <= tiny:
                continue
            pts = q0 + RULE.seg_points[:, None] * d
            w = RULE.seg_weights * length
            vals, gx, gy = _local_basis(grid, ci, cj, pts)
            dn = gx * seg.normal[0] + gy * seg.normal[1]
            for k in range(len(w)):
                pt = pts[k]
                if bc.is_dirichlet(pt):
                    P += w[k] * np.outer(vals[k], vals[k])
                    D += w[k] * np.outer(dn[k], vals[k])
                    gd = float(case.u(pt[0], pt[1]))
                    rhs += w[k] * gd * (lam * vals[k] - dn[k])
                else:
                    ux, uy = case.grad_u(pt[0], pt[1])
                    gn = float(ux) * seg.normal[0] + float(uy) * seg.normal[1]
                    rhs += w[k] * gn * vals[k]
    return 0.5 * (P + P.T), D, rhs


@dataclass
class FemSystem:
    """Assembled penalized FEM system A u = F over the active nodes, with
    A = S - S_T + lam * P (stiffness, Nitsche terms S_T = D + D^T, and the
    Dirichlet mass P)."""

    matrix: sp.csr_matrix
    rhs: np.ndarray
    nodes: np.ndarray
    index: np.ndarray
    classification: object
    cells: dict
    grid: object

    @property
    def n_rows(self):
        return self.matrix.shape[0]


# Reference quadrature layout for full cells: both fan triangles of the unit
# square, 6 points each.
def _unit_square_rule():
    tris = [np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]]),
            np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0]])]
    pts, ws = [], []
    for tri in tris:
        p = RULE.tri_bary @ tri
        pts.append(p)
        ws.append(RULE.tri_weights * 0.5)
    return np.vstack(pts), np.concatenate(ws)


REF_PTS, REF_W = _unit_square_rule()
_REF_S = REF_PTS[:, 0]
_REF_T = REF_PTS[:, 1]
REF_VALS = np.stack([(1 - _REF_S) * (1 - _REF_T), _REF_S * (1 - _REF_T),
                     _REF_S * _REF_T, (1 - _REF_S) * _REF_T], axis=1)


def assemble_fem(grid, domain, case, bc, alpha=2.0, classification=None):
    """Assemble the penalized nodal FEM system for a manufactured case.

    Snapping with exponent alpha is applied first (unless a pre-snapped
    classification is passed in); the same alpha sets the penalty
    lambda = h^(-alpha).

    Parameters
    ----------
    grid, domain : Grid, LevelSetDomain
    case : object with callables u(x, y), grad_u(x, y), f(x, y)
    bc : BCSpec
    alpha : float in [1.5, 2]
    classification : GridClassification, optional
        Pre-snapped classification (eight-neighborhood).
    """
    if classification is None:
        classification = snap_small_cells(
            classify(grid, domain, "eight"), grid, domain, alpha)
    cls = classification
    h = grid.h
    lam = PENALTY_SAFETY * h ** (-alpha)
    cells = extract_cut_cells(cls, domain)
    if not cells:
        raise ConfigurationError("no active cells: the domain does not intersect the grid")

    nodes = cls.active_nodes()
    n_rows = len(nodes)
    if n_rows == 0:
        raise ConfigurationError("empty active node set")
    n = grid.n
    index = np.full((n + 1, n + 1), -1, dtype=np.int64)
    index[nodes[:, 0], nodes[:, 1]] = np.arange(n_rows)

    coo = {name: ([], [], []) for name in ("S", "P", "D")}

    def scatter(name, gids, local):
        rows, cols, vals = coo[name]
        rows.append(np.repeat(gids, 4))
        cols.append(np.tile(gids, 4))
        vals.append(np.asarray(local).ravel())

    rhs = np.zeros(n_rows)
    xs = grid.xs

    # ---- full interior cells: closed-form matrices, vectorized scatter ----
    inside = np.argwhere(cls.cell_role == CELL_INSIDE)
    if len(inside):
        ci, cj = inside[:, 0], inside[:, 1]
        g = _cell_rows(index, ci, cj)
        if g.min() < 0:
            raise AssemblyError("inactive node on an inside cell")
        m = len(inside)
        rows = np.repeat(g, 4, axis=1).ravel()
        cols = np.tile(g, (1, 4)).ravel()
        coo["S"][0].append(rows)
        coo["S"][1].append(cols)
        coo["S"][2].append(np.tile(S_FULL.ravel(), m))
        # volume data term, quadrature on the reference layout
        px = xs[ci][:, None] + REF_PTS[None, :, 0] * h
        py = xs[cj][:, None] + REF_PTS[None, :, 1] * h
        fv = np.asarray(case.f(px, py), dtype=float)
        if fv.ndim == 0:
            fv = np.full_like(px, float(fv))
        contrib = (fv * REF_W[None, :]) @ REF_VALS * (h * h)
        np.add.at(rhs, g.ravel(), contrib.ravel())

    # ---- cut cells: polygon quadrature and boundary terms ----
    # (inside cells adjacent to dropped cells can carry boundary segments)
    for (ci, cj), cut in cells.items():
        is_inside = cls.cell_role[ci, cj] == CELL_INSIDE
        if is_inside and not cut.boundary_segments:
            continue
        gids = _cell_rows(index, ci, cj)
        if gids.min() < 0:
            raise AssemblyError(f"inactive node on cut cell ({ci}, {cj})")
        if not is_inside:
            scatter("S", gids, element_volume_terms(cut, grid))
            for tri in cut.triangles:
                pts, w = _tri_points(tri)
                vals, _, _ = _local_basis(grid, ci, cj, pts)
                fv = np.array([float(case.f(x, y)) for x, y in pts])
                rhs[gids] += (fv * w) @ vals
        if cut.boundary_segments:
            P4, D4, r4 = boundary_terms(cut, grid, bc, case, lam)
            scatter("P", gids, P4)
            scatter("D", gids, D4)
            rhs[gids] += r4

    def build(name):
        rows, cols, vals = coo[name]
        if not rows:
            return sp.csr_matrix((n_rows, n_rows))
        return sp.coo_matrix(
            (np.concatenate(vals),
             (np.concatenate(rows), np.concatenate(cols))),
            shape=(n_rows, n_rows)).tocsr()

    S = build("S")
    P = build("P")
    D = build("D")
    if P.count_nonzero() == 0:
        raise ConfigurationError(
            "no Dirichlet boundary found: pure-Neumann problems need a "
            "compatibility condition and are not supported")
    S_T = (D + D.T).tocsr()
    A = (S - S_T + lam * P).tocsr()
    return FemSystem(A, rhs, nodes, index, cls, cells, grid)


def solution_samples(system, u):
    """Discrete solution at the volume quadrature points of Omega_h.

    Returns (points, weights, values); the weights sum to area(Omega_h).
    """
    grid = system.grid
    h = grid.h
    cls = system.classification
    xs = grid.xs
    pts_out, w_out, val_out = [], [], []

    inside = np.argwhere(cls.cell_role == CELL_INSIDE)
    if len(inside):
        ci, cj = inside[:, 0], inside[:, 1]
        uloc = u[_cell_rows(system.index, ci, cj)]
        px = xs[ci][:, None] + REF_PTS[None, :, 0] * h
        py = xs[cj][:, None] + REF_PTS[None, :, 1] * h
        vals = uloc @ REF_VALS.T
        pts_out.append(np.column_stack([px.ravel(), py.ravel()]))
        w_out.append(np.tile(REF_W * h * h, len(inside)))
        val_out.append(vals.ravel())

    for (ci, cj), cut in system.cells.items():
        if cls.cell_role[ci, cj] == CELL_INSIDE:
            continue
        uloc = u[_cell_rows(system.index, ci, cj)]
        for tri in cut.triangles:
            pts, w = _tri_points(tri)
            vals, _, _ = _local_basis(grid, ci, cj, pts)
            pts_out.append(pts)
            w_out.append(w)
            val_out.append(vals @ uloc)
    return (np.vstack(pts_out), np.concatenate(w_out), np.concatenate(val_out))


def _eroded(mask, k):
    """Cells whose (2k+1)^2 neighborhood lies entirely in the mask
    (out-of-range neighbors count as outside)."""
    out = mask.copy()
    n0, n1 = mask.shape
    for di in range(-k, k + 1):
        for dj in range(-k, k + 1):
            if di == 0 and dj == 0:
                continue
            shifted = np.zeros_like(mask)
            s0 = slice(max(0, di), min(n0, n0 + di))
            d0 = slice(max(0, -di), min(n0, n0 - di))
            s1 = slice(max(0, dj), min(n1, n1 + dj))
            d1 = slice(max(0, -dj), min(n1, n1 - dj))
            shifted[d0, d1] = mask[s0, s1]
            out &= shifted
    return out


def fem_gradient(system, u):
    """Discrete gradient of the solution at its volume sampling points:
    the centers of interior cells whose two-ring neighborhood is fully
    interior, where bilinear gradients superconverge.

    Cells within the buffer of the cut region carry the O(h) element-gradient
    error of the boundary strip, which would mask the interior gradient
    accuracy the convergence panels compare; they are excluded from the
    sample.  When no cell qualifies (tiny domains), all polygon quadrature
    points are used instead.

    Returns (points, weights, gradients).
    """
    grid = system.grid
    h = grid.h
    cls = system.classification
    xs = grid.xs

    core = np.argwhere(_eroded(cls.cell_role == CELL_INSIDE, 2))
    if len(core):
        ci, cj = core[:, 0], core[:, 1]
        uloc = u[_cell_rows(system.index, ci, cj)]
        # gradients of the four hats at the cell center
        gx = np.array([-0.5, 0.5, 0.5, -0.5]) / h
        gy = np.array([-0.5, -0.5, 0.5, 0.5]) / h
        pts = np.column_stack([xs[ci] + 0.5 * h, xs[cj] + 0.5 * h])
        return pts, np.full(len(core), h * h), np.column_stack([uloc @ gx, uloc @ gy])

    pts_out, w_out, g_out = [], [], []
    for (ci, cj), cut in system.cells.items():
        uloc = u[_cell_rows(system.index, ci, cj)]
        for tri in cut.triangles:
            pts, w = _tri_points(tri)
            _, bx, by = _local_basis(grid, ci, cj, pts)
            pts_out.append(pts)
            w_out.append(w)
            g_out.append(np.column_stack([bx @ uloc, by @ uloc]))
    return (np.vstack(pts_out), np.concatenate(w_out), np.vstack(g_out))


def nodal_interior_values(system, u):
    """Solution coefficients at interior nodes (hat functions are nodal).

    Returns (nodes, values).
    """
    cls = system.classification
    ii, jj = np.nonzero(cls.node_role == NODE_INTERIOR)
    rows = system.index[ii, jj]
    if rows.min() < 0:
        raise AssemblyError("interior node missing from the active index")
    return np.column_stack([ii, jj]), u[rows]
