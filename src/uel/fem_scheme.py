"""Penalized nodal finite element method on cut cells: bilinear hats on the
background grid, volume integrals over the polygonal domain approximation,
symmetric Nitsche boundary terms on the Dirichlet part and a penalty
lambda = h^(-alpha) shared with the small-cut snapping."""

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import scipy.sparse as sp

from .analysis import NORM_BLOCK
from .errors import AssemblyError, ConfigurationError
from .geometry import (CELL_INSIDE, CELL_SNAPPED, NODE_INACTIVE, NODE_INTERIOR,
                       classify, extract_cut_cells, snap_small_cells)


# Reference quadrature: barycentric points and weights of a 6-point rule on
# a triangle, and normalized 3-point Gauss points and weights on a segment.
# The weights sum to one and scale with the element measure.
_A1, _W1 = 0.445948490915965, 0.223381589678011
_A2, _W2 = 0.091576213509771, 0.109951743655322
TRI_BARY = np.array([
    [_A1, _A1, 1 - 2 * _A1], [_A1, 1 - 2 * _A1, _A1], [1 - 2 * _A1, _A1, _A1],
    [_A2, _A2, 1 - 2 * _A2], [_A2, 1 - 2 * _A2, _A2], [1 - 2 * _A2, _A2, _A2],
])
_TW = np.array([_W1, _W1, _W1, _W2, _W2, _W2])
TRI_WEIGHTS = _TW / _TW.sum()
_G = math.sqrt(3.0 / 5.0)
SEG_POINTS = np.array([0.5 * (1 - _G), 0.5, 0.5 * (1 + _G)])
SEG_WEIGHTS = np.array([5.0, 8.0, 5.0]) / 18.0

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


def _hats(s, t):
    """Values and s-, t-derivatives of the 4 unit-cell hats (SW, SE, NE, NW)
    at cell-local coordinates s, t in [0, 1]; shapes s.shape + (4,)."""
    return (np.stack([(1 - s) * (1 - t), s * (1 - t), s * t, (1 - s) * t], axis=-1),
            np.stack([-(1 - t), (1 - t), t, -t], axis=-1),
            np.stack([-(1 - s), -s, s, (1 - s)], axis=-1))


def _cell_basis(grid, ij, pts):
    """Values and x-, y-gradients of the 4 hats of cells ij (..., 2) at
    points pts (..., 2) inside them; shapes pts.shape[:-1] + (4,)."""
    h = grid.h
    vals, gs, gt = _hats((pts[..., 0] - grid.xs[ij[..., 0]]) / h,
                         (pts[..., 1] - grid.xs[ij[..., 1]]) / h)
    return vals, gs / h, gt / h


def _at(values, x):
    """Case data evaluated at points x, as floats of x's shape (a case may
    return a scalar where its data is constant)."""
    return np.broadcast_to(np.asarray(values, dtype=float), np.shape(x))


def _triangle_quadrature(grid, tris, ij):
    """Triangle rule on triangles tris (T, 3, 2) lying in cells ij (T, 2):
    points (T, 6, 2), weights (T, 6), and the cell hats and their x-,
    y-gradients at the points, each (T, 6, 4)."""
    pts = np.matmul(TRI_BARY, tris)
    area = 0.5 * np.abs(
        (tris[:, 1, 0] - tris[:, 0, 0]) * (tris[:, 2, 1] - tris[:, 0, 1])
        - (tris[:, 2, 0] - tris[:, 0, 0]) * (tris[:, 1, 1] - tris[:, 0, 1]))
    return (pts, TRI_WEIGHTS * area[:, None]) + _cell_basis(grid, ij[:, None], pts)


def _sum_by_cell(terms, owner, n_cells):
    """Per-cell sums of terms (K, ...) in the order given (owner (K,))."""
    out = np.zeros((n_cells,) + terms.shape[1:])
    np.add.at(out, owner, terms)
    return out


def _stiffness_blocks(gx, gy, w, owner, n_cells):
    """Per-cell 4x4 stiffness blocks from the hat gradients (T, 6, 4) and
    weights (T, 6) of the triangles, each owned by cell owner (T,)."""
    gxw, gyw = gx * w[..., None], gy * w[..., None]
    terms = np.matmul(gxw.transpose(0, 2, 1), gx) + np.matmul(gyw.transpose(0, 2, 1), gy)
    S = _sum_by_cell(terms, owner, n_cells)
    return 0.5 * (S + S.transpose(0, 2, 1))


def _boundary_blocks(grid, bc, case, lam, band):
    """Boundary blocks (P, D, rhs), each (C, ...), of the C cells of a
    BoundaryBand, summed over each cell's segments in order: the Dirichlet
    mass, the Dirichlet consistency D[a, b] = int phi_b dphi_a/dn, and the
    right-hand-side pieces with g_D, g_N evaluated at the quadrature points.
    P needs no symmetrization: P[a, b] and P[b, a] sum the same products
    w v_a v_b in the same order, so P is symmetric bit for bit.

    Neumann data samples the manufactured flux through the segment normal,
    so the discrete form sees the flux of the polygonal boundary it actually
    integrates over (snapped boundary pieces run along grid lines, where the
    level-set normal would be O(1) wrong).  Segments crossing the
    Dirichlet/Neumann interface are split there, so each piece is classified
    by one predicate value; pieces no longer than 1e-13 h are dropped.
    """
    p0, p1, normal, owner = band.p0, band.p1, band.normal, band.segment_owner
    c = bc.interface
    x0, x1 = p0[:, 0], p1[:, 0]
    cross = np.flatnonzero(((x0 < c) & (c < x1)) | ((x1 < c) & (c < x0)))
    t = (x0[cross] - c) / (x0[cross] - x1[cross])
    pm = p0[cross] + t[:, None] * (p1[cross] - p0[cross])
    # pieces (p0, pm), (pm, p1) in place of each crossing segment
    seg = np.insert(np.arange(len(p0)), cross, cross)
    q0 = np.insert(p0, cross + 1, pm, axis=0)
    d = np.insert(p1, cross, pm, axis=0) - q0
    length = np.hypot(d[:, 0], d[:, 1])
    keep = length > 1e-13 * grid.h
    seg, q0, d, length = seg[keep], q0[keep], d[keep], length[keep]

    pts = q0[:, None] + SEG_POINTS[:, None] * d[:, None]
    w = SEG_WEIGHTS * length[:, None]
    vals, gx, gy = _cell_basis(grid, band.cells[owner[seg]][:, None], pts)
    nx, ny = normal[seg, 0][:, None], normal[seg, 1][:, None]
    dn = gx * nx[..., None] + gy * ny[..., None]
    x, y = pts[..., 0], pts[..., 1]
    dirichlet = bc.is_dirichlet(x, y)
    gd = _at(case.u(x, y), x)
    ux, uy = (_at(g, x) for g in case.grad_u(x, y))
    rhs_terms = np.where(dirichlet[..., None], (w * gd)[..., None] * (lam * vals - dn),
                         (w * (ux * nx + uy * ny))[..., None] * vals)
    wd = w[dirichlet][:, None, None]
    vd = vals[dirichlet]
    cell = np.broadcast_to(owner[seg][:, None], w.shape)
    n_cells = len(band.cells)
    P = _sum_by_cell(wd * (vd[:, :, None] * vd[:, None, :]), cell[dirichlet], n_cells)
    D = _sum_by_cell(wd * (dn[dirichlet][:, :, None] * vd[:, None, :]), cell[dirichlet], n_cells)
    rhs = _sum_by_cell(rhs_terms.reshape(-1, 4), cell.ravel(), n_cells)
    return P, D, rhs


@dataclass
class FemSystem:
    """Assembled penalized FEM system A u = F over the active nodes, with
    A = S - S_T + lam * P (stiffness, Nitsche terms S_T = D + D^T, and the
    Dirichlet mass P).  band is the BoundaryBand of extract_cut_cells; the
    other inside cells exist only in classification.cell_role.

    Each entry of A carries the round-off of that three-matrix sum: the
    stiffness summed over the inside cells, then over the cut cells in band
    order, then S_T subtracted and lam * P added, with exact zeros dropped
    (assemble_fem builds it in one pass).

    The active nodes are numbered in lexicographic order, so nodes is
    derived from index rather than stored."""

    matrix: sp.csr_matrix
    rhs: np.ndarray
    index: np.ndarray
    classification: object
    band: object
    grid: object

    @property
    def nodes(self):
        """(M, 2) active node indices in row order."""
        return np.argwhere(self.index >= 0)

    @property
    def cells(self):
        """{band cell: namespace(boundary_segments=<count>)}, for the tracing harness only."""
        counts = np.bincount(self.band.segment_owner, minlength=len(self.band.cells)).tolist()
        keys = map(tuple, self.band.cells.tolist())
        return {c: SimpleNamespace(boundary_segments=k) for c, k in zip(keys, counts)}

    def u_blocks(self, u):
        """The solution_samples arrays (points, weights, values) in blocks
        of NORM_BLOCK samples, each built anew."""
        for points, weights, fields in _omega_h_blocks(self, u, gradient=False):
            yield points, weights, fields[0]

    def gradient_samples(self, u):
        """Discrete gradient of the solution at its volume sampling points:
        the centers of interior cells whose two-ring neighborhood is fully
        interior, where bilinear gradients superconverge.

        Cells within the buffer of the cut region carry the O(h)
        element-gradient error of the boundary strip, which would mask the
        interior gradient accuracy the convergence panels compare; they are
        excluded from the sample.  When no cell qualifies (tiny domains),
        the gradient is taken at the solution_samples points instead, read
        from the same arrays.

        Returns (points, weights, gradients).
        """
        h = self.grid.h
        core = np.argwhere(_eroded(self.classification.cell_role == CELL_INSIDE, 2))
        if len(core):
            uloc = u[_cell_rows(self.index, *core.T)]
            # gradients of the four hats at the cell center
            gx = np.array([-0.5, 0.5, 0.5, -0.5]) / h
            gy = np.array([-0.5, -0.5, 0.5, 0.5]) / h
            pts = self.grid.xs[core] + 0.5 * h
            return pts, np.full(len(core), h * h), np.column_stack([uloc @ gx, uloc @ gy])

        points, weights, fields = _omega_h_samples(self, u, gradient=True)
        return points, weights, fields.T


# Reference quadrature layout for full cells: both fan triangles of the unit
# square, 6 points each.
REF_PTS = np.matmul(TRI_BARY, np.array([[[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]],
                                        [[0.0, 0.0], [1.0, 1.0], [0.0, 1.0]]])).reshape(-1, 2)
REF_W = np.tile(TRI_WEIGHTS * 0.5, 2)
REF_VALS, REF_GS, REF_GT = _hats(REF_PTS[:, 0], REF_PTS[:, 1])

# The 9-point stencil of the full-cell stiffness: node offsets (di, dj) in
# lexicographic order, so a node's columns come out sorted, and
# STENCIL_SUMS[o, k], the S_FULL entry of offset o added up over k = 0..4
# inside cells, one cell at a time.  That entry is S_FULL[0, |di| + |dj|]:
# the same node, an edge neighbour or the node across a cell.
STENCIL = [(di, dj) for di in (-1, 0, 1) for dj in (-1, 0, 1)]
STENCIL_SUMS = np.zeros((9, 5))
STENCIL_SUMS[:, 1:] = np.add.accumulate(
    np.repeat(S_FULL[0, [abs(di) + abs(dj) for di, dj in STENCIL]][:, None], 4, axis=1),
    axis=1)


def _stencil_counts(inside, nodes):
    """Number of inside cells (inside: (n, n) cell mask) shared by each of
    the nodes (M, 2) and each of its STENCIL neighbours, (M, 9) uint8."""
    n = inside.shape[0]
    pad = np.zeros((n + 2, n + 2), dtype=np.uint8)
    pad[1:-1, 1:-1] = inside
    i, j = nodes[:, 0], nodes[:, 1]
    # cell (i - 1 + a, j - 1 + b) at node (i, j)
    corner = {(a, b): pad[i + a, j + b] for a in (0, 1) for b in (0, 1)}
    sides = {-1: (0,), 0: (0, 1), 1: (1,)}
    return np.stack([sum(corner[a, b] for a in sides[di] for b in sides[dj])
                     for di, dj in STENCIL], axis=-1)


def _block_entries(rows, blocks):
    """COO (rows, cols, data) of 4x4 blocks (C, 4, 4) on corner rows (C, 4),
    cell by cell, each block row by row."""
    return (np.repeat(rows, 4, axis=1).ravel(), np.tile(rows, (1, 4)).ravel(),
            blocks.ravel())


def _csr(rows, blocks, n_rows):
    """Sum of 4x4 blocks on corner rows as a canonical CSR matrix."""
    r, c, d = _block_entries(rows, blocks)
    return sp.coo_matrix((d, (r, c)), shape=(n_rows, n_rows)).tocsr()


def stencil_csr(index, offsets, keep, code, table, extra):
    """A canonical CSR matrix over the active nodes of index (-1 where
    inactive), numbered lexicographically.  Row r holds table[code[r, k]]
    at the node offsets[k] away from its own wherever keep[r, k] (keep,
    code: (M, K), code uint8), followed in each (row, col) by the extra COO
    entries, a list of (rows, cols, data) parts, summed in their given
    order; exact zeros are dropped.

    The offsets are in lexicographic order, so each row's stencil entries
    come out sorted; the few extra entries are stably sorted and slotted in
    behind them, so every row is in order and sum_duplicates adds each
    entry's terms left to right.  A kept stencil node that is inactive
    raises AssemblyError."""
    n_rows, n_cols = keep.shape
    n2 = index.shape[0] + 2
    padded = np.full(n2 * n2, -1, dtype=index.dtype)
    padded.reshape(n2, n2)[1:-1, 1:-1] = index
    at = np.flatnonzero(padded >= 0)
    cols = np.empty(keep.shape, dtype=index.dtype)
    for k, (di, dj) in enumerate(offsets):
        cols[:, k] = padded[at + (di * n2 + dj)]
    del padded, at

    rows_b, cols_b, data_b = (np.concatenate(part) for part in zip(*extra))
    order = np.argsort(rows_b.astype(np.int64) * n_rows + cols_b, kind="stable")
    rows_b, cols_b, data_b = rows_b[order], cols_b[order], data_b[order]
    # row lengths column by column: a count along the short axis is several
    # times slower
    indptr = np.zeros(n_rows + 1, dtype=np.int32)
    for k in range(n_cols):
        indptr[1:] += keep[:, k]
    np.add.at(indptr, rows_b + 1, 1)
    np.cumsum(indptr, out=indptr)
    # each extra entry goes behind the stencil entries of its row with
    # col <= its col, and behind the extra entries of its row sorted
    # before it (indptr counts both kinds)
    before = np.count_nonzero(keep[rows_b] & (cols[rows_b] <= cols_b[:, None]), axis=1)
    slot = (indptr[rows_b] + before + np.arange(len(rows_b))
            - np.searchsorted(rows_b, rows_b))
    del rows_b, before

    stencil = np.ones(indptr[-1], dtype=bool)
    stencil[slot] = False
    indices = np.empty(indptr[-1], dtype=np.int32)
    indices[stencil] = cols[keep]
    del cols
    indices[slot] = cols_b
    if indices.min(initial=0) < 0:
        raise AssemblyError("interior node with an inactive neighbor; "
                            "classification invariant violated")
    entry_code = np.zeros(indptr[-1], dtype=np.uint8)
    entry_code[stencil] = code[keep]
    del stencil
    data = table[entry_code]
    del entry_code
    data[slot] = data_b
    A = sp.csr_matrix((data, indices, indptr), shape=(n_rows, n_rows))
    A.sum_duplicates()
    A.eliminate_zeros()
    return A


def assemble_fem(grid, domain, case, bc, alpha=2.0, classification=None):
    """Assemble the penalized nodal FEM system for a manufactured case.

    Snapping with exponent alpha is applied first (unless a pre-snapped
    classification is passed in); the same alpha sets the penalty
    lambda = h^(-alpha).  The band's fan triangles and boundary segments are
    integrated in one pass over arrays tagged with their owning cells; each
    cell's terms are summed in the order of its own triangles and segments.

    The inside cells' closed-form stiffness enters as one 9-point stencil
    entry per node and neighbour, STENCIL_SUMS giving the cell-by-cell sum
    of the shared S_FULL entry.  The cut-cell blocks, the entries of
    -(D + D^T) and those of lam * P follow it in one sorted array summed
    left to right, which repeats the round-off of S - S_T + lam * P term by
    term (x - y is x + (-y) exactly) and drops its exact zeros too.

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
    band = extract_cut_cells(cls, domain)
    if not len(band.cells):
        raise ConfigurationError("no active cells: " + (
            f"snapping at alpha={alpha} disregarded every cut cell"
            if CELL_SNAPPED in cls.cell_role else "the domain does not intersect the grid"))

    active = cls.node_role != NODE_INACTIVE
    n_rows = np.count_nonzero(active)
    if n_rows == 0:
        raise ConfigurationError("empty active node set")
    n = grid.n
    index = np.full((n + 1, n + 1), -1, dtype=np.int32)
    index[active] = np.arange(n_rows)
    nodes = np.argwhere(active)
    del active

    rhs = np.zeros(n_rows)

    # ---- full interior cells: reference quadrature, block by block in
    # cell order (the stiffness is the stencil below) ----
    inside = cls.cell_role == CELL_INSIDE
    cells = np.argwhere(inside)
    for b in range(0, len(cells), NORM_BLOCK // 12):
        block = cells[b:b + NORM_BLOCK // 12]
        g = _cell_rows(index, *block.T)
        if g.min() < 0:
            raise AssemblyError("inactive node on an inside cell")
        px, py = np.moveaxis(grid.xs[block][:, None] + REF_PTS * h, -1, 0)
        contrib = (_at(case.f(px, py), px) * REF_W[None, :]) @ REF_VALS * (h * h)
        np.add.at(rhs, g.ravel(), contrib.ravel())
    del cells

    # ---- band cells, in key order: cut cells carry polygon quadrature,
    # every cell with boundary segments carries boundary terms ----
    keys, band_rows, cut, t_own, pts, w, vals, gx, gy = _band_quadrature(band, cls, index)
    if band_rows.min() < 0:
        ci, cj = keys[np.argmax(band_rows.min(axis=1) < 0)]
        raise AssemblyError(f"inactive node on cut cell ({ci}, {cj})")
    S_cut = _stiffness_blocks(gx, gy, w, t_own, len(keys))[cut]
    # cut cells covering the whole square take the closed form
    S_cut[band.area[cut] == h * h] = S_FULL
    f = _at(case.f(pts[..., 0], pts[..., 1]), pts[..., 0])
    tri_rhs = np.matmul((f * w)[:, None], vals)[:, 0]
    del pts, w, vals, gx, gy, f

    P, D, bnd_rhs = _boundary_blocks(grid, bc, case, lam, band)
    seg_cells = np.unique(band.segment_owner)

    # rhs in per-cell order (triangles, then boundary total), fixing F's round-off
    owner = np.concatenate([t_own, seg_cells])
    order = np.argsort(2 * owner + (np.arange(len(owner)) >= len(t_own)), kind="stable")
    np.add.at(rhs, band_rows[owner[order]].ravel(),
              np.concatenate([tri_rhs, bnd_rhs[seg_cells]])[order].ravel())

    P = _csr(band_rows[seg_cells], P[seg_cells], n_rows)
    D = _csr(band_rows[seg_cells], D[seg_cells], n_rows)
    if P.count_nonzero() == 0:
        raise ConfigurationError(
            "no Dirichlet boundary found: pure-Neumann problems need a "
            "compatibility condition and are not supported")
    S_T = (D + D.T).tocsr()
    band_entries = [_block_entries(band_rows[cut], S_cut)] + [
        (m.row, m.col, m.data) for m in ((-S_T).tocoo(), (lam * P).tocoo())]
    counts = _stencil_counts(inside, nodes)
    keep = counts > 0
    # STENCIL_SUMS[o, k] sits at flat position 5 * o + k
    counts += np.arange(0, 45, 5, dtype=np.uint8)
    A = stencil_csr(index, STENCIL, keep, counts, STENCIL_SUMS.ravel(), band_entries)
    return FemSystem(A, rhs, index, cls, band, grid)


def _band_quadrature(band, classification, index):
    """Band cells (C, 2) in key order, their corner rows (C, 4), the
    positions of the cut ones, and the band position owning each of their
    fan triangles (T,), followed by the _triangle_quadrature arrays."""
    keys = band.cells
    cut, on_cut = _band_cut(band, classification)
    owner = band.triangle_owner[on_cut]
    return ((keys, _cell_rows(index, keys[:, 0], keys[:, 1]), np.flatnonzero(cut), owner)
            + _triangle_quadrature(classification.grid, band.triangles[on_cut], keys[owner]))


def _band_cut(band, classification):
    """Masks of the band's cut cells (band cells with role CELL_INSIDE only
    carry exposed sides) and of the fan triangles they own."""
    keys = band.cells
    cut = classification.cell_role[keys[:, 0], keys[:, 1]] != CELL_INSIDE
    return cut, cut[band.triangle_owner]


def _omega_h_size(system):
    """Number of volume quadrature samples of Omega_h: 12 per inside cell,
    6 per fan triangle of the band's cut cells."""
    return (12 * np.count_nonzero(system.classification.cell_role == CELL_INSIDE)
            + 6 * np.count_nonzero(_band_cut(system.band, system.classification)[1]))


def _omega_h_blocks(system, u, gradient, out=None):
    """The volume quadrature of Omega_h in blocks of NORM_BLOCK samples:
    the reference layout on every inside cell, then the fan triangles of
    the band's cut cells in key order.  Yields per block the points (b, 2),
    the weights (b,) and the fields (k, b) read from u at the points: its
    values (k = 1), or its x- and y-derivatives (k = 2).

    As NORM_BLOCK is a multiple of 12, a block holds whole inside cells and
    whole triangles.  Given out, the (points, weights, fields) arrays of all
    _omega_h_size(system) samples, each block is filled into its slices of
    them; otherwise it gets new arrays."""
    grid, index = system.grid, system.index
    h = grid.h
    _, rows, _, owner, pts, w, vals, gx, gy = _band_quadrature(
        system.band, system.classification, index)
    bases = ((REF_GS / h, gx), (REF_GT / h, gy)) if gradient else ((REF_VALS, vals),)
    del vals, gx, gy
    u_tri = u[rows[owner]][:, None]
    inside = np.argwhere(system.classification.cell_role == CELL_INSIDE)
    m_in = 12 * len(inside)
    m = m_in + 6 * len(u_tri)
    for start in range(0, m, NORM_BLOCK):
        stop = min(start + NORM_BLOCK, m)
        if out is None:
            points, weights, fields = (np.empty((stop - start, 2)), np.empty(stop - start),
                                       np.empty((len(bases), stop - start)))
        else:
            points, weights, fields = (out[0][start:stop], out[1][start:stop],
                                       out[2][:, start:stop])
        cells = inside[start // 12:stop // 12]
        n = 12 * len(cells)
        tris = slice(max(start - m_in, 0) // 6, max(stop - m_in, 0) // 6)
        np.add(grid.xs[cells][:, None], REF_PTS * h, out=points[:n].reshape(-1, 12, 2))
        weights[:n].reshape(-1, 12)[...] = REF_W * h * h
        points[n:] = pts[tris].reshape(-1, 2)
        weights[n:] = w[tris].ravel()
        u_in = u[_cell_rows(index, *cells.T)]
        for field, (ref, tri) in zip(fields, bases):
            np.matmul(u_in, ref.T, out=field[:n].reshape(-1, 12))
            np.matmul(u_tri[tris], np.swapaxes(tri[tris], -1, -2),
                      out=field[n:].reshape(-1, 1, 6))
        yield points, weights, fields


def _omega_h_samples(system, u, gradient):
    """Every _omega_h_blocks sample, filled into preallocated arrays: the
    points (m, 2), the weights (m,) and the fields (k, m)."""
    m = _omega_h_size(system)
    out = np.empty((m, 2)), np.empty(m), np.empty((2 if gradient else 1, m))
    for _ in _omega_h_blocks(system, u, gradient, out):
        pass
    return out


def solution_samples(system, u):
    """Discrete solution at the volume quadrature points of Omega_h (the
    reference layout on inside cells, then the band's triangle arrays).

    Returns (points, weights, values); the weights sum to area(Omega_h).
    """
    points, weights, fields = _omega_h_samples(system, u, gradient=False)
    return points, weights, fields[0]


def _eroded(mask, k):
    """Cells whose (2k+1)^2 neighborhood lies entirely in the mask
    (out-of-range neighbors count as outside): the window test runs over
    rows, then over columns, of the mask padded with k empty cells."""
    n0, n1 = mask.shape
    padded = np.pad(mask, k)
    rows = np.logical_and.reduce([padded[d:d + n0] for d in range(2 * k + 1)])
    return np.logical_and.reduce([rows[:, d:d + n1] for d in range(2 * k + 1)])


fem_gradient = FemSystem.gradient_samples


def nodal_interior_values(system, u):
    """Solution values at the interior nodes of an FD or FEM system (both
    are nodal there): the FD u samples and both schemes' nodal-error samples.

    Returns (nodes, values).
    """
    cls = system.classification
    ii, jj = np.nonzero(cls.node_role == NODE_INTERIOR)
    rows = system.index[ii, jj]
    if rows.min() < 0:
        raise AssemblyError("interior node missing from the active index")
    return np.column_stack([ii, jj]), u[rows]
