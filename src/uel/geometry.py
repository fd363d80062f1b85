"""Level-set domains, Cartesian grids, node/cell classification, boundary
projection and cut-cell polygon extraction shared by both discretizations."""

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import ConfigurationError, GeometryError

# Node roles
NODE_INACTIVE = 0
NODE_INTERIOR = 1
NODE_GHOST = 2

# Cell roles
CELL_OUTSIDE = 0
CELL_INSIDE = 1
CELL_CUT = 2
CELL_SNAPPED = 3

# Relative area threshold below which a cut region counts as empty.
AREA_EPS = 1e-12

DOMAIN_NAMES = ("circle", "leaf", "flower", "hourglass")

# offset by which make_domain moves the printed flower and hourglass
SHAPE_OFFSET = (0.03 * math.sqrt(3.0), 0.04 * math.sqrt(2.0))


# ----------------------------------------------------------------------
# Domains
# ----------------------------------------------------------------------

@dataclass
class LevelSetDomain:
    """Analytic level-set description of a domain Omega inside R = [-1,1]^2.

    phi is positive inside Omega, negative outside and zero on the boundary
    Gamma.  phi and grad_phi accept scalars or numpy arrays, and every
    normal of the domain comes from grad_phi.

    Parameters
    ----------
    name : str
        Identifier of the domain.
    phi : callable
        Level-set function phi(x, y).
    grad_phi : callable
        Analytic gradient (x, y) -> (dphi_dx, dphi_dy).
    analytic_neumann_normal : bool
        Whether the FD Neumann rows (fd_scheme.ghost_rows) take
        outward_normal at the foot point rather than the normal
        interpolated from the nodal phi; make_domain sets it for the circle.
    """

    name: str
    phi: callable
    grad_phi: callable
    analytic_neumann_normal: bool = False

    def shifted(self, dx, dy):
        """This domain moved by (dx, dy): phi and grad_phi read at
        (x - dx, y - dy), the name and the Neumann-normal rule kept."""
        return replace(self, phi=lambda x, y: self.phi(x - dx, y - dy),
                       grad_phi=lambda x, y: self.grad_phi(x - dx, y - dy))

    def _normals(self, x, y):
        """Outward unit normals at the points of the 1-D arrays x, y, as an
        (m, 2) array that is zero where the normal is undefined, and the
        mask of the points where it is defined."""
        d = -np.column_stack(self.grad_phi(x, y))
        norm = np.hypot(d[:, 0], d[:, 1])
        # a NaN or infinite gradient leaves the normal undefined too
        ok = (norm >= 1e-14) & np.isfinite(norm)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(ok[:, None], d / norm[:, None], 0.0), ok

    def _undefined_normal(self, x, y):
        """Why the normal at the point (x, y) is undefined."""
        gx, gy = self.grad_phi(np.array([x]), np.array([y]))
        if np.isfinite(gx).all() and np.isfinite(gy).all():
            return f"vanishing level-set gradient at ({x}, {y}) on domain {self.name!r}"
        return f"non-finite level-set gradient at ({x}, {y}) on domain {self.name!r}"

    def outward_normal(self, x, y):
        """Outward unit normal of Omega at the points (x, y), scalars or
        arrays of one shape, as an array of shape np.shape(x) + (2,).

        With the positive-inside convention the gradient of phi points into
        Omega, so the outward direction is -grad(phi)/|grad(phi)|.  A scalar
        point is evaluated as a 1-element array: numpy rounds some powers of
        0-d values differently, and a point must get the same normal alone
        as in a batch.

        Raises GeometryError for the first point where the normal is
        undefined.
        """
        xs, ys = np.ravel(x), np.ravel(y)
        normal, ok = self._normals(xs, ys)
        if not ok.all():
            k = np.argmin(ok)
            raise GeometryError(self._undefined_normal(xs[k], ys[k]))
        return normal.reshape(np.shape(x) + (2,))


def make_domain(name):
    """Build one of the four reference domains, with phi positive inside
    Omega (the printed leaf, flower and hourglass formulas are negative
    inside and are negated).  The flower and the hourglass are the printed
    shapes moved by SHAPE_OFFSET.  Their printed powers of degree 3 and
    more are evaluated as products (x2 * x2 for x^4, say), within a few
    ulps of the ** form and without libm's much slower pow.

    Supported names: circle, leaf, flower, hourglass.
    """
    if name == "circle":
        r0 = 0.8

        def phi(x, y):
            return r0 - np.sqrt(x * x + y * y)

        def grad(x, y):
            r = np.sqrt(x * x + y * y)
            r = np.where(r == 0.0, 1.0, r)
            return -x / r, -y / r

        return LevelSetDomain("circle", phi, grad, analytic_neumann_normal=True)

    if name == "leaf":
        # Two disks of radius 0.7 centered at (+-0.25 cos(pi/4), 0); Omega is
        # their lens-shaped intersection.
        c1 = -0.25 * math.cos(math.pi / 4.0)
        c2 = 0.25 * math.sin(math.pi / 4.0)
        r0 = 0.7

        # the printed formula max(R1, R2) - 0.7 is negative inside: negated
        def phi(x, y):
            r1 = np.sqrt((x - c1) ** 2 + y * y)
            r2 = np.sqrt((x - c2) ** 2 + y * y)
            return -(np.maximum(r1, r2) - r0)

        def grad(x, y):
            r1 = np.sqrt((x - c1) ** 2 + y * y)
            r2 = np.sqrt((x - c2) ** 2 + y * y)
            pick1 = r1 >= r2
            r1s = np.where(r1 == 0.0, 1.0, r1)
            r2s = np.where(r2 == 0.0, 1.0, r2)
            gx = np.where(pick1, (x - c1) / r1s, (x - c2) / r2s)
            gy = np.where(pick1, y / r1s, y / r2s)
            return -gx, -gy

        return LevelSetDomain("leaf", phi, grad)

    if name == "flower":
        # The printed quotient has spurious zero branches from R ~ 0.73
        # outward (R - 0.52 - R^5 sin(5t) changes sign again); the petals end
        # at R ~ 0.59.  Intersecting with the disk R < 0.66 keeps exactly the
        # flower component without touching its boundary.  The printed
        # quotient is negative inside the flower: phi negates it.
        clip = 0.66

        # w = y^5 + 5 x^4 y - 10 x^2 y^3 = R^5 sin(5t), and its gradient
        def raw(x, y):
            x2, y2 = x * x, y * y
            r = np.sqrt(x2 + y2)
            w = y * (y2 * y2 + 5.0 * x2 * x2 - 10.0 * x2 * y2)
            with np.errstate(divide="ignore", invalid="ignore"):
                val = (r - 0.52 - w) / (5.0 * ((r * r) * (r * r) * r))
            return np.where(r == 0.0, -np.inf, val)

        def raw_grad(x, y):
            x2, y2 = x * x, y * y
            r = np.sqrt(x2 + y2)
            rs = np.where(r == 0.0, 1.0, r)
            rs2 = rs * rs
            rs3 = rs2 * rs
            w = y * (y2 * y2 + 5.0 * x2 * x2 - 10.0 * x2 * y2)
            wx = 20.0 * x * y * (x2 - y2)
            wy = 5.0 * (y2 * y2 + x2 * x2) - 30.0 * x2 * y2
            a = r - 0.52 - w
            b = 5.0 * (rs3 * rs2)
            ax, ay = x / rs - wx, y / rs - wy
            bx, by = 25.0 * rs3 * x, 25.0 * rs3 * y
            gx = (ax * b - a * bx) / (b * b)
            gy = (ay * b - a * by) / (b * b)
            return np.where(r == 0.0, 0.0, gx), np.where(r == 0.0, 0.0, gy)

        def phi(x, y):
            return np.minimum(-raw(x, y), clip - np.sqrt(x * x + y * y))

        def grad(x, y):
            r = np.sqrt(x * x + y * y)
            rs = np.where(r == 0.0, 1.0, r)
            flower_active = -raw(x, y) <= clip - r
            gx, gy = raw_grad(x, y)
            gx = np.where(flower_active, -gx, -x / rs)
            gy = np.where(flower_active, -gy, -y / rs)
            return gx, gy

        return LevelSetDomain("flower", phi, grad).shifted(*SHAPE_OFFSET)

    if name == "hourglass":
        # the printed quartic is negative inside: negated
        def phi(x, y):
            x2, y2 = x * x, y * y
            return -(256.0 * y2 * y2 - 16.0 * x2 * x2 - 128.0 * y2 + 36.0 * x2)

        def grad(x, y):
            return -(-64.0 * x * x * x + 72.0 * x), -(1024.0 * y * y * y - 256.0 * y)

        return LevelSetDomain("hourglass", phi, grad).shifted(*SHAPE_OFFSET)

    raise ConfigurationError(
        f"unknown domain {name!r}; expected one of {', '.join(DOMAIN_NAMES)}")


# ----------------------------------------------------------------------
# Grid and classification
# ----------------------------------------------------------------------

class Grid:
    """Uniform node grid on R = [-1,1]^2 with N cells per side and h = 2/N.

    Node (i, j) sits at (-1 + i h, -1 + j h) for i, j in 0..N.
    """

    def __init__(self, n_cells):
        n = int(n_cells)
        if n < 4:
            raise ConfigurationError(f"grid needs at least 4 cells per side, got {n}")
        self.n = n
        self.h = 2.0 / n
        self.xs = -1.0 + self.h * np.arange(n + 1)

    def node(self, i, j):
        return self.xs[i], self.xs[j]


@dataclass
class GridClassification:
    """Per-node and per-cell roles of one grid against one domain.

    phi_node holds the level-set values the geometry is built from; after
    snapping they differ from the analytic values (banded vertices clamped
    to zero).
    """

    grid: Grid
    phi_node: np.ndarray
    node_role: np.ndarray
    cell_role: np.ndarray


def _neighbor_any(mask, eight):
    """Boolean array: node has at least one True among its 4 (or 8) neighbors."""
    out = np.zeros_like(mask)
    out[1:, :] |= mask[:-1, :]
    out[:-1, :] |= mask[1:, :]
    out[:, 1:] |= mask[:, :-1]
    out[:, :-1] |= mask[:, 1:]
    if eight:
        out[1:, 1:] |= mask[:-1, :-1]
        out[1:, :-1] |= mask[:-1, 1:]
        out[:-1, 1:] |= mask[1:, :-1]
        out[:-1, :-1] |= mask[1:, 1:]
    return out


def _cell_roles(phi_node):
    v00 = phi_node[:-1, :-1]
    v10 = phi_node[1:, :-1]
    v11 = phi_node[1:, 1:]
    v01 = phi_node[:-1, 1:]
    all_pos = (v00 > 0) & (v10 > 0) & (v11 > 0) & (v01 > 0)
    any_pos = (v00 > 0) | (v10 > 0) | (v11 > 0) | (v01 > 0)
    roles = np.where(all_pos, CELL_INSIDE, np.where(any_pos, CELL_CUT, CELL_OUTSIDE))
    return roles.astype(np.int8)


def classify(grid, domain, neighborhood="four"):
    """Classify nodes as interior/ghost/inactive and cells as
    inside/cut/outside.

    Parameters
    ----------
    grid : Grid
    domain : LevelSetDomain
    neighborhood : "four" or "eight"
        Ghosts are exterior nodes with at least one interior node among their
        4 axis neighbors (finite differences) or 8 neighbors (finite
        elements).
    """
    if neighborhood not in ("four", "eight"):
        raise ConfigurationError(f"neighborhood must be 'four' or 'eight', got {neighborhood!r}")
    X, Y = np.meshgrid(grid.xs, grid.xs, indexing="ij")
    phi = np.asarray(domain.phi(X, Y), dtype=float)
    interior = phi > 0.0
    ghost = ~interior & _neighbor_any(interior, neighborhood == "eight")
    role = np.where(interior, NODE_INTERIOR,
                    np.where(ghost, NODE_GHOST, NODE_INACTIVE)).astype(np.int8)
    return GridClassification(grid, phi, role, _cell_roles(phi))


def snap_small_cells(classification, grid, domain, alpha):
    """Remove small-cut cells: vertices with |phi| < h^alpha are treated as
    lying on the boundary, cut cells whose remaining area fraction stays
    below the floor are disregarded (marked snapped), and nodes supported
    only by snapped/outside cells become inactive.

    The band is symmetric: clamping barely-exterior vertices regularizes the
    geometry, while clamping barely-interior ones removes sliver supports.
    The area floor (h^(alpha-1) as a fraction of a full cell) drops
    the grazing-cut cells whose trace constant the penalty h^(-alpha) cannot
    control; boundary integrals then run along the exposed cell edges (see
    extract_cut_cells), keeping the polygonal domain boundary closed.
    """
    if not 1.5 <= alpha <= 2.0:
        raise ConfigurationError(f"snapping exponent alpha must be in [1.5, 2], got {alpha}")
    h = grid.h
    band = h ** alpha
    phi0 = classification.phi_node
    touched = (phi0 != 0.0) & (np.abs(phi0) < band)
    phi = np.where(touched, 0.0, phi0)

    n = grid.n
    roles = _cell_roles(phi)
    area_tol = max(AREA_EPS, h ** (alpha - 1.0)) * h * h
    # Cut candidates need an actual area check; cells the band touched but
    # that keep no positive vertex are snapped rather than outside.
    cut = np.argwhere(roles == CELL_CUT)
    roles[tuple(cut[_march(grid, phi, cut)[-1] < area_tol].T)] = CELL_SNAPPED
    cell_touched = (touched[:-1, :-1] | touched[1:, :-1]
                    | touched[1:, 1:] | touched[:-1, 1:])
    roles[(roles == CELL_OUTSIDE) & cell_touched] = CELL_SNAPPED

    # A node stays active only while some adjacent cell carries area.
    ok = (roles == CELL_INSIDE) | (roles == CELL_CUT)
    supported = np.zeros((n + 1, n + 1), dtype=bool)
    supported[:-1, :-1] |= ok
    supported[1:, :-1] |= ok
    supported[1:, 1:] |= ok
    supported[:-1, 1:] |= ok
    node_role = np.where(~supported, NODE_INACTIVE,
                         np.where(phi > 0.0, NODE_INTERIOR, NODE_GHOST)).astype(np.int8)
    return GridClassification(grid, phi, node_role, roles)


# ----------------------------------------------------------------------
# Boundary projection (ghost points)
# ----------------------------------------------------------------------

@dataclass
class GhostProjections:
    """Closest-boundary-point data for m ghost nodes G, one row each.

    The foot point B lies on Gamma within the bisection tolerance; theta
    and signs parametrize the upwind interpolation stencil from G toward B;
    dirichlet marks value rows (the others interpolate the normal
    derivative); spacing doubles in a direction when the ill-conditioning
    mitigation enlarged the stencil.  Extended ghosts in concave corners may
    carry a diagonal single-column stencil (diagonal, theta measured in
    units of sqrt(2) h) and offsets up to 2.
    """

    ghost: np.ndarray      # (m, 2) node indices
    point: np.ndarray      # (m, 2) foot points B
    theta: np.ndarray      # (m, 2) offsets in units of the spacing
    signs: np.ndarray      # (m, 2) stencil directions, 0 where collapsed
    dirichlet: np.ndarray  # (m,) bool
    spacing: np.ndarray    # (m, 2) int
    diagonal: np.ndarray   # (m,) bool

    def __add__(self, other):
        return GhostProjections(*(np.concatenate([getattr(self, f.name), getattr(other, f.name)])
                                  for f in fields(self)))


# Axis ray directions, in their order of preference on ties.
AXES = np.array([(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)])
NONFINITE = "phi is not finite along a projection ray from node ({}, {})"


def raise_first(bad, make_error):
    """Raise make_error(k) for the first row k where the mask bad is set."""
    if bad.any():
        raise make_error(int(bad.argmax()))


def _bisect_rays(domain, ox, oy, dx, dy, t_max, tol):
    """First zero of phi along each ray (ox, oy) + t (dx, dy), t in
    (0, t_max]: all rays are presampled at once at t = t_max k / 64 for
    their first sign change, and every bracket is bisected down to tol (or
    to adjacent floats), where tol must be finite and positive.

    Returns (t, finite) per ray: t is NaN where the presampled ray never
    turns positive, and finite is False (with t NaN) where phi was not
    finite at some sample.
    """
    if not 0.0 < tol < math.inf:
        raise ConfigurationError(f"bisection tolerance must be finite and positive, got {tol}")
    t = t_max * np.arange(1, 65) / 64
    f = domain.phi(ox[:, None] + dx[:, None] * t, oy[:, None] + dy[:, None] * t)
    finite = np.isfinite(f).all(axis=1)
    out = np.full(len(ox), np.nan)
    nonneg = f >= 0.0
    rows = np.flatnonzero(finite & nonneg.any(axis=1))
    k = nonneg[rows].argmax(axis=1)
    lo, hi = np.where(k > 0, t[k - 1], 0.0), t[k]
    hit = f[rows, k] == 0.0
    out[rows[hit]] = hi[hit]
    rows, lo, hi = rows[~hit], lo[~hit], hi[~hit]
    while True:
        mid = 0.5 * (lo + hi)
        done = (hi - lo <= tol) | (mid == lo) | (mid == hi)
        out[rows[done]] = mid[done]
        rows, lo, hi, mid = rows[~done], lo[~done], hi[~done], mid[~done]
        if not len(rows):
            return out, finite
        f = domain.phi(ox[rows] + dx[rows] * mid, oy[rows] + dy[rows] * mid)
        finite[rows[~np.isfinite(f)]] = False
        out[rows[f == 0.0]] = mid[f == 0.0]
        lo, hi = np.where(f < 0.0, mid, lo), np.where(f > 0.0, mid, hi)
        go = (f < 0.0) | (f > 0.0)
        rows, lo, hi = rows[go], lo[go], hi[go]


def _shortest_crossing(domain, x, y, owner, d, directions, t_max, tol):
    """Shortest crossing of Gamma from each point (x, y), ray r leaving
    point owner[r] along directions[d[r]].  Returns per point the ray
    parameter (NaN if no ray crosses), the direction index (the earlier on
    ties) and whether phi was finite along all of the point's rays."""
    t, ok = _bisect_rays(domain, x[owner], y[owner], directions[d, 0],
                         directions[d, 1], t_max, tol)
    table = np.full((len(x), len(directions)), np.inf)
    table[owner, d] = np.where(np.isnan(t), np.inf, t)
    best = table.argmin(axis=1)
    t = table[np.arange(len(x)), best]
    finite = np.ones(len(x), dtype=bool)
    finite[owner[~ok]] = False
    return np.where(t < np.inf, t, np.nan), best, finite


def project_ghosts(nodes, domain, grid, tol_factor=1e-4):
    """Project the exterior nodes G (an (m, 2) index array) onto Gamma, all
    at once; returns their GhostProjections in order, all with value rows
    and unit spacing.

    The primary route solves phi(G - normal * nu) = 0 along the outward
    normal by presampling the ray for a sign change and bisecting the first
    bracket down to tol_factor * h in distance.  When the normal ray misses
    Gamma within 2*sqrt(2)*h or its foot leaves the unit-offset range
    (concave corners), the projection falls back to the shortest axis
    crossing toward a neighbor where phi >= 0, at most one cell away (an
    offset of exactly 1 is rejected below).

    Raises
    ------
    GeometryError
        From the first check that fails, at its first node in order.  The
        checks run in this order: a node is interior, phi is not finite at
        a node, a node has no defined outward normal, phi is not finite
        along a normal ray or an axis segment, neither of them crosses
        Gamma, or the offset leaves [0, 1).
    ConfigurationError
        If tol_factor * h is not finite and positive.
    """
    nodes = np.asarray(nodes, dtype=np.int64).reshape(-1, 2)
    h = grid.h
    tol = tol_factor * h
    gx, gy = grid.xs[nodes[:, 0]], grid.xs[nodes[:, 1]]

    def node(k):
        return f"node ({nodes[k, 0]}, {nodes[k, 1]})"

    def nonfinite(k):
        return GeometryError(NONFINITE.format(*nodes[k]))

    phi_g = domain.phi(gx, gy)
    raise_first(phi_g > 0.0, lambda k: GeometryError(
        f"{node(k)} is interior; only exterior nodes project"))
    raise_first(~np.isfinite(phi_g), nonfinite)
    normal, ok = domain._normals(gx, gy)
    raise_first(~ok, lambda k: GeometryError(domain._undefined_normal(gx[k], gy[k])))

    nu = np.zeros(len(nodes))  # phi(G) == 0: B = G
    ray = np.flatnonzero(phi_g != 0.0)
    nu[ray], finite = _bisect_rays(domain, gx[ray], gy[ray], -normal[ray, 0],
                                   -normal[ray, 1], 2.0 * math.sqrt(2.0) * h, tol)
    raise_first(~finite, lambda k: nonfinite(ray[k]))
    bx, by = gx - normal[:, 0] * nu, gy - normal[:, 1] * nu
    # foot beyond the unit offset, or no crossing: fall back to the axes
    axis = np.flatnonzero(np.isnan(nu) | (np.abs(bx - gx) >= h) | (np.abs(by - gy) >= h))
    probe = domain.phi(gx[axis, None] + AXES[:, 0] * h, gy[axis, None] + AXES[:, 1] * h)
    raise_first(~np.isfinite(probe).all(axis=1), lambda k: nonfinite(axis[k]))
    # a neighbour on Gamma up to round-off (phi(G + h e) == 0 although the
    # classification saw phi > 0 at the grid node) still brackets a crossing
    owner, d = np.nonzero(probe >= 0.0)
    t, best, finite = _shortest_crossing(domain, gx[axis], gy[axis], owner, d,
                                         AXES, h, tol)
    raise_first(~finite, lambda k: nonfinite(axis[k]))
    raise_first(np.isnan(t), lambda k: GeometryError(
        "no boundary crossing along the normal ray or the axis segments "
        f"from {node(axis[k])}"))
    bx[axis] = gx[axis] + AXES[best, 0] * t
    by[axis] = gy[axis] + AXES[best, 1] * t

    sx, sy = np.sign(bx - gx), np.sign(by - gy)
    # B coincides with G (node exactly on Gamma): orient the stencil inward
    # so derivative rows keep a usable one-sided stencil.
    on = (sx == 0.0) & (sy == 0.0)
    sx[on], sy[on] = np.sign(-normal[on, 0]), np.sign(-normal[on, 1])
    theta = np.column_stack([np.abs(bx - gx), np.abs(by - gy)]) / h
    raise_first((theta >= 1.0).any(axis=1), lambda k: GeometryError(
        f"projection offset outside [0,1) at {node(k)}: "
        f"theta=({theta[k, 0]:.3f}, {theta[k, 1]:.3f})"))
    m = len(nodes)
    return GhostProjections(nodes, np.column_stack([bx, by]), theta,
                            np.column_stack([sx, sy]).astype(int), np.ones(m, dtype=bool),
                            np.ones((m, 2), dtype=int), np.zeros(m, dtype=bool))


def project_to_boundary(node, domain, grid, tol_factor=1e-4):
    """project_ghosts for one node, for the benchmark tracing harness only."""
    return project_ghosts([node], domain, grid, tol_factor)


# ----------------------------------------------------------------------
# Cut cells
# ----------------------------------------------------------------------

@dataclass
class BoundaryBand:
    """The boundary band of extract_cut_cells: cell keys and areas, fan
    triangles and boundary segments, one row per band cell, triangle or
    segment, each triangle and segment tagged with the position of its cell
    (owner) and in the order of its cell's walk.  A segment's length is
    |p1 - p0|; the polygons behind the triangles come from _march.
    """

    cells: np.ndarray           # (C, 2) cell indices in lexicographic order
    area: np.ndarray            # (C,) area of the cell's polygons
    triangles: np.ndarray       # (T, 3, 2)
    triangle_owner: np.ndarray  # (T,)
    p0: np.ndarray              # (S, 2) segment ends
    p1: np.ndarray              # (S, 2)
    normal: np.ndarray          # (S, 2) outward unit normals
    segment_owner: np.ndarray   # (S,)


# Cell sides in marching-squares order (bottom, right, top, left): side k
# runs from corner k to corner k+1.  A vertex carries a mask with bit k set
# for each side k it lies on; corner k lies on sides k-1 and k.  The outward
# normal of side k is also the offset of the neighbor cell across it.
CORNER_SIDES = (0b1001, 0b0011, 0b0110, 0b1100)
SIDE_NORMALS = ((0, -1), (1, 0), (0, 1), (-1, 0))


def _march(grid, phi, cells):
    """Marching-squares polygons of the cells (K, 2) intersected with
    {phi_h >= 0}, from the nodal values phi (snapped ones after snapping).

    Each cell has 8 vertex slots: corner a where phi >= 0, then the linear
    root on side a where its end values have strictly opposite signs.  A
    saddle with a negative bilinear center value falls apart into one
    triangle per positive corner.  A vertex within 1e-12 h of the last kept
    one (or the last of the first) merges into it, joining their side
    masks; polygons left with under 3 vertices or area at most AREA_EPS h^2
    are dropped.  Returns per polygon, in cell order, its cell (owner), CCW
    vertices (P, 6, 2) zero past their count size, and side masks (P, 6);
    and per cell the area of its polygons, h^2 where all corners are in.
    """
    h = grid.h
    nodes = cells[:, None] + np.array([(0, 0), (1, 0), (1, 1), (0, 1)])
    vals, corners = phi[nodes[..., 0], nodes[..., 1]], grid.xs[nodes]
    pos, neg = vals > 0.0, vals < 0.0
    cross = (pos & np.roll(neg, -1, axis=1)) | (neg & np.roll(pos, -1, axis=1))
    t = np.divide(vals, vals - np.roll(vals, -1, axis=1), out=np.zeros_like(vals), where=cross)
    roots = corners + t[..., None] * (np.roll(corners, -1, axis=1) - corners)
    valid = np.stack([vals >= 0.0, cross], 2).reshape(-1, 8) & pos.any(axis=1)[:, None]
    split = (((pos[:, 0] & pos[:, 2] & neg[:, 1] & neg[:, 3])
              | (neg[:, 0] & neg[:, 2] & pos[:, 1] & pos[:, 3]))
             & (0.25 * (vals[:, 0] + vals[:, 1] + vals[:, 2] + vals[:, 3]) < 0.0))
    # kept slots in walk order, two polygon rows per cell: a split saddle is
    # slots 0-2 and 3-5, and starts at the root on side 3 if corner 0 is in
    key = np.where(valid, np.arange(8), 8)
    key[split & pos[:, 0], 7] = -1
    order = np.argsort(key, axis=1, kind="stable")[:, :6]
    order = np.stack([order, np.roll(order, -3, axis=1)], 1).reshape(-1, 6)
    owner = np.repeat(np.arange(len(cells)), 2)
    verts = np.stack([corners, roots], 2).reshape(-1, 8, 2)[owner[:, None], order]
    sides = np.array([(c, 1 << a) for a, c in enumerate(CORNER_SIDES)]).ravel()[order]
    size = np.column_stack([np.where(split, 3, valid.sum(axis=1)), 3 * split]).ravel()

    rows, slot = np.arange(len(owner)), np.arange(6)
    keep = slot < np.minimum(size, 1)[:, None]
    last = np.zeros(len(owner), dtype=np.int64)
    for j in range(1, 6):
        d = verts[:, j] - verts[rows, last]
        near = (j < size) & (np.hypot(d[:, 0], d[:, 1]) <= 1e-12 * h)
        sides[rows[near], last[near]] |= sides[near, j]
        keep[:, j] = (j < size) & ~near
        last[keep[:, j]] = j
    d = verts[:, 0] - verts[rows, last]
    wrap = (keep.sum(axis=1) > 1) & (np.hypot(d[:, 0], d[:, 1]) <= 1e-12 * h)
    sides[wrap, 0] |= sides[wrap, last[wrap]]
    keep[wrap, last[wrap]] = False

    order, size = np.argsort(~keep, axis=1, kind="stable"), keep.sum(axis=1)
    verts = np.where((slot < size[:, None])[..., None], verts[rows[:, None], order], 0.0)
    x, y = verts[..., 0], verts[..., 1]
    nxt = (slot + 1) % np.maximum(size, 1)[:, None]
    a = 0.5 * ((x * np.take_along_axis(y, nxt, 1)).sum(1)
               - (y * np.take_along_axis(x, nxt, 1)).sum(1))
    ok = (size >= 3) & (a > AREA_EPS * h * h)
    area = np.bincount(owner[ok], weights=a[ok], minlength=len(cells))
    area[pos.all(axis=1)] = h * h
    return owner[ok], verts[ok], sides[rows[:, None], order][ok], size[ok], area


def _band(grid, phi, cells, exposed):
    """BoundaryBand of the cells (C, 2) in lexicographic order; bit k of
    exposed (C,) is set where the neighbor across side k carries no area.
    A polygon edge whose ends share no cell side is a Gamma_h chord; one
    along side k is a boundary segment where bit k of exposed is set.  Fan
    triangles of area at most 1e-12 h^2 and edges up to 1e-12 h are dropped.
    Segments come per cell as the chords, then bottom, right, top, left."""
    tiny = 1e-12 * grid.h
    owner, verts, sides, size, area = _march(grid, phi, cells)
    slot = np.arange(6)
    fans = np.stack([np.broadcast_to(verts[:, :1], verts[:, 1:5].shape), verts[:, 1:5],
                     verts[:, 2:6]], axis=2)
    e1, e2 = fans[:, :, 1] - fans[:, :, 0], fans[:, :, 2] - fans[:, :, 0]
    tri = ((slot[1:5] < size[:, None] - 1)
           & (0.5 * (e1[..., 0] * e2[..., 1] - e2[..., 0] * e1[..., 1]) > tiny * grid.h))

    nxt = (slot + 1) % np.maximum(size, 1)[:, None]
    ends = np.take_along_axis(verts, nxt[..., None], axis=1)
    d = ends - verts
    length = np.hypot(d[..., 0], d[..., 1])
    shared = sides & np.take_along_axis(sides, nxt, axis=1)
    # per edge: a chord (kind 0), or a piece along exposed side k (kind k + 1)
    along = (shared & exposed[owner, None])[..., None] >> slot[:4] & 1 == 1
    edge = (slot < size[:, None]) & (length > tiny)
    p, j, k = np.nonzero(np.concatenate([(shared == 0)[..., None], along], -1) & edge[..., None])
    seg = np.argsort(5 * owner[p] + k, kind="stable")
    p, j, k = p[seg], j[seg], k[seg]
    chord = np.column_stack([d[p, j, 1], -d[p, j, 0]]) / length[p, j, None]
    normal = np.where(k[:, None] == 0, chord, np.array(((0, 0),) + SIDE_NORMALS, dtype=float)[k])
    return BoundaryBand(cells, area, fans[tri], np.broadcast_to(owner[:, None], tri.shape)[tri],
                        verts[p, j], ends[p, j], normal, owner[p])


def extract_cut_cells(classification, domain=None):
    """Cut-cell geometry of the boundary band of a classification, as one
    BoundaryBand (domain is not read).  The band is every CELL_CUT cell with
    positive area plus every CELL_INSIDE cell that shares an edge with an
    empty cell (outside, snapped, zero-area cut, or off the grid); the other
    inside cells are full squares described by cell_role alone.  Besides the
    interior chords, the pieces of a polygon boundary that run along a cell
    edge become boundary segments whenever the sharing neighbor is empty:
    Omega_h then has a boundary covered once by the segments and closed up
    to round-off: two cut cells find the root on their shared side each in
    its own walk, so the two segment ends there differ by up to about
    4.4e-14 h (shifted built-in domains, N = 40..160).  The trace of a
    marching-squares polygon on a cell edge depends only on that edge's
    vertex values, so two positive-area neighbors always cover a shared
    edge identically and emit nothing there.
    """
    grid, phi, role = classification.grid, classification.phi_node, classification.cell_role
    n = grid.n
    cut = np.argwhere(role == CELL_CUT)
    # cells that carry area, framed by a ring of empty off-grid cells
    occupied = np.zeros((n + 2, n + 2), dtype=bool)
    occupied[1:-1, 1:-1] = role == CELL_INSIDE
    occupied[1:-1, 1:-1][tuple(cut[_march(grid, phi, cut)[-1] > 0.0].T)] = True
    # bit k set: the neighbor across side k carries no area
    exposed = sum(~occupied[1 + di:n + 1 + di, 1 + dj:n + 1 + dj] << k
                  for k, (di, dj) in enumerate(SIDE_NORMALS))
    cells = np.argwhere(occupied[1:-1, 1:-1] & ((role == CELL_CUT) | (exposed != 0)))
    return _band(grid, phi, cells, exposed[cells[:, 0], cells[:, 1]])


# ----------------------------------------------------------------------
# Boundary-condition regions
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class BCSpec:
    """Which part of Gamma carries Dirichlet data: the points left of the
    interface line x = interface (strictly left when strict is set).  An
    interface at +inf makes all of Gamma Dirichlet, one at -inf all of it
    Neumann.
    """

    interface: float
    strict: bool = False

    def is_dirichlet(self, x, y):
        """Vectorized region test at boundary points (x, y)."""
        x = np.asarray(x)
        return x < self.interface if self.strict else x <= self.interface


def make_bc_spec(domain_name, kind):
    """Boundary-condition regions used in the experiments: full Dirichlet, or
    the mixed split with Dirichlet on the left part of Gamma (x <= 0; the
    leaf uses the strict x < 0)."""
    if kind == "dirichlet":
        return BCSpec(math.inf)
    if kind == "mixed":
        return BCSpec(0.0, strict=domain_name == "leaf")
    raise ConfigurationError(f"unknown boundary-condition kind {kind!r}")
