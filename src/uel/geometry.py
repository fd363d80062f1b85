"""Level-set domains, Cartesian grids, node/cell classification, boundary
projection and cut-cell polygon extraction shared by both discretizations."""

import math
from dataclasses import dataclass

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


# ----------------------------------------------------------------------
# Domains
# ----------------------------------------------------------------------

@dataclass
class LevelSetDomain:
    """Analytic level-set description of a domain Omega inside R = [-1,1]^2.

    phi is positive inside Omega, negative outside and zero on the boundary
    Gamma.  phi and grad_phi accept scalars or numpy arrays.

    Parameters
    ----------
    name : str
        Identifier of the domain.
    phi : callable
        Level-set function phi(x, y).
    grad_phi : callable
        Analytic gradient (x, y) -> (dphi_dx, dphi_dy).
    circle_center : tuple
        Set for circular domains only; enables exact normals.
    """

    name: str
    phi: callable
    grad_phi: callable
    circle_center: tuple = None

    @property
    def is_circle(self):
        return self.circle_center is not None

    def gradient(self, x, y):
        """Analytic gradient of phi at (x, y)."""
        gx, gy = self.grad_phi(x, y)
        return float(gx), float(gy)

    def outward_normal(self, x, y):
        """Outward unit normal of Omega at (x, y).

        With the positive-inside convention the gradient of phi points into
        Omega, so the outward direction is -grad(phi)/|grad(phi)|.  Circles
        use the exact radial formula.
        """
        if self.is_circle:
            cx, cy = self.circle_center
            dx, dy = x - cx, y - cy
            r = math.hypot(dx, dy)
            if r == 0.0:
                raise GeometryError(f"normal undefined at the center of circle {self.name!r}")
            return np.array([dx / r, dy / r])
        gx, gy = self.gradient(x, y)
        norm = math.hypot(gx, gy)
        if norm < 1e-14:
            raise GeometryError(f"vanishing level-set gradient at ({x}, {y}) on domain {self.name!r}")
        return np.array([-gx / norm, -gy / norm])


def make_domain(name):
    """Build one of the four reference domains, with phi positive inside
    Omega (the printed leaf, flower and hourglass formulas are negative
    inside and are negated).

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

        return LevelSetDomain("circle", phi, grad, circle_center=(0.0, 0.0))

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
        x0, y0 = 0.03 * math.sqrt(3.0), 0.04 * math.sqrt(2.0)
        clip = 0.66

        def raw(x, y):
            X, Y = x - x0, y - y0
            r = np.sqrt(X * X + Y * Y)
            w = Y ** 5 + 5.0 * X ** 4 * Y - 10.0 * X ** 2 * Y ** 3
            with np.errstate(divide="ignore", invalid="ignore"):
                val = (r - 0.52 - w) / (5.0 * r ** 5)
            return np.where(r == 0.0, -np.inf, val)

        def raw_grad(x, y):
            X, Y = x - x0, y - y0
            r = np.sqrt(X * X + Y * Y)
            rs = np.where(r == 0.0, 1.0, r)
            w = Y ** 5 + 5.0 * X ** 4 * Y - 10.0 * X ** 2 * Y ** 3
            wx = 20.0 * X ** 3 * Y - 20.0 * X * Y ** 3
            wy = 5.0 * Y ** 4 + 5.0 * X ** 4 - 30.0 * X ** 2 * Y ** 2
            a = r - 0.52 - w
            b = 5.0 * rs ** 5
            ax, ay = X / rs - wx, Y / rs - wy
            bx, by = 25.0 * rs ** 3 * X, 25.0 * rs ** 3 * Y
            gx = (ax * b - a * bx) / (b * b)
            gy = (ay * b - a * by) / (b * b)
            return np.where(r == 0.0, 0.0, gx), np.where(r == 0.0, 0.0, gy)

        def phi(x, y):
            X, Y = x - x0, y - y0
            return np.minimum(-raw(x, y), clip - np.sqrt(X * X + Y * Y))

        def grad(x, y):
            X, Y = x - x0, y - y0
            r = np.sqrt(X * X + Y * Y)
            rs = np.where(r == 0.0, 1.0, r)
            flower_active = -raw(x, y) <= clip - r
            gx, gy = raw_grad(x, y)
            gx = np.where(flower_active, -gx, -X / rs)
            gy = np.where(flower_active, -gy, -Y / rs)
            return gx, gy

        return LevelSetDomain("flower", phi, grad)

    if name == "hourglass":
        x0, y0 = 0.03 * math.sqrt(3.0), 0.04 * math.sqrt(2.0)

        # the printed quartic is negative inside: negated
        def phi(x, y):
            X, Y = x - x0, y - y0
            return -(256.0 * Y ** 4 - 16.0 * X ** 4 - 128.0 * Y ** 2 + 36.0 * X ** 2)

        def grad(x, y):
            X, Y = x - x0, y - y0
            return -(-64.0 * X ** 3 + 72.0 * X), -(1024.0 * Y ** 3 - 256.0 * Y)

        return LevelSetDomain("hourglass", phi, grad)

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
    neighborhood: str
    phi_node: np.ndarray
    node_role: np.ndarray
    cell_role: np.ndarray

    def active_nodes(self):
        """Active node indices as an (M, 2) array in lexicographic order."""
        return np.argwhere(self.node_role != NODE_INACTIVE)


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
    return GridClassification(grid, neighborhood, phi, role, _cell_roles(phi))


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
    for ci, cj in np.argwhere(roles == CELL_CUT):
        if _cut_polygons((ci, cj), grid, phi)[1] < area_tol:
            roles[ci, cj] = CELL_SNAPPED
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
    return GridClassification(grid, classification.neighborhood, phi, node_role,
                              roles)


# ----------------------------------------------------------------------
# Boundary projection (ghost points)
# ----------------------------------------------------------------------

@dataclass
class BoundaryProjection:
    """Closest-boundary-point data for one ghost node G.

    B = G - normal * nu lies on Gamma within the bisection tolerance; theta
    and signs parametrize the upwind interpolation stencil; spacing doubles in
    a direction when the ill-conditioning mitigation was applied.  Extended
    ghosts in concave corners may carry a diagonal single-column stencil
    (diagonal=True, theta measured in units of sqrt(2) h) and offsets up to 2.
    """

    ghost: tuple
    point: np.ndarray
    nu: float
    normal: np.ndarray
    theta: tuple
    signs: tuple
    bc_kind: str = "dirichlet"
    enlarged: bool = False
    spacing: tuple = (1, 1)
    diagonal: bool = False


# Axis ray directions, in their order of preference on ties.
AXES = np.array([(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)])
NONFINITE = "phi is not finite along a projection ray from node ({}, {})"


def _bisect_rays(domain, ox, oy, dx, dy, t_max, tol):
    """First zero of phi along each ray (ox, oy) + t (dx, dy), t in
    (0, t_max]: all rays are presampled at once at t = t_max k / 64 for
    their first sign change, and every bracket is bisected down to tol.

    Returns (t, finite) per ray: t is NaN where the presampled ray never
    turns positive, and finite is False (with t NaN) where phi was not
    finite at some sample.
    """
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
        done = hi - lo <= tol
        out[rows[done]] = 0.5 * (lo[done] + hi[done])
        rows, lo, hi = rows[~done], lo[~done], hi[~done]
        if not len(rows):
            return out, finite
        mid = 0.5 * (lo + hi)
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
    at once; returns their BoundaryProjections in order.

    The primary route solves phi(G - normal * nu) = 0 along the outward
    normal by presampling the ray for a sign change and bisecting the first
    bracket down to tol_factor * h in distance.  When the normal ray misses
    Gamma within 2*sqrt(2)*h or its foot leaves the unit-offset range
    (concave corners), the projection falls back to the shortest axis
    crossing toward an interior neighbor, which always yields offsets in
    [0, 1).

    Raises
    ------
    GeometryError
        For the first node, in order, that is interior, has no defined
        outward normal, has a non-finite phi along one of its rays, or from
        which neither the normal ray nor any axis segment crosses Gamma.
    """
    nodes = np.asarray(nodes, dtype=np.int64).reshape(-1, 2)
    h = grid.h
    tol = tol_factor * h
    gx, gy = grid.xs[nodes[:, 0]], grid.xs[nodes[:, 1]]
    live = np.ones(len(nodes), dtype=bool)
    errors = {}

    def fail(rows, message):
        for k in rows[live[rows]]:
            errors[k] = GeometryError(message(*nodes[k], k))
        live[rows] = False

    nonfinite = NONFINITE.format
    phi_g = domain.phi(gx, gy)
    fail(np.flatnonzero(phi_g > 0.0),
         lambda i, j, k: f"node ({i}, {j}) is interior; only exterior nodes project")
    fail(np.flatnonzero(~np.isfinite(phi_g)), nonfinite)
    normal = np.zeros((len(nodes), 2))
    for k in np.flatnonzero(live):
        try:
            normal[k] = domain.outward_normal(gx[k], gy[k])
        except GeometryError as exc:
            errors[k] = exc
            live[k] = False

    nu = np.zeros(len(nodes))  # phi(G) == 0: B = G
    ray = np.flatnonzero(live & (phi_g != 0.0))
    nu[ray], finite = _bisect_rays(domain, gx[ray], gy[ray], -normal[ray, 0],
                                   -normal[ray, 1], 2.0 * math.sqrt(2.0) * h, tol)
    fail(ray[~finite], nonfinite)
    bx, by = gx - normal[:, 0] * nu, gy - normal[:, 1] * nu
    # foot beyond the unit offset, or no crossing: fall back to the axes
    axis = np.flatnonzero(live & (np.isnan(nu) | (np.abs(bx - gx) >= h)
                                  | (np.abs(by - gy) >= h)))
    probe = domain.phi(gx[axis, None] + AXES[:, 0] * h, gy[axis, None] + AXES[:, 1] * h)
    fail(axis[~np.isfinite(probe).all(axis=1)], nonfinite)
    owner, d = np.nonzero(probe > 0.0)
    t, best, finite = _shortest_crossing(domain, gx[axis], gy[axis], owner, d,
                                         AXES, h, tol)
    fail(axis[~finite], nonfinite)
    fail(axis[np.isnan(t)], lambda i, j, k: (
        "no boundary crossing along the normal ray or the axis segments "
        f"from node ({i}, {j})"))
    nu[axis] = t
    bx[axis] = gx[axis] + AXES[best, 0] * t
    by[axis] = gy[axis] + AXES[best, 1] * t
    normal[axis] = -AXES[best]

    sx, sy = np.sign(bx - gx), np.sign(by - gy)
    # B coincides with G (node exactly on Gamma): orient the stencil inward
    # so derivative rows keep a usable one-sided stencil.
    on = (sx == 0.0) & (sy == 0.0)
    sx[on], sy[on] = np.sign(-normal[on, 0]), np.sign(-normal[on, 1])
    theta = np.column_stack([np.abs(bx - gx), np.abs(by - gy)]) / h
    fail(np.flatnonzero((theta >= 1.0).any(axis=1)), lambda i, j, k: (
        f"projection offset outside [0,1) at node ({i}, {j}): "
        f"theta=({theta[k, 0]:.3f}, {theta[k, 1]:.3f})"))
    if errors:
        raise errors[min(errors)]
    return [BoundaryProjection(tuple(g), np.array([x, y]), v, n_hat, tuple(th),
                               (int(a), int(b)))
            for g, x, y, v, n_hat, th, a, b in zip(
                nodes.tolist(), bx, by, nu.tolist(), normal, theta.tolist(), sx, sy)]


def project_to_boundary(node, domain, grid, tol_factor=1e-4):
    """Project the exterior node G onto Gamma: project_ghosts for one node."""
    return project_ghosts([node], domain, grid, tol_factor)[0]


# ----------------------------------------------------------------------
# Cut cells
# ----------------------------------------------------------------------

@dataclass
class Segment:
    """Straight piece of Gamma_h with outward unit normal (toward phi < 0)."""

    p0: np.ndarray
    p1: np.ndarray
    normal: np.ndarray
    length: float


@dataclass
class CutCell:
    """Polygonal intersection of one cell with {phi_h >= 0}.

    polygons is a list of CCW vertex arrays (two entries for the disconnected
    saddle configuration), triangles their fan triangulations, and
    boundary_segments the Gamma_h portions owned by this cell.
    """

    polygons: list
    triangles: list
    boundary_segments: list
    area: float


# Cell sides in marching-squares order (bottom, right, top, left): side k
# runs from corner k to corner k+1.  A vertex carries a mask with bit k set
# for each side k it lies on; corner k lies on sides k-1 and k.  The outward
# normal of side k is also the offset of the neighbor cell across it.
CORNER_SIDES = (0b1001, 0b0011, 0b0110, 0b1100)
SIDE_NORMALS = ((0, -1), (1, 0), (0, 1), (-1, 0))


def _shoelace(poly):
    x, y = poly[:, 0], poly[:, 1]
    n = len(poly)
    nxt = np.arange(1, n + 1) % n
    return 0.5 * float(np.dot(x, y[nxt]) - np.dot(y, x[nxt]))


def _fan_triangles(poly, tiny):
    tris = []
    for k in range(1, len(poly) - 1):
        tri = np.array([poly[0], poly[k], poly[k + 1]])
        a = _shoelace(tri)
        if a > tiny:
            tris.append(tri)
    return tris


def _dedupe(points, tol):
    """Drop each vertex within tol of the last kept one (cyclically), merging
    its side mask into that vertex."""
    out = []
    for p, sides in points:
        if out and np.hypot(*(p - out[-1][0])) <= tol:
            out[-1][1] |= sides
        else:
            out.append([p, sides])
    if len(out) > 1 and np.hypot(*(out[0][0] - out[-1][0])) <= tol:
        out[0][1] |= out.pop()[1]
    return out


def _cut_polygons(cell, grid, phi):
    """Marching-squares polygons of cell ∩ {phi_h >= 0} with linear edge
    roots, from the nodal level-set values phi (snapped ones after snapping).

    Returns (polygons, area): polygons is a list of (vertices, sides) pairs,
    a CCW vertex array and the side mask of each vertex, and area their
    total area.  The ambiguous saddle configuration is resolved by the
    bilinear value at the cell center.
    """
    ci, cj = cell
    h = grid.h
    x0, y0 = grid.node(ci, cj)
    x1, y1 = grid.node(ci + 1, cj + 1)
    vals = [phi[ci, cj], phi[ci + 1, cj], phi[ci + 1, cj + 1], phi[ci, cj + 1]]
    corners = np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1]])

    if all(v > 0.0 for v in vals):
        return [(corners, list(CORNER_SIDES))], h * h
    if not any(v > 0.0 for v in vals):
        return [], 0.0

    def crossing(a):
        # the root on side a, between corners a and a+1
        b = (a + 1) % 4
        t = vals[a] / (vals[a] - vals[b])
        return corners[a] + t * (corners[b] - corners[a]), 1 << a

    strict = [(v > 0.0, v < 0.0) for v in vals]
    saddle = (strict[0][0] and strict[2][0] and strict[1][1] and strict[3][1]) or \
             (strict[0][1] and strict[2][1] and strict[1][0] and strict[3][0])
    center = 0.25 * sum(vals)

    walks = []
    if saddle and center < 0.0:
        # Disconnected cut: one triangle per positive corner.
        for k in range(4):
            if vals[k] > 0.0:
                walks.append([crossing((k + 3) % 4), (corners[k], CORNER_SIDES[k]), crossing(k)])
    else:
        walk = []
        for a in range(4):
            va, vb = vals[a], vals[(a + 1) % 4]
            if va >= 0.0:
                walk.append((corners[a], CORNER_SIDES[a]))
            if (va > 0.0 and vb < 0.0) or (va < 0.0 and vb > 0.0):
                walk.append(crossing(a))
        walks.append(walk)

    tiny = 1e-12 * h
    polygons = []
    area = 0.0
    for walk in walks:
        walk = _dedupe(walk, tiny)
        if len(walk) < 3:
            continue
        poly = np.array([p for p, _ in walk])
        a = _shoelace(poly)
        if a <= AREA_EPS * h * h:
            continue
        polygons.append((poly, [sides for _, sides in walk]))
        area += a
    return polygons, area


def _cut_cell(polygons, area, exposed, h):
    """CutCell of the _cut_polygons output.  A polygon edge whose endpoints
    share no cell side is a Gamma_h chord; one whose endpoints share side k
    runs along that side and is a boundary segment when bit k of exposed is
    set.  Segments come as the chords of each polygon in edge order, then
    the exposed side edges, bottom, right, top, left."""
    tiny = 1e-12 * h
    triangles = [tri for poly, _ in polygons for tri in _fan_triangles(poly, tiny * h)]
    edges = []
    for poly, sides in polygons:
        for k in range(len(poly)):
            nxt = (k + 1) % len(poly)
            d = poly[nxt] - poly[k]
            length = float(np.hypot(*d))
            if length > tiny:
                edges.append((poly[k], poly[nxt], d, length, sides[k] & sides[nxt]))
    segments = [Segment(pa, pb, np.array([d[1], -d[0]]) / length, length)
                for pa, pb, d, length, shared in edges if not shared]
    for k, normal in enumerate(SIDE_NORMALS):
        if exposed >> k & 1:
            segments += [Segment(pa, pb, np.array(normal, dtype=float), length)
                         for pa, pb, _, length, shared in edges if shared >> k & 1]
    return CutCell([poly for poly, _ in polygons], triangles, segments, area)


def extract_cut_cells(classification, domain=None):
    """Cut-cell geometry of the boundary band of a classification.

    Returns a dict keyed by cell index in lexicographic order.  The band is
    every CELL_CUT cell with positive area plus every CELL_INSIDE cell that
    shares an edge with an empty cell (outside, snapped, zero-area cut, or
    off the grid); the other inside cells are full squares described by
    cell_role alone.  Besides the interior chords, the pieces of a polygon
    boundary that run along a cell edge become boundary segments whenever
    the sharing neighbor is empty: Omega_h then has a closed boundary
    covered exactly once by the segments.  The trace of a marching-squares
    polygon on a cell edge depends only on that edge's vertex values, so two
    positive-area neighbors always cover a shared edge identically and emit
    nothing there.
    """
    grid = classification.grid
    n = grid.n
    phi = classification.phi_node
    role = classification.cell_role
    walks = {}
    for ci, cj in np.argwhere(role == CELL_CUT):
        polygons, area = _cut_polygons((ci, cj), grid, phi)
        if area > 0.0:
            walks[(int(ci), int(cj))] = polygons, area
    # cells that carry area, framed by a ring of empty off-grid cells
    occupied = np.zeros((n + 2, n + 2), dtype=bool)
    occupied[1:-1, 1:-1] = role == CELL_INSIDE
    for ci, cj in walks:
        occupied[ci + 1, cj + 1] = True
    # bit k set: the neighbor across side k carries no area
    exposed = sum(~occupied[1 + di:n + 1 + di, 1 + dj:n + 1 + dj] << k
                  for k, (di, dj) in enumerate(SIDE_NORMALS))
    for ci, cj in np.argwhere((role == CELL_INSIDE) & (exposed != 0)):
        walks[(int(ci), int(cj))] = _cut_polygons((ci, cj), grid, phi)
    return {cell: _cut_cell(*walks[cell], int(exposed[cell]), grid.h)
            for cell in sorted(walks)}


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
