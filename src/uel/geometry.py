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

    After construction through make_domain, phi is positive inside Omega,
    negative outside and zero on the boundary Gamma.  phi and grad_phi accept
    scalars or numpy arrays.

    Parameters
    ----------
    name : str
        Identifier of the domain.
    phi : callable
        Level-set function phi(x, y).
    grad_phi : callable, optional
        Analytic gradient (x, y) -> (dphi_dx, dphi_dy).  When absent,
        gradients fall back to centered finite differences.
    circle_center : tuple
        Set for circular domains only; enables exact normals.
    fd_step : float
        Default step for the finite-difference gradient fallback.
    """

    name: str
    phi: callable
    grad_phi: callable = None
    circle_center: tuple = None
    fd_step: float = 1e-6

    @property
    def is_circle(self):
        return self.circle_center is not None

    def gradient(self, x, y, step=None):
        """Gradient of phi at (x, y): analytic if available, otherwise centered
        differences with the given step (default self.fd_step)."""
        if self.grad_phi is not None:
            gx, gy = self.grad_phi(x, y)
            return float(gx), float(gy)
        s = self.fd_step if step is None else step
        gx = (self.phi(x + s, y) - self.phi(x - s, y)) / (2.0 * s)
        gy = (self.phi(x, y + s) - self.phi(x, y - s)) / (2.0 * s)
        return float(gx), float(gy)

    def outward_normal(self, x, y, step=None):
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
        gx, gy = self.gradient(x, y, step)
        norm = math.hypot(gx, gy)
        if norm < 1e-14:
            raise GeometryError(f"vanishing level-set gradient at ({x}, {y}) on domain {self.name!r}")
        return np.array([-gx / norm, -gy / norm])


def _probe_sign(raw_phi, seed):
    """Majority sign of raw_phi over the seed and a small ring around it.

    The ring handles seeds sitting exactly on the zero level (the hourglass
    pinch) or on a singularity of the printed formula (the flower center),
    where the seed value alone is unusable."""
    sx, sy = seed
    vals = [float(raw_phi(sx, sy))]
    for k in range(8):
        a = 2.0 * math.pi * k / 8.0
        vals.append(float(raw_phi(sx + 1e-3 * math.cos(a), sy + 1e-3 * math.sin(a))))
    signs = [math.copysign(1.0, v) for v in vals if math.isfinite(v) and v != 0.0]
    if not signs:
        raise ConfigurationError("cannot determine the level-set sign near the interior seed")
    total = sum(signs)
    if total == 0:
        raise ConfigurationError("ambiguous level-set sign near the interior seed")
    return 1.0 if total > 0 else -1.0


def make_domain(name):
    """Build one of the four reference domains, sign-normalized so that phi
    is positive near a seed point inside Omega.

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

        def raw(x, y, c1=c1, c2=c2):
            r1 = np.sqrt((x - c1) ** 2 + y * y)
            r2 = np.sqrt((x - c2) ** 2 + y * y)
            return np.maximum(r1, r2) - r0

        def raw_grad(x, y, c1=c1, c2=c2):
            r1 = np.sqrt((x - c1) ** 2 + y * y)
            r2 = np.sqrt((x - c2) ** 2 + y * y)
            pick1 = r1 >= r2
            r1s = np.where(r1 == 0.0, 1.0, r1)
            r2s = np.where(r2 == 0.0, 1.0, r2)
            gx = np.where(pick1, (x - c1) / r1s, (x - c2) / r2s)
            gy = np.where(pick1, y / r1s, y / r2s)
            return gx, gy

        seed = (0.0, 0.0)

    elif name == "flower":
        # The printed quotient has spurious zero branches from R ~ 0.73
        # outward (R - 0.52 - R^5 sin(5t) changes sign again); the petals end
        # at R ~ 0.59.  Intersecting with the disk R < 0.66 keeps exactly the
        # flower component without touching its boundary.
        x0, y0 = 0.03 * math.sqrt(3.0), 0.04 * math.sqrt(2.0)
        clip = 0.66

        def raw(x, y, x0=x0, y0=y0):
            X, Y = x - x0, y - y0
            r = np.sqrt(X * X + Y * Y)
            w = Y ** 5 + 5.0 * X ** 4 * Y - 10.0 * X ** 2 * Y ** 3
            with np.errstate(divide="ignore", invalid="ignore"):
                val = (r - 0.52 - w) / (5.0 * r ** 5)
            return np.where(r == 0.0, -np.inf, val)

        def raw_grad(x, y, x0=x0, y0=y0):
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

        seed = (x0, y0)
        sign = _probe_sign(raw, seed)

        def phi(x, y, raw=raw, sign=sign, x0=x0, y0=y0, clip=clip):
            X, Y = x - x0, y - y0
            return np.minimum(sign * raw(x, y), clip - np.sqrt(X * X + Y * Y))

        def grad(x, y, raw=raw, raw_grad=raw_grad, sign=sign, x0=x0, y0=y0, clip=clip):
            X, Y = x - x0, y - y0
            r = np.sqrt(X * X + Y * Y)
            rs = np.where(r == 0.0, 1.0, r)
            flower_active = sign * raw(x, y) <= clip - r
            gx, gy = raw_grad(x, y)
            gx = np.where(flower_active, sign * gx, -X / rs)
            gy = np.where(flower_active, sign * gy, -Y / rs)
            return gx, gy

        return LevelSetDomain("flower", phi, grad)

    elif name == "hourglass":
        x0, y0 = 0.03 * math.sqrt(3.0), 0.04 * math.sqrt(2.0)

        def raw(x, y, x0=x0, y0=y0):
            X, Y = x - x0, y - y0
            return 256.0 * Y ** 4 - 16.0 * X ** 4 - 128.0 * Y ** 2 + 36.0 * X ** 2

        def raw_grad(x, y, x0=x0, y0=y0):
            X, Y = x - x0, y - y0
            return -64.0 * X ** 3 + 72.0 * X, 1024.0 * Y ** 3 - 256.0 * Y

        seed = (x0, y0)

    else:
        raise ConfigurationError(
            f"unknown domain {name!r}; expected one of {', '.join(DOMAIN_NAMES)}")

    sign = _probe_sign(raw, seed)

    def phi(x, y, raw=raw, sign=sign):
        return sign * raw(x, y)

    def grad(x, y, raw_grad=raw_grad, sign=sign):
        gx, gy = raw_grad(x, y)
        return sign * gx, sign * gy

    return LevelSetDomain(name, phi, grad)


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

    @property
    def n_nodes(self):
        return (self.n + 1) ** 2

    def __repr__(self):
        return f"Grid(n={self.n})"


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

    @property
    def n_interior(self):
        return int(np.count_nonzero(self.node_role == NODE_INTERIOR))

    @property
    def n_ghost(self):
        return int(np.count_nonzero(self.node_role == NODE_GHOST))

    @property
    def n_inactive(self):
        return int(np.count_nonzero(self.node_role == NODE_INACTIVE))

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
        cell = cut_cell_geometry((ci, cj), grid, domain, phi_values=phi)
        if cell.area < area_tol:
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


def _sign0(v):
    if v > 0.0:
        return 1
    if v < 0.0:
        return -1
    return 0


def _bisect_ray(domain, origin, direction, t_max, tol):
    """First zero of phi along origin + t*direction, t in (0, t_max]; returns
    None when the presampled ray never turns positive."""
    ox, oy = origin
    dx, dy = direction
    n_scan = 64
    lo = hi = None
    t_prev = 0.0
    for k in range(1, n_scan + 1):
        t = t_max * k / n_scan
        f = float(domain.phi(ox + dx * t, oy + dy * t))
        if f == 0.0:
            return t
        if f > 0.0:
            lo, hi = t_prev, t
            break
        t_prev = t
    if lo is None:
        return None
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        f = float(domain.phi(ox + dx * mid, oy + dy * mid))
        if f == 0.0:
            return mid
        if f < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def project_to_boundary(node, domain, grid, tol_factor=1e-4):
    """Project the exterior node G onto Gamma.

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
        If G is interior, or neither the normal ray nor any axis segment
        crosses Gamma.
    """
    i, j = node
    h = grid.h
    gx, gy = grid.node(i, j)
    phi_g = float(domain.phi(gx, gy))
    if phi_g > 0.0:
        raise GeometryError(f"node ({i}, {j}) is interior; only exterior nodes project")

    tol = tol_factor * h
    n_hat = domain.outward_normal(gx, gy, step=h / 2.0)

    if phi_g == 0.0:
        nu, bx, by = 0.0, gx, gy
    else:
        nu = _bisect_ray(domain, (gx, gy), (-n_hat[0], -n_hat[1]),
                         2.0 * math.sqrt(2.0) * h, tol)
        if nu is not None:
            bx, by = gx - n_hat[0] * nu, gy - n_hat[1] * nu
            if abs(bx - gx) >= h or abs(by - gy) >= h:
                nu = None  # foot beyond the unit offset: fall back
        if nu is None:
            best = None
            for ex, ey in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                if float(domain.phi(gx + ex * h, gy + ey * h)) <= 0.0:
                    continue
                t = _bisect_ray(domain, (gx, gy), (ex, ey), h, tol)
                if t is not None and (best is None or t < best[0]):
                    best = (t, ex, ey)
            if best is None:
                raise GeometryError(
                    f"no boundary crossing along the normal ray or the axis "
                    f"segments from node ({i}, {j})")
            nu, ex, ey = best
            bx, by = gx + ex * nu, gy + ey * nu
            n_hat = np.array([-float(ex), -float(ey)])

    sx, sy = _sign0(bx - gx), _sign0(by - gy)
    if sx == 0 and sy == 0:
        # B coincides with G (node exactly on Gamma): orient the stencil
        # inward so derivative rows keep a usable one-sided stencil.
        sx, sy = _sign0(-n_hat[0]), _sign0(-n_hat[1])
    theta_x = abs(bx - gx) / h
    theta_y = abs(by - gy) / h
    if theta_x >= 1.0 or theta_y >= 1.0:
        raise GeometryError(
            f"projection offset outside [0,1) at node ({i}, {j}): "
            f"theta=({theta_x:.3f}, {theta_y:.3f})")
    return BoundaryProjection((int(i), int(j)), np.array([bx, by]), float(nu),
                              n_hat, (theta_x, theta_y), (sx, sy))


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

    cell: tuple
    polygons: list
    triangles: list
    boundary_segments: list
    area: float


def _shoelace(poly):
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def _fan_triangles(poly, tiny):
    tris = []
    for k in range(1, len(poly) - 1):
        tri = np.array([poly[0], poly[k], poly[k + 1]])
        a = _shoelace(tri)
        if a > tiny:
            tris.append(tri)
    return tris


def _dedupe(points, tol):
    out = []
    for p, tag in points:
        if out and np.hypot(*(p - out[-1][0])) <= tol:
            out[-1] = (out[-1][0], out[-1][1] or tag)
            continue
        out.append((np.asarray(p, dtype=float), tag))
    if len(out) > 1 and np.hypot(*(out[0][0] - out[-1][0])) <= tol:
        out[0] = (out[0][0], out[0][1] or out[-1][1])
        out.pop()
    return out


def _chord_segments(poly_pts, x0, x1, y0, y1, tiny):
    """Gamma_h chords of one polygon: edges whose endpoints both sit on the
    zero level and which do not run along a cell side."""
    segs = []
    npts = len(poly_pts)
    for k in range(npts):
        (pa, ga), (pb, gb) = poly_pts[k], poly_pts[(k + 1) % npts]
        if not (ga and gb):
            continue
        same_side = (
            (abs(pa[0] - x0) <= tiny and abs(pb[0] - x0) <= tiny)
            or (abs(pa[0] - x1) <= tiny and abs(pb[0] - x1) <= tiny)
            or (abs(pa[1] - y0) <= tiny and abs(pb[1] - y0) <= tiny)
            or (abs(pa[1] - y1) <= tiny and abs(pb[1] - y1) <= tiny)
        )
        if same_side:
            continue
        d = pb - pa
        length = float(np.hypot(*d))
        if length <= tiny:
            continue
        normal = np.array([d[1], -d[0]]) / length
        segs.append(Segment(pa, pb, normal, length))
    return segs


def cut_cell_geometry(cell, grid, domain, phi_values=None):
    """Marching-squares polygon of cell ∩ {phi_h >= 0} with linear edge roots.

    phi_values, when given, supplies the (snapped) nodal level-set values;
    otherwise the analytic phi is evaluated at the four cell corners.  The
    ambiguous saddle configuration is resolved by the bilinear value at the
    cell center.  Boundary segments here are interior chords only; polygon
    edges running along cell sides are attributed by extract_cut_cells,
    which sees both sides of each edge.
    """
    ci, cj = cell
    h = grid.h
    x0, y0 = grid.node(ci, cj)
    x1, y1 = grid.node(ci + 1, cj + 1)
    if phi_values is not None:
        vals = [phi_values[ci, cj], phi_values[ci + 1, cj],
                phi_values[ci + 1, cj + 1], phi_values[ci, cj + 1]]
    else:
        vals = [float(domain.phi(x, y))
                for x, y in ((x0, y0), (x1, y0), (x1, y1), (x0, y1))]
    corners = [np.array([x0, y0]), np.array([x1, y0]),
               np.array([x1, y1]), np.array([x0, y1])]
    tiny = 1e-12 * h

    if all(v > 0.0 for v in vals):
        poly = np.array(corners)
        return CutCell((int(ci), int(cj)), [poly], _fan_triangles(poly, tiny * h),
                       [], h * h)
    if not any(v > 0.0 for v in vals):
        return CutCell((int(ci), int(cj)), [], [], [], 0.0)

    def crossing(a, b):
        t = vals[a] / (vals[a] - vals[b])
        return corners[a] + t * (corners[b] - corners[a])

    strict = [(v > 0.0, v < 0.0) for v in vals]
    saddle = (strict[0][0] and strict[2][0] and strict[1][1] and strict[3][1]) or \
             (strict[0][1] and strict[2][1] and strict[1][0] and strict[3][0])
    center = 0.25 * sum(vals)

    polys = []
    if saddle and center < 0.0:
        # Disconnected cut: one triangle per positive corner.
        for k in range(4):
            if vals[k] <= 0.0:
                continue
            p_in = crossing((k + 3) % 4, k)
            p_out = crossing(k, (k + 1) % 4)
            polys.append(_dedupe([(p_in, True), (corners[k], False), (p_out, True)], tiny))
    else:
        pts = []
        for k in range(4):
            a, b = k, (k + 1) % 4
            if vals[a] >= 0.0:
                pts.append((corners[a], vals[a] == 0.0))
            if (vals[a] > 0.0 and vals[b] < 0.0) or (vals[a] < 0.0 and vals[b] > 0.0):
                pts.append((crossing(a, b), True))
        polys.append(_dedupe(pts, tiny))

    polygons, triangles, segments = [], [], []
    area = 0.0
    for poly_pts in polys:
        if len(poly_pts) < 3:
            continue
        poly = np.array([p for p, _ in poly_pts])
        a = _shoelace(poly)
        if a <= AREA_EPS * h * h:
            continue
        polygons.append(poly)
        triangles.extend(_fan_triangles(poly, tiny * h))
        segments.extend(_chord_segments(poly_pts, x0, x1, y0, y1, tiny))
        area += a
    if not polygons:
        return CutCell((int(ci), int(cj)), [], [], [], 0.0)
    return CutCell((int(ci), int(cj)), polygons, triangles, segments, area)


def extract_cut_cells(classification, domain=None):
    """Cut-cell geometry for every inside/cut cell of a classification.

    Returns a dict keyed by cell index.  Besides the interior chords, the
    pieces of a polygon boundary that run along a cell edge become boundary
    segments whenever the sharing neighbor carries no area (snapped or
    outside): the union of the returned polygons then has a closed boundary
    covered exactly once by the segments.  The trace of a marching-squares
    polygon on a cell edge depends only on that edge's vertex values, so two
    positive-area neighbors always cover a shared edge identically and emit
    nothing there.
    """
    grid = classification.grid
    phi = classification.phi_node
    n = grid.n
    h = grid.h
    cells = {}
    for ci, cj in np.argwhere((classification.cell_role == CELL_INSIDE)
                              | (classification.cell_role == CELL_CUT)):
        cc = cut_cell_geometry((ci, cj), grid, domain, phi_values=phi)
        if cc.area > 0.0:
            cells[(int(ci), int(cj))] = cc

    def empty(ci, cj):
        if not (0 <= ci < n and 0 <= cj < n):
            return True
        return (ci, cj) not in cells

    for (ci, cj), cc in cells.items():
        x0, y0 = grid.node(ci, cj)
        x1, y1 = grid.node(ci + 1, cj + 1)
        tiny = 1e-12 * h
        # side -> (neighbor cell, outward normal, on-side test)
        sides = [
            ((ci, cj - 1), np.array([0.0, -1.0]), lambda p: abs(p[1] - y0) <= tiny),
            ((ci + 1, cj), np.array([1.0, 0.0]), lambda p: abs(p[0] - x1) <= tiny),
            ((ci, cj + 1), np.array([0.0, 1.0]), lambda p: abs(p[1] - y1) <= tiny),
            ((ci - 1, cj), np.array([-1.0, 0.0]), lambda p: abs(p[0] - x0) <= tiny),
        ]
        for nb, nrm, on_side in sides:
            if not empty(*nb):
                continue
            for poly in cc.polygons:
                m = len(poly)
                for k in range(m):
                    pa, pb = poly[k], poly[(k + 1) % m]
                    if on_side(pa) and on_side(pb):
                        length = float(np.hypot(*(pb - pa)))
                        if length > tiny:
                            cc.boundary_segments.append(Segment(pa, pb, nrm, length))
    return cells


# ----------------------------------------------------------------------
# Boundary-condition regions
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class BCSpec:
    """Which part of Gamma carries Dirichlet data.

    kind is "dirichlet" (all of Gamma) or "mixed"; is_dirichlet classifies a
    boundary point.
    """

    kind: str
    is_dirichlet: callable


def make_bc_spec(domain_name, kind):
    """Boundary-condition regions used in the experiments: full Dirichlet, or
    the mixed split with Dirichlet on the left part of Gamma (x <= 0; the
    leaf uses the strict x < 0)."""
    if kind == "dirichlet":
        return BCSpec("dirichlet", lambda p: True)
    if kind == "mixed":
        if domain_name == "leaf":
            return BCSpec("mixed", lambda p: p[0] < 0.0)
        return BCSpec("mixed", lambda p: p[0] <= 0.0)
    raise ConfigurationError(f"unknown boundary-condition kind {kind!r}")
