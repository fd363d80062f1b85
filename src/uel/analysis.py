"""Manufactured solutions, relative error norms and observed-order
extraction for the convergence studies."""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AnalysisError, ConfigurationError

CASE_NAMES = ("paper_sin", "linear", "quadratic", "constant")


@dataclass(frozen=True)
class ManufacturedCase:
    """Exact solution u with its gradient and source f = -lap(u); boundary
    data derive from it (g_D = u on Gamma_D, g_N = grad(u) . n on Gamma_N)."""

    name: str
    u: callable
    grad_u: callable
    f: callable


def make_case(name):
    """Built-in manufactured solutions.

    paper_sin : u = sin(x) sin(y), f = 2 sin(x) sin(y) (the experiment case)
    linear    : u = 1 + x + y, f = 0 (exactness oracle for the FEM)
    quadratic : u = x^2 + y^2, f = -4 (exactness oracle for the p=2 scheme)
    constant  : u = 1, f = 0
    """
    if name == "paper_sin":
        return ManufacturedCase(
            "paper_sin",
            lambda x, y: np.sin(x) * np.sin(y),
            lambda x, y: (np.cos(x) * np.sin(y), np.sin(x) * np.cos(y)),
            lambda x, y: 2.0 * np.sin(x) * np.sin(y))
    if name == "linear":
        return ManufacturedCase(
            "linear",
            lambda x, y: 1.0 + x + y,
            lambda x, y: (x * 0.0 + 1.0, y * 0.0 + 1.0),
            lambda x, y: x * 0.0)
    if name == "quadratic":
        return ManufacturedCase(
            "quadratic",
            lambda x, y: x * x + y * y,
            lambda x, y: (2.0 * x, 2.0 * y),
            lambda x, y: x * 0.0 - 4.0)
    if name == "constant":
        return ManufacturedCase(
            "constant",
            lambda x, y: x * 0.0 + 1.0,
            lambda x, y: (x * 0.0, y * 0.0),
            lambda x, y: x * 0.0)
    raise ConfigurationError(
        f"unknown case {name!r}; expected one of {', '.join(CASE_NAMES)}")


# Samples per block of the error-norm sums.  A multiple of 12, so that a
# block of FEM Omega_h samples holds whole inside cells (12 samples each)
# and whole band triangles (6 each).  It sets both FEM streams over the
# inside cells: the Omega_h samples, and assemble_fem's right-hand side,
# which takes NORM_BLOCK // 12 cells at a time.
NORM_BLOCK = 12 * 4096


def relative_error(f_h, f_exa, beta, weights=None):
    """Relative discrete L^beta error ||f_h - f_exa|| / ||f_exa||.

    Scalar fields are 1D arrays; vector fields are (m, 2) arrays measured
    through the pointwise Euclidean magnitude.  weights carry the region
    measure per sample (uniform when omitted); beta is 1, 2 or the string
    "inf"/float("inf").  The sums run over blocks of NORM_BLOCK samples
    (see ErrorNorms), so a field fed to ErrorNorms in such blocks gets the
    same bits.
    """
    return ErrorNorms().add(f_h, f_exa, weights).relative(beta)


class ErrorNorms:
    """Running sums of the relative L1, L2 and Linf errors of one field,
    fed in sample order.

    add() sums each NORM_BLOCK samples of its arrays with one np.sum and
    adds the block sums left to right, so a field fed in pieces of
    NORM_BLOCK samples (the last may be shorter) gets the same bits as the
    field fed whole; arrays of at most NORM_BLOCK samples sum as one
    np.sum.  Each block's pointwise magnitudes and weighted products are
    formed in three arrays of its length.
    """

    def __init__(self):
        # per beta: sum w|e|, sum w|e|^2 and max |e| of the error (num)
        # and of the reference field (den)
        self._num = [0.0, 0.0, 0.0]
        self._den = [0.0, 0.0, 0.0]

    def add(self, f_h, f_exa, weights=None):
        """Feed the next samples of the field; returns self."""
        f_h = np.asarray(f_h, dtype=float)
        f_exa = np.asarray(f_exa, dtype=float)
        if f_h.shape != f_exa.shape:
            raise AnalysisError("field shapes differ")
        w = None if weights is None else np.asarray(weights, dtype=float)
        if w is not None and w.shape != (len(f_h),):
            raise AnalysisError(
                f"weights of shape {w.shape} for {len(f_h)} samples")
        for b in range(0, len(f_h), NORM_BLOCK):
            block = slice(b, b + NORM_BLOCK)
            self._add_block(f_h[block], f_exa[block], None if w is None else w[block])
        return self

    def _add_block(self, f_h, f_exa, w):
        if f_h.ndim == 2:
            diff = np.subtract(f_h[:, 0], f_exa[:, 0])
            np.hypot(diff, f_h[:, 1] - f_exa[:, 1], out=diff)
            ref = np.hypot(f_exa[:, 0], f_exa[:, 1])
        else:
            diff = np.subtract(f_h, f_exa)
            np.abs(diff, out=diff)
            ref = np.abs(f_exa)
        work = np.empty_like(diff)
        for sums, x in ((self._num, diff), (self._den, ref)):
            # w * x, then (w * x) * x, formed in work (w None: unit weights)
            wx = x if w is None else np.multiply(w, x, out=work)
            sums[0] += float(np.sum(wx))
            sums[1] += float(np.sum(np.multiply(wx, x, out=work)))
            # np.maximum keeps a NaN, where max() would drop it
            sums[2] = float(np.maximum(sums[2], x.max(initial=0.0)))

    def relative(self, beta):
        """The relative L^beta error of the samples fed so far."""
        if beta not in (1, 2, "inf", math.inf):
            raise ConfigurationError(f"beta must be 1, 2 or 'inf', got {beta!r}")
        k = 0 if beta == 1 else 1 if beta == 2 else 2
        num, den = self._num[k], self._den[k]
        if k == 1:
            num, den = math.sqrt(num), math.sqrt(den)
        if den == 0.0:
            raise AnalysisError("zero reference norm; relative error undefined")
        return num / den

    def relative_errors(self):
        """The relative (L1, L2, Linf) errors of the samples fed so far."""
        return tuple(self.relative(beta) for beta in (1, 2, "inf"))


def observed_order(err_coarse, err_fine):
    """log2 error ratio between grids differing by a factor of two."""
    if err_coarse <= 0.0 or err_fine <= 0.0:
        raise AnalysisError("observed order needs positive errors")
    return math.log2(err_coarse / err_fine)


def fitted_order(hs, errs):
    """Least-squares slope of log(err) against log(h) over a grid sweep."""
    hs = np.asarray(hs, dtype=float)
    errs = np.asarray(errs, dtype=float)
    if len(hs) < 2:
        raise AnalysisError("order fit needs at least two grids")
    if np.any(hs <= 0.0) or np.any(errs <= 0.0):
        raise AnalysisError("order fit needs positive mesh sizes and errors")
    return float(np.polyfit(np.log(hs), np.log(errs), 1)[0])


@dataclass
class ReportRow:
    """One grid of a convergence experiment."""

    scheme: str
    domain: str
    bc: str
    p: int
    alpha: float
    n: int
    h: float
    err_u: tuple          # (L1, L2, Linf)
    err_g: tuple
    order_u_linf: float = None
    order_g_linf: float = None
    cond2: float = None
    solver: str = ""
    precond: str = None
    iters: int = 0
    residual: float = 0.0
    assemble_s: float = None
    solve_s: float = None
    err_u_linf_nodal: float = None
    cond2_lower_bound: bool = None   # None when cond2 was not estimated
    solver_note: str = ""
    cond2_note: str = ""             # the estimate's LU fallback or lower-bound note


@dataclass
class ConvergenceReport:
    """Grid sweep of one configuration, ordered by N."""

    rows: list = field(default_factory=list)

    def add(self, row):
        self.rows.append(row)
        self.rows.sort(key=lambda r: r.n)
        for prev, cur in zip(self.rows, self.rows[1:]):
            if cur.n == 2 * prev.n:
                cur.order_u_linf = observed_order(prev.err_u[2], cur.err_u[2])
                cur.order_g_linf = observed_order(prev.err_g[2], cur.err_g[2])
