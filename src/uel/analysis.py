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


def relative_error(f_h, f_exa, beta, weights=None):
    """Relative discrete L^beta error ||f_h - f_exa|| / ||f_exa||.

    Scalar fields are 1D arrays; vector fields are (m, 2) arrays measured
    through the pointwise Euclidean magnitude.  weights carry the region
    measure per sample (uniform when omitted); beta is 1, 2 or the string
    "inf"/float("inf").  The pointwise magnitudes and their weighted
    products are formed in place, in at most two arrays of m samples.
    """
    f_h = np.asarray(f_h, dtype=float)
    f_exa = np.asarray(f_exa, dtype=float)
    if f_h.shape != f_exa.shape:
        raise AnalysisError("field shapes differ")
    if beta not in (1, 2, "inf", math.inf):
        raise ConfigurationError(f"beta must be 1, 2 or 'inf', got {beta!r}")
    if f_h.ndim == 2:
        diff = np.subtract(f_h[:, 0], f_exa[:, 0])
        np.hypot(diff, f_h[:, 1] - f_exa[:, 1], out=diff)
    else:
        diff = np.subtract(f_h, f_exa)
        np.abs(diff, out=diff)

    def reference(out):
        if f_exa.ndim == 2:
            return np.hypot(f_exa[:, 0], f_exa[:, 1], out=out)
        return np.abs(f_exa, out=out)

    if beta in ("inf", math.inf):
        num = diff.max(initial=0.0)
        denom = reference(diff).max(initial=0.0)
        if denom == 0.0:
            raise AnalysisError("zero reference norm; relative error undefined")
        return float(num / denom)
    w = None if weights is None else np.asarray(weights, dtype=float)
    work = diff if beta == 1 or w is None else np.empty_like(diff)
    num = _weighted_sum(w, diff, beta, work)
    denom = _weighted_sum(w, reference(diff), beta, work)
    if beta == 2:
        num, denom = math.sqrt(num), math.sqrt(denom)
    if denom == 0.0:
        raise AnalysisError("zero reference norm; relative error undefined")
    return float(num / denom)


def _weighted_sum(w, x, beta, out):
    """float(np.sum(w * x)) for beta 1, float(np.sum(w * x * x)) for beta 2,
    the products formed in out (which may be x unless both w and beta 2 are
    given); w None stands for unit weights, which leave x as it is."""
    t = x if w is None else np.multiply(w, x, out=out)
    if beta == 2:
        t = np.multiply(t, x, out=out)
    return float(np.sum(t))


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
