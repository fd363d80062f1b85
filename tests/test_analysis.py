import math

import numpy as np
import pytest

from uel.analysis import (ConvergenceReport, ReportRow, fitted_order,
                          make_case, observed_order, relative_error)
from uel.errors import AnalysisError, ConfigurationError

CASES = ("paper_sin", "linear", "quadratic", "constant")


# ----------------------------------------------------------------------
# manufactured cases
# ----------------------------------------------------------------------

def test_paper_sin_values():
    case = make_case("paper_sin")
    assert float(case.f(math.pi / 2, math.pi / 2)) == pytest.approx(2.0)
    gx, gy = case.grad_u(0.8, 0.0)
    assert gx * 1.0 + gy * 0.0 == pytest.approx(math.cos(0.8) * math.sin(0.0))
    assert float(case.u(0.3, -0.2)) == pytest.approx(math.sin(0.3) * math.sin(-0.2))


def test_linear_and_quadratic_sources():
    lin = make_case("linear")
    assert float(lin.f(0.3, -0.7)) == 0.0
    quad = make_case("quadratic")
    assert float(quad.f(0.1, 0.9)) == -4.0
    const = make_case("constant")
    assert float(const.u(0.5, 0.5)) == 1.0
    assert float(const.f(0.5, 0.5)) == 0.0


@pytest.mark.parametrize("name", CASES)
def test_source_is_negative_laplacian(name):
    # finite-difference oracle: f == -lap(u) and grad_u == grad(u)
    case = make_case(name)
    rng = np.random.default_rng(5)
    s = 1e-4
    for x, y in rng.uniform(-0.8, 0.8, (20, 2)):
        lap = (float(case.u(x + s, y)) + float(case.u(x - s, y))
               + float(case.u(x, y + s)) + float(case.u(x, y - s))
               - 4.0 * float(case.u(x, y))) / s ** 2
        assert float(case.f(x, y)) == pytest.approx(-lap, abs=5e-7)
        gx, gy = case.grad_u(x, y)
        fx = (float(case.u(x + s, y)) - float(case.u(x - s, y))) / (2 * s)
        fy = (float(case.u(x, y + s)) - float(case.u(x, y - s))) / (2 * s)
        assert float(gx) == pytest.approx(fx, abs=1e-7)
        assert float(gy) == pytest.approx(fy, abs=1e-7)


def test_unknown_case_rejected():
    with pytest.raises(ConfigurationError):
        make_case("cubic")


# ----------------------------------------------------------------------
# error norms
# ----------------------------------------------------------------------

def test_zero_error_for_identical_fields():
    f = np.linspace(1.0, 2.0, 7)
    for beta in (1, 2, "inf"):
        assert relative_error(f, f, beta) == 0.0


def test_homogeneity():
    rng = np.random.default_rng(0)
    f = rng.uniform(1.0, 2.0, 20)
    for beta in (1, 2, "inf"):
        assert relative_error(1.1 * f, f, beta) == pytest.approx(0.1, rel=1e-12)


def test_four_sample_example():
    f_exa = np.ones(4)
    f_h = np.array([1.3, 1.0, 1.0, 1.0])
    assert relative_error(f_h, f_exa, "inf") == pytest.approx(0.3)
    assert relative_error(f_h, f_exa, 1) == pytest.approx(0.075)


def test_scale_invariance():
    rng = np.random.default_rng(1)
    f_exa = rng.uniform(0.5, 1.5, 30)
    f_h = f_exa + rng.normal(0, 0.01, 30)
    w = rng.uniform(0.5, 1.0, 30)
    for beta in (1, 2, "inf"):
        e1 = relative_error(f_h, f_exa, beta, w)
        e2 = relative_error(-7.5 * f_h, -7.5 * f_exa, beta, w)
        assert e1 == pytest.approx(e2, rel=1e-12)


def test_vector_fields_use_euclidean_magnitude():
    f_exa = np.array([[3.0, 4.0], [0.0, 5.0]])
    f_h = f_exa + np.array([[0.0, 0.0], [5.0, 0.0]])
    assert relative_error(f_h, f_exa, "inf") == pytest.approx(1.0)


def test_zero_reference_norm_raises():
    with pytest.raises(AnalysisError):
        relative_error(np.ones(3), np.zeros(3), 2)


def test_beta_variants():
    f = np.array([1.0, 2.0])
    assert relative_error(1.1 * f, f, math.inf) == pytest.approx(0.1)
    with pytest.raises(ConfigurationError):
        relative_error(f, f, 3)


def test_weights_enter_integral_norms():
    f_exa = np.ones(2)
    f_h = np.array([2.0, 1.0])
    w = np.array([3.0, 1.0])
    assert relative_error(f_h, f_exa, 1, w) == pytest.approx(0.75)


# ----------------------------------------------------------------------
# orders
# ----------------------------------------------------------------------

def test_observed_order_examples():
    assert observed_order(1e-2, 2.5e-3) == pytest.approx(2.0)
    assert observed_order(1e-2, 5e-3) == pytest.approx(1.0)
    assert observed_order(1e-2, 1e-2) == pytest.approx(0.0)


def test_observed_order_rejects_nonpositive():
    with pytest.raises(AnalysisError):
        observed_order(0.0, 1e-3)
    with pytest.raises(AnalysisError):
        observed_order(1e-3, -1e-4)


def test_fitted_order_recovers_slope():
    hs = np.array([0.1, 0.05, 0.025, 0.0125])
    errs = 3.0 * hs ** 1.7
    assert fitted_order(hs, errs) == pytest.approx(1.7, rel=1e-12)


def test_report_orders_between_doubled_grids():
    report = ConvergenceReport()
    row = dict(scheme="fd", domain="circle", bc="dirichlet", p=2, alpha=None)
    report.add(ReportRow(**row, n=80, h=2 / 80, err_u=(0, 1e-3, 2e-3), err_g=(0, 1e-2, 2e-2)))
    report.add(ReportRow(**row, n=40, h=2 / 40, err_u=(0, 4e-3, 8e-3), err_g=(0, 2e-2, 4e-2)))
    assert [r.n for r in report.rows] == [40, 80]
    assert report.rows[0].order_u_linf is None
    assert report.rows[1].order_u_linf == pytest.approx(2.0)
    assert report.rows[1].order_g_linf == pytest.approx(1.0)
    assert report.fitted(lambda r: r.err_u[1]) == pytest.approx(2.0)
