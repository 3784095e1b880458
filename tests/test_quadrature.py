"""Log-domain Gauss-Kronrod quadrature against closed forms."""

import math

import numpy as np
import pytest

from tailforge.errors import LogDepthError, ParameterError, ToleranceError
from tailforge.quadrature import QuadConfig, log_quad, logsubexp


def test_exponential_integral():
    # int_0^50 e^-y dy = 1 - e^-50
    res = log_quad(lambda y: -y, 0.0, 50.0)
    assert res.converged
    assert math.exp(res.log_value) == pytest.approx(1.0 - math.exp(-50.0), rel=1e-12)


def test_deep_tail_integral():
    # int_100^200 e^-y dy, magnitudes ~ e^-100: pure log-domain territory
    res = log_quad(lambda y: -y, 100.0, 200.0)
    expect = -100.0 + math.log1p(-math.exp(-100.0))
    assert res.log_value == pytest.approx(expect, abs=1e-12)


def test_breakpoints_resolve_kinks():
    # piecewise integrand: e^-y on [0,1), e^-2y on [1,3]
    def logf(y):
        y = np.asarray(y)
        return np.where(y < 1.0, -y, -2.0 * y)

    exact = (1.0 - math.exp(-1.0)) + 0.5 * (math.exp(-2.0) - math.exp(-6.0))
    res = log_quad(logf, 0.0, 3.0, breakpoints=[1.0])
    assert math.exp(res.log_value) == pytest.approx(exact, rel=1e-12)


def test_huge_span_exponential():
    # decay scale 1e6 over a span of 1e12: adaptive zoom must find the mass
    res = log_quad(lambda y: -y / 1e6, 0.0, 1e12, cfg=QuadConfig(rel_tol=1e-9))
    assert math.exp(res.log_value - math.log(1e6)) == pytest.approx(1.0, rel=1e-8)


def test_empty_interval():
    res = log_quad(lambda y: -y, 2.0, 2.0)
    assert res.log_value == -math.inf


def test_zero_integrand():
    res = log_quad(lambda y: np.full_like(np.asarray(y, dtype=float), -np.inf), 0.0, 1.0)
    assert res.log_value == -math.inf


def test_tolerance_error_carries_estimate():
    # a needle the rule cannot certify with one subdivision
    def logf(y):
        y = np.asarray(y, dtype=float)
        return -1e6 * (y - 0.333333) ** 2

    with pytest.raises(ToleranceError) as err:
        log_quad(logf, 0.0, 1.0, cfg=QuadConfig(rel_tol=1e-12, max_subdivisions=1))
    assert err.value.achieved_rel_error > 1e-12


def test_log_depth_guard():
    with pytest.raises(LogDepthError):
        log_quad(lambda y: np.full_like(np.asarray(y, dtype=float), -8e15), 0.0, 1.0)


def test_logsumexp_spanning_300_orders():
    # two flat stretches 300 orders of magnitude apart must both register
    def logf(y):
        y = np.asarray(y)
        return np.where(y < 1.0, 0.0, -690.0)

    res = log_quad(logf, 0.0, 2.0, breakpoints=[1.0])
    assert res.log_value == pytest.approx(math.log(1.0 + math.exp(-690.0)), abs=1e-12)


def test_logsubexp():
    assert logsubexp(0.0, -math.inf) == 0.0
    assert logsubexp(0.0, 0.0) == -math.inf
    assert logsubexp(math.log(3.0), math.log(1.0)) == pytest.approx(math.log(2.0), rel=1e-15)
    with pytest.raises(ValueError):
        logsubexp(0.0, 1.0)


@pytest.mark.parametrize("kwargs", [{"rel_tol": 0.0}, {"rel_tol": math.nan}, {"max_subdivisions": 0}])
def test_quad_config_out_of_range_is_parameter_error(kwargs):
    with pytest.raises(ParameterError):
        QuadConfig(**kwargs)
