"""Log-domain Gauss-Kronrod quadrature against closed forms."""

import math

import numpy as np
import pytest

from tailforge.errors import LogDepthError, ParameterError, ToleranceError
from tailforge.quadrature import (
    _MAX_PANELS,
    QuadConfig,
    _gk15,
    _logsumexp_list,
    log_quad,
    log_quads,
)


def test_exponential_integral():
    # int_0^50 e^-y dy = 1 - e^-50
    res = log_quad(lambda y: -y, 0.0, 50.0)
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


@pytest.mark.parametrize(
    "a, b", [(0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0), (0.0, math.nan), (1.0, 0.0)]
)
def test_bad_bounds_are_refused(a, b):
    # An infinite bound used to read the integral of e^-y over [0, inf) as 0.
    with pytest.raises(ParameterError):
        log_quad(lambda y: -y, a, b)


def test_zero_integrand():
    res = log_quad(lambda y: np.full_like(np.asarray(y, dtype=float), -np.inf), 0.0, 1.0)
    assert res.log_value == -math.inf


def test_panels_narrower_than_float_resolution():
    # rel_tol below the rule's 1e-16 error floor bisects down to 1-ulp
    # panels, whose estimates are then accepted with zero error.
    b = 1.0 + 64 * math.ulp(1.0)
    res = log_quad(lambda y: -y, 1.0, b, cfg=QuadConfig(rel_tol=1e-18))
    assert res.n_panels == 64
    assert res.rel_error == 0.0
    assert math.exp(res.log_value) == pytest.approx((b - 1.0) * math.exp(-1.0), rel=1e-12)


def test_tolerance_error_carries_estimate():
    # a needle the rule cannot certify with one subdivision
    def logf(y):
        y = np.asarray(y, dtype=float)
        return -1e6 * (y - 0.333333) ** 2

    with pytest.raises(ToleranceError) as err:
        log_quad(logf, 0.0, 1.0, cfg=QuadConfig(rel_tol=1e-12, max_subdivisions=1))
    assert err.value.achieved_rel_error > 1e-12


def test_one_split_budget_raises_with_many_candidates():
    # Ten seeded panels all want splitting in the first round; a budget of
    # one split takes the worst of them and then gives up.
    def logf(y):
        y = np.asarray(y, dtype=float)
        return np.sin(40.0 * y)

    with pytest.raises(ToleranceError, match="after 1 subdivisions"):
        log_quad(logf, 0.0, 10.0, breakpoints=np.arange(1.0, 10.0),
                 cfg=QuadConfig(rel_tol=1e-12, max_subdivisions=1))


def test_panel_same_alone_as_in_batch():
    # Row sums make a panel's bits independent of the other rows in a call.
    def logf(y):
        return np.sin(3.0 * y) - 0.1 * y * y

    edges = np.geomspace(1e-3, 50.0, 101)
    vals, errs = _gk15(logf, edges[:-1], edges[1:])
    for i in range(100):
        v, e = _gk15(logf, edges[i : i + 1], edges[i + 1 : i + 2])
        assert (v[0], e[0]) == (vals[i], errs[i])


def test_one_integrand_call_per_round():
    # An oscillation across the whole range needs many splits, and they
    # come in a few batched calls: each call evaluates 15 nodes on every
    # panel it makes, one row of nodes per panel.
    calls = []

    def logf(y):
        assert y.shape[1:] == (15,)
        calls.append(y.size)
        return np.log(2.0 + np.sin(50.0 * y))

    res = log_quad(logf, 0.0, 10.0, cfg=QuadConfig(rel_tol=1e-12))
    assert sum(calls) == 15 * (2 * res.n_panels - 1)
    assert len(calls) < res.n_panels / 10
    exact = 20.0 + (1.0 - math.cos(500.0)) / 50.0
    assert math.exp(res.log_value) == pytest.approx(exact, rel=1e-11)


def _seed_table(bps):
    """The seed table (owner, point) of per-integral breakpoint lists."""
    owners = np.repeat(np.arange(len(bps)), [len(p) for p in bps])
    return owners, np.concatenate([np.asarray(p, dtype=float) for p in bps])


def _same(batched, alone):
    assert (batched.log_value, batched.rel_error, batched.n_panels) == (
        alone.log_value, alone.rel_error, alone.n_panels)


# Integrals (log-integrand, a, b, breakpoints) under _CFG: a converging one,
# a zero-width one, a needle that one subdivision cannot certify, one beyond
# log-domain resolution, bad bounds, a jump inside a panel one ulp wide (the
# narrow-panel rule accepts it), and an oscillation whose first round wants
# more splits than its budget has room for.
_INTEGRALS = [
    (lambda y: -y, 0.0, 1.0, [0.5]),
    (lambda y: -y, 2.0, 2.0, []),
    (lambda y: -1e6 * (y - 0.333333) ** 2, 0.0, 1.0, []),
    (lambda y: np.full_like(y, -8e15), 0.0, 1.0, []),
    (lambda y: -y, 1.0, 0.0, []),
    (lambda y: np.where(y >= 1.0, 0.0, -50.0), 1.0, 1.0 + math.ulp(1.0), []),
    (lambda y: np.sin(40.0 * y), 0.0, 10.0, np.arange(1.0, 10.0)),
]
_SUCCEEDING = [0, 1, 5]
_CFG = QuadConfig(rel_tol=1e-12, max_subdivisions=1)


def _batch(indices, calls=None):
    """log_quads on the chosen integrals, in that order; ``calls`` collects
    one entry per call of the integrand.  The integrand gets one panel's
    nodes per row and each row's integral in a column."""
    fs, a, b, bps = zip(*(_INTEGRALS[i] for i in indices))

    def log_f(y, owner):
        if calls is not None:
            calls.append(y.size)
        out = np.empty_like(y)
        for i, f in enumerate(fs):
            rows = owner[:, 0] == i
            out[rows] = f(y[rows])
        return out

    return log_quads(log_f, a, b, _seed_table(bps), _CFG)


def test_batch_of_succeeding_integrals_equals_separate_calls():
    batched = _batch(_SUCCEEDING)
    assert (batched[2].n_panels, batched[2].rel_error) == (1, 0.0)
    for res, i in zip(batched, _SUCCEEDING):
        f, a, b, bps = _INTEGRALS[i]
        _same(res, log_quad(f, a, b, bps, _CFG))


@pytest.mark.parametrize("i, error", [
    (2, ToleranceError), (3, LogDepthError), (4, ParameterError), (6, ToleranceError),
], ids=["needle", "depth", "bounds", "budget"])
def test_failing_integral_raises_in_a_batch_as_alone(i, error):
    # Among succeeding integrals, the batch raises the class, message and
    # estimate the integral raises alone.
    f, a, b, bps = _INTEGRALS[i]
    with pytest.raises(error) as alone:
        log_quad(f, a, b, bps, _CFG)
    with pytest.raises(error) as batched:
        _batch([0, i, *_SUCCEEDING[1:]])
    assert type(batched.value) is type(alone.value) and str(batched.value) == str(alone.value)
    assert getattr(batched.value, "achieved_rel_error", None) == getattr(
        alone.value, "achieved_rel_error", None)
    if i == 6:
        assert "after 1 subdivisions" in str(batched.value)


@pytest.mark.parametrize("i, error, n_calls", [
    (4, ParameterError, 0), (3, LogDepthError, 1),
], ids=["bounds", "depth"])
def test_a_failure_stops_the_batch(i, error, n_calls):
    # Bad bounds are refused before any evaluation, and the depth guard
    # raises in the round that finds it, before the others refine further.
    calls = []
    with pytest.raises(error):
        _batch([*_SUCCEEDING, i, 2], calls)
    assert len(calls) == n_calls


def test_the_earliest_failing_round_raises_however_many_seed_panels():
    # Integral 0 has 5001 seed panels and is out of subdivisions in round
    # 2; integral 1 is beyond log-domain resolution in round 1, so its
    # error is the batch's, whatever integral 0's panel count.
    wiggle = (lambda y: np.log(2.0 + np.sin(1e6 * y)), 0.0, 1.0, np.linspace(0.0, 1.0, 5002))
    deep = (lambda y: np.full_like(y, -1e16), 0.0, 1.0, [])
    with pytest.raises(ToleranceError):
        log_quad(*wiggle, _CFG)
    with pytest.raises(LogDepthError) as alone:
        log_quad(*deep, _CFG)
    fs, a, b, bps = zip(wiggle, deep)

    def log_f(y, owner):
        return np.where(owner == 0, fs[0](y), fs[1](y))

    with pytest.raises(LogDepthError) as batched:
        log_quads(log_f, a, b, _seed_table(bps), _CFG)
    assert str(batched.value) == str(alone.value)


def test_batch_beyond_the_memory_caps_equals_separate_calls():
    # A first round of 8,241 seed panels, many more than one integrand call
    # takes.
    n = 41
    scales = np.linspace(5.0, 60.0, n)
    a, b = np.zeros(n), np.linspace(3.0, 10.0, n)
    bps = [np.linspace(0.0, hi, 8192 // n + 3) for hi in b]
    calls = []

    def log_f(y, owner):
        calls.append(y.size)
        return np.log(2.0 + np.sin(scales[owner] * y))

    cfg = QuadConfig(rel_tol=1e-11)
    batched = log_quads(log_f, a, b, _seed_table(bps), cfg)
    assert max(calls) <= 15 * _MAX_PANELS
    for i in range(n):
        _same(batched[i], log_quad(lambda y, s=scales[i]: np.log(2.0 + np.sin(s * y)), a[i], b[i], bps[i], cfg))


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


@pytest.mark.parametrize(
    "kwargs",
    [
        {"rel_tol": 0.0},
        {"rel_tol": math.nan},
        {"max_subdivisions": 0},
        # a tolerance that bounds nothing, and counts of the wrong type
        {"rel_tol": math.inf},
        {"rel_tol": True},
        {"rel_tol": "1e-9"},
        {"max_subdivisions": 2.5},
        {"max_subdivisions": True},
    ],
)
def test_quad_config_out_of_range_is_parameter_error(kwargs):
    with pytest.raises(ParameterError):
        QuadConfig(**kwargs)


@pytest.mark.parametrize("v", [-0.0, 0.0, 1.5, -745.25, 5e-324, -1e308, 1e15 + 0.5])
def test_logsumexp_of_one_value_is_its_formula(v):
    # m + log(sum exp(v - m)) with m = v, bit for bit: -0.0 gives 0.0
    assert _logsumexp_list([v]).hex() == (v + math.log(sum(math.exp(w - v) for w in [v]))).hex()


def test_logsumexp_of_one_non_finite_value():
    assert _logsumexp_list([-math.inf]) == -math.inf
    assert _logsumexp_list([math.nan]) == -math.inf
