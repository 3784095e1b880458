"""Convolution tails: quadrature routes, identities, certified brackets."""

import functools
import itertools
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import tailforge as tf
from tailforge import convolve, quadrature
from tailforge.errors import GridGuardError, ParameterError

EPS = np.finfo(float).eps


# ------------------------------------------------------------ cross integral


def test_cross_integral_exponential_closed_form(exp1):
    # integrand e^{-(x-y)} e^{-y} is the constant e^{-x}: integral = x e^{-x}
    assert tf.cross_integral(exp1, 0, 2, 2) == pytest.approx(2 * math.exp(-2), rel=1e-11)
    assert tf.cross_integral(exp1, 0, 10, 10) == pytest.approx(10 * math.exp(-10), rel=1e-11)


def test_cross_integral_symmetry(request):
    for name in ("pareto3", "dyadic", "fkz"):
        d = request.getfixturevalue(name)
        for x in (3.0, 8.0, 30.0):
            full = tf.cross_integral(d, 0, x, x)
            half = tf.cross_integral(d, 0, x / 2, x)
            assert full == pytest.approx(2 * half, rel=1e-9)


def test_cross_integral_empty(pareto3):
    assert tf.cross_integral(pareto3, 3.0, 3.0, 10.0) == 0.0


def test_cross_integral_preconditions(pareto3):
    with pytest.raises(ParameterError):
        tf.cross_integral(pareto3, 2.0, 1.0, 10.0)
    with pytest.raises(ParameterError):
        tf.cross_integral(pareto3, 0.0, 11.0, 10.0)


# ------------------------------------------------------------ two-fold tails


@pytest.mark.parametrize("x", [0.5, 1.0, 2.0, 5.0, 10.0, 20.0])
def test_conv2_exponential_gamma_tail(exp1, x):
    # sum of two exp(1) is gamma(2,1): tail (1+x) e^{-x}
    assert tf.conv2_tail(exp1, x) == pytest.approx((1 + x) * math.exp(-x), rel=1e-10)


def test_conv2_at_zero(pareto3, fkz):
    assert tf.conv2_tail(pareto3, 0.0) == 1.0
    assert tf.conv2_tail(fkz, 0.0) == 1.0


def test_conv2_dyadic_atom_sum_oracle(dyadic):
    # brute-force enumeration over the atoms (the whole law is atomic)
    for x in (5.0, 12.0, 33.0):
        oracle = math.exp(dyadic.log_tail(x)) + sum(
            a.mass * math.exp(dyadic.log_tail(x - a.location))
            for a in dyadic.atoms
            if a.location <= x
        )
        assert tf.conv2_tail(dyadic, x) == pytest.approx(oracle, rel=1e-12)
        bg = tf.convn_tail_grid(dyadic, 2, x + 1.0, 0.25)
        lo, up = bg.at(x)
        assert lo <= oracle <= up


# log F2bar(x) of plateau_example(2), from mpmath 1.3.0 at 30 digits:
# F(x) + sum_a m_a F(x - a) + int f(y) F(x - y) dy, the integral split at
# every breakpoint and every mirror x - breakpoint, with x - y exact.  The
# first three x are atoms of the law, where x - y for y below ulp(x) / 2
# rounds onto the atom; the last two are not.
PLATEAU2_LOG_CONV2 = [
    (466104.3558412708, -681.3320632661464772874573),
    (933547.6725950747, -964.8164134570047956020096),
    (122785002033.13501, -350405.522931377508578444),
    (932208.7116825416, -964.8152425090708874935391),
    (500000.0, -706.4120336123125206110198),
]


@pytest.mark.parametrize("x,ref", PLATEAU2_LOG_CONV2)
def test_plateau_conv2_matches_the_reference_at_atoms(plateau2, x, ref):
    assert abs(tf.log_conv2_tail(plateau2, x) - ref) <= 1e-9


def test_union_intersection_bounds(request):
    for name in ("exp1", "pareto3", "dyadic", "plateau2"):
        d = request.getfixturevalue(name)
        for x in (1.0, 4.0, 17.0):
            f2 = tf.conv2_tail(d, x)
            fbar = math.exp(d.log_tail(x))
            fbar_half = math.exp(d.log_tail(x / 2))
            assert f2 >= fbar - 1e-12
            assert f2 <= min(1.0, 2 * fbar_half) + 1e-12


def test_inequality_cross_vs_moment(request):
    # int_{x/2}^x F(x-y)F(y) dy >= F(x) int_0^{x/2} F(y) dy
    for name in ("exp1", "pareto3", "fkz"):
        d = request.getfixturevalue(name)
        for x in (4.0, 12.0, 40.0):
            lhs = tf.cross_integral(d, x / 2, x, x)
            rhs = math.exp(d.log_tail(x)) * tf.partial_moment(d, 0, 0, x / 2)
            assert lhs >= rhs * (1 - 1e-9)


# --------------------------------------------------------------- identities


@pytest.mark.parametrize("x", [1.0, 2.0, 5.0, 10.0, 20.0, 50.0])
def test_identity_residual_pareto(pareto3, x):
    assert tf.g_conv2_identity_residual(pareto3, 0.5, x) <= 1e-6


@pytest.mark.parametrize("x", [1.0, 2.0, 5.0, 10.0, 20.0, 50.0])
def test_identity_residual_exponential(exp1, x):
    assert tf.g_conv2_identity_residual(exp1, 1.0, x) <= 1e-6


def test_identity_residual_at_zero(pareto3):
    assert tf.g_conv2_identity_residual(pareto3, 0.5, 0.0) <= 1e-12


def test_os_ratio_identity_pointwise(request):
    # G2bar/Gbar = F2bar/Fbar + gamma * crossint/Fbar, within 1e-6
    gamma = 0.5
    for name in ("pareto3", "dyadic"):
        d = request.getfixturevalue(name)
        g = tf.gamma_transform(d, gamma)
        for x in (1.0, 2.0, 5.0, 10.0, 20.0, 50.0):
            lt = d.log_tail(x)
            os_g = math.exp(tf.log_conv2_tail(g, x) - g.log_tail(x))
            os_f = math.exp(tf.log_conv2_tail(d, x) - lt)
            osstar_f = math.exp(tf.log_cross_integral(d, 0, x, x) - lt)
            assert os_g == pytest.approx(os_f + gamma * osstar_f, rel=1e-6)


# ------------------------------------------------------ second-order oracles
#
# F2/F - 2 ~ 2 mu lambda(x), with mean mu and hazard lambda (Omey and
# Willekens 1986); for a tilt G of F in S(gamma), G2/G -> 2 m_G(gamma)
# (Embrechts and Goldie 1982).  The peak of F(x - y) near y = x is O(1) wide
# in [0, x], so these fail when the quadrature misses it.


def _os_ratio(d, x):
    return math.exp(tf.log_conv2_tail(d, x) - d.log_tail(x))


@pytest.mark.parametrize("x", [1e4, 2.5e5, 1e6])
def test_weibull_second_order(x):
    # mu = 2 and lambda = 1 / (2 sqrt(x)) for exp(-sqrt(x)).
    r = _os_ratio(tf.weibull_heavy(0.5), x)
    assert (r - 2.0) / (2.0 / math.sqrt(x)) == pytest.approx(1.0, abs=0.05)


@pytest.mark.parametrize("x", [1e3, 1e4, 1e5, 1e6])
def test_pareto_second_order(pareto3, x):
    # mu = 1/2 and lambda = 3 / (1 + x) for (1 + x)^-3.
    r = _os_ratio(pareto3, x)
    assert (r - 2.0) / (3.0 / (1.0 + x)) == pytest.approx(1.0, abs=0.01)


@pytest.mark.parametrize("x", [1.0, 10.0, 100.0, 700.0])
def test_exponential_two_fold_closed_form(exp1, x):
    assert _os_ratio(exp1, x) == pytest.approx(1.0 + x, rel=1e-9)


def test_tilted_weibull_two_fold_limit():
    g = tf.gamma_transform(tf.weibull_heavy(0.5), 0.5)
    limit = 2.0 * tf.exp_moment(g, 0.5)  # 2 (1 + gamma mu) = 4
    assert limit == pytest.approx(4.0, rel=1e-8)
    for x in (1e4, 2.5e5, 1e6):
        assert limit <= _os_ratio(g, x) <= 4.1


@pytest.mark.parametrize("x", [2.5e5, 1e6])
def test_identity_residual_tilted_weibull(x):
    assert tf.g_conv2_identity_residual(tf.weibull_heavy(0.5), 0.5, x) < 1e-8


def _log_osstar_bracket(d, x, cells=100_000):
    """Lower and upper log of int_0^x F(x - y) F(y) dy / F(x), from Riemann
    sums: int_0^x = 2 int_0^{x/2}, and on a cell (a, b] the integrand lies
    between F(x - a) F(b) and F(x - b) F(a).  The cells are geometric in the
    distance from either end of [0, x/2]."""
    lt = d.tail.log_tail
    c = 0.5 * x
    off = np.geomspace(1e-3, 0.5 * c, cells)
    edges = np.unique(np.concatenate([[0.0, c], off, c - off]))
    a, b = edges[:-1], edges[1:]
    lw = np.log(b - a)

    def lse(v):
        m = v.max()
        return m + math.log(np.exp(v - m).sum())

    base = math.log(2.0) - lt(x)
    return lse(lw + lt(x - a) + lt(b)) + base, lse(lw + lt(x - b) + lt(a)) + base


def test_fkz_osstar_inside_riemann_bracket(fkz):
    # prop-1.1's OS* grid from 1e10 on.  There x - y rounds to a multiple of
    # 2^k for y near x, which the u = x - y half avoids.
    cfg = tf.QuadConfig(rel_tol=1e-7)
    xs = [x for x in tf.geometric_grid(fkz, 2.0, 1e24, 22) if x >= 1e10]
    assert len(xs) == 13
    for x in xs:
        lo, up = _log_osstar_bracket(fkz, float(x))
        v = tf.log_cross_integral(fkz, 0.0, x, x, cfg) - fkz.log_tail(x)
        assert lo <= v <= up, (x, math.exp(lo), math.exp(v), math.exp(up))
        if x < 1e20:
            assert up - lo < 1e-3  # the bracket has teeth where it is tight


# ------------------------------------------------------------ grid brackets


def test_bracket_contains_gamma3_tail(exp1):
    bg = tf.convn_tail_grid(exp1, 3, 2.01, 1e-3)
    lo, up = bg.at(2.0)
    truth = math.exp(-2.0) * (1 + 2 + 2.0**2 / 2)
    assert lo <= truth <= up
    assert up - lo < 1e-3


def test_bracket_one_more_fold(exp1):
    # gamma(4,1) tail at x=3
    bg = tf.convn_tail_grid(exp1, 4, 3.01, 2e-3)
    lo, up = bg.at(3.0)
    truth = math.exp(-3.0) * (1 + 3 + 9 / 2 + 27 / 6)
    assert lo <= truth <= up


def test_bracket_consistent_with_conv2(request):
    for name in ("exp1", "pareto3"):
        d = request.getfixturevalue(name)
        bg = tf.convn_tail_grid(d, 2, 5.0, 0.01)
        for x in (0.5, 1.0, 2.5, 4.0):
            lo, up = bg.at(x)
            assert lo <= tf.conv2_tail(d, x) <= up


def test_bracket_log_at_keeps_bounds_that_underflow(exp1):
    bg = tf.convn_tail_grid(exp1, 2, 1600.0, 1.0)
    log_lo, log_up = bg.log_at(1600.0)
    # P(S_2 > x) = (1 + x) e^{-x}; the upper bound is finite although its exp is 0
    assert log_lo <= math.log(1601.0) - 1600.0 <= log_up
    assert math.isfinite(log_up) and bg.at(1600.0)[1] == 0.0
    for x in (0.5, 1.0, 2.5, 1599.5, 1600.0):
        assert bg.at(x) == tuple(math.exp(v) for v in bg.log_at(x))


def test_bracket_width_halves(exp1):
    w = [
        up - lo
        for lo, up in (tf.convn_tail_grid(exp1, 3, 2.01, h).at(2.0) for h in (4e-3, 2e-3, 1e-3))
    ]
    assert w[1] / w[0] <= 0.6
    assert w[2] / w[1] <= 0.6


def test_bracket_monotone_columns(pareto3):
    bg = tf.convn_tail_grid(pareto3, 3, 10.0, 0.01)
    assert np.all(np.diff(bg.log_lower) <= 1e-12)
    assert np.all(np.diff(bg.log_upper) <= 1e-12)
    assert np.all(bg.log_lower <= bg.log_upper + 1e-12)


def test_bracket_survives_underflow(exp1):
    # Q_2(x) = (1 + x) e^{-x} sits near e^-783, where the staircase
    # products underflow; the bracket must still contain it.
    bg = tf.convn_tail_grid(exp1, 2, 800.0, 0.5)
    k = int(np.searchsorted(bg.grid, 790.0))
    exact = math.log(791.0) - 790.0
    assert bg.log_lower[k] <= exact <= bg.log_upper[k]
    assert np.all(bg.log_upper > -math.inf)
    assert np.all(np.diff(bg.log_upper) <= 1e-12)
    # capped at c = 600: P(both <= c, S > x) = e^{-x} (2c - x - 1) + e^{-2c}
    tb = tf.trunc_convn_tail_grid(exp1, 2, 600.0, 800.0, 0.5)
    capped = math.log(409.0) - 790.0
    assert tb.log_lower[k] <= capped <= tb.log_upper[k]


def test_bracket_survives_underflowed_summand_tail(exp1):
    # Past x = 745 the summand's own staircase masses underflow to 0, so
    # they cannot tell where the support ends; Q_2(1500) is still positive.
    bg = tf.convn_tail_grid(exp1, 2, 1600.0, 1.0)
    k = int(np.searchsorted(bg.grid, 1500.0))
    exact = math.log(1501.0) - 1500.0
    assert bg.log_lower[k] <= exact <= bg.log_upper[k]
    assert np.all(bg.log_upper > -math.inf)
    # capped at c = 800, whose tail e^-800 underflows too
    tb = tf.trunc_convn_tail_grid(exp1, 2, 800.0, 1600.0, 1.0)
    capped = math.log(99.0) - 1500.0
    assert tb.log_lower[k] <= capped <= tb.log_upper[k]
    # both summands <= c: the sum cannot exceed 2c = 1600
    assert tb.log_upper[-1] == -math.inf


def test_conv2_refuses_nan(exp1):
    with pytest.raises(ParameterError):
        tf.conv2_tail(exp1, math.nan)


def test_trunc_support_bound(exp1):
    # both summands <= cap: the sum cannot reach beyond 2 * cap
    cap = 3.0
    tb = tf.trunc_convn_tail_grid(exp1, 2, cap, 8.0, 0.01)
    lo, up = tb.at(6.5)
    assert up == 0.0
    assert lo == 0.0


def test_trunc_upper_bound_is_at_most_the_restricted_mass(exp1):
    # Every summand <= c = 1e-300: P(both <= c, S_2 > v) <= (1 - e^{-c})^2,
    # about e^-1381.55, where the union bound 2 F(v / 2) reads about 2.
    tb = tf.trunc_convn_tail_grid(exp1, 2, 1e-300, 0.1, 0.1)
    whole = 2 * math.log(-math.expm1(-1e-300))
    assert np.all(tb.log_upper <= whole + 1e-12 * abs(whole))
    assert tb.log_upper[0] >= whole  # contains P(both <= c, S_2 > 0)
    tb = tf.trunc_convn_tail_grid(exp1, 3, 0.05, 0.3, 0.1)
    assert np.all(tb.log_upper <= 3 * math.log(-math.expm1(-0.05)) + 1e-12)


def test_trunc_matches_1d_oracle(pareto3):
    # P(both <= c, S > x) = int_{x-c}^c f(y)(F(x-y) - F(c)) dy for c < x < 2c
    c, x = 5.0, 8.0
    ys = np.linspace(x - c, c, 400001)
    integrand = 3.0 * (1 + ys) ** -4 * ((1 + x - ys) ** -3.0 - (1 + c) ** -3.0)
    oracle = np.trapezoid(integrand, ys)
    tb = tf.trunc_convn_tail_grid(pareto3, 2, c, 8.5, 1e-3)
    lo, up = tb.at(x)
    assert lo <= oracle <= up
    assert up - lo < 5e-4


def test_trunc_total_mass(pareto3):
    # total mass of the truncated 2-fold law is F(cap)^2
    cap = 4.0
    tb = tf.trunc_convn_tail_grid(pareto3, 2, cap, 9.0, 1e-3)
    lo, up = tb.at(0.0)
    target = (1.0 - (1 + cap) ** -3.0) ** 2
    assert lo <= target <= up + 1e-12


def test_trunc_infinite_cap_equals_plain(exp1):
    a = tf.convn_tail_grid(exp1, 2, 4.0, 0.01)
    b = tf.trunc_convn_tail_grid(exp1, 2, math.inf, 4.0, 0.01)
    assert np.array_equal(a.log_lower, b.log_lower)
    assert np.array_equal(a.log_upper, b.log_upper)


def test_fold_and_cell_guards(exp1):
    with pytest.raises(ParameterError):
        tf.convn_tail_grid(exp1, 9, 2.0, 0.1)
    with pytest.raises(ParameterError):
        tf.convn_tail_grid(exp1, 1, 2.0, 0.1)
    with pytest.raises(GridGuardError):
        tf.convn_tail_grid(exp1, 2, 1e9, 1e-4)


def test_bracket_deterministic(pareto3):
    a = tf.convn_tail_grid(pareto3, 3, 6.0, 0.01)
    b = tf.convn_tail_grid(pareto3, 3, 6.0, 0.01)
    assert np.array_equal(a.log_lower, b.log_lower)
    assert np.array_equal(a.log_upper, b.log_upper)


# ------------------------------------------------------- bracket boundaries


def test_bracket_at_refuses_nan(exp1):
    bg = tf.convn_tail_grid(exp1, 2, 3.0, 0.5)
    with pytest.raises(ParameterError, match="outside bracket grid"):
        bg.at(math.nan)


@pytest.mark.parametrize(
    "x_max, h, match",
    [(math.nan, 0.5, "grid end"), (3.0, math.nan, "step"), (3.0, math.inf, "step")],
    ids=["nan-x_max", "nan-h", "inf-h"],
)
def test_convn_refuses_non_finite(exp1, x_max, h, match):
    with pytest.raises(ParameterError, match=match):
        tf.convn_tail_grid(exp1, 2, x_max, h)


@pytest.mark.parametrize("n", [math.nan, math.inf, 2.5])
def test_convn_refuses_non_integer_fold_count(exp1, n):
    with pytest.raises(ParameterError, match="fold count"):
        tf.convn_tail_grid(exp1, n, 3.0, 0.5)


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda d: tf.convn_tail_grid(d, 2.0, 1.0, 0.5), "fold count must be an integer"),
        (lambda d: tf.trunc_convn_tail_grid(d, 3.0, 2.0, 3.0, 0.5), "fold count must be an integer"),
        (lambda d: tf.jump_cond(d, 2.0, 5.0, 1.0, 0.01), "fold count must be an integer"),
        (lambda d: tf.sample(d, 1, 2.0), "sample count must be an integer"),
        (lambda d: tf.sample(d, 1, True), "sample count must be an integer"),
        (lambda d: tf.dyadic_pareto(n_max=2.5), "n_max must be an integer"),
        (lambda d: tf.fkz_example(max_segments=2.5), "max_segments must be an integer"),
        (lambda d: tf.plateau_example(2.0, max_pairs=1.0), "max_pairs must be an integer"),
        (lambda d: tf.xu_piecewise(5.5, 4096.0, m=True), "m must be an integer"),
        (lambda d: tf.xu_piecewise(5.5, 4096.0, max_cycles=2.0), "max_cycles must be an integer"),
        (lambda d: tf.power_tail(d, 2.0), "power must be an integer"),
        (lambda d: tf.power_tail(d, True), "power must be an integer"),
    ],
    ids=[
        "convn-float", "trunc-float", "jump-float", "sample-float", "sample-bool",
        "n_max-float", "max_segments-float", "max_pairs-float", "m-bool", "max_cycles-float",
        "power-float", "power-bool",
    ],
)
def test_counts_of_the_wrong_type_are_parameter_errors(exp1, call, match):
    with pytest.raises(ParameterError, match=match):
        call(exp1)


def test_numpy_integer_counts_keep_their_bits(exp1):
    n = np.int64(3)
    a, b = tf.convn_tail_grid(exp1, n, 4.0, 0.01), tf.convn_tail_grid(exp1, 3, 4.0, 0.01)
    assert np.array_equal(a.log_lower, b.log_lower) and np.array_equal(a.log_upper, b.log_upper)
    assert tf.jump_cond(exp1, n, 5.0, 1.0, 0.01) == tf.jump_cond(exp1, 3, 5.0, 1.0, 0.01)
    assert np.array_equal(tf.sample(exp1, 1, np.int64(5)), tf.sample(exp1, 1, 5))


def test_trunc_refuses_nan_cap(exp1):
    with pytest.raises(ParameterError, match="cap"):
        tf.trunc_convn_tail_grid(exp1, 2, math.nan, 3.0, 0.01)


# ----------------------------------------------------------- bracket kernel


@pytest.mark.parametrize("M", [0, 1, 1023, 1024, 1025, 3000])
def test_convolve_defective_matches_full_product(M):
    rng = np.random.default_rng(M)
    p1, p2 = rng.random(M + 1) / (M + 1), rng.random(M + 1) / (M + 1)
    o1, o2 = 0.25, 0.125
    grid, overflow = convolve._convolve_defective(p1, o1, p2, o2, M)
    full = np.convolve(p1, p2)
    np.testing.assert_allclose(grid, full[: M + 1], rtol=(M + 1) * EPS, atol=0)
    spill = math.fsum(
        itertools.chain.from_iterable((p1[i] * p2[M + 1 - i :]).tolist() for i in range(1, M + 1))
    )
    s1, s2 = math.fsum(p1), math.fsum(p2)
    exact = math.fsum([spill, o1 * s2, o2 * s1, o1 * o2])
    assert overflow == pytest.approx(exact, rel=(M + 1) * EPS)
    assert math.fsum(full[M + 1 :]) == pytest.approx(spill, rel=(M + 1) * EPS)


def _first_cuts(M):
    """Cuts around the top cells' edge (cell M - _TOP + 1), the tile edges
    (multiples of _TILE) and the ends."""
    T, m = convolve._TOP, convolve._TILE
    near = [e + d for e in (m, 2 * m, M // 2, M - T, M) for d in (-2, -1, 0, 1, 2)]
    return sorted({c for c in [1, 2, M - 3, M - 11, *near] if 1 <= c <= M})


def _assert_cuts_keep_the_bits(p1, o1, p2, o2, M):
    whole, overflow = convolve._convolve_defective(p1, o1, p2, o2, M)
    for first in _first_cuts(M):
        cells, ov = convolve._convolve_defective(p1, o1, p2, o2, M, first)
        assert np.array_equal(cells, whole[first:]), first
        assert ov == overflow
    return whole


# M + 1 cells at and around the top cells (16), the tiles (64 cells) and
# the windows copied per call (8 tiles).
@pytest.mark.parametrize("M", [1, 5, 15, 16, 17, 63, 64, 79, 80, 81, 527, 528, 1040, 3000])
def test_convolve_defective_from_first_keeps_the_bits(M):
    rng = np.random.default_rng(M)
    p1, p2 = rng.random(M + 1) ** 4, rng.random(M + 1) ** 4
    _assert_cuts_keep_the_bits(p1, 0.25, p2, 0.125, M)


def _gemm_tiles(monkeypatch):
    """A list of the tiles of the left factor that each GEMM of the dense
    route multiplies (its rows over the tile size)."""
    tiles = []
    matmul = np.matmul

    def counted(a, b, out=None):
        if a.ndim == 2:
            tiles.append(a.shape[0])
        return matmul(a, b, out=out)

    monkeypatch.setattr(np, "matmul", counted)
    return tiles


@pytest.mark.parametrize("M", [1025, 3000, 5000])
def test_convolve_defective_leaves_out_zero_tiles_and_keeps_the_bits(monkeypatch, M):
    # A capped staircase is zero past the cap: its tiles there add exact
    # zeros, and the GEMMs leave them out.  Zero tiles inside are formed.
    rng = np.random.default_rng(M)
    m = convolve._TILE
    p1, p2 = rng.random(M + 1) ** 4, rng.random(M + 1) ** 4
    p1[2 * m : 5 * m] = 0.0
    p1[M // 2 :] = 0.0
    p2[m : 3 * m] = 0.0
    tiles = _gemm_tiles(monkeypatch)
    whole = _assert_cuts_keep_the_bits(p1, 0.25, p2, 0.125, M)
    exact = [math.fsum((p1[: k + 1] * p2[k::-1]).tolist()) for k in range(M + 1)]
    np.testing.assert_allclose(whole, exact, rtol=(M + 1) * EPS, atol=0)
    # tile s of p1 meets GEMMs d <= S - 1 - s; the tiles from (M / 2) / m on
    # are zero
    S = (M - convolve._TOP) // m + 1
    last = (M // 2 - 1) // m
    assert tiles[: S] == [min(last, S - 1 - d) + 1 for d in range(S)]


def test_convolve_defective_spill_keeps_relative_accuracy():
    # A spill of 1e-300 next to a kept mass of about 1: total minus kept
    # would leave nothing of it.
    M = 2000
    p = np.zeros(M + 1)
    p[0], p[M] = 1.0 - 1e-150, 1e-150
    grid, overflow = convolve._convolve_defective(p, 0.0, p, 0.0, M)
    assert overflow == pytest.approx(1e-300, rel=4 * EPS)
    assert grid[M] == pytest.approx(2e-150, rel=4 * EPS)


_SQUARE_MS = [0, 1, 5, 11, 15, 16, 17, 63, 64, 80, 81, 144, 145, 1022, 1025, 2047, 3000]


@pytest.mark.parametrize("M", _SQUARE_MS)
def test_square_matches_an_exact_sum(M):
    rng = np.random.default_rng(M)
    p = rng.random(M + 1) ** 4 / (M + 1)
    cells, overflow = convolve._convolve_defective(p, 0.25, p, 0.25, M)
    exact = [math.fsum((p[: k + 1] * p[k::-1]).tolist()) for k in range(M + 1)]
    np.testing.assert_allclose(cells, exact, rtol=(M + 1) * EPS, atol=0)
    # the spill and overflow formula is the product's
    assert overflow == convolve._convolve_defective(p, 0.25, p.copy(), 0.25, M)[1]


# cuts around the band steps (tile rows 2d - 1 and 2d) and the top cells
@pytest.mark.parametrize("M", [1, 5, 11, 16, 17, 127, 128, 129, 1023, 1024, 2047, 3000, 5000])
def test_square_from_first_keeps_the_bits(M):
    rng = np.random.default_rng(M)
    p = rng.random(M + 1) ** 4
    _assert_cuts_keep_the_bits(p, 0.25, p, 0.25, M)


@pytest.mark.parametrize("M", [3000, 5000])
def test_square_leaves_out_zero_tiles(monkeypatch, M):
    rng = np.random.default_rng(M)
    m = convolve._TILE
    p = rng.random(M + 1) ** 4 / (M + 1)
    p[m : 3 * m] = 0.0
    p[M // 3 :] = 0.0
    tiles = _gemm_tiles(monkeypatch)
    whole = _assert_cuts_keep_the_bits(p, 0.25, p, 0.25, M)
    exact = [math.fsum((p[: k + 1] * p[k::-1]).tolist()) for k in range(M + 1)]
    np.testing.assert_allclose(whole, exact, rtol=(M + 1) * EPS, atol=0)
    # GEMM d takes tiles s <= d - 2 with s + d <= S - 1, up to the last
    # nonzero tile, and runs to one past it
    S = (M - convolve._TOP) // m + 1
    last = (M // 3 - 1) // m
    want = [min(last, S - 1 - d, d - 2) + 1 for d in range(last + 2)]
    assert tiles[: len([w for w in want if w > 0])] == [w for w in want if w > 0]


def _fold_products(monkeypatch):
    """A list that grows by the products of every GEMM and batched GEMM the
    dense kernel takes, and of each top cells' sum."""
    products = []
    matmul, top = np.matmul, convolve._top_cells

    def counted_matmul(a, b, out=None):
        products.append(a.size // a.shape[-1] * b.shape[-2] * b.shape[-1])
        return matmul(a, b, out=out)

    def counted_top(p1, p2, M, lo):
        products.append((M + 1) * (M + 1 - lo))
        return top(p1, p2, M, lo)

    monkeypatch.setattr(np, "matmul", counted_matmul)
    monkeypatch.setattr(convolve, "_top_cells", counted_top)
    return products


def test_square_forms_about_half_the_products(monkeypatch):
    M = 8191
    p = np.random.default_rng(1).random(M + 1) / (M + 1)
    products = _fold_products(monkeypatch)
    convolve._convolve_defective(p, 0.0, p.copy(), 0.0, M)
    product = sum(products)
    products.clear()
    convolve._convolve_defective(p, 0.0, p, 0.0, M)
    square = sum(products)
    # (M + 1)^2 / 2 against (M + 1)^2 / 4, plus the band steps' 3 m^2 per
    # tile pair on the diagonal and the tiles the triangle cuts
    assert product >= (M + 1) ** 2 / 2
    assert square <= product / 2 + 2 * (M + 1) * convolve._TILE


def test_jump_folds_the_full_chain_past_the_cap_only(exp1, monkeypatch):
    # n = 3 on 20 001 cells with the cap in cell J = 0.75 M: the two brackets
    # folded apart form about 0.47 M^2 products, the capped chain and the
    # products past its cap about 0.25 M^2.
    h, n = 1e-3, 3
    x, cap = 19.998, 15.0
    products = _fold_products(monkeypatch)
    for c in (math.inf, cap):
        convolve._brackets(exp1, n, x + 2 * h, h, (c,), x)
    apart = sum(products)
    products.clear()
    tf.jump_cond(exp1, n, x, x - cap, h)
    assert sum(products) <= 0.6 * apart


_THREADS_SCRIPT = """
import hashlib, numpy as np
from tailforge import convolve
M = 20000
p = np.random.default_rng(7).random(M + 1) / (M + 1)
q = np.random.default_rng(8).random(M + 1) / (M + 1)
for a, b in ((p, p), (p, q)):
    cells, overflow = convolve._convolve_defective(a, 0.0, b, 0.0, M)
    print(hashlib.sha256(cells.tobytes()).hexdigest(), float(overflow).hex())
"""


def test_fold_keeps_its_bits_across_blas_thread_counts():
    # A threaded dot splits its sum across threads; the GEMMs split only
    # their rows and columns, and the top cells call no BLAS.
    src = str(Path(convolve.__file__).resolve().parents[1])
    out = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
        run = subprocess.run(
            [sys.executable, "-c", _THREADS_SCRIPT], env=env, capture_output=True, text=True
        )
        assert run.returncode == 0, run.stderr
        out.append(run.stdout)
    assert out[0] == out[1] and len(out[0].split()) == 4


def _scattered(M, k, seed):
    """A defective PMF on cells 0..M with k nonzero cells at random places."""
    rng = np.random.default_rng(seed)
    p = np.zeros(M + 1)
    p[rng.choice(M + 1, k, replace=False)] = rng.random(k) / k
    return p


def _sparse_factors(square, M=3000):
    p1 = _scattered(M, 40, M)
    return p1, p1 if square else _scattered(M, 60, M + 1)


def _sparse_calls(monkeypatch):
    """A list that grows by one on each call of the sparse route."""
    calls = []
    sparse = convolve._sparse_cells

    def counted(*args):
        calls.append(1)
        return sparse(*args)

    monkeypatch.setattr(convolve, "_sparse_cells", counted)
    return calls


_SQUARE_IDS = ["product", "square"]


@pytest.mark.parametrize("M", [3000, 5000])
@pytest.mark.parametrize("square", [False, True], ids=_SQUARE_IDS)
def test_sparse_fold_matches_an_exact_sum(monkeypatch, M, square):
    p1, p2 = _sparse_factors(square, M)
    calls = _sparse_calls(monkeypatch)
    cells, _ = convolve._convolve_defective(p1, 0.25, p2, 0.125, M)
    assert calls == [1]
    terms = [[] for _ in range(M + 1)]
    for i in np.flatnonzero(p1).tolist():
        for j in np.flatnonzero(p2[: M + 1 - i]).tolist():
            terms[i + j].append(p1[i] * p2[j])
    exact = [math.fsum(t) for t in terms]
    np.testing.assert_allclose(cells, exact, rtol=(M + 1) * EPS, atol=0)


@pytest.mark.parametrize("M, k, sparse", [
    (3000, 150, True), (3000, 210, True), (3000, 260, False), (20000, 720, True), (20000, 820, False),
])
def test_route_switches_within_the_measured_crossover(monkeypatch, M, k, sparse):
    # Squares of k scattered nonzero cells: timed apart, the two routes cost
    # the same at k = 210-260 of 3001 cells and k = 720-855 of 20 001 over
    # several measurements, and the switch lies inside 210-260 and 720-820.
    # The dense route's GEMM steps cost about 6 us each whatever their rows.
    p = _scattered(M, k, k)
    calls = _sparse_calls(monkeypatch)
    convolve._convolve_defective(p, 0.0, p, 0.0, M)
    assert calls == ([1] if sparse else [])


@pytest.mark.parametrize("square", [False, True], ids=_SQUARE_IDS)
def test_sparse_fold_from_first_keeps_the_bits(monkeypatch, square):
    M = 3000
    p1, p2 = _sparse_factors(square, M)
    calls = _sparse_calls(monkeypatch)
    whole, overflow = convolve._convolve_defective(p1, 0.25, p2, 0.125, M)
    firsts = (1, 2, 1023, 1024, M // 2, M - 1, M)
    for first in firsts:
        cells, ov = convolve._convolve_defective(p1, 0.25, p2, 0.125, M, first)
        assert np.array_equal(cells, whole[first:]), first
        assert ov == overflow
    assert len(calls) == 1 + len(firsts)


def test_sparse_fold_of_atoms_at_the_ends_and_of_a_zero_factor(monkeypatch):
    M = 2000
    p, q, zero = np.zeros(M + 1), np.zeros(M + 1), np.zeros(M + 1)
    p[0], p[M] = 0.75, 0.25
    q[0], q[M] = 0.5, 0.125
    calls = _sparse_calls(monkeypatch)
    # pairs (0, 0) -> cell 0, (0, M) and (M, 0) -> cell M, (M, M) -> overflow
    cells, ov = convolve._convolve_defective(p, 0.0, q, 0.0, M)
    assert cells[0] == 0.375 and cells[M] == 0.75 * 0.125 + 0.25 * 0.5
    assert not cells[1:M].any() and ov == 0.25 * 0.125
    cells, ov = convolve._convolve_defective(p, 0.0, p, 0.0, M)
    assert cells[0] == 0.5625 and cells[M] == 2 * 0.75 * 0.25
    assert not cells[1:M].any() and ov == 0.0625
    cells, ov = convolve._convolve_defective(p, 0.5, zero, 0.25, M)
    assert not cells.any() and ov == 0.25 * 1.5
    assert len(calls) == 3
    # an all-zero left factor has no block for the dense route to form
    cells, ov = convolve._convolve_defective(zero, 0.25, p, 0.5, M)
    assert not cells.any() and ov == 0.25 * 1.0 + 0.5 * 0.25


@pytest.mark.parametrize("square", [False, True], ids=_SQUARE_IDS)
def test_sparse_fold_overflow_is_the_dense_routes(monkeypatch, square):
    M = 3000
    p1, p2 = _sparse_factors(square, M)
    calls = _sparse_calls(monkeypatch)
    cells, overflow = convolve._convolve_defective(p1, 0.25, p2, 0.125, M)
    monkeypatch.setattr(convolve, "_SPARSE_COST", math.inf)  # every fold dense
    dense, dense_overflow = convolve._convolve_defective(p1, 0.25, p2, 0.125, M)
    assert calls == [1]
    assert overflow == dense_overflow
    np.testing.assert_allclose(cells, dense, rtol=2 * (M + 1) * EPS, atol=0)


@pytest.mark.parametrize("chunk", [1, 120, 1000])
@pytest.mark.parametrize("square", [False, True], ids=_SQUARE_IDS)
def test_sparse_fold_chunks_keep_the_bits(monkeypatch, chunk, square):
    M = 3000
    p1, p2 = _sparse_factors(square, M)
    calls = _sparse_calls(monkeypatch)
    whole, overflow = convolve._convolve_defective(p1, 0.25, p2, 0.125, M)
    monkeypatch.setattr(convolve, "_CHUNK", chunk)
    cells, ov = convolve._convolve_defective(p1, 0.25, p2, 0.125, M)
    assert calls == [1, 1]
    assert np.array_equal(cells, whole) and ov == overflow


@pytest.mark.parametrize("n", [2, 3, 4])
def test_dyadic_folds_take_the_sparse_route(dyadic, monkeypatch, n):
    # At h = 1/8 and 20001 cells, dyadic_pareto's S_1 has 16 nonzero cells
    # and S_2 120, spread over most of the 64-cell tiles.
    dense = []
    for name in ("_tiled_cells", "_top_cells"):
        def counted(*args, kernel=getattr(convolve, name), name=name):
            dense.append(name)
            return kernel(*args)

        monkeypatch.setattr(convolve, name, counted)
    calls = _sparse_calls(monkeypatch)
    tf.convn_tail_grid(dyadic, n, 2500.0, 0.125)
    tf.jump_cond(dyadic, n, 2400.0, 300.0, 0.125)
    assert dense == []
    # two chains each: the grid, then jump_cond's full and capped brackets
    assert len(calls) == 2 * _FULL_FOLDS[n] + 2 * 2 * _FULL_FOLDS[n]


def _two_chain(monkeypatch):
    """Force the two-chain path by reporting an atom on a node."""
    masses = convolve._staircase_masses

    def forced(*args):
        out = masses(*args)
        return (*out[:4], True, *out[5:])

    monkeypatch.setattr(convolve, "_staircase_masses", forced)


@pytest.mark.parametrize("name, x_max, h", [
    ("exp1", 20.0, 0.01), ("pareto3", 40.0, 0.02), ("plateau2", 60.0, 0.03),
])
@pytest.mark.parametrize("capped", [False, True], ids=["uncapped", "capped"])
@pytest.mark.parametrize("n", [2, 3])
def test_one_chain_matches_two_chains(request, monkeypatch, name, x_max, h, capped, n):
    d = request.getfixturevalue(name)
    cap = x_max / 3 if capped else math.inf
    masses = convolve._staircase_masses(d, convolve._node_tails(d, x_max, h), cap)
    assert not masses[4]  # these laws have no atom on a node
    one = convolve._brackets(d, n, x_max, h, (cap,))[0]
    _two_chain(monkeypatch)
    two = convolve._brackets(d, n, x_max, h, (cap,))[0]
    assert np.array_equal(one.log_lower, two.log_lower)
    assert np.array_equal(np.isfinite(one.log_upper), np.isfinite(two.log_upper))
    fin = np.isfinite(one.log_upper)
    margin = 4.0 * EPS * n * (len(one.grid) - 1)
    diff = np.abs(one.log_upper[fin] - two.log_upper[fin])
    assert np.all(diff <= 2 * margin + 4 * EPS * np.abs(two.log_upper[fin]))


@pytest.mark.parametrize("n, x_max", [(4, 0.5), (2, 0.0)], ids=["n4-M1", "n2-M0"])
def test_tiny_grids(exp1, monkeypatch, n, x_max):
    bg = tf.convn_tail_grid(exp1, n, x_max, 0.5)
    assert len(bg.grid) == round(x_max / 0.5) + 1
    for k, v in enumerate(bg.grid):
        # Erlang(n, 1) tail
        truth = math.exp(-v) * sum(v**j / math.factorial(j) for j in range(n))
        assert bg.log_lower[k] <= math.log(truth) <= bg.log_upper[k]
    _two_chain(monkeypatch)
    two = tf.convn_tail_grid(exp1, n, x_max, 0.5)
    np.testing.assert_allclose(bg.log_upper, two.log_upper, rtol=0, atol=8 * n * EPS)


# Full folds per chain for a grid: S_n = S_ceil(n/2) * S_floor(n/2), each
# power once (S_2, S_3 = S_2 * S_1, S_4 = S_2 * S_2, ...).
_FULL_FOLDS = {2: 1, 3: 2, 4: 2, 5: 3, 6: 3, 7: 4, 8: 3}


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_fold_counts(exp1, dyadic, monkeypatch, n):
    calls = []
    kernel = convolve._convolve_defective

    def counted(*args):
        calls.append(1)
        return kernel(*args)

    monkeypatch.setattr(convolve, "_convolve_defective", counted)
    tf.convn_tail_grid(exp1, n, 5.0, 0.01)
    assert len(calls) == _FULL_FOLDS[n]
    calls.clear()
    # dyadic atoms sit at powers of two, on the nodes of h = 1/8
    tf.convn_tail_grid(dyadic, n, 40.0, 0.125)
    assert len(calls) == 2 * _FULL_FOLDS[n]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_node_reading_forms_the_last_fold_from_the_read_node(exp1, dyadic, monkeypatch, n):
    firsts = []
    kernel = convolve._convolve_defective

    def counted(*args):
        firsts.append(args[5] if len(args) > 5 else 0)
        return kernel(*args)

    monkeypatch.setattr(convolve, "_convolve_defective", counted)
    halves = [0] * (_FULL_FOLDS[n] - 1)  # the halves, formed in full
    # Both brackets form their halves (the capped one first, then the full
    # one's products past the cap) before either forms its last product.
    # x = 5 sits on node 500 of 502; one chain reads the lower tail n nodes back
    tf.jump_cond(exp1, n, 5.0, 1.0, 0.01)
    assert firsts == 2 * halves + 2 * [500 - n]
    firsts.clear()
    # two chains (atoms on nodes): both read from node 40
    tf.jump_cond(dyadic, n, 5.0, 1.0, 0.125)
    assert firsts == 4 * halves + 4 * [40]


def _sequential(powers, n, M):
    """The two last factors of a fold one summand at a time: S_{n-1} and S_1."""
    pmf, overflow = powers[1]
    acc, ov = pmf, overflow
    for _ in range(n - 2):
        acc, ov = convolve._convolve_defective(acc, ov, pmf, overflow, M)
    return acc, ov, pmf, overflow


@pytest.mark.parametrize("name, x_max, h", [
    ("exp1", 20.0, 0.01), ("pareto3", 40.0, 0.02), ("plateau2", 60.0, 0.03), ("dyadic", 300.0, 0.125),
])
@pytest.mark.parametrize("capped", [False, True], ids=["uncapped", "capped"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_halves_match_a_sequential_fold(request, monkeypatch, name, x_max, h, capped, n):
    d = request.getfixturevalue(name)
    cap = x_max / 3 if capped else math.inf
    by_halves = convolve._brackets(d, n, x_max, h, (cap,))[0]
    monkeypatch.setattr(convolve, "_halves", _sequential)
    folded = convolve._brackets(d, n, x_max, h, (cap,))[0]
    if n <= 3:
        # S_2 = S_1 * S_1 and S_3 = S_2 * S_1 either way: the same products
        assert np.array_equal(by_halves.log_lower, folded.log_lower)
        assert np.array_equal(by_halves.log_upper, folded.log_upper)
        return
    # another product tree: both within the outward margin of the truth
    margin = 4.0 * EPS * n * (len(folded.grid) - 1)
    for a, b in ((by_halves.log_lower, folded.log_lower), (by_halves.log_upper, folded.log_upper)):
        assert np.array_equal(np.isfinite(a), np.isfinite(b))
        fin = np.isfinite(a)
        assert np.all(np.abs(a[fin] - b[fin]) <= 2 * margin + 4 * EPS * np.abs(b[fin]))


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_bracket_contains_erlang_tails_past_three_folds(exp1, n):
    h = 0.005
    bg = tf.convn_tail_grid(exp1, n, 12.0, h)
    v = bg.grid
    # Erlang(n, 1): P(S_n > v) = e^{-v} sum_{j < n} v^j / j!
    terms = np.array([v**j / math.factorial(j) for j in range(n)])
    log_truth = np.log(terms.sum(axis=0)) - v
    assert np.all(bg.log_lower <= log_truth)
    assert np.all(log_truth <= bg.log_upper)
    k = int(np.searchsorted(v, 10.0))
    assert bg.log_upper[k] - bg.log_lower[k] < 2 * n * h  # the bracket has teeth


def _dyadic_single_tail(z: Fraction) -> Fraction:
    """P(X > z) for dyadic_pareto: 1 below 2, 4^-j on [2^j, 2^(j+1))."""
    j = 0
    while 2 ** (j + 1) <= z:
        j += 1
    return Fraction(1, 4**j)


@functools.lru_cache(maxsize=None)
def _dyadic_exact(n: int, z: Fraction, cap: int | None = None) -> Fraction:
    """P(every summand <= cap, S_n > z) for dyadic_pareto, whose atoms are
    3 * 4^-j at 2^j, j >= 1, summed exactly; without a cap, the atoms
    beyond z count through the summand's own tail."""
    if n == 0:
        return Fraction(int(z < 0))
    total, top = (_dyadic_single_tail(z), z) if cap is None else (Fraction(0), cap)
    j = 1
    while 2**j <= top:
        total += Fraction(3, 4**j) * _dyadic_exact(n - 1, z - 2**j, cap)
        j += 1
    return total


@pytest.mark.parametrize("n", [2, 3, 4, 8])
def test_dyadic_grid_contains_the_enumerated_tail(dyadic, n):
    bg = tf.convn_tail_grid(dyadic, n, 24.0, 0.125)
    M = len(bg.grid) - 1
    for k in range(0, M + 1, M // 16):
        truth = math.log(_dyadic_exact(n, Fraction(bg.grid[k])))
        assert bg.log_lower[k] <= truth <= bg.log_upper[k], k


def test_dyadic_jump_cond_contains_the_enumerated_conditional(dyadic):
    br = tf.jump_cond(dyadic, 3, 24.0, 4.0, 0.125)
    x = Fraction(24)
    truth = 1 - _dyadic_exact(3, x, 20) / _dyadic_exact(3, x)
    assert br.lower <= truth <= br.upper


@pytest.mark.parametrize("name", ["dyadic", "plateau2", "xu55", "pareto3"])
def test_half_seeds_are_the_breakpoints_mirrors_and_grades_inside(name, request):
    # Each half's seeds, with its ends, are {a, b} and the breakpoints, their
    # mirrors x - bp and the grades a + (b - a) 8^-k whose offset is at least
    # 2^-10 a, strictly inside (a, b).
    curve = request.getfixturevalue(name).tail
    bps = curve.breakpoints()
    rng = np.random.default_rng(3)
    x = np.exp(rng.uniform(0.0, 12.0, 40))
    lo, hi = np.sort(rng.uniform(0.0, 1.0, (2, 40)) * x, axis=0)
    c = 0.5 * x
    xs = np.concatenate([x, x])
    a = np.concatenate([lo, x - hi])  # the halves in y and in u = x - y
    b = np.concatenate([np.minimum(hi, c), x - np.maximum(lo, c)])
    # Ends that are breakpoints' mirrors at x = 3e17, where the mirrors of
    # the breakpoints near them round onto them.
    near = bps[(bps > 1e3) & (bps < 1e7)]
    if len(near) >= 3:
        big = 3e17
        xs = np.append(xs, [big, big])
        a = np.append(a, [big - near[-1], big - near[-1]])
        b = np.append(b, [big - near[0], big - near[len(near) // 2]])
    # Ends within an ulp of a breakpoint's mirror: at x = bp + t the mirror
    # x - bp rounds to either side of t.
    mid = bps[(bps > 4.0) & (bps < 1e12)][:30]
    t = rng.uniform(0.0, 1.0, len(mid))
    xs = np.concatenate([xs, mid + t, mid + t])
    a = np.concatenate([a, t, 0.5 * t])
    b = np.concatenate([b, 0.5 * (mid + t), t])
    keep = a < b
    xs, a, b = xs[keep], a[keep], b[keep]
    owner, pts = convolve._half_seeds(curve, xs, a, b)
    for i in range(len(xs)):
        offsets = (b[i] - a[i]) * convolve._GRADES
        cand = np.concatenate([bps, xs[i] - bps, a[i] + offsets[offsets >= 2.0**-10 * a[i]]])
        want = {a[i], b[i], *cand[(cand > a[i]) & (cand < b[i])].tolist()}
        assert {a[i], b[i], *pts[owner == i].tolist()} == want
        assert np.all((pts[owner == i] > a[i]) & (pts[owner == i] < b[i]))


def test_half_seeds_keep_every_grade_at_zero(exp1):
    # The peak of F near u = 0, or of a density near y = 0, gets all 20.
    owner, pts = convolve._half_seeds(exp1.tail, np.array([10.0]), np.array([0.0]), np.array([5.0]))
    assert set((5.0 * 8.0 ** -np.arange(1, 21)).tolist()) <= set(pts.tolist())


def test_half_seeds_keep_the_grades_that_move_the_argument(exp1):
    # At a = 1e6 and w = 1e6 only offsets of at least 2^-10 a = 976.5625 are
    # kept: w / 8, w / 64 and w / 512, not w / 4096 = 244.1...  exp1's only
    # breakpoint, 0, and its mirror, 4e6, lie outside the half.
    owner, pts = convolve._half_seeds(exp1.tail, np.array([4e6]), np.array([1e6]), np.array([2e6]))
    assert sorted(pts.tolist()) == [1e6 + 1e6 / 512, 1e6 + 1e6 / 64, 1e6 + 1e6 / 8]
    assert owner.tolist() == [0, 0, 0]


def test_classify_evaluates_no_panel_a_few_ulps_wide(monkeypatch, tmp_path):
    # Deep grades at a > 0 rounded to within a few ulps of a and made
    # panels that narrow, each far below rel_tol; so did grades below a
    # breakpoint from a grid point an ulp below another one (the five
    # experiments' grids).
    real = quadrature._gk15
    widths = []

    def gk15(log_f, los, his):
        widths.append((his - los) / np.spacing(np.maximum(np.abs(los), np.abs(his))))
        return real(log_f, los, his)

    monkeypatch.setattr(quadrature, "_gk15", gk15)
    laws = [
        tf.pareto(3.0),
        tf.exponential(1.0),
        tf.weibull_heavy(0.5),
        tf.dyadic_pareto(),
        tf.fkz_example(),
        tf.plateau_example(2.0),
        tf.xu_piecewise(5.5, 4096.0),
    ]
    for d in laws + [tf.gamma_transform(d, 0.5) for d in laws]:
        tf.classify(d)
    for exp_id in tf.EXPERIMENT_IDS:
        assert tf.run_experiment(exp_id, tmp_path / exp_id) == 0
    widths = np.concatenate(widths)
    assert len(widths) > 10_000 and widths.min() > 64.0
