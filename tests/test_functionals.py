"""Tail functionals, trend classification, and class diagnostics."""

import math

import numpy as np
import pytest

import tailforge as tf
from tailforge import convolve, functionals
from tailforge.convolve import MAX_FOLDS
from tailforge.tailcurve import ExpAffineSegment, TailCurve
from tailforge.errors import (
    GridGuardError,
    InconclusiveBracketError,
    ParameterError,
    TailforgeError,
    ToleranceError,
    TruncationError,
)
from tailforge.distribution import _split_tilt
from tailforge.functionals import (
    ClassifyConfig,
    _b2_profile,
    _t_ratios,
    classify_trend,
    geometric_grid,
    shift_probe_grid,
    xu_window_labels,
)


# ------------------------------------------------------------------- t_ratio


def test_t_ratio_exact_one_at_half(request):
    for name in ("exp1", "pareto3", "dyadic"):
        d = request.getfixturevalue(name)
        assert tf.t_ratio(d, 10.0, 5.0) == 1.0


def test_t_ratio_exponential_closed_form(exp1):
    # constant integrand: numerator 2K e^{-x}, denominator x e^{-x}
    assert tf.t_ratio(exp1, 10.0, 2.0) == pytest.approx(0.4, rel=1e-10)


def test_t_ratio_in_unit_interval(request):
    rng = np.random.default_rng(5)
    for name in ("exp1", "pareto3", "fkz", "plateau2"):
        d = request.getfixturevalue(name)
        for _ in range(10):
            x = float(rng.uniform(4.0, 200.0))
            K = float(rng.uniform(0.1, x / 2))
            v = tf.t_ratio(d, x, K)
            assert 0.0 < v <= 1.0


def test_t_ratio_dyadic_approaches_one(dyadic):
    # the dominated-variation mechanism pushes T toward 1 in K
    vals = [tf.t_ratio(dyadic, 2.0**m, 1024.0) for m in range(15, 21)]
    assert min(vals) >= 0.9


def test_t_ratio_precondition(pareto3):
    with pytest.raises(ParameterError):
        tf.t_ratio(pareto3, 10.0, 6.0)


@pytest.mark.parametrize("name", ["exp1", "pareto3", "dyadic", "plateau2", "fkz"])
def test_t_ratios_match_two_cross_integrals(name, request):
    d = request.getfixturevalue(name)
    cfg = tf.QuadConfig(rel_tol=1e-7)
    Ks = [0.5, 1.0, 2.0, 3.5, 4.0, 8.0, 16.0, 31.0]
    for x in (64.0, 300.0):
        t = _t_ratios(d, [(K, x) for K in Ks], cfg)
        prof = [t[K, x] for K in Ks]
        assert all(b >= a for a, b in zip(prof, prof[1:]))  # exactly nondecreasing
        log_den = tf.log_cross_integral(d, 0.0, x / 2, x, cfg)
        two_calls = [math.exp(tf.log_cross_integral(d, 0.0, K, x, cfg) - log_den) for K in Ks]
        np.testing.assert_allclose(prof, two_calls, rtol=cfg.rel_tol, atol=0)


def test_t_ratios_are_exactly_one_at_half(request):
    cfg = tf.QuadConfig()
    for name in ("exp1", "pareto3", "dyadic", "plateau2", "xu55"):
        d = request.getfixturevalue(name)
        for x in (10.0, 300.0, 2.0**20):
            t = _t_ratios(d, [(1.0, x), (4.0, x), (x / 2, x)], cfg)
            assert t[x / 2, x] == 1.0 and t[1.0, x] < 1.0


@pytest.mark.parametrize("name", ["pareto3", "dyadic", "plateau2", "xu55"])
def test_t_ratios_batch_has_the_bits_of_each_x_alone(name, request):
    # One batch over every (K, x) pair gives each x the bits of its pairs
    # alone, and of t_ratio where the x has a single K (an x's prefix sums
    # its own bands, so several Ks cut the same x finer).
    d = request.getfixturevalue(name)
    cfg = tf.QuadConfig()
    Ks = [1.0, 4.0, 16.0, 30.0]
    xs = [64.0, 300.0, 2.0**12]
    got = _t_ratios(d, [(K, x) for x in xs for K in Ks] + [(3.0, 100.0), (50.0, 2.0**14)], cfg)
    for x in xs:
        alone = _t_ratios(d, [(K, x) for K in reversed(Ks)], cfg)
        assert [got[(K, x)] for K in Ks] == [alone[(K, x)] for K in Ks]
    for K, x in [(3.0, 100.0), (50.0, 2.0**14)]:
        assert got[(K, x)] == tf.t_ratio(d, x, K, cfg)


def test_t_ratios_preconditions(pareto3):
    cfg = tf.QuadConfig()
    for Ks in ([1.0, 6.0], [0.0, 1.0], [math.nan]):
        with pytest.raises(ParameterError):
            _t_ratios(pareto3, [(K, 10.0) for K in Ks], cfg)


def _shift_series(d):
    # prop-1.3's shift-probe grid: G is in L(beta) iff the ratio settles at e^{-beta}
    grid = shift_probe_grid(d, geometric_grid(d, 64.0, 2.0**20, 25), 1.0)
    return tf.ratio_diagnostic(d, "lgamma", grid, t=1.0, gamma=0.0)


@pytest.mark.parametrize("d, rate", [
    (tf.exponential(1.0), 1.0),
    (tf.gamma_transform(tf.pareto(3.0), 0.5), 0.5),
])
def test_shift_series_settles_at_the_rate(d, rate):
    s = _shift_series(d)
    assert s.trend == "converging"
    assert s.limit == pytest.approx(math.exp(-rate), rel=1e-3)


def test_shift_series_of_the_tilted_dyadic_does_not_settle():
    s = _shift_series(tf.gamma_transform(tf.dyadic_pareto(), 0.5))
    assert s.trend != "converging"


# ------------------------------------------------------------------ b2_cond


@pytest.mark.parametrize("x,K", [(9.0, 1.0), (19.0, 2.0), (99.0, 5.0)])
def test_b2_exponential_closed_form(exp1, x, K):
    assert tf.b2_cond(exp1, x, K) == pytest.approx(2 * K / (1 + x), rel=1e-6)


def test_b2_pareto_limit(pareto3):
    # asymptotically F(K) * F2bar(x) / (2 Fbar(x)) -> F(K); F(9) = 1 - 1e-3
    assert tf.b2_cond(pareto3, 1e4, 9.0) == pytest.approx(0.999, abs=1e-2)


def test_b2_monotone_in_K(request):
    for name in ("exp1", "pareto3", "dyadic"):
        d = request.getfixturevalue(name)
        x = 64.0
        vals = [tf.b2_cond(d, x, K) for K in (1.0, 2.0, 4.0, 8.0, 16.0)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_b2_precondition(pareto3):
    with pytest.raises(ParameterError):
        tf.b2_cond(pareto3, 10.0, 5.0)


# b2 values pinned bit for bit, so that any change to the quadrature's
# panels or summation order shows here and is declared.
B2_PINNED = {
    "exp1": [(10.0, 1.0, 0.18181818181818182), (64.0, 4.0, 0.12307692307692347),
             (500.0, 16.0, 0.06387225548902443)],
    "pareto3": [(10.0, 1.0, 0.8045635145624195), (64.0, 4.0, 0.9890337908478377),
                (500.0, 16.0, 0.9997626996673102)],
    "plateau2": [(10.0, 1.0, 0.5582844321118496), (64.0, 4.0, 0.6357931715748254),
                 (500.0, 16.0, 0.9657957496974714)],
}


@pytest.mark.parametrize("name", sorted(B2_PINNED))
def test_b2_bit_identical_to_pinned(name, request):
    d = request.getfixturevalue(name)
    for x, K, v in B2_PINNED[name]:
        assert tf.b2_cond(d, x, K) == v


def test_b2_pinned_exponential_closed_form():
    # For e^-x, 2 int_0^K e^-(x-y) e^-y dy / ((1 + x) e^-x) = 2K / (1 + x).
    for x, K, v in B2_PINNED["exp1"]:
        assert v == pytest.approx(2.0 * K / (1.0 + x), rel=1e-12)


def test_b2_tilted_weibull_is_below_one():
    # The denominator must count the peak of F(x - y) near y = x; without it
    # the ratio reads 1.3186, which a bare clamp would turn into 1.0.
    g = tf.gamma_transform(tf.weibull_heavy(0.5), 0.5)
    v = tf.b2_cond(g, 359873.1850021813, 33.7461422819146, tf.QuadConfig(rel_tol=1e-7))
    assert v < 1.0
    assert v == pytest.approx(0.9878337, abs=1e-6)


def test_ratio_past_one_clamps_only_within_tolerance(monkeypatch, pareto3):
    # b2(pareto(3), 500, 16) = 0.99976...; numerator terms pushed up by a
    # log shift, with the two-fold total left as it is, read past 1.  An
    # excess up to 10 rel_tol is clamped to 1, a larger one is refused.
    x, K, v = B2_PINNED["pareto3"][2]
    real = functionals._log_conv2_tails

    def shifted(shift):
        def conv2(d, jobs, cfg):
            return [
                (log_f2, [[t + shift for t in band] for band in bands])
                for log_f2, bands in real(d, jobs, cfg)
            ]

        return conv2

    cfg = tf.QuadConfig()
    monkeypatch.setattr(functionals, "_log_conv2_tails", shifted(-math.log(v) + 5 * cfg.rel_tol))
    assert tf.b2_cond(pareto3, x, K, cfg) == 1.0
    monkeypatch.setattr(functionals, "_log_conv2_tails", shifted(1e-3))
    with pytest.raises(ToleranceError, match="x=500.0, K=16.0"):
        tf.b2_cond(pareto3, x, K, cfg)


@pytest.mark.parametrize("name", ["exp1", "pareto3", "dyadic", "plateau2"])
def test_b2_profile_matches_per_K(name, request):
    d = request.getfixturevalue(name)
    cfg = tf.QuadConfig(rel_tol=1e-7)
    Ks = [1.0, 2.0, 3.5, 4.0, 8.0, 16.0, 31.0]
    for x in (64.0, 300.0):
        prof = _b2_profile(d, x, Ks, cfg)
        assert all(b >= a for a, b in zip(prof, prof[1:]))  # exactly nondecreasing
        np.testing.assert_allclose(prof, [tf.b2_cond(d, x, K, cfg) for K in Ks], rtol=1e-6, atol=0)


_B2_KS = [1.0, 4.0, 16.0]


def _tilt_b2_limit(K):
    # m_K(γ)/m(γ) = (F(K) + γ∫_0^K Fbar)/(1 + γ∫_0^∞ Fbar) for the 0.5 tilt of
    # Fbar(y) = (1 + y)^-3, with ∫_0^K Fbar = (1 − (1 + K)^-2)/2.
    return (1 - (1 + K) ** -3 + 0.25 * (1 - (1 + K) ** -2)) / 1.25


@pytest.mark.parametrize(
    "d, limit, xs, rate",
    [
        # F(K), the summand's distribution function: the error falls like 1/x ...
        (tf.pareto(3.0), lambda K: 1 - (1 + K) ** -3, (1e3, 1e5, 1e7), lambda x: 1 / x),
        (tf.gamma_transform(tf.pareto(3.0), 0.5), _tilt_b2_limit, (1e3, 1e4, 1e5), lambda x: 1 / x),
        # ... but like 1/√x for the Weibull tail.
        (tf.weibull_heavy(0.5), lambda K: 1 - math.exp(-math.sqrt(K)), (1e3, 1e5, 1e7), lambda x: x**-0.5),
    ],
    ids=["pareto", "tilted-pareto", "weibull"],
)
def test_b2_first_order_limits(d, limit, xs, rate):
    cfg = tf.QuadConfig()
    for x in xs:
        for K, v in zip(_B2_KS, _b2_profile(d, x, _B2_KS, cfg)):
            assert abs(v - limit(K)) <= rate(x), (x, K, v, limit(K))


def test_b2_profile_preconditions(pareto3):
    cfg = tf.QuadConfig()
    for Ks in ([1.0, 5.0], [2.0, 1.0], [1.0, 1.0], [math.nan]):
        with pytest.raises(ParameterError):
            _b2_profile(pareto3, 10.0, Ks, cfg)


# ---------------------------------------------------------------- jump_cond


def test_jump_exponential_oracle(exp1):
    # P(both <= 8, S > 9) = 6 e^{-9} + e^{-16} by direct 1-D integration;
    # P(S > 9) = 10 e^{-9}
    oracle = 1 - (6 * math.exp(-9) + math.exp(-16)) / (10 * math.exp(-9))
    br = tf.jump_cond(exp1, 2, 9.0, 1.0, 0.002)
    assert br.lower <= oracle <= br.upper
    assert br.width < 1e-2


def test_jump_sure_event(request):
    for name in ("exp1", "dyadic"):
        d = request.getfixturevalue(name)
        br = tf.jump_cond(d, 2, 5.0, 5.0, 0.01)
        assert br.lower == br.upper == 1.0


@pytest.mark.parametrize(
    "n, h, match",
    [(2.0, 0.01, "fold count"), (1, 0.01, "fold count"), (2, -1.0, "step"), (2, math.nan, "step")],
    ids=["float-n", "one-fold", "negative-h", "nan-h"],
)
def test_jump_sure_event_checks_the_fold_count_and_step(exp1, n, h, match):
    # K >= x is sure only for a bracket that could be formed.
    with pytest.raises(ParameterError, match=match):
        tf.jump_cond(exp1, n, 5.0, 6.0, h)
    br = tf.jump_cond(exp1, 2, 5.0, 6.0, 0.01)
    assert br.lower == br.upper == 1.0


def test_jump_b2_consistency(exp1, pareto3):
    # {X_{2,2} <= K, S_2 > x} implies {X_{2,1} > x-K}
    for d in (exp1, pareto3):
        for x, K in ((9.0, 1.0), (12.0, 3.0)):
            b2 = tf.b2_cond(d, x, K)
            br = tf.jump_cond(d, 2, x, K, 0.002)
            assert b2 <= br.upper + 1e-9


def test_jump_monotone_in_K(pareto3):
    brs = [tf.jump_cond(pareto3, 2, 20.0, K, 0.005) for K in (1.0, 2.0, 4.0, 8.0)]
    for a, b in zip(brs, brs[1:]):
        assert b.upper >= a.lower - 1e-12


def test_jump_degenerate_bracket(exp1):
    # P(S_2 > 800) ~ 801 e^{-800} underflows plain floats entirely
    with pytest.raises(InconclusiveBracketError):
        tf.jump_cond(exp1, 2, 800.0, 1.0, 1.0)


def test_jump_refuses_nan_threshold(exp1):
    with pytest.raises(ParameterError, match="threshold"):
        tf.jump_cond(exp1, 2, math.nan, 1.0, 0.01)


def test_jump_refuses_nan_offset(exp1):
    with pytest.raises(ParameterError, match="offset"):
        tf.jump_cond(exp1, 2, 3.0, math.nan, 0.01)


@pytest.mark.parametrize("name, h", [("pareto3", 0.01), ("dyadic", 0.125)])
def test_jump_reads_the_node_tails_once(request, monkeypatch, name, h):
    # The full and the capped brackets at one x stand on the same nodes: one
    # log_tail call evaluates the summand there for both.
    d = request.getfixturevalue(name)
    expect = _grid_jump(d, 2, 5.0, 1.0, h)
    sizes = []
    log_tail = TailCurve.log_tail

    def counted(self, x):
        sizes.append(np.size(x))
        return log_tail(self, x)

    monkeypatch.setattr(TailCurve, "log_tail", counted)
    br = tf.jump_cond(d, 2, 5.0, 1.0, h)
    assert (br.lower, br.upper) == expect
    assert sizes == [round(5.0 / h) + 3, 1]  # the nodes up to x + 2h, then F(cap)


def _grid_jump(d, n, x, K, h):
    """jump_cond as read off the two whole grids, combined as jump_cond does."""
    den, num = convolve._brackets(d, n, x + 2 * h, h, (math.inf, x - K))
    (den_lo, den_up), (num_lo, num_up) = den.at(x), num.at(x)
    if den_lo <= 0.0:
        raise InconclusiveBracketError("degenerate")
    ratio_lo = min(num_lo / den_up, 1.0) if den_up > 0 else 0.0
    ratio_up = min(num_up / den_lo, 1.0)
    return max(1.0 - ratio_up, 0.0), min(1.0 - ratio_lo, 1.0)


_NODE_LAWS = {
    # law -> (threshold scale, step or None); dyadic's atoms sit on the nodes
    "exponential": (lambda: tf.exponential(1.0), 12.0, None),
    "pareto": (lambda: tf.pareto(3.0), 60.0, None),
    "dyadic": (lambda: tf.dyadic_pareto(), None, 0.125),
    "plateau": (lambda: tf.plateau_example(2.0), 150.0, None),
    "tilted-pareto": (lambda: tf.gamma_transform(tf.pareto(3.0), 0.5), 20.0, None),
}


@pytest.mark.parametrize("law", sorted(_NODE_LAWS))
@pytest.mark.parametrize("n", [2, 3, 4])
def test_jump_reads_the_grid_nodes_bit_for_bit(law, n):
    make, scale, step = _NODE_LAWS[law]
    d = make()
    # M + 1 cells.  A dense fold forms cells 0..M - 16 by GEMMs over 64-cell
    # tiles, whose windows it copies 8 at a time, and its top 16 cells one
    # at a time.  At 1040 cells the tiled cells end exactly on a tile edge
    # that is also an 8-window batch edge (16 tiles, two batches); 1039 and
    # 1041 sit one cell on either side.  x on the node two below the last,
    # or halfway between two nodes.
    for cells in (1023, 1024, 1025, 1030, 1039, 1040, 1041, 2049):
        h = step or scale / (cells - 3)
        for x in ((cells - 3) * h, (cells - 3.5) * h):
            K = 0.3 * x
            br = tf.jump_cond(d, n, x, K, h)
            assert (br.lower, br.upper) == _grid_jump(d, n, x, K, h), (cells, x)


@pytest.mark.parametrize("law", sorted(_NODE_LAWS))
@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_jump_reads_the_grid_log_at_past_three_folds(law, n):
    make, scale, step = _NODE_LAWS[law]
    d = make()
    for cells in (1025, 2049):
        h = step or scale / (cells - 3)
        for x in ((cells - 3) * h, (cells - 3.5) * h):
            K = 0.3 * x
            for cap in (math.inf, x - K):
                node = convolve._brackets(d, n, x + 2 * h, h, (cap,), x)[0].log_at(x)
                grid = convolve._brackets(d, n, x + 2 * h, h, (cap,))[0].log_at(x)
                assert node == grid, (cells, x, cap)
            br = tf.jump_cond(d, n, x, K, h)
            assert (br.lower, br.upper) == _grid_jump(d, n, x, K, h), (cells, x)


def _erlang_log_tails(n, v):
    """log P(S_n > v) for n exponential(1) summands, at each node v."""
    terms = np.array([v**j / math.factorial(j) for j in range(n)])
    return np.log(terms.sum(axis=0)) - v


@pytest.mark.parametrize("law", sorted(_NODE_LAWS))
@pytest.mark.parametrize("n", [2, 3, 4, 5, 8])
def test_full_bracket_past_the_cap_agrees_with_the_grid_within_the_margin(law, n):
    # With a cap in cell J > M / 2, the full bracket's chains are the capped
    # ones plus the products that reach past the cap: other bits than
    # convn_tail_grid's, within the outward margin of either.  The capped
    # bracket keeps trunc_convn_tail_grid's bits.
    make, scale, step = _NODE_LAWS[law]
    d = make()
    for cells in (1025, 2049):
        h = step or scale / (cells - 3)
        x = (cells - 3) * h
        K = 0.3 * x
        den, num = convolve._brackets(d, n, x + 2 * h, h, (math.inf, x - K))
        full = tf.convn_tail_grid(d, n, x + 2 * h, h)
        trunc = tf.trunc_convn_tail_grid(d, n, x - K, x + 2 * h, h)
        assert np.array_equal(num.log_lower, trunc.log_lower)
        assert np.array_equal(num.log_upper, trunc.log_upper)
        M = len(full.grid) - 1
        bound = 2 * math.log1p(4 * np.finfo(float).eps * n * M)
        for a, b in ((den.log_lower, full.log_lower), (den.log_upper, full.log_upper)):
            assert np.array_equal(np.isfinite(a), np.isfinite(b)), cells
            fin = np.isfinite(a)
            assert np.all(np.abs(a[fin] - b[fin]) <= bound), cells
        if law == "exponential":
            truth = _erlang_log_tails(n, full.grid)
            for bg in (den, full):
                assert np.all(bg.log_lower <= truth) and np.all(truth <= bg.log_upper)


def _exp_jump_cond(n, x, K):
    """P(max X_i > x - K | S_n > x) for n exponential(1) summands: by
    memorylessness and inclusion-exclusion over the summands past c = x - K,
    1 - sum_k (-1)^k C(n, k) e^{-kc} Q_n(x - kc) / Q_n(x), Q_n the Erlang
    tail."""
    c = x - K

    def q(v):
        return 1.0 if v < 0 else math.exp(-v) * math.fsum(v**j / math.factorial(j) for j in range(n))

    return 1.0 - math.fsum(
        (-1) ** k * math.comb(n, k) * math.exp(-k * c) * q(x - k * c) for k in range(n + 1)
    ) / q(x)


@pytest.mark.parametrize("n, x, K, h, past", [
    # a low cap, 2J <= M: each bracket folds its own chains
    (4, 5.0, 3.5, 2.0**-9, 0),
    (3, 8.0, 5.0, 2.0**-8, 0),
    # a high cap: the full chain is the capped one plus the products past it
    (3, 8.0, 2.0, 2.0**-8, 1),
    (4, 12.0, 3.0, 2.0**-7, 1),
    (5, 12.0, 2.0, 2.0**-7, 1),
    (7, 16.0, 4.0, 2.0**-6, 1),
    (3, 19.998, 4.998, 1e-3, 1),  # 20 001 cells, J = 0.75 M
])
def test_jump_contains_the_exponential_conditional(exp1, monkeypatch, n, x, K, h, past):
    calls = []
    halves_past = convolve._halves_past

    def counted(*args):
        calls.append(1)
        return halves_past(*args)

    monkeypatch.setattr(convolve, "_halves_past", counted)
    br = tf.jump_cond(exp1, n, x, K, h)
    assert len(calls) == past
    assert br.lower <= _exp_jump_cond(n, x, K) <= br.upper


def test_jump_low_cap_pins_the_oracle(exp1):
    # 2J = 1536 <= M = 2562; the inclusion-exclusion value 0.9991217091227599
    br = tf.jump_cond(exp1, 4, 5.0, 3.5, 2.0**-9)
    assert br.lower <= 0.9991217091227599 <= br.upper
    assert br.upper - br.lower < 4e-5


@pytest.mark.parametrize("name, n, x, K, h", [
    # capped reading past n * cap: the truncated tail is provably 0
    ("dyadic", 2, 6.0, 4.0, 2.0**-9),
    # the truncated upper tail at x sinks under the underflow floor, and the
    # running minimum carries a lower node's bound
    ("exp1", 2, 703.0, 350.0, 1.0),
    # x within n cells of 0: the upper tail is the n-fold's whole mass
    ("exp1", 2, 0.015, 0.001, 0.01),
    ("exp1", 3, 0.02, 0.001, 0.01),
    ("exp1", 4, 0.03, 0.001, 0.01),
    ("pareto3", 3, 1.02, 0.5, 0.01),
    ("dyadic", 3, 0.25, 0.1, 0.125),
])
def test_jump_node_reading_edge_cases(request, name, n, x, K, h):
    d = request.getfixturevalue(name)
    br = tf.jump_cond(d, n, x, K, h)
    assert (br.lower, br.upper) == _grid_jump(d, n, x, K, h)


def test_jump_union_bound_reading_is_under_the_floor(exp1):
    # The case above reads a node whose upper staircase tail underflows.
    tb = tf.trunc_convn_tail_grid(exp1, 2, 353.0, 705.0, 1.0)
    k = int(np.searchsorted(tb.grid, 703.0))
    floor = 2 * (len(tb.grid) - 1) * np.finfo(float).tiny
    assert tb.log_lower[k] == -math.inf
    assert tb.log_upper[k] > math.log(floor)
    assert tb.log_upper[k] < math.log(2.0) + exp1.tail.log_tail(703.0 / 2)


@pytest.mark.parametrize("n, h, x, error", [
    (1, 0.01, 5.0, ParameterError),
    (2.5, 0.01, 5.0, ParameterError),
    (MAX_FOLDS + 1, 0.01, 5.0, ParameterError),
    (2, 0.0, 5.0, ParameterError),
    (2, -1.0, 5.0, ParameterError),
    (2, math.nan, 5.0, ParameterError),
    (2, math.inf, 5.0, ParameterError),
    (2, 1e-6, 5.0, GridGuardError),
    (2, 1e31, 1.4e32, TruncationError),
], ids=["n1", "n2.5", "n-past-cap", "h0", "h-1", "h-nan", "h-inf", "cells", "truncation"])
def test_jump_keeps_the_grid_refusals(plateau2, n, h, x, error):
    with pytest.raises(error) as grid:
        _grid_jump(plateau2, n, x, 1.0, h)
    with pytest.raises(error) as node:
        tf.jump_cond(plateau2, n, x, 1.0, h)
    assert str(node.value) == str(grid.value)


# --------------------------------------------------------- ratio diagnostics


@pytest.mark.parametrize("kind", ["os", "osstar"])
def test_two_fold_series_past_the_truncation_is_refused(fkz, kind):
    # Every x of the batch is checked before any is integrated.
    with pytest.raises(TruncationError, match="refusing to extrapolate"):
        tf.ratio_diagnostic(fkz, kind, [10.0, 1e40])


def test_pareto_halving_ratio_formula(pareto3):
    xs = np.geomspace(4, 1e6, 30)
    s = tf.ratio_diagnostic(pareto3, "d", xs)
    expect = ((1 + xs) / (1 + xs / 2)) ** 3
    assert np.allclose(s.values, expect, rtol=1e-12)
    assert s.trend == "converging"
    assert s.limit == pytest.approx(8.0, rel=1e-2)


def test_dyadic_halving_ratio_exactly_four(dyadic):
    xs = 2.0 ** np.arange(1, 21)
    s = tf.ratio_diagnostic(dyadic, "d", xs)
    assert np.allclose(s.values, 4.0, rtol=1e-12)


def test_shift_ratio_of_a_tilt_is_read_exactly(xu55):
    # G(x+1)/G(x) = F(x+1)/F(x) e^{-1} for G the unit tilt of F = xu^2, at
    # the shift-probe point one below the ramp top 2 x_8 = 8.6e11: the tilt
    # enters as the exact term -1, not through the rounding of x + 1 and x
    # times the rate, which moves the log by 5.8e-5.
    Fm = tf.power_tail(xu55, 2)
    x = 2.0 * float(tf.xu_breakpoints(xu55)[7]) - 1.0
    s = tf.ratio_diagnostic(tf.gamma_transform(Fm, 1.0), "lgamma", [x], t=1.0, gamma=0.0)
    exact = Fm.tail.log_tail(x + 1.0) - Fm.tail.log_tail(x) - 1.0
    assert s.log_values[0] == pytest.approx(exact, abs=1e-12)


def test_a_tilt_reads_a_tail_of_one_below_zero(pareto3):
    # G = F e^{-gamma x} holds from 0 on; below 0 both tails are 1, so the
    # tilt's exact term is left out there.
    g = tf.gamma_transform(pareto3, 0.5)
    assert tf.ratio_diagnostic(g, "d", [-4.0, 8.0]).log_values[0] == 0.0
    assert tf.ratio_diagnostic(g, "os", [-4.0, 8.0]).log_values[0] == 0.0
    assert tf.log_conv2_tail(g, -1.0) == 0.0


def test_xu_shift_ratio_identity(xu55):
    xns = tf.xu_breakpoints(xu55)
    t = 2.0
    checked = 0
    for xn in xns:
        x = 2.0 * xn
        if x - t == x or x - t <= xn:
            break
        s = tf.ratio_diagnostic(xu55, "ol", np.array([x]), t=t)
        target = 1.0 + t - t / xn
        assert float(s.values[0]) == pytest.approx(target, rel=1e-12)
        checked += 1
    assert checked >= 8


def test_os_series_pareto(pareto3):
    xs = np.geomspace(8, 2e3, 16)
    s = tf.ratio_diagnostic(pareto3, "os", xs)
    assert s.trend == "converging"
    assert s.limit == pytest.approx(2.0, rel=0.05)


def test_osstar_series_pareto(pareto3):
    # limit is 2 * mean = 1 for the (1+x)^-3 tail
    xs = np.geomspace(8, 2e4, 16)
    s = tf.ratio_diagnostic(pareto3, "osstar", xs)
    assert s.trend == "converging"
    assert s.limit == pytest.approx(1.0, rel=0.05)


@pytest.mark.parametrize("tilted", [False, True])
def test_two_fold_series_equal_per_x_calls(tilted, plateau2, dyadic):
    # One batch per series gives each x the bits of its own call, read per
    # e^{-rate x} on the base; the public values subtract exactly rate * x.
    d = tf.gamma_transform(dyadic, 0.5) if tilted else plateau2
    base, rate = _split_tilt(d)
    assert (base, rate) == ((dyadic, 0.5) if tilted else (plateau2, 0.0))
    cfg = tf.QuadConfig(rel_tol=1e-7)
    xs = geometric_grid(d, 4.0, 1e6, 28)
    os_ = tf.ratio_diagnostic(d, "os", xs, cfg=cfg)
    osstar = tf.ratio_diagnostic(d, "osstar", xs, cfg=cfg)
    for i, x in enumerate(map(float, os_.grid)):
        lt = base.tail.log_tail(x)
        f2 = convolve._log_conv2_tails(d, [(x, [])], cfg)[0][0]
        cross = convolve._log_cross_integrals(d, [(0.0, x, x)], cfg)[0]
        assert os_.log_values[i] == f2 - lt
        assert osstar.log_values[i] == cross - lt
        assert tf.log_conv2_tail(d, x, cfg) == f2 - rate * x
        assert tf.log_cross_integral(d, 0.0, x, x, cfg) == cross - rate * x


def test_j_profiles_read_the_os_pass(monkeypatch, pareto3):
    # classify makes one two-fold pass: J reads the OS grid from
    # max(_J_X_LO, 3K) up, each b2 denominator is the OS total, and an x whose
    # ratio is refused (its bands pushed up past the total) leaves every J
    # profile but stays in OS.
    cfg = ClassifyConfig()
    xs = geometric_grid(pareto3, cfg.x_lo, cfg.x_hi, cfg.n_grid).tolist()
    refused = xs[len(xs) // 2]
    real_conv2, real_ratios = functionals._log_conv2_tails, functionals._prefix_ratios
    passes, dens = [], {}

    def conv2(d, jobs, qcfg):
        passes.append(jobs)
        return [
            (log_f2, [[t + 10.0 for t in band] for band in bands] if x == refused else bands)
            for (x, _), (log_f2, bands) in zip(jobs, real_conv2(d, jobs, qcfg))
        ]

    def ratios(x, Ks, log_den, bands, qcfg):
        dens[x] = log_den
        return real_ratios(x, Ks, log_den, bands, qcfg)

    monkeypatch.setattr(functionals, "_log_conv2_tails", conv2)
    monkeypatch.setattr(functionals, "_prefix_ratios", ratios)
    rep = tf.classify(pareto3, cfg)
    os_ = rep.entry("OS").evidence[0]
    assert len(passes) == 1 and os_.grid.tolist() == xs
    profiles = {s.kind: s.grid.tolist() for s in rep.entry("J").evidence}
    Ks = cfg.resolve_K(pareto3)
    assert profiles == {
        f"b2(K={K:g})": [x for x in xs if x >= max(functionals._J_X_LO, 3.0 * K) and x != refused]
        for K in Ks
    }
    assert refused in dens and refused >= 3.0 * max(Ks)
    for x, log_den in dens.items():
        assert log_den - pareto3.tail.log_tail(x) == os_.log_values[xs.index(x)]


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n_grid": 2.5},
        {"n_grid": True},
        {"t_list": (1.0, "2")},
        {"t_list": ()},
        {"t_list": 2.0},
        {"K_list": ()},
        {"K_list": (1.0, math.inf)},
        {"rel_tol": math.inf},
        {"rel_tol": math.nan},
        {"x_hi": math.inf},
        {"x_lo": True},
        {"t_list": (1.0, 8.0)},
        {"t_list": (1.0, 4.0)},
        {"x_lo": 2.0, "t_list": (1.0, 2.5)},
    ],
)
def test_classify_config_checks_its_own_types(kwargs):
    # A count is an integer; every other number is finite and positive; the
    # lists are nonempty tuples; every shift t is below x_lo, so x - t stays
    # positive on the whole grid.
    with pytest.raises(ParameterError):
        ClassifyConfig(**kwargs)


def _resolve_K_per_level(d):
    # One quantile call per level, skipping the levels a curve refuses.
    base, rate = _split_tilt(d)
    ks = []
    for curve in [d.tail, base.tail] if rate else [d.tail]:
        for u in functionals._K_LEVELS:
            try:
                ks.append(max(float(curve.quantile(u)), 1.0))
            except TailforgeError:
                continue
    return tuple(sorted(set(ks))) or (1.0, 4.0, 16.0)


def test_resolve_K_is_the_per_level_quantiles_bit_for_bit():
    # One call inverts all levels of a curve; each level stops on its own.
    laws = [
        tf.pareto(3.0),
        tf.exponential(1.0),
        tf.weibull_heavy(0.5),
        tf.dyadic_pareto(),
        tf.fkz_example(),
        tf.plateau_example(2.0),
        tf.xu_piecewise(5.5, 4096.0),
    ]
    cfg = ClassifyConfig()
    for d in laws + [tf.gamma_transform(d, g) for d in laws for g in (0.3, 0.5, 1.0)]:
        Ks = cfg.resolve_K(d)
        assert [k.hex() for k in Ks] == [k.hex() for k in _resolve_K_per_level(d)], d.label


def test_resolve_K_skips_the_levels_below_the_truncation():
    # F(5) = e^-5 > 0.003: the curve refuses the last level and keeps four;
    # its 0.5 tilt reaches e^-7.5 at 5 and keeps all five of its own.
    d = tf.Distribution(TailCurve([ExpAffineSegment(lo=0.0, hi=5.0)]))
    with pytest.raises(TruncationError):
        d.tail.quantile(0.003)
    Ks = ClassifyConfig().resolve_K(d)
    assert Ks == tuple(max(d.tail.quantile(u), 1.0) for u in (0.3, 0.1, 0.03, 0.01))
    assert Ks == _resolve_K_per_level(d)
    g = tf.gamma_transform(d, 0.5)
    Ks = ClassifyConfig().resolve_K(g)
    assert len(Ks) == 9 and Ks == _resolve_K_per_level(g)


def test_K_list_must_strictly_increase(pareto3):
    # Read in the given order, (4, 4, 1) gave two b2(K=4) profiles and J
    # inconclusive off the K = 1 profile.
    for K_list in ((4.0, 4.0, 1.0), (4.0, 1.0), (1.0, 1.0)):
        with pytest.raises(ParameterError, match="strictly increasing"):
            ClassifyConfig(K_list=K_list)


def test_increasing_K_list_reads_J(pareto3):
    rep = tf.classify(pareto3, ClassifyConfig(K_list=(1.0, 4.0)))
    assert [s.kind for s in rep.entry("J").evidence] == ["b2(K=1)", "b2(K=4)"]
    assert rep.verdict("J") == "evidence-for"


def test_j_detail_names_the_last_profile_read(pareto3):
    # K = 2e5 reads at most the grid points from 6e5 to 1e6, too few for a
    # profile, so the verdict rests on K = 4.
    rep = tf.classify(pareto3, ClassifyConfig(K_list=(1, 4, 2e5)))
    assert [s.kind for s in rep.entry("J").evidence] == ["b2(K=1)", "b2(K=4)"]
    assert rep.entry("J").detail.endswith("at K=4")


def test_lgamma_exponential_exact(exp1):
    xs = np.geomspace(4, 100, 10)
    s = tf.ratio_diagnostic(exp1, "lgamma", xs, t=1.0, gamma=1.0)
    assert np.allclose(s.values, 1.0, rtol=1e-12)


def test_collapsed_shift_points_are_dropped(pareto3):
    # At x = 1e20 the shift by t = 1 rounds away: x - 1 == x.
    with pytest.raises(ParameterError):
        tf.ratio_diagnostic(pareto3, "ol", [1e20], t=1)
    with pytest.raises(ParameterError):
        tf.ratio_diagnostic(pareto3, "lgamma", [1e20], t=1)
    s = tf.ratio_diagnostic(pareto3, "ol", [10.0, 1e20], t=1)
    assert list(s.grid) == [10.0]
    assert s.log_values[0] == pytest.approx(3.0 * math.log(11.0 / 10.0), rel=1e-12)
    s = tf.ratio_diagnostic(pareto3, "lgamma", [10.0, 1e20], t=1, gamma=0.5)
    assert list(s.grid) == [10.0]
    s = tf.ratio_diagnostic(pareto3, "ol", [1e20, 2e20, 10.0], t=1)
    assert list(s.grid) == [10.0]


def test_weak_equiv_drops_collapsed_points(pareto3):
    # The collapsed x = 1e20 would read the ratio 1; it is left out of the sup.
    s = tf.weak_equiv_diag(pareto3, [1.0, 2.0], [10.0, 1e20])
    assert s.log_values == pytest.approx([3.0 * math.log(11.0 / 10.0), 3.0 * math.log(11.0 / 9.0)])
    with pytest.raises(ParameterError):
        tf.weak_equiv_diag(pareto3, [1.0, 2.0], [1e20, 2e20])


def test_ratio_kind_validation(pareto3):
    with pytest.raises(ParameterError):
        tf.ratio_diagnostic(pareto3, "bogus", [1, 2, 3])
    with pytest.raises(ParameterError):
        tf.ratio_diagnostic(pareto3, "ol", [1.0, 2.0], t=1.5)


# ---------------------------------------------------------- trend classifier


def test_trend_rules():
    grid = np.geomspace(1, 100, 12)
    conv, limit = classify_trend(grid, np.full(12, 3.0))
    assert conv == "converging" and limit == pytest.approx(3.0)
    div, _ = classify_trend(grid, np.geomspace(1, 1e4, 12))
    assert div == "diverging"
    osc, _ = classify_trend(grid, np.array([1.0, 4.0] * 6))
    assert osc == "oscillating"
    inc, _ = classify_trend(grid, np.linspace(1, 5, 12))
    assert inc == "increasing"
    dec, _ = classify_trend(grid, np.linspace(5, 1, 12))
    assert dec == "decreasing"
    # Constant up to rounding, then falling: at rel_tol 0 the 1e-12 wiggles
    # count as sign changes, at the tolerance of the values they are ties.
    values = np.concatenate([5.0 * (1.0 + 1e-12 * np.array([1.0, -1.0] * 4)), [4.0, 3.0, 2.0, 1.0]])
    grid = np.geomspace(1, 100, len(values))
    assert classify_trend(grid, values)[0] == "oscillating"
    assert classify_trend(grid, values, rel_tol=1e-9)[0] == "decreasing"


@pytest.mark.parametrize("tail, trend", [
    ([10.5, 11.5], "increasing"),  # rising with one dip: 2 sign changes on 11 steps
    ([9.0, 8.5], "oscillating"),  # and falling over the last two steps: 3
], ids=["two-changes", "three-changes"])
def test_trend_oscillates_past_a_quarter_of_the_steps(tail, trend):
    # _OSCILLATE_FRAC = 0.25 reads more than 2.75 changes as oscillating
    values = np.array([2.0, 3.0, 4.0, 5.0, 4.5, 5.5, 6.5, 7.5, 8.5, 9.5, *tail])
    assert classify_trend(np.geomspace(1, 100, 12), values) == (trend, None)


# ------------------------------------------------- settling at 1: L, L(gamma)

_GRID12 = np.geomspace(4.0, 1e6, 12)
_SHIFT_SERIES = {
    # converges to 1 from above
    "settled": (1.0 + 0.01 / _GRID12, "converging", "evidence-for"),
    "oscillating": (np.array([1.0, 1.3] * 6), "oscillating", "evidence-against"),
    # rises from 0.6 to 1.4, never strays past 10 _L_TOL from 1, never settles
    "rising": (np.linspace(0.6, 1.4, 12), "increasing", "inconclusive"),
    # settled off 1 by 0.045 and 0.055, either side of _L_TOL = 0.05
    "inside-tol": (np.full(12, 1.045), "converging", "evidence-for"),
    "outside-tol": (np.full(12, 1.055), "converging", "evidence-against"),
}


def _hand_series(values):
    return functionals.DiagSeries.build("lgamma", "x", _GRID12, np.log(values), rel_tol=1e-7)


@pytest.mark.parametrize("case", sorted(_SHIFT_SERIES))
def test_settles_at_one_reads_hand_built_series(case):
    values, trend, verdict = _SHIFT_SERIES[case]
    s = _hand_series(values)
    assert s.trend == trend
    assert functionals._settles_at_one([s]) == verdict
    assert functionals._settles_at_one([_hand_series(_SHIFT_SERIES["settled"][0]), s]) == verdict
    assert functionals._settles_at_one(()) == "inconclusive"


def test_lgamma_reads_an_unsettled_series_as_inconclusive(monkeypatch, exp1):
    # L(gamma) reads its tilted shift ratios as L does, so a series that
    # rises without settling leaves it undecided.
    real = functionals.ratio_diagnostic

    def rising_lgamma(d, kind, xgrid, **kw):
        if kind == "lgamma":
            return _hand_series(_SHIFT_SERIES["rising"][0])
        return real(d, kind, xgrid, **kw)

    monkeypatch.setattr(functionals, "ratio_diagnostic", rising_lgamma)
    rep = tf.classify(exp1)
    entry = rep.entry("L(gamma)")
    assert entry.verdict == "inconclusive"
    assert entry.detail == "tilted shift ratio trend ambiguous for gamma=1"
    # An unsettled rate leaves S(gamma) undecided too, not refuted.
    assert rep.verdict("S(gamma)") == "inconclusive"


_HALVING_SERIES = {
    # one early spike over a flat tail: max over median 80 and 120, either
    # side of _D_SPREAD = 100
    "spread-80": ([80.0] + [1.0] * 11, "evidence-for", "halving ratio bounded (limit ~ 1)"),
    "spread-120": ([120.0] + [1.0] * 11, "inconclusive", "halving ratio trend converging"),
    "oscillating": ([2.0, 3.0] * 6, "evidence-for", "halving ratio oscillates in a bounded band"),
}


@pytest.mark.parametrize("case", sorted(_HALVING_SERIES))
def test_d_reads_the_spread_of_a_hand_built_halving_series(monkeypatch, exp1, case):
    values, verdict, detail = _HALVING_SERIES[case]
    real = functionals.ratio_diagnostic

    def halving(d, kind, xgrid, **kw):
        if kind == "d":
            return functionals.DiagSeries.build("d", "x", _GRID12, np.log(values), rel_tol=1e-7)
        return real(d, kind, xgrid, **kw)

    monkeypatch.setattr(functionals, "ratio_diagnostic", halving)
    entry = tf.classify(exp1).entry("D")
    assert (entry.verdict, entry.detail) == (verdict, detail)


# ------------------------------------------------------ exam300 lower bound


def test_exam300_values():
    # direct arithmetic: (a_2^2/2 - a_1^2) e^{-a_1} = (e^2/2 - 1)/e
    assert tf.exam300_lower_bound(1) == pytest.approx(
        (math.e**2 / 2 - 1) / math.e, rel=1e-12
    )
    # regression anchors from the recursion
    assert tf.exam300_lower_bound(2) == pytest.approx(0.5378638876269897, rel=1e-12)
    assert tf.exam300_lower_bound(3) == pytest.approx(4.124984947439519, rel=1e-12)
    assert tf.exam300_lower_bound(4) > 1e10


def test_exam300_increasing_from_two():
    vals = [tf.exam300_lower_bound(n) for n in (2, 3, 4)]
    assert vals[0] < vals[1] < vals[2]


def test_exam300_truncation():
    with pytest.raises(TruncationError):
        tf.exam300_lower_bound(5)


def test_osstar_dominates_exam300_bound(fkz):
    a = tf.fkz_a_sequence()
    for n in (1, 2, 3):
        x = a[n + 1] ** 2
        ratio = math.exp(tf.log_cross_integral(fkz, 0, x, x) - fkz.log_tail(x))
        assert ratio >= tf.exam300_lower_bound(n)


# ------------------------------------------------------------ weak equiv


def test_weak_equiv_exponential(exp1):
    # c(f, t) = e^t exactly
    s = tf.weak_equiv_diag(exp1, [1, 2, 4, 8, 16], np.geomspace(32, 500, 8))
    assert np.allclose(s.values, np.exp([1, 2, 4, 8, 16]), rtol=1e-9)
    assert s.trend == "diverging"


def test_weak_equiv_pareto_bounded(pareto3):
    s = tf.weak_equiv_diag(pareto3, [1, 2, 4, 8, 16], np.geomspace(100, 1e5, 12))
    assert s.trend != "diverging"
    assert float(np.max(s.values)) < 2.0


def test_weak_equiv_xu_diverges(xu55):
    # probe the recurring ramp tops (cycles >= 2; the one-time junction at
    # x_1 is a transient a limsup proxy must not be dominated by)
    xns = tf.xu_breakpoints(xu55)[1:10]
    xgrid = np.unique(np.concatenate([xns, 1.5 * xns, 2.0 * xns]))
    s = tf.weak_equiv_diag(xu55, [1, 2, 4, 8, 16], xgrid)
    assert s.trend == "diverging"
    # the sup at 2 x_n grows like 1 + t
    assert np.allclose(s.values, 1 + s.grid, rtol=1e-3)


# -------------------------------------------------------------- aux helpers


def test_xu_window_labels(xu55):
    xns = tf.xu_breakpoints(xu55)
    xn = xns[2]
    K = 512.0
    labels = xu_window_labels(
        xu55, [xn + 1, xn + K + 1, 1.6 * xn, 2 * xn + 1, 2 * xn + K + 1], K
    )
    assert labels == ("W1", "W2", "W3", "W4", "W5")


def test_geometric_grid_takes_a_point_ulps_from_a_breakpoint_as_it(dyadic):
    # geomspace puts a point at 16383.999999999996, one ulp below the
    # breakpoint 16384: the grid keeps the breakpoint alone.
    grid = geometric_grid(tf.gamma_transform(dyadic, 0.5), 4.0, 2.0**20, 22)
    near = grid[np.abs(grid - 16384.0) <= 4 * np.spacing(16384.0)]
    assert near.tolist() == [16384.0]


def test_shift_probe_grid(dyadic):
    grid = shift_probe_grid(dyadic, np.geomspace(64, 4096, 5), 1.0)
    assert 127.0 in grid  # one ulp... one shift below the breakpoint 128
    assert 2047.0 in grid


# ----------------------------------------------------------------- classify


def test_classify_pareto(pareto3):
    rep = tf.classify(pareto3)
    for cls in ("L", "D", "S", "OS", "OS*", "J", "OL"):
        assert rep.verdict(cls) == "evidence-for", cls
    assert rep.verdict("L(gamma)") == "evidence-against"
    assert rep.verdict("S(gamma)") == "evidence-against"
    assert rep.disclaimer == "numerical evidence, not proof"


@pytest.mark.parametrize(
    "law, rate",
    [
        (tf.exponential(1.0), 1.0),
        (tf.exponential(1.5), 1.5),
        (tf.gamma_transform(tf.exponential(1.0), 0.5), 1.5),
    ],
    ids=["exp1", "exp1.5", "tilt-exp1-0.5"],
)
def test_classify_exponential(law, rate):
    rep = tf.classify(law)
    assert rep.verdict("J") == "evidence-against"
    assert rep.verdict("L") == "evidence-against"
    assert rep.verdict("L(gamma)") == "evidence-for"
    assert rep.entry("L(gamma)").detail.endswith(f"gamma={rate:g}")
    # one tilted shift series per t, at the rate read off the curve
    assert [s.kind for s in rep.entry("L(gamma)").evidence] == ["lgamma", "lgamma"]
    assert rep.verdict("S(gamma)") == "evidence-against"


def test_classify_dyadic(dyadic):
    rep = tf.classify(dyadic)
    for cls in ("D", "OS", "OS*", "J"):
        assert rep.verdict(cls) == "evidence-for", cls
    for cls in ("L", "S"):
        assert rep.verdict(cls) == "evidence-against", cls
    # Its shift and two-fold ratios jump between levels far apart, so the
    # ties at the classify tolerance leave them oscillating.
    for cls in ("OL", "OS", "OS*"):
        assert {s.trend for s in rep.entry(cls).evidence} == {"oscillating"}, cls


@pytest.mark.parametrize("gamma", [0.3, 0.5, 0.7])
def test_classify_tilted_pareto(pareto3, gamma):
    rep = tf.classify(tf.gamma_transform(pareto3, gamma))
    assert rep.verdict("L(gamma)") == "evidence-for"
    assert rep.verdict("S(gamma)") == "evidence-for"
    assert f"2*m(gamma={gamma:g})" in rep.entry("S(gamma)").detail
    assert rep.verdict("J") == "evidence-for"
    assert rep.verdict("L") == "evidence-against"


@pytest.mark.parametrize("gamma", [0.3, 0.7])
def test_classify_tilted_weibull_off_the_old_grid(gamma):
    rep = tf.classify(tf.gamma_transform(tf.weibull_heavy(0.5), gamma))
    assert rep.verdict("L(gamma)") == "evidence-for"
    assert rep.verdict("S(gamma)") == "evidence-for"
    assert f"2*m(gamma={gamma:g})" in rep.entry("S(gamma)").detail


def test_classify_fkz_rate_below_resolution(fkz):
    # The last segment decays at rate 1.35e-19: e^{gamma t} - 1 is far below
    # _L_TOL at every shift, so the window cannot tell it from 0.
    rep = tf.classify(fkz)
    assert rep.verdict("L(gamma)") == "evidence-against"
    assert rep.verdict("S(gamma)") == "evidence-against"
    # The tilt's moment, read through the base, is 1 + 0.5 * 2.492, and its
    # two-fold ratio settles within the band of twice that on this window.
    rep = tf.classify(tf.gamma_transform(fkz, 0.5))
    assert rep.verdict("L(gamma)") == "evidence-for"
    assert rep.verdict("S(gamma)") == "evidence-for"


@pytest.mark.parametrize("name", ["pareto3", "fkz"])
def test_classify_reads_a_tilt_on_a_wide_window(request, name):
    # Read through the base, the small-y bands of x near 1e12 resolve: no
    # value carries the rounding of e^{-gamma x}, and the verdicts are the
    # default window's.
    g = tf.gamma_transform(request.getfixturevalue(name), 0.5)
    wide = tf.classify(g, ClassifyConfig(x_hi=1e12, n_grid=56))
    assert [(e.cls, e.verdict) for e in wide.entries] == [
        (e.cls, e.verdict) for e in tf.classify(g).entries
    ]


def test_classify_tilted_staircase_signature(dyadic):
    # the tilt of the dominatedly-varying staircase stays in J but admits
    # no exponential rate: light-tailed big-jump law beyond the
    # convolution-equivalent families
    cfg = tf.ClassifyConfig(x_hi=1e5, n_grid=18)
    rep = tf.classify(tf.gamma_transform(dyadic, 0.5), cfg)
    assert rep.verdict("J") == "evidence-for"
    assert rep.verdict("L(gamma)") == "evidence-against"
    assert rep.verdict("S(gamma)") == "evidence-against"


def test_classify_tilted_ramp_plateau_signature(xu55):
    cfg = tf.ClassifyConfig(x_hi=1e5, n_grid=18)
    rep = tf.classify(tf.gamma_transform(xu55, 1.0), cfg)
    assert rep.verdict("J") == "evidence-for"
    assert rep.verdict("L(gamma)") == "evidence-against"
    assert rep.verdict("S(gamma)") == "evidence-against"
    assert rep.verdict("OS") == "evidence-for"


def test_classify_runs_on_every_builtin(request):
    cfg = tf.ClassifyConfig(x_hi=1e5, n_grid=14)
    for name in ("fkz", "xu55", "plateau2"):
        d = request.getfixturevalue(name)
        rep = tf.classify(d, cfg)
        assert {e.verdict for e in rep.entries} <= {
            "evidence-for",
            "evidence-against",
            "inconclusive",
        }


def test_classify_report_is_exportable(tmp_path, exp1):
    rep = tf.classify(exp1)
    from tailforge.export import export_grid

    export_grid(rep, "csv", tmp_path / "rep.csv")
    export_grid(rep, "json", tmp_path / "rep.json")
    assert (tmp_path / "rep.csv").read_text().startswith("class,verdict,detail")


def _j_inputs(profile: dict[float, list[float]]):
    """Synthetic ``_classify_j`` jobs and two-fold results: at each x of
    64, 128, ... the ratio 2 e^{prefix - log_den} reads profile[K][i], one
    band term per K (prefix sums are kept nondecreasing, so the values of a
    row must not fall with K)."""
    Ks = list(profile)
    jobs, conv2 = [], []
    for i in range(len(profile[Ks[0]])):
        jobs.append((64.0 * 2**i, Ks))
        cum = [math.log(profile[K][i] / 2.0) for K in Ks]
        bands = [[cum[0]]] + [[math.log(math.exp(b) - math.exp(a))] for a, b in zip(cum, cum[1:])]
        conv2.append((0.0, bands))
    return Ks, jobs, conv2


def test_classify_j_profile_stuck_low_reads_against():
    # The late minimum 0.45 lies just below _J_LO = 0.5.
    Ks, jobs, conv2 = _j_inputs({1.0: [0.2, 0.25, 0.3, 0.3], 4.0: [0.35, 0.4, 0.45, 0.45]})
    entry = functionals._classify_j(tf.QuadConfig(), Ks, jobs, conv2, os_against=False)
    assert (entry.verdict, len(entry.evidence)) == ("evidence-against", 2)
    assert entry.detail == "small-summand profile stuck at 0.45 at K=4"


def test_classify_j_middle_profile_reads_inconclusive():
    Ks, jobs, conv2 = _j_inputs({1.0: [0.5, 0.6, 0.6], 4.0: [0.7, 0.75, 0.8]})
    entry = functionals._classify_j(tf.QuadConfig(), Ks, jobs, conv2, os_against=False)
    assert (entry.verdict, entry.detail) == ("inconclusive", "profile at K=4 is 0.75")


@pytest.mark.parametrize("late, verdict", [(0.93, "evidence-for"), (0.87, "inconclusive")])
def test_classify_j_reads_for_from_j_hi(late, verdict):
    # late minima 0.93 and 0.87, either side of _J_HI = 0.9
    Ks, jobs, conv2 = _j_inputs({1.0: [0.8, 0.85, 0.85, 0.85], 4.0: [0.81, 0.86, late, late]})
    entry = functionals._classify_j(tf.QuadConfig(), Ks, jobs, conv2, os_against=False)
    assert entry.verdict == verdict


@pytest.mark.parametrize("low, verdict, detail", [
    (0.94, "evidence-for", "small-summand profile reaches 0.94 at K=4"),
    (0.91, "evidence-for", "small-summand profile reaches 0.91 at K=4"),
    (0.6, "inconclusive", "profile at K=4 is 0.6"),
], ids=["for", "for-below-smaller-K", "inconclusive"])
def test_classify_j_reads_the_largest_K_alone(low, verdict, detail):
    # K = 4 reads two more x than K = 1, where its profile sits lower: its
    # late minimum falls from K = 1's 0.98 to low, and the verdict reads
    # that minimum alone.  classify cannot build this: a larger K's late x
    # lie among the smaller K's, where its ratio is never the smaller.
    Ks, jobs, conv2 = _j_inputs({1.0: [0.97, 0.98, 0.98, 0.98], 4.0: [0.975, 0.99, 0.99, 0.99]})
    for i in (4, 5):
        jobs.append((64.0 * 2**i, [4.0]))
        conv2.append((0.0, [[math.log(low / 2.0)]]))
    entry = functionals._classify_j(tf.QuadConfig(), Ks, jobs, conv2, os_against=False)
    assert (entry.verdict, entry.detail, len(entry.evidence)) == (verdict, detail, 2)


def test_classify_j_without_three_points_per_K_has_no_grid():
    # The third x's ratio exceeds 1 beyond the quadrature slack, so that x
    # is refused and each K keeps two points.
    Ks, jobs, conv2 = _j_inputs({1.0: [0.9, 0.95, 1.5]})
    entry = functionals._classify_j(tf.QuadConfig(), Ks, jobs, conv2, os_against=False)
    assert (entry.verdict, entry.detail, entry.evidence) == (
        "inconclusive",
        "no usable (x, K) grid",
        (),
    )
