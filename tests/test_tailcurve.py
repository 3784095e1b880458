"""Segment forms: values, inverses, densities."""

import dataclasses
import math
from functools import partial

import numpy as np
import pytest

import tailforge as tf
from tailforge.errors import ParameterError, TruncationError
from tailforge.quadrature import _gk15
from tailforge.tailcurve import (
    AffineSegment,
    ConstSegment,
    ExpAffineSegment,
    ExpPowSegment,
    PowerSegment,
    TailCurve,
    _SegmentTable,
    chain_segments,
    simplify_power,
)

AFFINE = AffineSegment.from_endpoints(1.0, 4.0, math.log(0.9), math.log(0.2))
# Each case is a segment and the tilt rate of a curve that reads it.
SEGMENTS = [
    (ConstSegment(lo=1.0, hi=4.0, level=math.log(0.3)), 0.0),
    (AFFINE, 0.0),
    (PowerSegment(lo=1.0, hi=4.0, log_coeff=0.0, exponent=-2.5, shift=1.0), 0.0),
    (ExpAffineSegment(lo=1.0, hi=4.0, log_v_lo=math.log(0.8), rate=0.7), 0.0),
    (ExpPowSegment(lo=1.0, hi=4.0, beta=0.5, coeff=1.3), 0.0),
    (ConstSegment(lo=1.0, hi=4.0, level=-0.5), 0.9),
    (ExpAffineSegment(lo=1.0, hi=4.0, log_v_lo=-0.5, rate=0.3), 0.4),
    # The cube of the affine piece: its power is a field.
    (dataclasses.replace(AFFINE, m=3), 0.0),
    # Two tilts, 0.4 and 0.25, and a log offset: one summed rate.
    (ExpAffineSegment(lo=1.0, hi=4.0, log_v_lo=-0.5, rate=0.3, log_offset=-0.3), 0.4 + 0.25),
    # A tilted square of the affine piece, bisected where it is inverted.
    (dataclasses.replace(AFFINE, m=2), 0.35),
]


def _seg_id(case):
    """A test id: the family's class name, or for the cases that were once
    wrapper classes the wrapper's old name, kept so each case keeps its id:
    "PowerOfSegment" for an affine power m > 1 and "TiltedSegment" for a
    piece under a rate.  Neither is a class now: m is a segment field and
    the rate is the curve's."""
    seg, rate = case
    if rate:
        return "TiltedSegment"
    return "PowerOfSegment" if getattr(seg, "m", 1) > 1 else type(seg).__name__


class _Tilted:
    """A segment read at a curve's tilt rate through a one-segment family
    table, the route a curve takes, with a segment's methods."""

    has_density = True

    def __init__(self, seg, rate):
        self.seg, self.rate, self.lo, self.hi = seg, rate, seg.lo, seg.hi
        self._table = _SegmentTable([seg], rate)

    def log_value(self, x):
        return self._table.log_value(np.asarray(x, dtype=float), 0)

    def log_value_at(self, x):
        return float(self.log_value(np.array([x]))[0])

    def log_density(self, x, lam=0.0):
        return self._table.log_density(np.asarray(x, dtype=float), 0, lam)

    def inverse(self, log_u):
        lu = np.array(log_u, dtype=float)
        return self._table.inverse(lu.ravel(), 0).reshape(lu.shape)[()]

    def with_offset(self, delta):
        return _Tilted(self.seg.with_offset(delta), self.rate)


def _piece(case):
    """The case's segment, or its reading at a nonzero rate."""
    seg, rate = case
    return _Tilted(seg, rate) if rate else seg


def _skip_flat(case):
    if isinstance(case[0], ConstSegment) and not case[1]:
        pytest.skip("a flat piece has no inverse")


@pytest.mark.parametrize("case", SEGMENTS, ids=_seg_id)
def test_inverse_roundtrip(case):
    _skip_flat(case)
    seg = _piece(case)
    for x in (1.2, 2.0, 3.7):
        assert seg.inverse(seg.log_value_at(x)) == pytest.approx(x, rel=1e-10)


@pytest.mark.parametrize("offset", [0.0, -0.3])
@pytest.mark.parametrize("case", SEGMENTS, ids=_seg_id)
def test_array_inverse_matches_elementwise(case, offset):
    _skip_flat(case)
    seg = _piece(case)
    seg = seg.with_offset(offset) if offset else seg
    start, end = seg.log_value_at(seg.lo), seg.log_value_at(seg.hi)
    # u = 1, above the start (clamps to lo), the ends, interior, below the end
    lu = np.concatenate([[0.0, start + 0.5, start, end, end - 0.5], np.linspace(start, end, 41)])
    before = lu.copy()
    arr = seg.inverse(lu)
    assert np.array_equal(lu, before)  # the levels are not overwritten
    assert arr.shape == lu.shape
    one = [seg.inverse(float(v)) for v in lu]
    assert all(np.ndim(v) == 0 for v in one)  # scalar in, scalar out
    np.testing.assert_allclose(arr, one, rtol=4 * np.finfo(float).eps, atol=0.0)
    # A tilted piece is bisected, down to width 1e-12 (1 + x).
    tol = 1e-12 * (1.0 + seg.hi) if case[1] else 0.0
    assert abs(arr[1] - seg.lo) <= tol and arr[4] == seg.hi
    assert np.all((arr >= seg.lo) & (arr <= seg.hi))


def test_one_segment_fast_path_matches_general_path(pareto3):
    seg = pareto3.tail.segments[0]
    split = TailCurve([seg.with_bounds(0.0, 5.0), seg.with_bounds(5.0, math.inf)])
    rng = np.random.default_rng(5)
    # every level below 1, so the one-segment curve skips the bookkeeping
    u = np.concatenate([[6.0**-3, 0.5, 1e-9], rng.uniform(1e-12, 1.0, 2000)])
    fast = pareto3.tail.quantile(u)
    np.testing.assert_allclose(fast, split.quantile(u), rtol=1e-14, atol=0.0)
    assert fast[1] == pytest.approx(2.0 ** (1 / 3) - 1, rel=1e-14)
    # u = 1 sits on the start value and takes the general path on both
    assert pareto3.tail.quantile(1.0) == 0.0 == split.quantile(1.0)


def test_quantile_lands_on_atoms_and_segment_ends(dyadic, pareto3):
    # dyadic_pareto: F = 4^-n on [2^n, 2^(n+1)), so the level 4^-n lands on
    # the atom at 2^n and a level just below it on the next atom.
    n = np.arange(1, 10)
    u = np.concatenate([4.0**-n, 4.0**-n * (1 - 1e-9)])
    want = np.concatenate([2.0**n, 2.0 ** (n + 1)])
    # a continuous curve: the end value of a segment lands on its end
    seg = pareto3.tail.segments[0]
    split = TailCurve([seg.with_bounds(0.0, 5.0), seg.with_bounds(5.0, math.inf)])
    for curve, levels, expect in ((dyadic.tail, u, want), (split, np.exp(split._ends[:1]), [5.0])):
        arr = curve.quantile(levels)
        assert np.array_equal(arr, expect)
        assert [curve.quantile(float(v)) for v in levels] == list(arr)


def test_bisected_quantile_is_the_same_in_any_batch():
    # Tilted segments have no closed inverse: each level is bisected from
    # its own upper end until its own interval is narrow, so a level's
    # quantile does not depend on the other levels of the call.
    u = np.random.default_rng(3).uniform(1e-12, 1.0, 2000)
    for base in (tf.weibull_heavy(0.5), tf.xu_piecewise(5.5, 4096.0)):
        curve = tf.gamma_transform(base, 0.5).tail
        batch = curve.quantile(u)
        assert [curve.quantile(float(v)) for v in u[:200]] == list(batch[:200])


BUILTINS = [
    tf.pareto(3.0),
    tf.exponential(1.0),
    tf.weibull_heavy(0.5),
    tf.dyadic_pareto(),
    tf.fkz_example(),
    tf.plateau_example(2.0),
    tf.xu_piecewise(5.5, 4096.0),
]


@pytest.mark.parametrize("gamma", [0.0, 0.5])
@pytest.mark.parametrize("law", BUILTINS, ids=lambda d: d.label)
def test_curve_density_is_each_segments_own(law, gamma):
    curve = (tf.gamma_transform(law, gamma) if gamma else law).tail
    segs = curve.segments
    mids = np.array([s.lo + (0.5 * (s.hi - s.lo) if math.isfinite(s.hi) else 1.0) for s in segs])
    inside = [k for k, (s, m) in enumerate(zip(segs, mids)) if s.lo < m < s.hi]
    for lam in (0.0, 0.25):
        want = [float(_seg_density(segs[k], mids[k : k + 1], lam, curve.rate)[0]) for k in inside]
        assert list(curve.log_density(mids[inside], lam)) == want
    assert curve.log_density(np.array([-1.0, mids[0]]))[0] == -math.inf


def _search(curve, lu):
    """quantile's segment per level, found by a plain search."""
    return np.searchsorted(-curve._ends, -lu, side="left")


@pytest.mark.parametrize("gamma", [0.0, 0.5])
@pytest.mark.parametrize("law", BUILTINS, ids=lambda d: d.label)
def test_quantile_segment_table_matches_the_search(law, gamma, monkeypatch):
    curve = (tf.gamma_transform(law, gamma) if gamma else law).tail
    lowest = max(float(curve._ends[-1]), math.log(5e-324))  # log u of a positive u
    rng = np.random.default_rng(29)
    # Segment start and end values and the bucket edges, with their
    # neighbours one ulp away, and levels far below the table's last bucket.
    edges = np.concatenate([curve._starts, curve._ends, -np.arange(4097) / 64.0])
    edges = np.concatenate([edges, np.nextafter(edges, 1.0), np.nextafter(edges, -1.0)])
    lu = np.concatenate(
        [
            np.log(1.0 - rng.random(50_000)),
            -rng.uniform(0.0, -lowest, 50_000),
            edges,
            [0.0, -64.0, -64.5, -200.0, -700.0, lowest],
        ]
    )
    lu = lu[(lu >= lowest) & (lu <= 0.0)]
    assert np.array_equal(curve._segment_of_level(lu), _search(curve, lu))

    # quantile's bits: against the plain search on every level, and
    # against one call per level on a sample of them.
    u = np.exp(lu)
    u = np.concatenate([u[(u > 0) & (np.log(u) >= lowest)], [1.0]])
    table = curve.quantile(u)
    with monkeypatch.context() as m:
        m.setattr(curve, "_segment_of_level", lambda lu: _search(curve, lu))
        assert np.array_equal(table, curve.quantile(u))
    some = np.concatenate([rng.choice(u.size, 300, replace=False), [u.size - 1]])
    assert [curve.quantile(float(v)) for v in u[some]] == list(table[some])
    assert curve.quantile(1.0) == 0.0


def _fast_vs_masked(curve, xs, monkeypatch):
    """log_tail of points in one segment, against the masked path."""
    table = curve._table
    log_value = type(table).log_value
    ranks = []  # np.ndim of the segment index of each call on the curve's table

    def recorded(self, x, k):
        if self is table:
            ranks.append(np.ndim(k))
        return log_value(self, x, k)

    with monkeypatch.context() as m:
        m.setattr(type(table), "log_value", recorded)
        # A negative point sends the call through the mask of points below 0,
        # with one segment index per point.
        masked = curve.log_tail(np.append(xs, -1.0))
        assert ranks == [1]
        # Points in one segment pass its index alone.
        fast = curve.log_tail(xs)
        one = curve.log_tail(float(xs[0]))
        assert ranks == [1, 0, 0]
    assert masked[-1] == 0.0
    assert np.array_equal(fast, masked[:-1])
    assert one == masked[0]


@pytest.mark.parametrize("case", SEGMENTS, ids=_seg_id)
def test_log_tail_fast_path_matches_masked_path(case, monkeypatch):
    seg, rate = case
    curve = TailCurve([ConstSegment(lo=0.0, hi=1.0, level=0.0), seg], rate=rate)
    # the join at 1, interior points, and the truncation point
    _fast_vs_masked(curve, np.concatenate([[1.0], np.linspace(1.0, 4.0, 31)[1:]]), monkeypatch)
    _fast_vs_masked(curve, np.array([0.0, 0.25, 0.999]), monkeypatch)


def test_log_tail_fast_path_on_piecewise_laws(request, monkeypatch):
    for name in ("dyadic", "xu55", "plateau2", "fkz"):
        curve = request.getfixturevalue(name).tail
        n = len(curve.segments)
        for k in sorted({0, 1, n // 2, n - 1}):
            seg = curve.segments[k]
            hi = seg.hi if math.isfinite(seg.hi) else seg.lo + 100.0
            xs = np.linspace(seg.lo, hi, 17)[:-1]  # from the join, short of the next
            _fast_vs_masked(curve, xs, monkeypatch)
        # points in two segments, or below 0, take the masked path
        join = curve.segments[1].lo
        for x in ([0.5 * join, join, 1.5 * join], [-2.0, join, 0.5 * join]):
            assert np.array_equal(curve.log_tail(np.array(x)), [curve.log_tail(v) for v in x])
        assert curve.log_tail(np.array([-2.0, join]))[0] == 0.0


def test_log_tail_left_array_matches_scalar(request):
    for name in ("exp1", "pareto3", "dyadic", "plateau2", "fkz", "xu55"):
        curve = request.getfixturevalue(name).tail
        bps = curve.breakpoints()
        bps = bps[bps <= curve.truncation_hi][:60]
        xs = np.concatenate([[-1.0, 0.0], bps, bps + 0.5, np.geomspace(1e-3, 1e3, 50)])
        xs = xs[xs <= curve.truncation_hi]
        arr = curve.log_tail_left(xs)
        assert arr.shape == xs.shape
        assert np.array_equal(arr, [curve.log_tail_left(float(x)) for x in xs])
        assert isinstance(curve.log_tail_left(2.0), float)
    dyadic = request.getfixturevalue("dyadic").tail
    # at an atom the left limit is above the value; x <= 0 reads a tail of 1
    left = dyadic.log_tail_left(np.array([-3.0, 0.0, 4.0]))
    assert left[0] == left[1] == 0.0 and left[2] > dyadic.log_tail(4.0)


def test_log_tail_left_refuses_nan_and_truncation(xu55):
    with pytest.raises(ParameterError):
        xu55.tail.log_tail_left(np.array([1.0, math.nan]))
    with pytest.raises(TruncationError):
        xu55.tail.log_tail_left(np.array([1.0, 2.0 * xu55.tail.truncation_hi]))


def test_log_tail_refuses_nan(pareto3):
    with pytest.raises(ParameterError):
        pareto3.tail.log_tail(math.nan)
    with pytest.raises(ParameterError):
        pareto3.tail.log_tail(np.array([1.0, math.nan]))


def test_log_density_refuses_nan(pareto3):
    with pytest.raises(ParameterError, match="NaN"):
        pareto3.tail.log_density(np.array([1.0, math.nan]))


def test_log_density_refuses_points_past_the_truncation(plateau2):
    trunc = plateau2.tail.truncation_hi
    with pytest.raises(TruncationError):
        plateau2.tail.log_density(np.array([1.0, 10.0 * trunc]))


def test_log_density_at_infinity_is_minus_infinity(pareto3):
    with np.errstate(all="raise"):
        out = pareto3.tail.log_density(np.array([math.inf, 1.0]))
    assert out[0] == -math.inf and math.isfinite(out[1])


def test_quantile_refuses_nan(pareto3, dyadic):
    # Every level outside (0, 1] is refused, NaN at any position among them.
    # The levels are checked on log u, where u = 0 reads -inf and u < 0 NaN,
    # and their logs raise no RuntimeWarning.
    last_nan = np.full(10**5, 0.5)
    last_nan[-1] = math.nan
    bads = (math.nan, np.array([0.5, math.nan]), last_nan, 0.0, np.array([0.5, 0.0]), -1.0)
    for curve in (pareto3.tail, dyadic.tail):
        for bad in (*bads, 1.5, 1.0 + 2.0**-52):
            with pytest.raises(ParameterError, match=r"^quantile level u must lie in \(0, 1\]$"):
                curve.quantile(bad)
        empty = curve.quantile(np.array([]))
        assert isinstance(empty, np.ndarray) and empty.shape == (0,)


def test_quantile_below_a_flat_infinite_tail():
    # F never falls below e^-1: the last piece is flat out to infinity, so
    # its end value is its level, and a lower level is refused like one
    # below a truncated tail.
    curve = TailCurve(
        [
            ExpAffineSegment(lo=0.0, hi=1.0, log_v_lo=0.0, rate=1.0),
            ConstSegment(lo=1.0, hi=math.inf, level=-1.0),
        ]
    )
    assert list(curve._ends) == [-1.0, -1.0]
    assert curve.quantile(math.exp(-1.0)) == 1.0
    assert curve.quantile(0.3679) == pytest.approx(-math.log(0.3679), rel=1e-15)
    for u in (0.3678, np.array([0.5, 0.1])):
        with pytest.raises(TruncationError, match=r"\(log u < -1\.0\)$"):
            curve.quantile(u)


@pytest.mark.parametrize("case", SEGMENTS, ids=_seg_id)
def test_density_matches_finite_difference(case):
    seg = _piece(case)
    if not seg.has_density:
        pytest.skip("flat segment carries no density")
    h = 1e-6
    for x in (1.5, 2.5, 3.5):
        f = math.exp(float(seg.log_density(np.array([x]))[0]))
        num = -(math.exp(seg.log_value_at(x + h)) - math.exp(seg.log_value_at(x - h))) / (2 * h)
        assert f == pytest.approx(num, rel=1e-5)


def test_affine_from_endpoints_hits_both_ends():
    seg = AffineSegment.from_endpoints(2.0, 10.0, math.log(0.5), math.log(0.001))
    assert seg.log_value_at(2.0) == pytest.approx(math.log(0.5), abs=1e-12)
    assert seg.log_value_at(10.0) == pytest.approx(math.log(0.001), abs=1e-14)


def test_anchored_affine_precision_at_huge_scale():
    # the ramp from x_n^-a to x_n^-(a+1) at x_n = 2^53: the ratio at a shift
    # t below the top must stay exact despite the scale
    xn = 2.0**53
    a = 5.5
    seg = AffineSegment.from_endpoints(xn, 2 * xn, -a * math.log(xn), -(a + 1) * math.log(xn))
    t = 4.0  # representable at this scale
    ratio = math.exp(seg.log_value_at(2 * xn - t) - seg.log_value_at(2 * xn))
    assert ratio == pytest.approx(1 + t - t / xn, rel=1e-13)


def test_simplify_power_folds_closed_forms():
    exp_seg = ExpAffineSegment(lo=0.0, hi=10.0, log_v_lo=0.0, rate=1.0)
    cubed = simplify_power(exp_seg, 3)
    assert isinstance(cubed, ExpAffineSegment)
    assert cubed.rate == 3.0
    pw = simplify_power(PowerSegment(lo=1.0, hi=9.0, log_coeff=0.0, exponent=-2.0), 2)
    assert isinstance(pw, PowerSegment)
    assert pw.exponent == -4.0


def _law(case):
    """A law whose curve reads the case's segment on [1, 4) at its rate,
    after a flat piece at 1 on [0, 1)."""
    seg, rate = case
    return tf.Distribution(TailCurve([ConstSegment(lo=0.0, hi=1.0, level=0.0), seg], rate=rate))


# (label, stack builder, rate the stack adds outside the law's own rate,
#  factor applied to the law's own rate, power the stack applies,
#  log tail the stack means, from the law's log tail v at x)
STACKS = [
    (
        "tilt-of-power",
        lambda d: tf.gamma_transform(tf.power_tail(d, 2), 0.3),
        0.3,
        2,
        2,
        lambda v, x: 2 * v - 0.3 * x,
    ),
    (
        "power-of-tilt",
        lambda d: tf.power_tail(tf.gamma_transform(d, 0.3), 2),
        0.6,
        2,
        2,
        lambda v, x: 2 * (v - 0.3 * x),
    ),
    (
        "tilts-of-powers",
        lambda d: tf.gamma_transform(
            tf.gamma_transform(tf.power_tail(tf.power_tail(d, 2), 3), 0.2), 0.1
        ),
        0.1 + 0.2,
        6,
        6,
        lambda v, x: 6 * v - 0.2 * x - 0.1 * x,
    ),
]


@pytest.mark.parametrize("stack", STACKS, ids=lambda s: s[0])
@pytest.mark.parametrize("case", SEGMENTS, ids=_seg_id)
def test_normal_form_reads_wrapper_stacks(case, stack):
    # A stack of tilts and powers is one segment of the piece's own family,
    # with the power folded into the closed form (an affine piece, like
    # every other family, absorbs it as its m), under the curve's summed rate.
    _, build, outer_rate, own_factor, applied, meaning = stack
    seg, rate = case
    d = _law(case)
    curve = build(d).tail
    stacked = curve.segments[1]
    assert type(stacked) is type(seg)
    assert curve.rate == pytest.approx(outer_rate + own_factor * rate, rel=1e-15)
    if isinstance(seg, AffineSegment):
        assert stacked.m == applied * seg.m
    xs = np.array([1.0, 1.7, 2.9, 3.9])
    got = curve.log_tail(xs)
    np.testing.assert_allclose(got, meaning(d.tail.log_tail(xs), xs), rtol=1e-13, atol=1e-13)
    np.testing.assert_allclose(stacked.log_value(xs) - curve.rate * xs, got, rtol=1e-13, atol=1e-13)
    want = applied * seg.log_value(xs)
    np.testing.assert_allclose(stacked.log_value(xs), want, rtol=1e-13, atol=1e-13)


def test_normal_form_of_closed_form_is_itself():
    seg, rate = SEGMENTS[2]
    assert rate == 0.0
    assert simplify_power(seg, 1) is seg
    d = _law(SEGMENTS[2])
    assert tf.power_tail(d, 1) is d and d.tail.rate == 0.0


def test_power_of_tilt_is_stored_as_tilt_of_power():
    xs = np.array([1.0, 2.5, 3.9])
    tilted = _law(SEGMENTS[6])
    squared = tf.power_tail(tilted, 2).tail
    assert isinstance(squared.segments[1], ExpAffineSegment)
    assert squared.rate == 2 * tilted.tail.rate
    np.testing.assert_allclose(squared.log_tail(xs), 2 * tilted.tail.log_tail(xs), rtol=1e-14)
    # The affine piece folds the power as well, with the tilt outside it.
    affine = tf.gamma_transform(_law((AFFINE, 0.0)), 0.4)
    squared = tf.power_tail(affine, 2).tail
    assert squared.segments[1] == dataclasses.replace(AFFINE, m=2) and squared.rate == 0.8
    np.testing.assert_allclose(squared.log_tail(xs), 2 * affine.tail.log_tail(xs), rtol=1e-14)
    cubed = tf.power_tail(tf.power_tail(affine, 2), 3).tail
    assert cubed.segments[1] == dataclasses.replace(AFFINE, m=6) and cubed.rate == 3 * 0.8


def test_chain_rejects_upward_jump():
    a = ConstSegment(lo=0.0, hi=1.0, level=math.log(0.5))
    b = ConstSegment(lo=1.0, hi=2.0, level=math.log(0.9))
    with pytest.raises(ParameterError):
        chain_segments([a, b])


def test_chain_snaps_roundoff():
    a = ConstSegment(lo=0.0, hi=1.0, level=-1.0)
    b = ConstSegment(lo=1.0, hi=2.0, level=-1.0 + 1e-13)
    segs = chain_segments([a, b])
    assert segs[1].log_value_at(1.0) == -1.0


def test_curve_requires_contiguity():
    a = ConstSegment(lo=0.0, hi=1.0, level=0.0)
    b = ConstSegment(lo=1.5, hi=2.0, level=-1.0)
    with pytest.raises(ParameterError):
        TailCurve([a, b])


def test_curve_rejects_tail_above_one():
    with pytest.raises(ParameterError):
        TailCurve([ConstSegment(lo=0.0, hi=1.0, level=0.5)])


def test_segment_validation():
    with pytest.raises(ParameterError):
        AffineSegment(lo=0.0, hi=1.0, log_v_hi=0.0, ratio=0.5)  # increasing
    with pytest.raises(ParameterError):
        PowerSegment(lo=0.0, hi=1.0, exponent=1.0)
    with pytest.raises(ParameterError):
        ExpPowSegment(lo=0.0, hi=1.0, beta=1.5)
    with pytest.raises(ParameterError):
        ConstSegment(lo=2.0, hi=1.0)
    for rate in (-0.5, math.inf, math.nan):
        with pytest.raises(ParameterError):
            TailCurve([ConstSegment(lo=0.0, hi=1.0)], rate=rate)
    with pytest.raises(ParameterError):  # a power of an affine piece still ends at a finite point
        AffineSegment(lo=1.0, hi=math.inf, log_v_hi=-1.0, ratio=-1.0, m=2)


@pytest.mark.parametrize("m", [0, -1, 2.5, 2.0, True, "2", None])
def test_affine_power_must_be_a_positive_integer(m):
    with pytest.raises(ParameterError, match="affine power m"):
        AffineSegment(lo=0.0, hi=1.0, log_v_hi=-1.0, ratio=-0.5, m=m)


def test_nested_powers_fold_into_one(xu55):
    # (F^2)^3 is one affine power m = 6 per ramp, as F^6 is; the two differ
    # in the rounding of the snap offsets and of the density's constants.
    nested = tf.power_tail(tf.power_tail(xu55, 2), 3).tail
    direct = tf.power_tail(xu55, 6).tail
    assert [type(s) for s in nested.segments] == [type(s) for s in direct.segments]
    assert {s.m for s in nested.segments if isinstance(s, AffineSegment)} == {6}
    bps = direct.breakpoints()
    xs = np.concatenate([bps, np.nextafter(bps, 0.0), np.geomspace(1e-3, bps[-1], 400)])
    for f in (TailCurve.log_tail, TailCurve.log_tail_left, TailCurve.log_density):
        np.testing.assert_allclose(f(nested, xs), f(direct, xs), rtol=1e-14, atol=1e-14)
    u = np.exp(np.linspace(0.0, -700.0, 300))
    np.testing.assert_allclose(nested.quantile(u), direct.quantile(u), rtol=1e-14, atol=0.0)


def test_affine_segment_refuses_an_infinite_end():
    # Its positivity check would read 1 + ratio * (lo - inf) = +inf > 0, and
    # the segment log F = +inf.
    with pytest.raises(ParameterError, match="finite upper end"):
        AffineSegment(lo=0.0, hi=math.inf, log_v_hi=-1.0, ratio=-1.0)


@pytest.mark.parametrize(
    "law, lam",
    [
        (tf.pareto(3.0), 0.5),
        (tf.exponential(1.0), 1.0),
        (tf.gamma_transform(tf.pareto(3.0), 0.5), 0.5),
    ],
    ids=["pareto3", "exp1", "tilted-pareto3"],
)
def test_weighted_density_refuses_infinite_points(law, lam):
    # e^{lam x} f(x) at x = +-inf has no value to read (inf * 0 or inf - inf).
    for x in (math.inf, -math.inf):
        with pytest.raises(ParameterError):
            law.tail.log_density(np.array([1.0, x]), lam)
    assert np.isfinite(law.tail.log_density(np.array([1.0, 2.0]), lam)).all()
    assert law.tail.log_density(np.array([math.inf]))[0] == -math.inf


# The family table against the per-segment evaluation it replaced: each
# point's segment found by search, and that segment's own formula run on
# its points (the segment's fields as scalars).
_TABLE_LAWS = [
    tf.pareto(3.0),
    tf.exponential(1.0),
    tf.weibull_heavy(0.5),
    tf.dyadic_pareto(),
    tf.fkz_example(),
    tf.plateau_example(2.0),
    tf.xu_piecewise(5.5, 4096.0),
    tf.xu_piecewise(5.5, 4096.0, m=2),  # power-of segments
]


def _seg_value(seg, x, rate):
    """log G(x) = log F(x) - rate x by the segment's own formula."""
    return seg.log_value(x) - rate * x if rate else seg.log_value(x)


def _seg_density(seg, x, lam, rate):
    """log(e^{lam x} g(x)), g the density of G(x) = F(x) e^{-rate x}, by the
    segment's own formulas: e^{-rate x} (f + rate F) with the rates fused."""
    if not rate:
        return seg.log_density(x, lam)
    return np.logaddexp(seg.log_density(x), math.log(rate) + seg.log_value(x)) + (lam - rate) * x


def _per_segment(curve, x, fn, below):
    out = np.full_like(x, below)
    pos = np.flatnonzero(x >= 0)
    k = np.clip(np.searchsorted(curve._los, x[pos], side="right") - 1, 0, len(curve.segments) - 1)
    for j in np.unique(k):
        sel = pos[k == j]
        out[sel] = fn(curve.segments[j], x[sel])
    return out


def _per_segment_left(curve, x):
    out = _per_segment(curve, x, lambda seg, y: _seg_value(seg, y, curve.rate), 0.0)
    out[x <= 0] = 0.0
    j = np.searchsorted(curve._los, x, side="left")
    for i in np.flatnonzero((j > 0) & (j < len(curve._los))):
        if curve._los[j[i]] == x[i]:
            out[i] = _seg_value(curve.segments[j[i] - 1], x[i : i + 1], curve.rate)[0]
    return out


@pytest.mark.parametrize("gamma", [None, 0.3, 0.5, 1.0])
@pytest.mark.parametrize("base", _TABLE_LAWS, ids=lambda d: d.label)
def test_family_table_matches_per_segment_evaluation(base, gamma):
    law = base if gamma is None else tf.gamma_transform(base, gamma)
    curve = law.tail
    segs, trunc, rate = curve.segments, curve.truncation_hi, curve.rate
    bps = curve.breakpoints()
    top = trunc if math.isfinite(trunc) else 1e6
    rng = np.random.default_rng(11)
    xs = np.concatenate([
        rng.uniform(0.0, min(top, 1e4), 300),
        np.exp(rng.uniform(-5.0, math.log(top), 300)),
        bps, np.nextafter(bps, -math.inf), np.nextafter(bps, math.inf),
        [0.0, -1.0, trunc if math.isfinite(trunc) else math.inf],
    ])
    xs = xs[xs <= trunc]
    finite = xs[np.isfinite(xs)]
    same = lambda got, want: got.tobytes() == np.asarray(want, dtype=float).tobytes()
    value = lambda s, y: _seg_value(s, y, rate)
    assert same(curve.log_tail(xs), _per_segment(curve, xs, value, 0.0))
    for lam in (0.0, 0.25):
        want = _per_segment(curve, finite, lambda s, y: _seg_density(s, y, lam, rate), -math.inf)
        assert same(curve.log_density(finite, lam), want)
    assert same(curve.log_tail_left(xs), _per_segment_left(curve, xs))
    at = lambda s, x: float(value(s, np.array([x]))[0])
    assert same(curve._starts, [at(s, s.lo) for s in segs])
    ends = [at(s, s.hi) if math.isfinite(s.hi) else -math.inf for s in segs]
    assert same(curve._ends, ends)


def _invert_in_segment(seg, lu, rate):
    """The per-segment inversion the family table replaced: the segment's
    closed inverse, or bisection of that segment alone at the rate."""
    if not rate and not isinstance(seg, ConstSegment):
        return seg.inverse(lu)
    if math.isfinite(seg.hi):
        hi = np.full_like(lu, seg.hi)
    else:
        hi = np.full_like(lu, max(seg.lo + 1.0, 1.0))
        for _ in range(400):
            short = _seg_value(seg, hi, rate) > lu
            if not short.any():
                break
            hi[short] *= 2.0
    lo = np.full_like(lu, seg.lo)
    live = np.arange(lu.size)
    for _ in range(200):
        mid = 0.5 * (lo[live] + hi[live])
        too_high = _seg_value(seg, mid, rate) > lu[live]
        lo[live[too_high]] = mid[too_high]
        hi[live[~too_high]] = mid[~too_high]
        live = live[hi[live] - lo[live] > 1e-12 * (1.0 + np.abs(hi[live]))]
        if not live.size:
            break
    return hi


# Mixed groups (power-of, affine and flat pieces; stretched exponential and
# flat pieces), and a last segment with an infinite end.
@pytest.mark.parametrize("gamma", [None, 0.5])
@pytest.mark.parametrize(
    "base",
    [tf.xu_piecewise(5.5, 4096.0, m=2), tf.plateau_example(2.0), tf.pareto(3.0)],
    ids=lambda d: d.label,
)
def test_family_table_inverse_matches_per_segment_inversion(base, gamma):
    curve = (base if gamma is None else tf.gamma_transform(base, gamma)).tail
    rng = np.random.default_rng(13)
    lu, k = [], []
    for j, (start, end) in enumerate(zip(curve._starts, curve._ends)):
        if not start > end:
            continue  # a flat piece: no level lies inside it
        end = max(end, start - 50.0)
        levels = [*rng.uniform(end, start, 6), end, np.nextafter(start, -math.inf)]
        lu += levels
        k += [j] * len(levels)
    order = rng.permutation(len(lu))
    lu, k = np.array(lu)[order], np.array(k)[order]
    assert len(np.unique(k)) > (10 if len(curve.segments) > 1 else 0)
    want = np.empty_like(lu)
    for j in np.unique(k):
        want[k == j] = _invert_in_segment(curve.segments[j], lu[k == j], curve.rate)
    assert np.array_equal(curve._table.inverse(lu, k), want)


def test_quantile_passes_one_segment_index(plateau2, pareto3, monkeypatch):
    ranks = []  # np.ndim of the segment index of each call on a curve's table
    inverse = type(plateau2.tail._table).inverse

    def recorded(self, lu, k):
        if self in (plateau2.tail._table, pareto3.tail._table):
            ranks.append(np.ndim(k))
        return inverse(self, lu, k)

    curve = plateau2.tail
    first = np.exp(np.linspace(curve._starts[0], curve._ends[0], 9)[1:-1])
    third = np.exp(np.linspace(curve._starts[2], curve._ends[2], 9)[1:-1])
    # 1 is not inside a segment: it lands on the start of the first
    calls = ([*first, 1.0], first[0], [*first, *third], [0.5], 0.5)
    with monkeypatch.context() as m:
        m.setattr(type(curve._table), "inverse", recorded)
        got = [curve.quantile(np.array(u)) for u in calls[:3]]
        assert ranks == [0, 0, 1]
        pareto3.tail.quantile(np.array(calls[3])), pareto3.tail.quantile(calls[4])
        assert ranks == [0, 0, 1, 0, 0]
    assert np.array_equal(got[2], [curve.quantile(v) for v in calls[2]])
    assert got[0][-1] == 0.0 and got[1] == got[0][0]


def test_multidimensional_points_keep_their_shape(plateau2):
    curve = plateau2.tail
    xs = np.array([[0.5, 3.0], [20.0, 100.0]])
    for fn in (curve.log_tail, curve.log_density, curve.log_tail_left):
        got = fn(xs)
        assert got.shape == xs.shape
        assert got.tobytes() == fn(xs.ravel()).tobytes()
    u = np.array([[0.5, 0.3], [0.2, 0.1]])
    got = tf.quantile_from_tail(plateau2, u)
    assert got.shape == u.shape
    assert got.tobytes() == tf.quantile_from_tail(plateau2, u.ravel()).tobytes()


def _gk15_nodes(los, his):
    """The nodes ``_gk15`` hands its integrand for the panels [los, his]:
    one panel per row, ascending, in the rule's own memory layout."""
    seen = []
    record = lambda y: seen.append(y) or np.zeros(y.shape)
    _gk15(record, np.asarray(los, dtype=float), np.asarray(his, dtype=float))
    return seen[0]


_PANEL_OPS = {
    "classify": tf.classify,
    "mean": lambda d: tf.partial_moment(d, 0, 0.0, math.inf),
    "exp_moment(0.1)": lambda d: tf.exp_moment(d, 0.1),
}


@pytest.mark.parametrize("op", _PANEL_OPS)
@pytest.mark.parametrize("gamma", [0.0, 0.5])
@pytest.mark.parametrize("law", BUILTINS, ids=lambda d: d.label)
def test_each_panel_lies_in_its_middle_nodes_segment(law, gamma, op, monkeypatch):
    # Every panel the quadrature integrands evaluate during one of classify,
    # the mean and exp_moment(., 0.1): its middle node lies at or above 0,
    # and each node's own segment, looked up from the row's side, is the
    # row's, but in rows at most 256 ulps wide, where rounding may cross a
    # join.
    d = tf.gamma_transform(law, gamma) if gamma else law
    real = TailCurve._on_panels
    rows = []

    def segment(curve, v, left):
        los = curve._los
        return np.where(left, los.searchsorted(v, "left"), los.searchsorted(v, "right"))

    def checked(curve, x, left=False, lam=None):
        mid = x[:, 7]
        assert (mid >= 0).all()
        side = np.broadcast_to(np.ravel(left), mid.shape)
        off = (segment(curve, x, side[:, None]) != segment(curve, mid, side)[:, None]).any(axis=1)
        wide = np.ptp(x, axis=1) > 256 * np.spacing(np.abs(x).max(axis=1))
        assert not (off & wide).any()
        rows.append(len(x))
        return real(curve, x, left, lam)

    monkeypatch.setattr(TailCurve, "_on_panels", checked)
    try:
        _PANEL_OPS[op](d)
    except (tf.DivergenceError, tf.TruncationError):
        # Only exp_moment refuses a law, and before any panel.
        assert op == "exp_moment(0.1)" and not rows
        return
    assert sum(rows) > (1000 if op == "classify" else 0)


def test_a_middle_node_on_a_join_reads_its_side():
    # A panel centred on the atom at 2 of the 0.5 tilt of dyadic_pareto:
    # read from the left its row takes the segment below the join, else
    # the one starting at it.
    curve = tf.gamma_transform(tf.dyadic_pareto(), 0.5).tail
    k = int(np.flatnonzero(curve._los == 2.0)[0])
    x = np.repeat(_gk15_nodes([1.0], [3.0]), 2, axis=0)
    assert x[0, 7] == 2.0
    left = np.array([[True], [False]])
    for lam in (None, 0.0, 0.25):
        fn = curve._table.log_value if lam is None else partial(curve._table.log_density, lam=lam)
        got = curve._on_panels(x, left, lam)
        assert got[0].tobytes() == fn(x[0], k - 1).tobytes()
        assert got[1].tobytes() == fn(x[1], k).tobytes()
        assert (got[0] > got[1]).all()


@pytest.mark.parametrize("gamma", [0.0, 0.5])
@pytest.mark.parametrize("law", BUILTINS, ids=lambda d: d.label)
def test_rows_in_any_order_keep_the_per_point_values(law, gamma):
    # A 2-D array is read point by point, whatever its rows: rows inside
    # one segment in random order, and rows whose two ends share a segment
    # while their middle points do not, in either memory layout.
    curve = (tf.gamma_transform(law, gamma) if gamma else law).tail
    los = curve._los[:200]
    top = min(2.0 * los[-1] + 10.0, curve.truncation_hi)
    his = np.append(curve._los[1:], top)[:200]
    rng = np.random.default_rng(5)
    j = rng.integers(0, len(los), (2, 128, 1))
    inside, ends = los[j] + (his[j] - los[j]) * rng.random((2, 128, 15))
    ends[:, 1:-1] = rng.uniform(-1.0, top, (128, 13))
    for x in (np.concatenate([inside, ends]), np.asfortranarray(np.concatenate([ends, inside]))):
        flat = x.ravel()
        assert curve.log_tail(x).tobytes() == curve.log_tail(flat).reshape(x.shape).tobytes()
        for lam in (0.0, 0.25):
            want = curve.log_density(flat, lam).reshape(x.shape)
            assert curve.log_density(x, lam).tobytes() == want.tobytes()
