"""Property tests over random chained tail curves built from the segment forms."""

import dataclasses
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from tailforge import (  # noqa: E402
    conv2_tail,
    convn_tail_grid,
    gamma_transform,
    power_tail,
)
from tailforge import convolve  # noqa: E402
from tailforge.distribution import Distribution  # noqa: E402
from tailforge.tailcurve import (  # noqa: E402
    AffineSegment,
    ConstSegment,
    ExpAffineSegment,
    ExpPowSegment,
    PowerSegment,
    TailCurve,
)

KINDS = ("const", "affine", "power", "exp", "exppow", "affinepow")
# Segments whose tail strictly decreases, so every level inside is attained
# once; on a tilted curve every segment does.
STRICT = {"affine", "power", "exp", "exppow", "affinepow"}
# A curve's tilt rate: none, or one in [0.05, 1.05).
RATES = st.one_of(st.just(0.0), st.floats(0.05, 1.05, exclude_max=True))


def _segment(kind, lo, hi, a, b):
    """A segment of the given kind on [lo, hi); a, b in [0, 1) pick its shape."""
    if kind == "const":
        return ConstSegment(lo=lo, hi=hi, level=0.0)
    if kind == "affine":
        return AffineSegment.from_endpoints(lo, hi, 0.0, -0.1 - 3.0 * a)
    if kind == "power":
        return PowerSegment(lo=lo, hi=hi, exponent=-0.5 - 4.0 * a, shift=0.5 + b)
    if kind == "exp":
        return ExpAffineSegment(lo=lo, hi=hi, rate=0.05 + 2.0 * a)
    if kind == "exppow":
        return ExpPowSegment(lo=lo, hi=hi, beta=0.1 + 0.8 * a, coeff=0.2 + b)
    linear = AffineSegment.from_endpoints(lo, hi, 0.0, -0.1 - a)
    return dataclasses.replace(linear, m=2 + int(3 * b))


@st.composite
def curves(draw, rates=RATES):
    """(curve, kinds): 1-5 segments of any kinds, each starting at or below
    where the previous one ends (a downward jump is an atom), under one
    tilt rate drawn from ``rates``."""
    count = draw(st.integers(1, 5))
    unit = st.floats(0.0, 1.0, exclude_max=True)
    widths = [draw(st.floats(0.25, 4.0)) for _ in range(count)]
    kinds = [draw(st.sampled_from(KINDS)) for _ in range(count)]
    segs, lo, level = [], 0.0, 0.0
    for kind, width in zip(kinds, widths):
        seg = _segment(kind, lo, lo + width, draw(unit), draw(unit))
        jump = draw(st.one_of(st.just(0.0), st.floats(0.01, 2.0))) if segs else 0.0
        seg = seg.with_offset(level - jump - seg.log_value_at(lo))
        segs.append(seg)
        lo, level = seg.hi, seg.log_value_at(seg.hi)
    return TailCurve(segs, rate=draw(rates)), kinds


PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)
# Grid points as fractions of the truncation point.
FRACTIONS = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20)


@PROPERTY
@given(curves(), st.lists(st.floats(0.0, 1.0), min_size=2, max_size=40))
def test_log_tail_nonincreasing(curve_kinds, fractions):
    curve, _ = curve_kinds
    xs = np.sort(np.asarray(fractions) * curve.truncation_hi)
    vals = curve.log_tail(xs)
    assert np.all(np.diff(vals) <= 1e-12 * (1.0 + np.abs(vals[1:])))


@PROPERTY
@given(curves(), st.data())
def test_quantile_round_trips_continuous_levels(curve_kinds, data):
    curve, kinds = curve_kinds
    strict = [k for k, kind in enumerate(kinds) if kind in STRICT or curve.rate]
    if not strict:
        return
    seg = curve.segments[data.draw(st.sampled_from(strict))]
    frac = data.draw(st.floats(0.01, 0.99))
    lu = curve.log_tail(seg.lo + frac * (seg.hi - seg.lo))
    x = curve.quantile(math.exp(lu))
    assert seg.lo <= x <= seg.hi
    assert curve.log_tail(x) == pytest.approx(lu, rel=1e-9, abs=1e-9)


@PROPERTY
@given(curves(), st.lists(st.floats(0.0, 0.999), min_size=1, max_size=30))
def test_array_and_scalar_quantile_agree(curve_kinds, fractions):
    curve, _ = curve_kinds
    # levels from 1 down to just above the tail at the truncation point
    u = np.exp(np.asarray(fractions) * curve.log_tail(curve.truncation_hi))
    arr = curve.quantile(u)
    one = np.array([curve.quantile(float(v)) for v in u])
    # bisected segments stop once the widest bracket is within 1e-12 (1 + x)
    np.testing.assert_allclose(arr, one, rtol=4e-12, atol=4e-12)


@PROPERTY
@given(curves())
def test_derived_atom_mass_is_the_jump_at_each_join(curve_kinds):
    # A tilt's jumps are its base's, each scaled by e^{-rate x}: they are
    # read on the untilted curve, where rate * x does not swamp them.
    curve, _ = curve_kinds
    atoms = Distribution(curve).atoms
    by_location = {a.location: a.log_mass for a in atoms}
    assert len(by_location) == len(atoms)
    base = TailCurve(curve.segments)
    for seg in curve.segments[1:]:
        x = seg.lo
        left, right = base.log_tail_left(x), float(base.log_tail(x))
        if right - left >= -4 * np.spacing(max(1.0, abs(left))):
            assert x not in by_location  # a continuous join up to rounding
            continue
        log_mass = by_location.pop(x)
        # log(F(x-) - F(x)) - rate x, accurate to an ulp or two
        expected = left + math.log(-math.expm1(right - left)) - curve.rate * x
        assert abs(log_mass - expected) <= 4 * np.spacing(abs(expected))
        jump = (math.exp(left) - math.exp(right)) * math.exp(-curve.rate * x)
        assert math.exp(log_mass) == pytest.approx(jump, rel=1e-12)
    assert not by_location  # no atom away from a join


@PROPERTY
@given(curves(), st.integers(20, 200), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5))
def test_bracket_contains_conv2_tail(curve_kinds, cells, fractions):
    curve, _ = curve_kinds
    d = Distribution(curve)
    # nodes on the first join, so a jump there puts an atom on a node
    h = curve.segments[0].hi / cells
    x_max = h * math.floor(curve.truncation_hi / h)
    bg = convn_tail_grid(d, 2, x_max, h)
    for k in np.unique((np.asarray(fractions) * (len(bg.grid) - 1)).astype(int)):
        q = conv2_tail(d, float(bg.grid[k]))
        lo, up = math.exp(bg.log_lower[k]), math.exp(bg.log_upper[k])
        # conv2_tail sums quadratures, each within a relative 1e-9
        assert lo * (1 - 1e-8) <= q <= up * (1 + 1e-8)


@PROPERTY
@given(curves(), st.floats(0.01, 2.0), st.floats(0.01, 2.0), FRACTIONS)
def test_tilts_compose(curve_kinds, g1, g2, fractions):
    # On a tilted law (r + g1) + g2 and r + (g1 + g2) may differ in the
    # last ulp: the log tails agree to 1e-12 of max(1, |log value|).
    curve, _ = curve_kinds
    d = Distribution(curve)
    grid = np.asarray(fractions) * curve.truncation_hi
    composed = gamma_transform(gamma_transform(d, g1), g2).tail.log_tail(grid)
    direct = gamma_transform(d, g1 + g2).tail.log_tail(grid)
    assert np.all(np.abs(composed - direct) <= 1e-12 * np.maximum(1.0, np.abs(direct)))


@PROPERTY
@given(curves(rates=st.just(0.0)), st.floats(0.01, 2.0), st.floats(0.01, 2.0), FRACTIONS)
def test_tilt_of_tilt_is_one_tilt_bit_for_bit(curve_kinds, g1, g2, fractions):
    # Tilting adds gamma to the curve's rate: on an untilted law both routes
    # hold the same rate g1 + g2 over the same segments, hence the same bits,
    # on atoms and flat pieces too.
    curve, _ = curve_kinds
    d = Distribution(curve)
    composed = gamma_transform(gamma_transform(d, g1), g2)
    direct = gamma_transform(d, g1 + g2)
    assert composed.tail.segments == direct.tail.segments
    assert composed.tail.rate == direct.tail.rate
    assert composed.atoms == direct.atoms
    xs = np.asarray(fractions) * curve.truncation_hi
    for f in ("log_tail", "log_tail_left"):
        assert getattr(composed.tail, f)(xs).tobytes() == getattr(direct.tail, f)(xs).tobytes()
    assert (
        composed.tail.log_density(xs, 0.25).tobytes() == direct.tail.log_density(xs, 0.25).tobytes()
    )


@PROPERTY
@given(curves(), st.floats(0.01, 2.0), st.integers(2, 4), FRACTIONS)
def test_power_of_tilt_is_tilt_of_power(curve_kinds, gamma, m, fractions):
    curve, _ = curve_kinds
    d = Distribution(curve)
    xs = np.asarray(fractions) * curve.truncation_hi
    power_of_tilt = power_tail(gamma_transform(d, gamma), m)
    tilt_of_power = gamma_transform(power_tail(d, m), m * gamma)
    for f in ("log_tail", "log_tail_left"):
        want = getattr(tilt_of_power.tail, f)(xs)
        got = getattr(power_of_tilt.tail, f)(xs)
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))
    # The same atoms, tilted: the same locations, masses to a few ulps.
    assert [a.location for a in power_of_tilt.atoms] == [a.location for a in tilt_of_power.atoms]
    for a, b in zip(power_of_tilt.atoms, tilt_of_power.atoms):
        assert abs(a.log_mass - b.log_mass) <= 1e-12 * max(1.0, abs(b.log_mass))


# ------------------------------------------------------- staircase fold kernel


_KERNEL_CASES = st.tuples(
    st.integers(0, 3 * convolve._TILE + 5),
    st.sampled_from(["dense", "sparse", "zero-tiles"]),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(_KERNEL_CASES)
def test_fold_is_accurate_and_keeps_its_bits_from_every_first(case):
    # Every size up to three tiles and five cells, across the top cells'
    # edge, with factors of every kind, as a square and as a product.
    M, kind, square, seed = case
    rng = np.random.default_rng(seed)

    def factor():
        p = rng.random(M + 1) / (M + 1)
        if kind == "sparse":
            p[rng.random(M + 1) < 0.9] = 0.0
        elif kind == "zero-tiles":
            p[convolve._TILE : 2 * convolve._TILE] = 0.0
            p[(M * 2) // 3 :] = 0.0
        return p

    p1 = factor()
    p2 = p1 if square else factor()
    whole, overflow = convolve._convolve_defective(p1, 0.5, p2, 0.25, M)
    exact = [math.fsum((p1[: k + 1] * p2[k::-1]).tolist()) for k in range(M + 1)]
    np.testing.assert_allclose(whole, exact, rtol=(M + 1) * np.finfo(float).eps, atol=0)
    for first in range(1, M + 1):
        cells, ov = convolve._convolve_defective(p1, 0.5, p2, 0.25, M, first)
        assert np.array_equal(cells, whole[first:]), first
        assert ov == overflow
