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
    tilt_compose_check,
)
from tailforge.distribution import Distribution  # noqa: E402
from tailforge.tailcurve import (  # noqa: E402
    AffineSegment,
    ConstSegment,
    ExpAffineSegment,
    ExpPowSegment,
    PowerSegment,
    TailCurve,
)

KINDS = ("const", "affine", "power", "exp", "exppow", "affinepow", "tilted")
# Segments whose tail strictly decreases, so every level inside is attained once.
STRICT = {"affine", "power", "exp", "exppow", "affinepow", "tilted"}
UNTILTED = tuple(k for k in KINDS if k != "tilted")


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
    if kind == "affinepow":
        linear = AffineSegment.from_endpoints(lo, hi, 0.0, -0.1 - a)
        return dataclasses.replace(linear, m=2 + int(3 * b))
    return ExpAffineSegment(lo=lo, hi=hi, rate=0.1 + a, tilt=0.05 + b)


@st.composite
def curves(draw, kinds=KINDS):
    """(curve, kinds): 1-5 segments, each starting at or below where the
    previous one ends (a downward jump is an atom)."""
    count = draw(st.integers(1, 5))
    unit = st.floats(0.0, 1.0, exclude_max=True)
    widths = [draw(st.floats(0.25, 4.0)) for _ in range(count)]
    kinds = [draw(st.sampled_from(kinds)) for _ in range(count)]
    segs, lo, level = [], 0.0, 0.0
    for kind, width in zip(kinds, widths):
        seg = _segment(kind, lo, lo + width, draw(unit), draw(unit))
        jump = draw(st.one_of(st.just(0.0), st.floats(0.01, 2.0))) if segs else 0.0
        seg = seg.with_offset(level - jump - seg.log_value_at(lo))
        segs.append(seg)
        lo, level = seg.hi, seg.log_value_at(seg.hi)
    return TailCurve(segs), kinds


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
    strict = [k for k, kind in enumerate(kinds) if kind in STRICT]
    if not strict:
        return
    seg = curve.segments[data.draw(st.sampled_from(strict))]
    frac = data.draw(st.floats(0.01, 0.99))
    lu = seg.log_value_at(seg.lo + frac * (seg.hi - seg.lo))
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
    curve, _ = curve_kinds
    atoms = Distribution(curve).atoms
    by_location = {a.location: a.log_mass for a in atoms}
    assert len(by_location) == len(atoms)
    for seg in curve.segments[1:]:
        x = seg.lo
        left, right = curve.log_tail_left(x), float(curve.log_tail(x))
        if right - left >= -4 * np.spacing(max(1.0, abs(left))):
            assert x not in by_location  # a continuous join up to rounding
            continue
        log_mass = by_location.pop(x)
        # log(F(x-) - F(x)), accurate to an ulp or two
        expected = left + math.log(-math.expm1(right - left))
        assert abs(log_mass - expected) <= 4 * np.spacing(abs(expected))
        assert math.exp(log_mass) == pytest.approx(math.exp(left) - math.exp(right), rel=1e-12)
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
    curve, _ = curve_kinds
    grid = np.asarray(fractions) * curve.truncation_hi
    report = tilt_compose_check(Distribution(curve), g1, g2, grid)
    assert report.passed, str(report)


@PROPERTY
@given(curves(kinds=UNTILTED), st.floats(0.01, 2.0), st.floats(0.01, 2.0), FRACTIONS)
def test_tilt_of_tilt_is_one_tilt_bit_for_bit(curve_kinds, g1, g2, fractions):
    # Tilting adds the rate to each segment's tilt: on an untilted law both
    # routes hold the same rate g1 + g2, hence the same segments and bits.
    curve, _ = curve_kinds
    d = Distribution(curve)
    composed = gamma_transform(gamma_transform(d, g1), g2).tail
    direct = gamma_transform(d, g1 + g2).tail
    assert composed.segments == direct.segments
    xs = np.asarray(fractions) * curve.truncation_hi
    assert composed.log_tail(xs).tobytes() == direct.log_tail(xs).tobytes()
    assert composed.log_density(xs, 0.25).tobytes() == direct.log_density(xs, 0.25).tobytes()


@PROPERTY
@given(curves(), st.floats(0.01, 2.0), st.integers(2, 4), FRACTIONS)
def test_power_of_tilt_is_tilt_of_power(curve_kinds, gamma, m, fractions):
    curve, _ = curve_kinds
    d = Distribution(curve)
    xs = np.asarray(fractions) * curve.truncation_hi
    power_of_tilt = power_tail(gamma_transform(d, gamma), m).tail.log_tail(xs)
    tilt_of_power = gamma_transform(power_tail(d, m), m * gamma).tail.log_tail(xs)
    scale = np.maximum(1.0, np.abs(tilt_of_power))
    assert np.all(np.abs(power_of_tilt - tilt_of_power) <= 1e-12 * scale)
