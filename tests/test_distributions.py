"""Built-in distributions: exact tails, moments, quantiles, sampling."""

import hashlib
import math

import numpy as np
import pytest

import tailforge as tf
from tailforge import quadrature
from tailforge.distribution import _BLOCK
from tailforge.errors import DivergenceError, ParameterError, ToleranceError, TruncationError
from tailforge.tailcurve import ConstSegment, ExpAffineSegment, TailCurve

from conftest import ks_statistic, measure_integral

LOG4 = math.log(4.0)
KS_999 = 1.9495  # sqrt(-ln(0.0005)/2): 0.999 quantile of the KS statistic


# ------------------------------------------------------------- construction


def test_fkz_breakpoint_sequence():
    # iterate a_{n+1} = e^{a_n}/a_n directly (independent of the builtin)
    a = [0.0, 1.0]
    for _ in range(4):
        a.append(math.exp(a[-1]) / a[-1])
    assert a[2] == pytest.approx(math.e, rel=1e-15)
    assert a[3] == pytest.approx(5.5749, rel=1e-4)
    assert a[4] == pytest.approx(47.3, rel=1e-2)
    got = tf.fkz_a_sequence()
    assert got[:5] == pytest.approx(a[:5], rel=1e-15)
    f = tf.fkz_example()
    los = [s.lo for s in f.tail.segments]
    assert los == pytest.approx([0.0, 1.0, a[2] ** 2, a[3] ** 2, a[4] ** 2], rel=1e-15)
    # five segments materialize; a_6 overflows binary64
    assert len(f.tail.segments) == 5


def test_xu_plateau_value_exact():
    d = tf.xu_piecewise(alpha=6.0, x1=5000.0)
    assert d.log_tail(2 * 5000.0) == pytest.approx(-7.0 * math.log(5000.0), rel=1e-13)
    assert math.exp(d.log_tail(2 * 5000.0)) == pytest.approx(5000.0**-7, rel=1e-12)
    # ramp start: F(x_1) = x_1^-alpha
    assert d.log_tail(5000.0) == pytest.approx(-6.0 * math.log(5000.0), rel=1e-13)


def test_pareto_tail_at_origin():
    assert math.exp(tf.pareto(3.0).log_tail(0.0)) == 1.0


def test_dyadic_staircase():
    d = tf.dyadic_pareto()
    # 8 lies in [2^3, 2^4) where the tail is 4^-3
    assert d.log_tail(8.0) == pytest.approx(math.log(4.0**-3), rel=1e-14)
    assert d.log_tail(1.5) == 0.0
    # atom mass at 2 is F(2-) - F(2) = 1 - 1/4
    atom = d.atoms[0]
    assert atom.location == 2.0
    assert atom.mass == pytest.approx(0.75, rel=1e-14)


def test_parameter_validation():
    with pytest.raises(ParameterError):
        tf.xu_piecewise(alpha=2.0, x1=4096.0)  # needs alpha > 2 + 3/m
    with pytest.raises(ParameterError):
        tf.xu_piecewise(alpha=6.0, x1=4.0**6)  # needs x1 > 4^alpha
    with pytest.raises(ParameterError):
        tf.weibull_heavy(1.2)
    with pytest.raises(ParameterError):
        tf.plateau_example(a=2.0, y0=0.1)  # a * F1(y0) > 1
    with pytest.raises(ParameterError):
        tf.pareto(-1.0)
    with pytest.raises(ParameterError):
        tf.builtin({"kind": "nosuch"})


def test_truncation_is_hard_error(fkz):
    with pytest.raises(TruncationError):
        fkz.log_tail(fkz.tail.truncation_hi * 1.01)


# ------------------------------------------------------------------ log_tail


def test_exponential_log_tail(exp1):
    assert exp1.log_tail(10.0) == -10.0


@pytest.mark.parametrize("name", ["exp1", "pareto3", "dyadic", "fkz", "xu55", "plateau2"])
def test_monotone_nonincreasing(name, request):
    d = request.getfixturevalue(name)
    hi = min(d.tail.truncation_hi, 1e30)
    rng = np.random.default_rng(1234)
    xs = np.sort(np.concatenate([
        np.geomspace(1e-6, hi, 400),
        rng.uniform(0.0, min(hi, 1e6), 400),
    ]))
    lt = np.atleast_1d(d.tail.log_tail(xs))
    diffs = np.diff(lt)
    slack = 1e-11 * np.maximum(1.0, np.abs(lt[1:]))
    assert np.all(diffs <= slack)


@pytest.mark.parametrize("name", ["dyadic", "fkz", "xu55", "plateau2"])
def test_no_upward_jumps_at_breakpoints(name, request):
    d = request.getfixturevalue(name)
    atom_locs = {a.location for a in d.atoms}
    for seg in d.tail.segments[1:]:
        left = d.tail.log_tail_left(seg.lo)
        right = float(d.tail.log_tail(seg.lo))
        assert left >= right - 1e-11 * max(1.0, abs(right))
        if seg.lo not in atom_locs:
            assert left == pytest.approx(right, abs=1e-9 * max(1.0, abs(right)))


def _dyadic_atoms(d):
    """Closed-form atoms of dyadic_pareto: mass 3 * 4^-n at 2^n."""
    return {2.0**n: math.log(3.0) - n * LOG4 for n in range(1, d.spec["n_max"] + 1)}


def _plateau_atoms(d):
    """Closed-form atoms of plateau_example: mass (a - 1) F1(y_i) at each
    rejoin y_i, where sqrt(y_i) = sqrt(x_i) + ln a."""
    a = d.spec["a"]
    plateaus = [s for s in d.tail.segments if not s.has_density]
    return {s.hi: math.log(a - 1.0) - (math.sqrt(s.lo) + math.log(a)) for s in plateaus}


@pytest.mark.parametrize(
    "name, closed_form, gamma, kept",
    [
        ("dyadic", _dyadic_atoms, 0.0, 998),
        ("dyadic", _dyadic_atoms, 0.5, 998),
        ("plateau2", _plateau_atoms, 0.0, 97),
        ("plateau2", _plateau_atoms, 0.5, 97),
    ],
)
def test_derived_atoms_match_closed_form(name, closed_form, gamma, kept, request):
    base = request.getfixturevalue(name)
    d = tf.gamma_transform(base, gamma) if gamma else base
    # a tilt scales each of its base's atoms by exp(-gamma * location)
    ref = {x: lm - gamma * x for x, lm in closed_form(base).items()}
    atoms = {a.location: a.log_mass for a in d.atoms}
    assert len(atoms) == len(d.atoms) == kept
    # the kept atoms are the leading ones; the rest sit where log F is
    # below -1e15, so deep that the curve cannot resolve their jumps
    locs = sorted(ref)
    assert sorted(atoms) == locs[:kept]
    assert all(ref[x] < -1e15 for x in locs[kept:])
    for x, log_mass in atoms.items():
        assert abs(log_mass - ref[x]) <= 4 * np.spacing(abs(ref[x]))


@pytest.mark.parametrize("name", ["fkz", "xu55", "xu55_m2"])
@pytest.mark.parametrize("gamma", [0.0, 0.5])
def test_continuous_builtins_have_no_atoms(name, gamma, request):
    base = tf.xu_piecewise(5.5, 4096.0, m=2) if name == "xu55_m2" else request.getfixturevalue(name)
    d = tf.gamma_transform(base, gamma) if gamma else base
    assert d.atoms == ()


# ------------------------------------------------------------ partial moments


def test_pareto_mean():
    # antiderivative of (1+y)^-3 tail: -(1+y)^-2/2, so the mean is 1/2
    assert tf.partial_moment(tf.pareto(3.0), 0, 0.0, math.inf) == pytest.approx(0.5, rel=1e-12)


def test_dyadic_mean(dyadic):
    # 1 + sum_{n>=0} 2^n 4^-n = 3
    assert tf.partial_moment(dyadic, 0, 0.0, math.inf) == pytest.approx(3.0, rel=1e-12)


def test_empty_interval_moment(pareto3):
    assert tf.partial_moment(pareto3, 0, 5.0, 5.0) == 0.0


@pytest.mark.parametrize("k, A, B", [
    (0, 0.0, math.nan), (0, math.nan, 1.0), (math.nan, 0.0, 1.0), (math.inf, 0.0, 1.0),
])
def test_partial_moment_refuses_nan(pareto3, k, A, B):
    with pytest.raises(ParameterError):
        tf.partial_moment(pareto3, k, A, B)


def test_exp_moment_refuses_nan(exp1):
    with pytest.raises(ParameterError):
        tf.exp_moment(exp1, math.nan)
    for lam in (-math.inf, -0.5):  # the moment is read off the tail for lam >= 0 only
        with pytest.raises(ParameterError):
            tf.exp_moment(exp1, lam)
    assert tf.exp_moment(exp1, 0.0) == 1.0
    with pytest.raises(DivergenceError):
        tf.exp_moment(exp1, math.inf)


def _gk15_calls(monkeypatch) -> list:
    calls = []
    real = quadrature._gk15
    monkeypatch.setattr(
        quadrature, "_gk15", lambda f, lo, hi: calls.append(len(lo)) or real(f, lo, hi)
    )
    return calls


def test_exp_moment_of_a_light_tilt_takes_few_rounds(monkeypatch, pareto3):
    # int e^{y/2} G(dy) for G = F e^{-y/2} is 1 + E[X]/2 = 1.25.  The
    # integrand reaches out to B ~ 1e26; the geometric ladder of seeds gives
    # each scale its panel at once, so the integral takes a few rounds of
    # one integrand call each instead of one bisection per round.
    calls = _gk15_calls(monkeypatch)
    assert tf.exp_moment(tf.gamma_transform(pareto3, 0.5), 0.5) == pytest.approx(1.25, abs=1e-12)
    assert len(calls) <= 5 and max(calls) <= quadrature._MAX_PANELS


def test_exp_moment_with_a_singular_density_at_the_seeded_end(monkeypatch):
    # weibull_heavy(0.5) has the density y^(-1/2) e^(-sqrt y) / 2 near 0,
    # and int e^{y/2} G(dy) for its 0.5 tilt G is 1 + E[X]/2 = 2.  The
    # ladder reaches down to 2^-60, so that end has its panels at once.
    f = tf.weibull_heavy(0.5)
    g = tf.gamma_transform(f, 0.5)
    calls = _gk15_calls(monkeypatch)
    for d, rate, moment in ((f, 0.0, 1.0), (g, 0.5, 2.0)):
        calls.clear()
        assert measure_integral(d, rate) == pytest.approx(moment, abs=1e-10)
        assert len(calls) <= 5
    calls.clear()
    assert tf.exp_moment(g, 0.5) == pytest.approx(2.0, abs=1e-10)
    assert len(calls) <= 5


def test_exp_moment_of_a_many_segment_tilt_meets_the_default_tolerance(dyadic):
    # One quadrature over the whole curve: rel_tol bounds the moment, so a
    # negligible deep segment such as [2^43, 2^44] need not reach it alone.
    g = tf.gamma_transform(dyadic, 0.5)
    loose = tf.exp_moment(g, 0.25, tf.QuadConfig(rel_tol=1e-7))
    assert tf.exp_moment(g, 0.25) == pytest.approx(loose, rel=1e-7)


# Closed forms of m(lam) = int e^{lam y} G(dy) = 1 + lam int_0^hi e^{-c y} F(y) dy
# for the tilt G = F e^{-gamma y} of a truncated base F, c = gamma - lam >= 0.
# Each base is laid out here from its definition, not from tailforge, and
# each of its flat, linear or exponential pieces integrates exactly.


def _exp_piece(log_v, r, c, a, b):
    """int_a^b e^{-c y} exp(log_v - r (y - a)) dy."""
    if r + c == 0.0:
        return math.exp(log_v) * (b - a)
    return math.exp(log_v - c * a) * -math.expm1(-(r + c) * (b - a)) / (r + c)


def _linear_piece(v_a, v_b, c, a, b):
    """int_a^b e^{-c y} F(y) dy for F linear from v_a at a to v_b at b."""
    w = b - a
    slope = (v_b - v_a) / w
    if c == 0.0:
        return v_a * w + slope * w * w / 2.0
    # int_a^b (y - a) e^{-c y} dy = e^{-c a} (1 - (1 + c w) e^{-c w}) / c^2
    ramp = math.exp(-c * a) * (1.0 - (1.0 + c * w) * math.exp(-c * w)) / (c * c)
    return v_a * _exp_piece(0.0, 0.0, c, a, b) + slope * ramp


def _dyadic_pieces(c):
    """F = 1 on [0, 2) and 4^-n on [2^n, 2^(n+1)) for n = 1..998."""
    yield _exp_piece(0.0, 0.0, c, 0.0, 2.0)
    for n in range(1, 999):
        yield _exp_piece(-n * LOG4, 0.0, c, 2.0**n, 2.0 ** (n + 1))


def _fkz_pieces(c):
    """F = exp(-(a_n + (y - a_n^2) / (a_n + a_{n+1}))) on [a_n^2, a_{n+1}^2),
    a_{n+1} = e^{a_n} / a_n, while a_{n+1}^2 stays below 1e306."""
    a = [0.0, 1.0]
    while a[-1] <= 700.0 and (math.exp(a[-1]) / a[-1]) ** 2 < 1e306:
        a.append(math.exp(a[-1]) / a[-1])
    for lo, hi in zip(a, a[1:]):
        yield _exp_piece(-lo, 1.0 / (lo + hi), c, lo * lo, hi * hi)


def _xu_pieces(c, alpha=5.5, x1=4096.0):
    """F linear from 1 to x1^-alpha on [0, x1), then per cycle linear from
    x^-alpha to x^-(alpha+1) on [x, 2x) and flat until x^(1 + 1/alpha)."""
    yield _linear_piece(1.0, x1**-alpha, c, 0.0, x1)
    x = x1
    while (1.0 + 1.0 / alpha) * math.log(x) < math.log(1e306):
        nxt = x ** (1.0 + 1.0 / alpha)
        yield _linear_piece(x**-alpha, x ** -(alpha + 1.0), c, x, 2.0 * x)
        yield _exp_piece(-(alpha + 1.0) * math.log(x), 0.0, c, 2.0 * x, nxt)
        x = nxt


@pytest.mark.parametrize(
    "base, pieces",
    [
        (tf.dyadic_pareto, _dyadic_pieces),
        (tf.fkz_example, _fkz_pieces),
        (lambda: tf.xu_piecewise(5.5, 4096.0), _xu_pieces),
    ],
    ids=["dyadic", "fkz", "xu55"],
)
@pytest.mark.parametrize("lam", [0.5, 0.25])
def test_exp_moment_of_a_truncated_tilt_is_its_closed_form(base, pieces, lam):
    # The 0.5 tilt's moment reads its base at the net rate lam - 0.5, so the
    # tilt and lam never meet as two terms of size 0.5 * 5e37 that cancel.
    want = 1.0 + lam * math.fsum(pieces(0.5 - lam))
    assert tf.exp_moment(tf.gamma_transform(base(), 0.5), lam) == pytest.approx(
        want, rel=tf.QuadConfig().rel_tol
    )


@pytest.mark.parametrize(
    "base, error",
    [
        (tf.dyadic_pareto, TruncationError),
        (tf.fkz_example, TruncationError),
        (lambda: tf.xu_piecewise(5.5, 4096.0), TruncationError),
        (lambda: tf.plateau_example(2.0), TruncationError),
        (lambda: tf.pareto(3.0), DivergenceError),
        (lambda: tf.weibull_heavy(0.5), DivergenceError),
    ],
    ids=["dyadic", "fkz", "xu55", "plateau2", "pareto3", "weibull"],
)
def test_a_heavy_law_has_no_exp_moment(base, error):
    # A truncated heavy law is refused before its quadrature, which would
    # otherwise run into a log magnitude past binary64 resolution.
    with pytest.raises(error):
        tf.exp_moment(base(), 0.05)


def test_a_moment_past_the_float_maximum_is_a_tolerance_error():
    # int_0^1000 y^300 (1 + y)^-3 dy is about e^2053.
    with pytest.raises(ToleranceError, match="overflows binary64") as exc:
        tf.partial_moment(tf.pareto(3.0), 300, 0.0, 1e3)
    assert exc.value.achieved_rel_error == math.inf
    # F = 1 on [0, 1000), then e^{-(y - 1000)}: m(0.9) is about e^900.
    curve = TailCurve(
        [
            ConstSegment(lo=0.0, hi=1000.0, level=0.0),
            ExpAffineSegment(lo=1000.0, hi=math.inf, log_v_lo=0.0, rate=1.0),
        ]
    )
    with pytest.raises(ToleranceError, match="overflows binary64") as exc:
        tf.exp_moment(tf.Distribution(curve), 0.9)
    assert exc.value.achieved_rel_error == math.inf


def test_moment_additivity(request):
    for name in ("exp1", "pareto3", "dyadic", "xu55"):
        d = request.getfixturevalue(name)
        a, b, c = 0.5, 7.0, 3000.0
        left = tf.partial_moment(d, 1, a, b)
        right = tf.partial_moment(d, 1, b, c)
        both = tf.partial_moment(d, 1, a, c)
        assert left + right == pytest.approx(both, rel=1e-12)


def test_divergence_detection():
    with pytest.raises(DivergenceError):
        tf.partial_moment(tf.pareto(0.8), 0, 0.0, math.inf)
    with pytest.raises(DivergenceError):
        tf.partial_moment(tf.pareto(3.0), 3, 0.0, math.inf)  # k + (-3) >= -1


def test_partial_moment_splits_at_breakpoints():
    curve = TailCurve(
        [
            ConstSegment(lo=0.0, hi=2.0, level=0.0),
            ExpAffineSegment(lo=2.0, hi=math.inf, log_v_lo=0.0, rate=1.0),
        ]
    )
    # int_0^2 1 dy + int_2^5 e^{-(y-2)} dy
    expect = 2.0 + (1.0 - math.exp(-3.0))
    assert tf.partial_moment(tf.Distribution(curve), 0, 0.0, 5.0) == pytest.approx(expect, rel=1e-10)


def test_partial_moment_of_a_tilted_flat_piece():
    # A flat piece on a tilted curve is not flat: y G(y) = y e^{-0.5 - 0.9 y}.
    seg = ConstSegment(lo=0.0, hi=5.0, level=-0.5)
    d = tf.Distribution(TailCurve([seg], rate=0.9))
    quad = quadrature.log_quad(
        lambda y: np.log(y) + seg.log_value(y) - 0.9 * y,
        0.0,
        5.0,
        cfg=quadrature.QuadConfig(rel_tol=1e-12),
    )
    got = math.log(tf.partial_moment(d, 1, 0.0, 5.0))
    assert got == pytest.approx(quad.log_value, abs=1e-9)
    # In closed form: e^{-0.5} (1 - (1 + 4.5) e^{-4.5}) / 0.81.
    exact = math.log(math.exp(-0.5) * (1 - 5.5 * math.exp(-4.5)) / 0.81)
    assert got == pytest.approx(exact, abs=1e-9)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_weibull_moments_are_exact(k):
    # F(y) = exp(-sqrt(y)): integral y^k F(y) dy = 2 Gamma(2k + 2).
    got = tf.partial_moment(tf.weibull_heavy(0.5), k, 0.0, math.inf)
    assert got == pytest.approx(2.0 * math.gamma(2 * k + 2), rel=1e-12)


def test_moments_with_negligible_deep_segments():
    # One quadrature bounds the whole integral: a deep segment of no weight
    # need not meet rel_tol on its own share.
    tilt = tf.gamma_transform(tf.xu_piecewise(5.5, 4096.0), 0.5)
    assert tilt.mean == pytest.approx(2.0 - 1.0 / 1024.0, rel=1e-12)
    assert math.isfinite(tf.partial_moment(tf.plateau_example(2.0), 1, 0.0, math.inf))


@pytest.mark.parametrize("A", [100.0, 120.0, 127.0, 200.0])
def test_moment_from_a_far_lower_bound_is_relative_to_it(exp1, A):
    # integral_A^inf e^-y dy = e^-A: the cutoff of the infinite tail sits
    # far enough past A for the rest to be negligible next to e^-A, not
    # next to 1 (which cut this at 128, off by 37 % at A = 127).
    assert tf.partial_moment(exp1, 0, A, math.inf) == pytest.approx(math.exp(-A), rel=1e-12, abs=0.0)


def test_moment_from_past_the_truncation_is_a_truncation_error():
    d = tf.xu_piecewise(6.0, 5000.0, max_cycles=2)
    with pytest.raises(TruncationError, match="beyond materialized breakpoint"):
        tf.partial_moment(d, 0, 1e30, math.inf)


def test_quadrature_matches_analytic_moment(exp1):
    # int_0^inf y e^-y dy = 1 (quadrature path, no closed form for k=1)
    assert tf.partial_moment(exp1, 1, 0.0, math.inf) == pytest.approx(1.0, rel=1e-9)


def test_xu_fourth_moment_finite(xu55):
    # alpha = 5.5 > 5 makes int y^4 F(y) dy finite
    v = tf.partial_moment(xu55, 4, 0.0, math.inf)
    assert math.isfinite(v) and v > 0


# ---------------------------------------------------------------- quantiles


def test_quantile_closed_forms(exp1, pareto3):
    assert tf.quantile_from_tail(exp1, math.exp(-2.0)) == pytest.approx(2.0, rel=1e-14)
    assert tf.quantile_from_tail(pareto3, 1.0 / 8.0) == pytest.approx(1.0, rel=1e-14)


def test_quantile_roundtrip_continuous(request):
    rng = np.random.default_rng(7)
    for name in ("exp1", "pareto3", "fkz", "xu55"):
        d = request.getfixturevalue(name)
        hi = min(d.tail.truncation_hi, 1e5)
        xs = rng.uniform(0.1, hi, 200)
        us = np.exp(np.atleast_1d(d.tail.log_tail(xs)))
        keep = us > 0.0  # drop levels that underflow plain floats
        us = us[keep]
        qs = np.atleast_1d(tf.quantile_from_tail(d, us))
        back = np.exp(np.atleast_1d(d.tail.log_tail(qs)))
        assert np.allclose(back, us, rtol=1e-9), name


@pytest.mark.parametrize("name", ["exp1", "pareto3", "dyadic", "fkz", "plateau2", "xu55"])
def test_quantile_leaves_the_callers_levels(request, name):
    # Only _draw_blocks inverts levels in place, in its own buffer.
    d = request.getfixturevalue(name)
    curve = d.tail
    u = np.exp(np.linspace(max(curve._ends[-1], -60.0), 0.0, 257))
    keep = u.copy()
    want = curve.quantile(keep)
    assert np.array_equal(curve.quantile(u), want)
    assert np.array_equal(tf.quantile_from_tail(d, u.reshape(-1, 1)).ravel(), want)
    assert u.tobytes() == keep.tobytes()
    for seg, start, end in list(zip(curve.segments, curve._starts, curve._ends))[:60]:
        lu = np.linspace(start, max(end, start - 30.0), 9)
        keep = lu.copy()
        seg.inverse(lu)
        assert lu.tobytes() == keep.tobytes()


def test_quantile_atom_absorption(plateau2):
    # u strictly inside the jump at y_1 maps to y_1 itself
    a1 = plateau2.atoms[0]
    low = math.exp(plateau2.tail.log_tail(a1.location))
    for frac in (0.1, 0.5, 0.9):
        u = low + frac * a1.mass
        assert tf.quantile_from_tail(plateau2, u) == a1.location


def test_quantile_beyond_depth():
    # a shallow truncation makes the depth error reachable with float u
    d = tf.xu_piecewise(6.0, 5000.0, max_cycles=2)
    floor = math.exp(d.tail.log_tail(d.tail.truncation_hi))
    with pytest.raises(TruncationError):
        tf.quantile_from_tail(d, floor / 1e6)
    u = np.full(10**5, 0.5)
    u[-1] = floor / 1e6
    with pytest.raises(TruncationError, match=r"^quantile level below the tail at the truncation"):
        tf.quantile_from_tail(d, u)


def test_quantile_domain():
    with pytest.raises(ParameterError):
        tf.quantile_from_tail(tf.exponential(1.0), 0.0)


def test_quantile_of_a_subnormal_level(exp1, pareto3, dyadic):
    # The smallest subnormal level has a finite log, above these floors.
    tiny = 5e-324
    assert tf.quantile_from_tail(exp1, tiny) == pytest.approx(-math.log(tiny), rel=1e-15)
    for d in (pareto3, dyadic):
        x = tf.quantile_from_tail(d, np.array([tiny, 0.5]))
        assert np.all(np.isfinite(x)) and x[0] > x[1]


# ----------------------------------------------------------------- sampling


def test_sampling_deterministic(exp1):
    s1 = tf.sample(exp1, 42, 1000)
    s2 = tf.sample(exp1, 42, 1000)
    assert np.array_equal(s1, s2)


@pytest.mark.parametrize("name", ["exp1", "dyadic", "plateau2"])
def test_sampling_in_blocks_keeps_one_calls_bits(name, request):
    # Two whole blocks and part of a third.
    d = request.getfixturevalue(name)
    n = 2 * _BLOCK + 3617
    u = 1.0 - np.random.Generator(np.random.PCG64(17)).random(n)
    assert np.array_equal(tf.sample(d, 17, n), d.tail.quantile(u))


# sha256 of sample(d, 3, 50_000), read before each block's levels were
# inverted in their own buffer: every inverse path, closed or bisected, on
# one segment or many, keeps its bits (numpy 2.4 on x86-64).
SAMPLE_SHA256 = {
    "exp1": "63a8a13164011b08847f8e3004ead2c330cc1afd48bc30e97ccfcc53b6454ad6",
    "pareto3": "bf615dd8bef7b4c4e0d6d62e062d08fa5dac96934bc20516f8db73da76db6ed5",
    "weibull": "c110427e4cf38d59bbffeb70e168885bd5e9a50d4dd570ed3ddc352cefccf7eb",
    "dyadic": "64c5c67c0beed5ead2ffcc88daf0889379062a595850e54f3ad5cda820d06743",
    "fkz": "23fa4b15d55acad18704e38a570456de506b9d4e9e327afb08fd189a5ea8a9c5",
    "plateau2": "253f5894fe4d2bdb7a4e8cc38047b90ce251efceabf4daacd72465f2bd9cb041",
    "xu55": "2b1d7054abac9920721ae50295334492b0043e635d7632db97400fcbe537e2c6",
    "pareto3-tilt0.5": "70a98ee562fab15af829fd1eb7ae6750442de2cf95312a8a954ee166e8660758",
    "weibull-tilt0.5": "6b6eb22893239634427694652edccc70bbf078b8c56614623483e0d1a2a3a2bc",
    "dyadic-tilt0.5": "cf3ba2b00ee501e72d5f4730421860f6a05b0a35b8d542a8b2e0923cd786b3cf",
}


@pytest.mark.parametrize("name", list(SAMPLE_SHA256))
def test_sample_bits_pinned(request, name):
    base, _, tilt = name.partition("-tilt")
    d = tf.weibull_heavy(0.5) if base == "weibull" else request.getfixturevalue(base)
    if tilt:
        d = tf.gamma_transform(d, float(tilt))
    assert hashlib.sha256(tf.sample(d, 3, 50_000).tobytes()).hexdigest() == SAMPLE_SHA256[name]


@pytest.mark.parametrize("seed", [-1, True, 2.0, None, "3"], ids=repr)
def test_sample_refuses_a_seed_that_is_no_count(exp1, seed):
    with pytest.raises(ParameterError, match="seed"):
        tf.sample(exp1, seed, 10)


def test_sampling_mean_clt(exp1):
    # 3 sigma / sqrt(n) with sigma = 1
    xs = tf.sample(exp1, 7, 10**6)
    assert abs(xs.mean() - 1.0) < 0.004


def test_dyadic_sampling_atoms(dyadic):
    xs = tf.sample(dyadic, 3, 10**5)
    powers = 2.0 ** np.arange(1, 200)
    assert np.all(np.isin(xs, powers))
    p2 = float(np.mean(xs == 2.0))
    sigma = math.sqrt(0.75 * 0.25 / 10**5)
    assert abs(p2 - 0.75) < 3 * sigma


@pytest.mark.parametrize("name", ["exp1", "pareto3", "fkz", "dyadic"])
def test_sampling_law_ks(name, request):
    d = request.getfixturevalue(name)
    n = 10**5
    xs = tf.sample(d, 2025, n)
    assert ks_statistic(d, xs) < KS_999 / math.sqrt(n)


# --------------------------------------------------------------- power tail


def test_power_tail_identity(pareto3):
    d = tf.power_tail(pareto3, 1)
    xs = np.geomspace(0.1, 100, 20)
    assert np.array_equal(
        np.atleast_1d(d.tail.log_tail(xs)), np.atleast_1d(pareto3.tail.log_tail(xs))
    )


def test_power_tail_exponent_rule(exp1):
    d = tf.power_tail(exp1, 3)
    assert d.log_tail(2.0) == pytest.approx(-6.0, rel=1e-14)


def test_power_tail_xu_square():
    d = tf.xu_piecewise(6.0, 5000.0, m=2)
    assert d.log_tail(10000.0) == pytest.approx(2 * (-7 * math.log(5000.0)), rel=1e-13)


def test_power_tail_scales_pointwise(dyadic):
    d3 = tf.power_tail(dyadic, 3)
    xs = np.array([1.5, 2.0, 5.0, 64.0, 100.0])
    assert np.allclose(
        np.atleast_1d(d3.tail.log_tail(xs)),
        3.0 * np.atleast_1d(dyadic.tail.log_tail(xs)),
        rtol=0,
        atol=1e-12,
    )
