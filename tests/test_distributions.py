"""Built-in distributions: exact tails, moments, quantiles, sampling."""

import math

import numpy as np
import pytest

import tailforge as tf
from tailforge.errors import DivergenceError, ParameterError, TruncationError

from conftest import ks_statistic

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
    atom = d.parts.atoms[0]
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
    atom_locs = {a.location for a in d.parts.atoms}
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
        ("dyadic", _dyadic_atoms, 0.5, 51),
        ("plateau2", _plateau_atoms, 0.0, 97),
        ("plateau2", _plateau_atoms, 0.5, 48),
    ],
)
def test_derived_atoms_match_closed_form(name, closed_form, gamma, kept, request):
    base = request.getfixturevalue(name)
    d = tf.gamma_transform(base, gamma) if gamma else base
    # a tilt scales each atom by exp(-gamma * location)
    ref = {x: lm - gamma * x for x, lm in closed_form(base).items()}
    atoms = {a.location: a.log_mass for a in d.parts.atoms}
    assert len(atoms) == len(d.parts.atoms) == kept
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
    assert d.parts.atoms == ()


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
    assert tf.exp_moment(exp1, -math.inf) == 0.0  # infinite rates keep their meaning
    with pytest.raises(DivergenceError):
        tf.exp_moment(exp1, math.inf)


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


def test_quantile_atom_absorption(plateau2):
    # u strictly inside the jump at y_1 maps to y_1 itself
    a1 = plateau2.parts.atoms[0]
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


def test_quantile_domain():
    with pytest.raises(ParameterError):
        tf.quantile_from_tail(tf.exponential(1.0), 0.0)


# ----------------------------------------------------------------- sampling


def test_sampling_deterministic(exp1):
    s1 = tf.sample(exp1, 42, 1000)
    s2 = tf.sample(exp1, 42, 1000)
    assert np.array_equal(s1, s2)


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
