"""The exponential tail tilt and its algebra."""

import math

import numpy as np
import pytest

import tailforge as tf
from tailforge.errors import DivergenceError, ParameterError

GRID = np.array([0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0])


def test_definition_in_log_domain(pareto3):
    g = tf.gamma_transform(pareto3, 0.7)
    lt_f = np.atleast_1d(pareto3.tail.log_tail(GRID))
    lt_g = np.atleast_1d(g.tail.log_tail(GRID))
    assert np.allclose(lt_g, lt_f - 0.7 * GRID, rtol=0, atol=1e-12)


def test_tail_at_zero(pareto3):
    g = tf.gamma_transform(pareto3, 0.5)
    assert math.exp(g.log_tail(0.0)) == 1.0


def test_exponential_tilt_closed_form(exp1):
    g = tf.gamma_transform(exp1, 1.0)
    assert g.log_tail(2.0) == pytest.approx(-4.0, abs=1e-14)


def test_domination(request):
    for name in ("exp1", "pareto3", "dyadic", "plateau2"):
        d = request.getfixturevalue(name)
        g = tf.gamma_transform(d, 0.3)
        lt_f = np.atleast_1d(d.tail.log_tail(GRID))
        lt_g = np.atleast_1d(g.tail.log_tail(GRID))
        assert np.all(lt_g < lt_f)
        assert g.log_tail(0.0) == d.log_tail(0.0)


def test_tilt_compose_exponent_additivity(pareto3, dyadic):
    for d in (pareto3, dyadic):
        rep = tf.tilt_compose_check(d, 0.3, 0.7, GRID)
        assert rep.passed, str(rep)
        rep2 = tf.tilt_compose_check(d, 0.5, 0.5, GRID)
        assert rep2.passed


def test_tilt_compose_failure_injection(pareto3):
    # perturb one segment of the composed route by 1e-6: the report must
    # fail and name a grid point
    composed = tf.gamma_transform(tf.gamma_transform(pareto3, 0.3), 0.7)
    seg = composed.tail.segments[0].with_offset(-1e-6)
    bad_curve = tf.TailCurve([seg], validate=False)
    bad = tf.Distribution(bad_curve, label="perturbed")
    rep = tf.tilt_compose_check(pareto3, 0.3, 0.7, GRID, candidate=bad)
    assert not rep.passed
    assert rep.max_scaled_diff > 1e-8
    assert rep.worst_x in GRID


def test_lgamma_ratio_transfer(request):
    # G(x-t)/G(x) = e^{gamma t} F(x-t)/F(x), exactly in the log domain
    gamma, t = 0.8, 1.5
    for name in ("exp1", "pareto3", "dyadic", "xu55"):
        d = request.getfixturevalue(name)
        g = tf.gamma_transform(d, gamma)
        xs = GRID[GRID > t]
        lhs = np.atleast_1d(g.tail.log_tail(xs - t)) - np.atleast_1d(g.tail.log_tail(xs))
        rhs = gamma * t + np.atleast_1d(d.tail.log_tail(xs - t)) - np.atleast_1d(d.tail.log_tail(xs))
        scale = np.maximum(1.0, np.abs(rhs))
        assert np.all(np.abs(lhs - rhs) <= 1e-12 * scale)


def test_light_tail_of_transform(pareto3):
    # every rate below gamma admits a finite tilted moment
    g = tf.gamma_transform(pareto3, 0.5)
    for lam in (0.1, 0.25, 0.4, 0.5):
        assert math.isfinite(tf.exp_moment(g, lam))
    with pytest.raises(DivergenceError):
        tf.exp_moment(g, 0.6)


def test_atoms_scale(dyadic):
    g = tf.gamma_transform(dyadic, 0.25)
    for a_f, a_g in zip(dyadic.atoms[:5], g.atoms[:5]):
        assert a_g.location == a_f.location
        assert a_g.log_mass == pytest.approx(a_f.log_mass - 0.25 * a_f.location, rel=1e-14)


def test_tilted_density_total_mass(pareto3):
    # density of the tilt integrates to 1: e^{-gy}(f + gF) is a proper pdf
    g = tf.gamma_transform(pareto3, 0.5)
    assert tf.exp_moment(g, 0.0) == pytest.approx(1.0, rel=1e-8)


def test_tilt_of_tilt_integrates_against_the_summed_rate(pareto3):
    # A tilt of a tilt has one density, exp(-0.5 y) (f + 0.5 F), read off
    # the stack's normal form; these values are pinned bit for bit.  A
    # 40-digit quadrature reads b2 = 0.89509235387574691.
    g = tf.gamma_transform(tf.gamma_transform(pareto3, 0.3), 0.2)
    assert tf.log_conv2_tail(g, 7.0) == -8.5851031348362
    assert tf.b2_cond(g, 10.0, 2.0) == 0.8950923538757468
    assert tf.exp_moment(g, 0.25) == 1.1042256675377455


def test_invalid_gamma(pareto3):
    with pytest.raises(ParameterError):
        tf.gamma_transform(pareto3, 0.0)
    for gamma in (-1.0, math.inf, math.nan):
        with pytest.raises(ParameterError):
            tf.gamma_transform(pareto3, gamma)


def test_transform_spec_roundtrip(pareto3, tmp_path):
    g = tf.gamma_transform(pareto3, 0.5)
    path = tmp_path / "tilt.json"
    tf.dump_spec(g, path)
    g2 = tf.load_spec(path)
    xs = GRID
    assert np.allclose(
        np.atleast_1d(g.tail.log_tail(xs)), np.atleast_1d(g2.tail.log_tail(xs)), rtol=0, atol=0
    )


# A tilted power built in either order is one law: (F e^{-g x})^m = F^m e^{-m g x}.
TILTED_POWERS = [
    # (base builder, gamma, m, exp-moment rate, closed form)
    # exponential(1): G(x) = e^{-4x}, m(1) = 4/3
    (lambda: tf.exponential(1.0), 1.0, 2, 1.0, 4.0 / 3.0),
    # pareto(3): G(x) = (1+x)^{-6} e^{-x}, m(1) = 1 + int (1+y)^{-6} dy = 1.2
    (lambda: tf.pareto(3.0), 0.5, 2, 1.0, 1.2),
]


@pytest.mark.parametrize("base, gamma, m, lam, exact", TILTED_POWERS, ids=("exp1", "pareto3"))
def test_exp_moment_of_power_of_tilt(base, gamma, m, lam, exact):
    d = base()
    power_of_tilt = tf.power_tail(tf.gamma_transform(d, gamma), m)
    tilt_of_power = tf.gamma_transform(tf.power_tail(d, m), m * gamma)
    assert tf.exp_moment(power_of_tilt, lam) == pytest.approx(exact, rel=1e-9)
    assert tf.exp_moment(tilt_of_power, lam) == pytest.approx(exact, rel=1e-9)


def test_tilted_power_constructions_classify_alike(pareto3):
    power_of_tilt = tf.classify(tf.power_tail(tf.gamma_transform(pareto3, 0.5), 2))
    tilt_of_power = tf.classify(tf.gamma_transform(tf.power_tail(pareto3, 2), 1.0))
    verdicts = [(e.cls, e.verdict) for e in power_of_tilt.entries]
    assert verdicts == [(e.cls, e.verdict) for e in tilt_of_power.entries]
    assert power_of_tilt.verdict("S(gamma)") == "evidence-for"
