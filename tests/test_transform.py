"""The exponential tail tilt and its algebra."""

import hashlib
import math

import numpy as np
import pytest

import tailforge as tf
from tailforge.distribution import _split_tilt
from tailforge.errors import DivergenceError, ParameterError, TailforgeError
from tailforge.tailcurve import _chained, _SegmentTable

from conftest import measure_integral

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


def test_rechaining_a_curve_at_any_rate_snaps_nothing():
    # A tilt (and a tilt's base) is built from a chained curve's segments:
    # each join subtracts the same rate * x on both sides, so chaining them
    # again at any rate snaps no join and keeps every segment.
    laws = [
        tf.pareto(3.0),
        tf.exponential(1.0),
        tf.weibull_heavy(0.5),
        tf.dyadic_pareto(),
        tf.fkz_example(),
        tf.plateau_example(2.0),
        tf.xu_piecewise(5.5, 4096.0),
        tf.xu_piecewise(5.5, 4096.0, m=2),
        tf.power_tail(tf.plateau_example(2.0), 2),
    ]
    for d in laws + [tf.gamma_transform(d, 0.5) for d in laws]:
        for rate in (1e-9, 1e-7, 1e-5, 1e-3, 0.1, 10.0, 1e3):
            segs, snapped = _chained(_SegmentTable(d.tail.segments, rate))
            assert not snapped and segs == d.tail.segments, (d.label, rate)


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
        for g1, g2 in ((0.3, 0.7), (0.5, 0.5)):
            composed = tf.gamma_transform(tf.gamma_transform(d, g1), g2).tail.log_tail(GRID)
            direct = tf.gamma_transform(d, g1 + g2).tail.log_tail(GRID)
            assert np.all(np.abs(composed - direct) <= 1e-12 * np.maximum(1.0, np.abs(direct)))


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


def test_tilted_density_total_mass(pareto3, dyadic):
    # density of the tilt integrates to 1: e^{-gy}(f + gF) is a proper pdf,
    # and with the atoms so does the tilt of a staircase
    for d in (pareto3, dyadic):
        assert measure_integral(tf.gamma_transform(d, 0.5), 0.0) == pytest.approx(1.0, rel=1e-8)


def test_tilt_of_tilt_integrates_against_the_summed_rate(pareto3):
    # A tilt of a tilt has one density, exp(-0.5 y) (f + 0.5 F), read off
    # the stack's normal form; these values are pinned bit for bit.  A
    # 40-digit quadrature reads b2 = 0.89509235387574691, and the moment
    # 1 + int e^{-y/4} (1 + y)^-3 dy / 4 = 1.10422566753774526.
    g = tf.gamma_transform(tf.gamma_transform(pareto3, 0.3), 0.2)
    assert tf.log_conv2_tail(g, 7.0) == -8.5851031348362
    assert tf.b2_cond(g, 10.0, 2.0) == 0.8950923538757468
    assert tf.exp_moment(g, 0.25) == 1.1042256675377453


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


# ------------------------------------------------------------ pinned bits

TILT_BASES = {
    "exp1": lambda: tf.exponential(1.0),
    "pareto3": lambda: tf.pareto(3.0),
    "weibull": lambda: tf.weibull_heavy(0.5),
    "dyadic": tf.dyadic_pareto,
    "fkz": tf.fkz_example,
    "plateau2": lambda: tf.plateau_example(2.0),
    "xu55": lambda: tf.xu_piecewise(5.5, 4096.0),
    "xu55m2": lambda: tf.xu_piecewise(5.5, 4096.0, m=2),
}
TILT_VARIANTS = {
    "tilt0.3": lambda d: tf.gamma_transform(d, 0.3),
    "tilt0.5": lambda d: tf.gamma_transform(d, 0.5),
    "tilt1": lambda d: tf.gamma_transform(d, 1.0),
    "tilt-of-tilt": lambda d: tf.gamma_transform(tf.gamma_transform(d, 0.3), 0.2),
    "power-of-tilt": lambda d: tf.power_tail(tf.gamma_transform(d, 0.5), 2),
    "tilt-of-power": lambda d: tf.gamma_transform(tf.power_tail(d, 2), 1.0),
}


def _values(fn) -> np.ndarray:
    """fn's result as floats, or the name of the error it raises."""
    try:
        return np.asarray(fn(), dtype=float).ravel()
    except TailforgeError as e:  # a refusal is part of what is pinned
        return np.frombuffer(type(e).__name__.encode().ljust(24), dtype=float)


def _tilt_digest(d) -> str:
    """sha256 of d's log tails, left limits, densities (lam = 0 and 0.25),
    atoms, quantiles, draws, density flags, split and moments."""
    c = d.tail
    top = min(c.truncation_hi, 1e6)
    x = np.concatenate([[-1.0, 0.0], c.breakpoints()[:40], np.geomspace(1e-3, top, 60)])
    xf = x[np.isfinite(x)]
    base, rate = _split_tilt(d)
    lu = np.linspace(0.0, 0.999 * max(float(c._ends[-1]), -700.0), 61)
    lo = np.linspace(0.0, top, 30)
    parts = [
        lambda: c.log_tail(x),
        lambda: c.log_tail_left(x),
        lambda: c.log_density(xf),
        lambda: c.log_density(xf, 0.25),
        lambda: [(a.location, a.log_mass) for a in d.atoms],
        lambda: c.quantile(np.exp(lu)),
        lambda: tf.sample(d, 3, 2000),
        lambda: c.has_density_in(lo, lo + top / 60),
        lambda: base.tail.log_tail(x),
        lambda: [rate],
        lambda: [d.mean],
        lambda: [tf.exp_moment(d, 0.1)],
        lambda: [tf.partial_moment(d, 1, 0.0, math.inf)],
    ]
    return hashlib.sha256(np.concatenate([_values(f) for f in parts]).tobytes()).hexdigest()


# sha256 of ``_tilt_digest`` for each builtin's tilts, read when the tilt
# was a field of every segment (numpy 2.4 on x86-64), and re-read for 34 of
# them when exp_moment came to integrate the tail through the base and a
# tilt's atoms to be its base's; the other parts kept their bits.  A tilt of
# a tilt whose rates sum to 0.5 is the 0.5 tilt, and a power of a tilt the
# tilt of the power, bit for bit.
TILT_SHA256 = {
    "exp1-tilt0.3": "6545608bd0dbe76a7972343fadd025dbb61f9a73762d2dd3a000d4c65f66c74f",
    "exp1-tilt0.5": "e75271adcccfe51266d5bd3e2290bd92849d79da56dbc68f0255e5cff8bdce0a",
    "exp1-tilt1": "5b033bb889d083dbe791eb6c28d7eaf595cd22feda49f9d8cbf6e11d9b47360f",
    "exp1-tilt-of-tilt": "e75271adcccfe51266d5bd3e2290bd92849d79da56dbc68f0255e5cff8bdce0a",
    "exp1-power-of-tilt": "315a9f940ac0321244549d0c544f8d7ac54a56c2d260090612c24a68ca46ecde",
    "exp1-tilt-of-power": "315a9f940ac0321244549d0c544f8d7ac54a56c2d260090612c24a68ca46ecde",
    "pareto3-tilt0.3": "90f5912c6ff2de8ebc2ed1ca538a9017452bb3bf62c7a315767440b7e06f1180",
    "pareto3-tilt0.5": "36cf5ca4220ef9e3d3aff6f4caa5636ddb9f4cfb97f96f47e9e1b989fcbe1ee1",
    "pareto3-tilt1": "77b2cbfa8b73b70f08fd0c0fa40b45b571df23a217d7a5a4c2482852dbd466e7",
    "pareto3-tilt-of-tilt": "36cf5ca4220ef9e3d3aff6f4caa5636ddb9f4cfb97f96f47e9e1b989fcbe1ee1",
    "pareto3-power-of-tilt": "ebd56e42207c2eeab7b93e66a8c952b2a49d476ecbf47c0bb19315f2fe45548e",
    "pareto3-tilt-of-power": "ebd56e42207c2eeab7b93e66a8c952b2a49d476ecbf47c0bb19315f2fe45548e",
    "weibull-tilt0.3": "4bcafe3e39de7a5ce9762d4c45dd9319257d7d8147b4a9c8c0bb3abf08c7ad4a",
    "weibull-tilt0.5": "2aa4aeb3d692e20f996839e3b545442250be25455585e8294b1b22ce2392b9cc",
    "weibull-tilt1": "aa7b41cf9b4cc9e62caad90ba78d025ed5374cff95571e805d02b15b1b94801e",
    "weibull-tilt-of-tilt": "2aa4aeb3d692e20f996839e3b545442250be25455585e8294b1b22ce2392b9cc",
    "weibull-power-of-tilt": "8a314cd32b22e7c340396ebfce2dea5aa55293f4569ed11f4eae3f3efd17b005",
    "weibull-tilt-of-power": "8a314cd32b22e7c340396ebfce2dea5aa55293f4569ed11f4eae3f3efd17b005",
    "dyadic-tilt0.3": "782b128c7bc8e85130ba0dae36d54aceec80a86833c2806b451b2154321caf59",
    "dyadic-tilt0.5": "7a05951245e6b64daff8c17a1b6745cf3ceb4c1717c7d8cd434c9f2dd83d0539",
    "dyadic-tilt1": "62171fb77f603d8519bb649072941bf1132c0894959432c6c630c720d06377d7",
    "dyadic-tilt-of-tilt": "7a05951245e6b64daff8c17a1b6745cf3ceb4c1717c7d8cd434c9f2dd83d0539",
    "dyadic-power-of-tilt": "b61be1bbef41364cdcb15049e04de8beaed4850c3ec6cdff9b4e9a57f7de121e",
    "dyadic-tilt-of-power": "b61be1bbef41364cdcb15049e04de8beaed4850c3ec6cdff9b4e9a57f7de121e",
    "fkz-tilt0.3": "2a7c575cdfef62396839cda28e150fd7519d52daa1e442088b94c6fbdc88e6f4",
    "fkz-tilt0.5": "9110567c61ab05dc76979052800b8bd678ee26f677395930fa2870faf7995663",
    "fkz-tilt1": "6f377c1b256bdf76bb0cc43279c30fdb6aee4568985cec266cea0f0ef1558a7c",
    "fkz-tilt-of-tilt": "9110567c61ab05dc76979052800b8bd678ee26f677395930fa2870faf7995663",
    "fkz-power-of-tilt": "cdf4952b276bf15d081da7aa77c823febb954059bdd46ab8cbcf5d840012d759",
    "fkz-tilt-of-power": "cdf4952b276bf15d081da7aa77c823febb954059bdd46ab8cbcf5d840012d759",
    "plateau2-tilt0.3": "24b704eb4a704c0286bfc3324ee0742ab0c0cbd1e24f30d5ca990d525a39d53a",
    "plateau2-tilt0.5": "f6e19031f3af150fdad486982e88e58652183340fe3e67ed5e10c92a1247fa33",
    "plateau2-tilt1": "a6d0cc0560d7b21081ad850151d1d15f3960d1a13c622e3e132989163fcb1454",
    "plateau2-tilt-of-tilt": "f6e19031f3af150fdad486982e88e58652183340fe3e67ed5e10c92a1247fa33",
    "plateau2-power-of-tilt": "4e9d3edeb37a340a748d30967422b7807eaf25c3c5d7a15c49d2406132ac27b5",
    "plateau2-tilt-of-power": "4e9d3edeb37a340a748d30967422b7807eaf25c3c5d7a15c49d2406132ac27b5",
    "xu55-tilt0.3": "2c206c4d744554c405ece034956765b70c8200702c3671901a8a3c8a9cb4e0fa",
    "xu55-tilt0.5": "76a6a29c5303de76c0f4d03a8079fd610aa7834b40626abbabf699aaada91cd7",
    "xu55-tilt1": "9d636d49c58a3db89300bc3eaa73c55ce89fa6dc69fcb7b3640157fecebf1697",
    "xu55-tilt-of-tilt": "76a6a29c5303de76c0f4d03a8079fd610aa7834b40626abbabf699aaada91cd7",
    "xu55-power-of-tilt": "1c263a9ab80c10ba0a85652e2b22e412b047c33fa4210bf109e8d3996d015a06",
    "xu55-tilt-of-power": "1c263a9ab80c10ba0a85652e2b22e412b047c33fa4210bf109e8d3996d015a06",
    "xu55m2-tilt0.3": "c91a0916d539fe770b80af9590883c0a37170ee83c90bcf527bbf3977a837b72",
    "xu55m2-tilt0.5": "4e23d09909ac1a0b1d7793b22464939ea6c4c855d3f87666f66f97c766a8195a",
    "xu55m2-tilt1": "1c263a9ab80c10ba0a85652e2b22e412b047c33fa4210bf109e8d3996d015a06",
    "xu55m2-tilt-of-tilt": "4e23d09909ac1a0b1d7793b22464939ea6c4c855d3f87666f66f97c766a8195a",
    "xu55m2-power-of-tilt": "ae4ae6b3c6d99a55a3652428153975268ee1d72db1a75fc91f71444b66aa8749",
    "xu55m2-tilt-of-power": "ae4ae6b3c6d99a55a3652428153975268ee1d72db1a75fc91f71444b66aa8749",
}


@pytest.mark.parametrize("name", list(TILT_SHA256))
def test_tilt_bits_pinned(name):
    base, _, variant = name.partition("-")
    d = TILT_VARIANTS[variant](TILT_BASES[base]())
    assert _tilt_digest(d) == TILT_SHA256[name]
