"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import json
import math

import numpy as np
import pytest

import tailforge as tf
from tailforge.cli import main


def _ok(criterion: str, detail: str = "") -> None:
    print(f"ACCEPTANCE {criterion}: PASS {detail}".rstrip())


# --------------------------------------------------------------- criterion 1


def test_01_convolution_oracle(exp1):
    for x in (0.5, 1.0, 2.0, 5.0, 10.0, 20.0):
        got = tf.conv2_tail(exp1, x)
        want = (1 + x) * math.exp(-x)
        assert abs(got / want - 1) <= 1e-8, x
    bg = tf.convn_tail_grid(exp1, 3, 2.01, 1e-3)
    lo, up = bg.at(2.0)
    truth = 5 * math.exp(-2)
    assert lo <= truth <= up
    assert up - lo < 1e-3
    _ok("1 convolution-oracle", f"(gamma(3,1) bracket width {up - lo:.2e})")


# --------------------------------------------------------------- criterion 2


def test_02_tilt_identities(exp1, pareto3):
    xs = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0)
    for x in xs:
        assert tf.g_conv2_identity_residual(pareto3, 0.5, x) <= 1e-6
        assert tf.g_conv2_identity_residual(exp1, 1.0, x) <= 1e-6
    # pointwise ratio identity: G2/G = F2/F + gamma * crossint/F
    for d, gamma in ((pareto3, 0.5), (exp1, 1.0)):
        g = tf.gamma_transform(d, gamma)
        for x in xs:
            lt = d.log_tail(x)
            lhs = math.exp(tf.log_conv2_tail(g, x) - g.log_tail(x))
            rhs = math.exp(tf.log_conv2_tail(d, x) - lt) + gamma * math.exp(
                tf.log_cross_integral(d, 0, x, x) - lt
            )
            assert abs(lhs / rhs - 1) <= 1e-6
    _ok("2 tilt-identities", "(residuals <= 1e-6 on both routes)")


# --------------------------------------------------------------- criterion 3


def test_03_negative_control_exponential(exp1):
    for x, K in ((9.0, 1.0), (19.0, 2.0), (99.0, 5.0)):
        got = tf.b2_cond(exp1, x, K)
        assert abs(got / (2 * K / (1 + x)) - 1) <= 1e-6
    report = tf.classify(exp1)
    assert report.verdict("J") == "evidence-against"
    _ok("3 negative-control", "(b2 = 2K/(1+x); J evidence-against)")


# --------------------------------------------------------------- criterion 4


def test_04_positive_control_pareto(pareto3):
    v9 = tf.b2_cond(pareto3, 1e4, 9.0)
    assert abs(v9 - 0.999) <= 1e-2
    profile = [tf.b2_cond(pareto3, 1e4, float(K)) for K in range(1, 10)]
    assert all(b >= a - 1e-12 for a, b in zip(profile, profile[1:]))
    assert profile[-1] > 0.99
    _ok("4 positive-control", f"(b2(1e4, 9) = {v9:.5f})")


# --------------------------------------------------------------- criterion 5


def test_05_prop11_mechanism(fkz):
    bounds = {n: tf.exam300_lower_bound(n) for n in (1, 2, 3, 4)}
    assert bounds[2] < bounds[3] < bounds[4]
    assert bounds[4] > 1e10
    a = tf.fkz_a_sequence()
    for n in (1, 2, 3):
        x = a[n + 1] ** 2
        ratio = math.exp(tf.log_cross_integral(fkz, 0, x, x) - fkz.log_tail(x))
        assert ratio >= bounds[n], (n, ratio, bounds[n])
    _ok("5 prop-1.1-mechanism", f"(bound at n=4 is {bounds[4]:.3e})")


# --------------------------------------------------------------- criterion 6


def _dyadic_tail_independent(y: np.ndarray) -> np.ndarray:
    # staircase rule written from scratch: 1 below 2, else 4^-floor(log2 y)
    y = np.asarray(y, dtype=float)
    n = np.floor(np.log2(np.maximum(y, 1.0)))
    return np.where(y < 2.0, 1.0, 4.0**-n)


def _dyadic_cross_integral_oracle(A: float, B: float, x: float) -> float:
    # both factors are staircases: sum exactly over constant cells
    pows = 2.0 ** np.arange(0, 64)
    cuts = np.concatenate([[A, B], pows, x - pows])
    cuts = np.unique(np.clip(cuts, A, B))
    total = 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        if hi <= lo:
            continue
        mid = 0.5 * (lo + hi)
        total += (hi - lo) * float(
            _dyadic_tail_independent(mid) * _dyadic_tail_independent(x - mid)
        )
    return total


def test_06_prop13_mechanism(dyadic):
    xs = 2.0 ** np.arange(1, 21)
    series = tf.ratio_diagnostic(dyadic, "d", xs)
    assert np.allclose(series.values, 4.0, rtol=1e-12, atol=0)
    K = 2.0**10
    worst = 1.0
    for m in range(15, 21):
        x = 2.0**m
        got = tf.t_ratio(dyadic, x, K)
        oracle = _dyadic_cross_integral_oracle(0, K, x) / _dyadic_cross_integral_oracle(
            0, x / 2, x
        )
        assert got == pytest.approx(oracle, rel=1e-9)
        assert got >= 0.9
        worst = min(worst, got)
    _ok("6 prop-1.3-mechanism", f"(min t_ratio {worst:.5f}, oracle-matched)")


def test_06_t_ratios_match_the_oracle_at_every_K(dyadic):
    from tailforge.functionals import _t_ratios

    x = 2.0**16
    Ks = [1.0, 3.0, 64.0, 100.0, 1024.0, 5000.0, x / 2]
    t = _t_ratios(dyadic, [(K, x) for K in Ks], tf.QuadConfig())
    den = _dyadic_cross_integral_oracle(0, x / 2, x)
    for K, got in ((K, t[K, x]) for K in Ks):
        assert got == pytest.approx(_dyadic_cross_integral_oracle(0, K, x) / den, rel=1e-9)


# --------------------------------------------------------------- criterion 7


def test_07_xu_witnesses(xu55):
    alpha = 5.5
    xns = tf.xu_breakpoints(xu55)
    n_cyc = 12
    grid = np.unique(
        np.concatenate([xns[:n_cyc], 1.5 * xns[:n_cyc], 2.0 * xns[:n_cyc]])
    )
    lt = np.atleast_1d(xu55.tail.log_tail(grid))
    assert np.all(lt >= -(alpha + 1) * np.log(grid) - 1e-9)
    assert np.all(lt <= alpha * math.log(2) - alpha * np.log(grid) + 1e-9)
    checked = 0
    for t in (1.0, 2.0, 4.0):
        for xn in xns:
            x = 2.0 * xn
            if x - t == x or x - t <= xn:
                continue
            ratio = math.exp(xu55.log_tail(x - t) - xu55.log_tail(x))
            assert abs(ratio / (1 + t - t / xn) - 1) <= 1e-12
            checked += 1
    assert checked >= 20
    rec = xns[1:10]
    weak = tf.weak_equiv_diag(
        xu55, [1, 2, 4, 8, 16], np.unique(np.concatenate([rec, 1.5 * rec, 2 * rec]))
    )
    assert weak.trend == "diverging"
    _ok("7 xu-witnesses", f"(bound + {checked} shift identities + diverging)")


# --------------------------------------------------------------- criterion 8


def test_08_mc_vs_quadrature(exp1, pareto3, dyadic):
    scen_e = [(n, x, K) for n in (2, 3) for x in (3.0, 5.0, 8.0) for K in (0.5, 1.0)]
    scen_p = [(n, x, K) for n in (2, 3) for x in (5.0, 10.0, 20.0) for K in (1.0, 4.0)]
    scen_d = [(n, x, K) for n in (2, 3) for x in (6.0, 12.0, 24.0) for K in (2.0, 4.0)]
    zs = []
    for d, scen in ((exp1, scen_e), (pareto3, scen_p), (dyadic, scen_d)):
        table = tf.mc_vs_quadrature(d, scen, N=100000, seed=20240808)
        assert all(r.error is None for r in table.rows)
        zs.extend(abs(r.z) for r in table.rows)
    assert len(zs) >= 30
    frac3 = sum(z <= 3.0 for z in zs) / len(zs)
    assert frac3 >= 0.95
    assert max(zs) <= 4.0
    _ok("8 mc-vs-quadrature", f"({len(zs)} scenarios, max |z| = {max(zs):.2f})")


# --------------------------------------------------------------- criterion 9


def test_09_transform_algebra(request):
    grid = np.array([0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0])
    gamma, t = 0.8, 1.5
    for name in ("exp1", "pareto3", "dyadic", "xu55"):
        d = request.getfixturevalue(name)
        composed = tf.gamma_transform(tf.gamma_transform(d, 0.3), 0.7).tail.log_tail(grid)
        direct = tf.gamma_transform(d, 0.3 + 0.7).tail.log_tail(grid)
        assert np.all(np.abs(composed - direct) <= 1e-12 * np.maximum(1.0, np.abs(direct))), name
        g = tf.gamma_transform(d, gamma)
        lt_f = np.atleast_1d(d.tail.log_tail(grid))
        lt_g = np.atleast_1d(g.tail.log_tail(grid))
        assert np.all(lt_g <= lt_f)
        assert g.log_tail(0.0) == d.log_tail(0.0)
        xs = grid[grid > t]
        lhs = np.atleast_1d(g.tail.log_tail(xs - t)) - np.atleast_1d(g.tail.log_tail(xs))
        rhs = (
            gamma * t
            + np.atleast_1d(d.tail.log_tail(xs - t))
            - np.atleast_1d(d.tail.log_tail(xs))
        )
        assert np.all(np.abs(lhs - rhs) <= 1e-12 * np.maximum(1.0, np.abs(rhs)))
    _ok("9 transform-algebra", "(composition, domination, shift transfer)")


# -------------------------------------------------------------- criterion 10


# Each experiment's checks in run order, and the constants its summary.json
# records; a check that drops out or a constant that moves fails here.
EXPERIMENT_CHECKS = {
    "prop-1.1": [
        "exam300-increasing-from-2", "exam300-explodes", "osstar-dominates-bound",
        "osstar-diverging", "os-identity-agrees", "os-transform-diverging",
    ],
    "prop-1.2": ["t-criterion-fails", "b2-transform-low", "os-transform-diverging"],
    "prop-1.3": [
        "t-ratio-near-1", "t-ratio-matches-step-sum", "shift-ratio-unsettled",
        "sgamma-against", "transform-light-tailed", "source-heavy-tailed", "b2-transform-rises",
    ],
    "prop-1.4": [
        "ol-bounded-but-not-1", "d-diverging", "weak-equiv-to-base", "t-ratio-rises",
        "b2-transform-rises",
    ],
    "thm-1.1": [
        "bound-3.5", "ol-identity", "weak-equiv-diverging", "five-windows-rise",
        "shift-ratio-unsettled", "b2-transform-rises",
    ],
}
# Each experiment's tables in write order, the order its summary.json lists.
EXPERIMENT_ARTIFACTS = {
    "prop-1.1": [
        "exam300.csv", "osstar_at_breakpoints.csv", "osstar_series.csv", "os_identity_check.csv",
        "os_transform.csv",
    ],
    "prop-1.2": ["t_ratio.csv", "b2_transform.csv", "os_transform.csv"],
    "prop-1.3": ["t_ratio.csv", "shift_ratio.csv", "os_transform.csv", "b2_transform.csv"],
    "prop-1.4": [
        "ol_series.csv", "d_series.csv", "weak_equiv_base.csv", "t_ratio.csv", "b2_transform.csv",
    ],
    "thm-1.1": [
        "bound35.csv", "ol_identity.csv", "weak_equiv.csv", "t_windows.csv", "shift_ratio.csv",
        "b2_transform.csv",
    ],
}
EXPERIMENT_CONFIGS = {
    "prop-1.1": {
        "gamma": 1.0, "bound_n": [1, 2, 3, 4], "gate_n": [1, 2, 3], "x_cap": 1e24,
        "identity_x": [1.0, 2.0, 5.0, 10.0, 100.0, 1e4, 1e6], "rel_tol": 1e-7,
    },
    "prop-1.2": {
        "gamma": 1.0, "K_list": [5.0, 10.0], "deep_x": [2237.9586057345873, 1e22, 1e24],
        "b2_K_list": [4.0, 16.0], "t_gate": 0.5, "x_cap": 1e24, "rel_tol": 1e-7,
    },
    "prop-1.3": {
        "gamma": 0.5, "K_list": [64.0, 256.0, 1024.0], "m_grid": list(range(12, 21)),
        "gate_m_min": 15, "gate_level": 0.9, "b2_K_list": [64.0, 1024.0], "b2_x": 262144.0,
        "rel_tol": 1e-7,
    },
    "prop-1.4": {
        "a": 2.0, "gamma": 1.0, "K_list": [16.0, 64.0, 256.0], "x_star": 1e8, "x_lo": 4.0,
        "x_hi": 1e8, "n_grid": 40, "t": 1.0, "gate_level": 0.85, "rel_tol": 1e-7,
    },
    "thm-1.1": {
        "alpha": 5.5, "x1": 4096.0, "m": 2, "gamma": 1.0, "t_list": [1.0, 2.0, 4.0, 8.0, 16.0],
        "ol_t_list": [1.0, 2.0, 4.0], "K_windows": [512.0, 1024.0, 2048.0, 4096.0],
        "n_window": 3, "gate_level": 0.9, "b2_gate_level": 0.85, "rel_tol": 1e-7,
    },
}


def test_10_cli_experiment_determinism(tmp_path):
    assert list(EXPERIMENT_CHECKS) == list(EXPERIMENT_ARTIFACTS) == list(tf.EXPERIMENT_IDS)
    for exp_id in tf.EXPERIMENT_IDS:
        d1 = tmp_path / exp_id / "run1"
        d2 = tmp_path / exp_id / "run2"
        assert main(["experiment", exp_id, "--out", str(d1)]) == 0, exp_id
        assert main(["experiment", exp_id, "--out", str(d2)]) == 0
        names1 = sorted(p.name for p in d1.iterdir())
        names2 = sorted(p.name for p in d2.iterdir())
        assert names1 == names2
        for name in names1:
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), (exp_id, name)
        summary = json.loads((d1 / "summary.json").read_text())
        assert summary["passed"] is True
        # the artifact list names every file but itself, in write order
        artifacts = summary["artifacts"]
        assert artifacts == EXPERIMENT_ARTIFACTS[exp_id], exp_id
        assert sorted([*artifacts, "summary.json"]) == names1, exp_id
        assert [c["name"] for c in summary["expectations"]] == EXPERIMENT_CHECKS[exp_id]
        # items, not the dict: the key order is part of the byte-stable file
        config = list(summary["config"].items())
        assert config == list(EXPERIMENT_CONFIGS[exp_id].items()), exp_id
    _ok("10 determinism", f"({len(tf.EXPERIMENT_IDS)} experiments byte-stable)")
