"""The decision-constant mutant table.

Each of the thresholds named in ``functionals``' threshold block, perturbed
alone, flips one named cheap check: a constructed series read by the rule
that uses the constant, or a single ``classify`` call.  A row pins the
check's outcome at the shipped value and at the perturbed one, so a
constant that stops deciding anything fails here.
"""

import inspect
import math
import re

import numpy as np
import pytest

import tailforge as tf
from tailforge import functionals

_GRID12 = np.geomspace(4.0, 1e6, 12)


def _series(values):
    return functionals.DiagSeries.build("lgamma", "x", _GRID12, np.log(values), rel_tol=1e-7)


def band_series_trend():
    # flat at 1 but for one step to 1.05 in the last quarter: a spread of
    # 0.05 against a band of 2 x 0.02 or 2 x 0.03 around the mean
    values = np.ones(12)
    values[10] = 1.05
    return functionals.classify_trend(_GRID12, values)[0]


def three_changes_trend():
    # 3 sign changes on 11 steps: more than 0.25 of them, fewer than 0.35
    values = [2.0, 3.0, 4.0, 5.0, 4.5, 5.5, 6.5, 7.5, 8.5, 9.5, 9.0, 8.5]
    return functionals.classify_trend(_GRID12, np.array(values))[0]


def pareto_j_below_100():
    # the window [4, 100] holds 4 grid points from 64 up and 1 from 96 up
    return tf.classify(tf.pareto(3.0), tf.ClassifyConfig(x_hi=100.0)).verdict("J")


def _j_verdict(profile):
    """J read off one K = 4 profile, one value per x = 64, 128, ..."""
    jobs = [(64.0 * 2**i, [4.0]) for i in range(len(profile))]
    conv2 = [(0.0, [[math.log(v / 2.0)]]) for v in profile]
    return functionals._classify_j(tf.QuadConfig(), [4.0], jobs, conv2, os_against=False).verdict


def j_late_minimum_093():
    return _j_verdict([0.8, 0.85, 0.93, 0.93])


def j_late_minimum_045():
    return _j_verdict([0.35, 0.4, 0.45, 0.45])


def shift_settled_off_by_0055():
    return functionals._settles_at_one([_series(np.full(12, 1.055))])


def shift_late_excursion_07():
    # settles at 1, but one point of the last half, before the last
    # quarter, strays 0.7 from it: past 10 x 0.05, within 20 x 0.05
    values = np.ones(12)
    values[7] = 1.7
    return functionals._settles_at_one([_series(values)])


def halving_spread_80():
    # one early spike of 80 over a flat halving ratio
    real = functionals.ratio_diagnostic

    def halving(d, kind, xgrid, **kw):
        if kind == "d":
            return _series(np.array([80.0] + [1.0] * 11))
        return real(d, kind, xgrid, **kw)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(functionals, "ratio_diagnostic", halving)
        return tf.classify(tf.exponential(1.0)).verdict("D")


def tilted_pareto_s():
    # the two-fold ratio settles at 2.3: outside 2 +- 0.2, inside 2 +- 0.4
    return tf.classify(tf.gamma_transform(tf.pareto(3.0), 0.3)).verdict("S")


def weibull_09_j():
    # J reads K = q(0.003) = 7.06, whose late minimum 0.904 clears 0.9;
    # K = q(0.006) = 6.13 reads 0.876
    return tf.classify(tf.weibull_heavy(0.9), tf.ClassifyConfig(x_hi=1e4)).verdict("J")


# (constant, perturbed value, check, outcome at the shipped value, outcome perturbed)
ROWS = [
    ("_CONVERGE_BAND", 0.03, band_series_trend, "increasing", "converging"),
    ("_OSCILLATE_FRAC", 0.35, three_changes_trend, "oscillating", "increasing"),
    ("_K_LEVELS", (0.3, 0.1, 0.03, 0.01, 0.006), weibull_09_j, "evidence-for", "inconclusive"),
    ("_J_X_LO", 96.0, pareto_j_below_100, "evidence-for", "inconclusive"),
    ("_J_HI", 0.95, j_late_minimum_093, "evidence-for", "inconclusive"),
    ("_J_LO", 0.4, j_late_minimum_045, "evidence-against", "inconclusive"),
    ("_L_TOL", 0.06, shift_settled_off_by_0055, "evidence-against", "evidence-for"),
    ("_L_EXCURSION", 20.0, shift_late_excursion_07, "evidence-against", "evidence-for"),
    ("_D_SPREAD", 50.0, halving_spread_80, "evidence-for", "inconclusive"),
    ("_S_REL_BAND", 0.2, tilted_pareto_s, "evidence-against", "evidence-for"),
]


def test_every_threshold_has_a_row():
    block = re.search(r"# -+ thresholds\n(.*?)# -+ trends", inspect.getsource(functionals), re.S)
    assert [row[0] for row in ROWS] == re.findall(r"^(_[A-Z_]+) = ", block[1], flags=re.M)


@pytest.mark.parametrize(
    "name, value, check, shipped, perturbed", ROWS, ids=[f"{r[0]}-{r[2].__name__}" for r in ROWS]
)
def test_perturbed_threshold_flips_its_check(monkeypatch, name, value, check, shipped, perturbed):
    assert check() == shipped
    monkeypatch.setattr(functionals, name, value)
    assert check() == perturbed
