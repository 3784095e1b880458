import numpy as np
import pytest

import tailforge as tf
from tailforge.distribution import _cutoff, _seeds
from tailforge.quadrature import QuadConfig, log_quad


@pytest.fixture(scope="session")
def exp1():
    return tf.exponential(1.0)


@pytest.fixture(scope="session")
def pareto3():
    return tf.pareto(3.0)


@pytest.fixture(scope="session")
def dyadic():
    return tf.dyadic_pareto()


@pytest.fixture(scope="session")
def fkz():
    return tf.fkz_example()


@pytest.fixture(scope="session")
def xu55():
    return tf.xu_piecewise(5.5, 4096.0)


@pytest.fixture(scope="session")
def plateau2():
    return tf.plateau_example(2.0)


def ks_statistic(d, samples: np.ndarray) -> float:
    """Two-sided KS distance between the empirical tail and the true tail.

    Valid for mixed distributions (handles ties): the sup is attained at
    sample points, checked from both sides using the left-limit tail.
    """
    xs = np.sort(samples)
    n = len(xs)
    uniq = np.unique(xs)
    emp_gt = (n - np.searchsorted(xs, uniq, side="right")) / n  # P_hat(X > u)
    emp_ge = (n - np.searchsorted(xs, uniq, side="left")) / n  # P_hat(X >= u)
    tails = np.exp(np.atleast_1d(d.tail.log_tail(uniq)))
    tails_left = np.exp(np.atleast_1d(d.tail.log_tail_left(uniq)))
    return max(
        float(np.max(np.abs(emp_gt - tails))),
        float(np.max(np.abs(emp_ge - tails_left))),
    )


def measure_integral(d, lam: float) -> float:
    """integral e^{lam y} F(dy) over [0, inf) read off the measure: d's atoms
    plus one quadrature of the density ``TailCurve.log_density``, seeded and
    cut as the moments seed and cut theirs."""
    B = min(d.tail.truncation_hi, _cutoff(d, lam, 0))
    dens = log_quad(lambda y: d.tail._on_panels(y, lam=lam), 0.0, B, _seeds(d, B), QuadConfig())
    logs = [dens.log_value] + [a.log_mass + lam * a.location for a in d.atoms if a.location <= B]
    return float(np.exp(np.logaddexp.reduce(logs)))
