"""The three workloads: their inputs, their ops and the checks on each op.

Each workload is dominated by one numerical route of tailforge:

* ``evidence``      log-domain GK15 quadrature behind ``classify`` and the
                    scripted experiments;
* ``mc-crossval``   the inverse-transform Monte Carlo oracle
                    (``TailCurve.quantile``);
* ``bracket-fine``  the staircase convolutions behind n-fold brackets.

``WORKLOADS[name](seed, workdir)`` makes the laws (set-up), runs one warm-up
op on an input outside the timed set and returns the ops.  An op's ``run``
is the timed call; its ``check`` runs after the timed phase and compares the
result with values from ``oracles`` or with settled theory.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import oracles

import tailforge as tf

FOR, AGAINST = "evidence-for", "evidence-against"


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]  # None when the result is right


@dataclass
class Workload:
    ops: list[Op]
    # The child._probe whose slowdowns follow this workload's dominant layer;
    # ops_per_s rescales op times to reference host speed with it.
    probe: str
    # Check over all results of a run; None when it holds.
    check_all: Callable[[list[Any]], str | None] = lambda results: None


# ------------------------------------------------------------------ evidence
#
# Verdicts that theory settles, per law; README.md gives the source of each.
# classify's other verdicts are window-dependent evidence and stay unchecked.

_SETTLED = {
    "exponential(1)": {"L": AGAINST, "D": AGAINST, "OS": AGAINST, "S": AGAINST,
                       "J": AGAINST, "L(gamma)": FOR, "S(gamma)": AGAINST},
    "pareto(3)": {"L": FOR, "D": FOR, "OS": FOR, "S": FOR, "J": FOR, "L(gamma)": AGAINST},
    "weibull_heavy(0.5)": {"L": FOR, "D": AGAINST, "OS": FOR, "S": FOR, "L(gamma)": AGAINST},
    "dyadic_pareto": {"L": AGAINST, "D": FOR, "OL": FOR, "OS": FOR, "S": AGAINST},
    "fkz_example": {"L": FOR},
    "plateau_example(a=2)": {"L": AGAINST, "D": AGAINST, "S": AGAINST},
    "xu_piecewise(alpha=5.5, x1=4096)": {"L": AGAINST, "S": AGAINST},
}
_SETTLED_TILT = {  # tilts at gamma = 0.5
    "pareto(3)": {"L(gamma)": FOR, "S(gamma)": FOR},
    "weibull_heavy(0.5)": {"L(gamma)": FOR, "S(gamma)": FOR},
    "dyadic_pareto": {"L(gamma)": AGAINST, "S(gamma)": AGAINST},
    "fkz_example": {"L(gamma)": FOR},
    "xu_piecewise(alpha=5.5, x1=4096)": {"L(gamma)": AGAINST, "S(gamma)": AGAINST},
}
# Any tilt G = F e^{-gamma x} has G(x-t)/G(x) >= e^{gamma t} and
# G(x/2)/G(x) >= e^{gamma x/2}, so it is neither in L nor in D.
_TILT_ALWAYS = {"L": AGAINST, "D": AGAINST}


def _verdict_check(settled: dict[str, str]):
    def check(report) -> str | None:
        wrong = [
            f"{cls}: {report.verdict(cls)} ({report.entry(cls).detail}), expected {want}"
            for cls, want in settled.items()
            if report.verdict(cls) != want
        ]
        return "; ".join(wrong) or None

    return check


def _experiment_check(out_dir: str):
    def check(status: int) -> str | None:
        with open(os.path.join(out_dir, "summary.json"), encoding="utf-8") as fh:
            summary = json.load(fh)
        if status != 0 or summary["passed"] is not True:
            return f"status {status}, first failure {summary['first_failure']!r}"
        return None

    return check


def _evidence(seed: int, workdir: str) -> Workload:
    del seed  # every input is fixed
    laws = [
        tf.pareto(3.0),
        tf.exponential(1.0),
        tf.weibull_heavy(0.5),
        tf.dyadic_pareto(),
        tf.fkz_example(),
        tf.plateau_example(2.0),
        tf.xu_piecewise(5.5, 4096.0),
    ]
    ops = [
        Op(f"classify {d.label}", lambda d=d: tf.classify(d), _verdict_check(_SETTLED[d.label]))
        for d in laws
    ]
    # The tilted plateau is left out: it alone costs as much as the rest.
    for d in laws:
        if d.label in _SETTLED_TILT:
            g = tf.gamma_transform(d, 0.5)
            settled = {**_TILT_ALWAYS, **_SETTLED_TILT[d.label]}
            ops.append(Op(f"classify {g.label}", lambda g=g: tf.classify(g), _verdict_check(settled)))
    for exp_id in tf.EXPERIMENT_IDS:
        out = os.path.join(workdir, exp_id)
        ops.append(
            Op(f"experiment {exp_id}", lambda e=exp_id, o=out: tf.run_experiment(e, o),
               _experiment_check(out))
        )
    tf.classify(tf.exponential(2.0))  # warm-up
    return Workload(ops, "interpreter")


# --------------------------------------------------------------- mc-crossval
#
# The 36-scenario grid of acceptance criterion 8; each scenario is one op
# with its own Monte Carlo seed.

_MC_GRID = [
    ("exponential", [(n, x, K) for n in (2, 3) for x in (3.0, 5.0, 8.0) for K in (0.5, 1.0)]),
    ("pareto", [(n, x, K) for n in (2, 3) for x in (5.0, 10.0, 20.0) for K in (1.0, 4.0)]),
    ("dyadic", [(n, x, K) for n in (2, 3) for x in (6.0, 12.0, 24.0) for K in (2.0, 4.0)]),
]
_MC_N = 100_000


def _mc_check(law: str, scenario):
    n, x, K = scenario

    def check(table) -> str | None:
        row = table.rows[0]
        if row.error is not None:
            return row.error
        if abs(row.z) > 4.0:
            return f"|z| = {abs(row.z):.2f} > 4"
        if law == "exponential":
            truth = oracles.exp_jump_cond(n, x, K)
            if abs(row.estimate - truth) > 4.0 * row.std_error:
                return f"estimate {row.estimate:.5f} more than 4 SE from {truth:.5f}"
            if not oracles.within(row.bracket_lower, truth, row.bracket_upper):
                return f"bracket [{row.bracket_lower}, {row.bracket_upper}] misses {truth}"
        return None

    return check


def _mc_check_all(tables) -> str | None:
    zs = [abs(t.rows[0].z) for t in tables if t.rows[0].z is not None]
    if not zs:
        return None  # every scenario failed, and each counts as a failed op
    share = sum(z <= 3.0 for z in zs) / len(zs)
    return None if share >= 0.95 else f"only {share:.1%} of |z| <= 3"


def _mc_crossval(seed: int, workdir: str) -> Workload:
    del workdir
    rng = random.Random(f"mc-crossval/{seed}")
    laws = {"exponential": tf.exponential(1.0), "pareto": tf.pareto(3.0),
            "dyadic": tf.dyadic_pareto()}
    ops = []
    for law, scenarios in _MC_GRID:
        d = laws[law]
        for scen in scenarios:
            s = rng.getrandbits(63)
            ops.append(Op(
                f"mc {law} n={scen[0]} x={scen[1]:g} K={scen[2]:g}",
                lambda d=d, scen=scen, s=s: tf.mc_vs_quadrature(d, [scen], N=_MC_N, seed=s),
                _mc_check(law, scen),
            ))
    tf.mc_vs_quadrature(laws["dyadic"], [(2, 10.0, 3.0)], N=_MC_N, seed=rng.getrandbits(63))
    return Workload(ops, "interpreter", _mc_check_all)


# -------------------------------------------------------------- bracket-fine
#
# Per law: jump_cond and convn_tail_grid for n = 2, 3, 4, each at a
# seed-drawn resolution of 16000-25000 cells.  Atoms of dyadic_pareto sit on
# the nodes (h = 1/8); those of plateau_example(2) do not.

# Five cell counts spread over 16000-25000.  For each (op kind, n) the five
# laws take them in a seed-drawn order, each moved by a seed-drawn jitter of
# at most 100 cells; a bracket's cost depends on its cell count alone, so a
# run's total work stays the same across seeds while no input repeats.
_CELL_LEVELS = (16_000, 18_250, 20_500, 22_750, 25_000)
_CELL_JITTER = 100
# law -> range of the threshold x; dyadic instead fixes the step h = 1/8
_X_RANGE = {
    "exponential": (16.0, 32.0),
    "pareto": (60.0, 240.0),
    "plateau": (100.0, 400.0),
    "tilted-pareto": (15.0, 40.0),
}
_DYADIC_H = 0.125


def _log_within(lower: np.ndarray, log_truth: np.ndarray, upper: np.ndarray) -> np.ndarray:
    rtol = oracles.TRUTH_RTOL
    return (lower <= log_truth + rtol) & (log_truth - rtol <= upper)


def _grid_check(law: str, n: int):
    def check(bg) -> str | None:
        lo, up = bg.log_lower, bg.log_upper
        if not np.all(lo <= up):
            return "lower above upper"
        if not (np.all(lo[1:] <= lo[:-1]) and np.all(up[1:] <= up[:-1])):
            return "a tail increases"
        # Upper staircase = lower staircase shifted one cell per summand, so
        # upper[k] <= lower[k - n] up to the outward rounding margin m that
        # each of the two computed tails carries.
        eps = np.finfo(float).eps
        m = 4.0 * eps * n * max(len(bg.grid) - 1, 1)
        ref = lo[:-n]
        slack = 2.0 * (math.log1p(m) - math.log1p(-m)) + 8 * eps * np.abs(
            np.where(np.isfinite(ref), ref, 0.0))
        if not np.all(up[n:] <= ref + slack):
            return "staircase width property violated"
        if law == "exponential":
            truth = np.array([oracles.erlang_log_tail(n, float(v)) for v in bg.grid])
            if not np.all(_log_within(lo, truth, up)):
                return "bracket misses the Erlang tail"
        if law == "dyadic":
            M = len(bg.grid) - 1
            ks = sorted({M * j // 16 for j in range(1, 17)})
            truth = np.array([math.log(oracles.dyadic_tail(n, float(bg.grid[k]))) for k in ks])
            if not np.all(_log_within(lo[ks], truth, up[ks])):
                return "bracket misses the enumerated tail"
        return None

    return check


def _jump_check(law: str, n: int, x: float, K: float):
    def check(br) -> str | None:
        if not (0.0 <= br.lower <= br.upper <= 1.0):
            return f"bracket [{br.lower}, {br.upper}] not ordered inside [0, 1]"
        truth = None
        if law == "exponential":
            truth = oracles.exp_jump_cond(n, x, K)
        elif law == "dyadic":
            truth = oracles.dyadic_jump_cond(n, x, K)
        if truth is not None and not oracles.within(br.lower, truth, br.upper):
            return f"bracket [{br.lower}, {br.upper}] misses {truth}"
        return None

    return check


def _bracket_fine(seed: int, workdir: str) -> Workload:
    del workdir
    rng = random.Random(f"bracket-fine/{seed}")
    laws = {
        "exponential": tf.exponential(1.0),
        "dyadic": tf.dyadic_pareto(),
        "pareto": tf.pareto(3.0),
        "plateau": tf.plateau_example(2.0),
        "tilted-pareto": tf.gamma_transform(tf.pareto(3.0), 0.5),
    }
    order = {
        (kind, n): rng.sample(_CELL_LEVELS, len(_CELL_LEVELS))
        for kind in ("jump", "grid") for n in (2, 3, 4)
    }

    def draw(kind: str, n: int, i: int, law: str, above: int):
        """Cell count, step and threshold, with ``above`` nodes beyond x."""
        cells = order[kind, n][i] + rng.randint(-_CELL_JITTER, _CELL_JITTER)
        if law == "dyadic":
            return cells, _DYADIC_H, (cells - above) * _DYADIC_H
        x = rng.uniform(*_X_RANGE[law])
        return cells, x / (cells - above), x

    ops = []
    for i, (law, d) in enumerate(laws.items()):
        for n in (2, 3, 4):
            # jump_cond grids run to x + 2h
            cells, h, x = draw("jump", n, i, law, 2)
            K = x * rng.uniform(0.05, 0.3)
            ops.append(Op(
                f"jump_cond {law} n={n} cells={cells}",
                lambda d=d, n=n, x=x, K=K, h=h: tf.jump_cond(d, n, x, K, h),
                _jump_check(law, n, x, K),
            ))
            cells, h, x_max = draw("grid", n, i, law, 1)
            ops.append(Op(
                f"convn_tail_grid {law} n={n} cells={cells}",
                lambda d=d, n=n, x_max=x_max, h=h: tf.convn_tail_grid(d, n, x_max, h),
                _grid_check(law, n),
            ))
    tf.jump_cond(tf.exponential(2.0), 2, 4.0, 1.0, 0.01)  # warm-up
    return Workload(ops, "convolution")


WORKLOADS: dict[str, Callable[[int, str], Workload]] = {
    "evidence": _evidence,
    "mc-crossval": _mc_crossval,
    "bracket-fine": _bracket_fine,
}
