"""Scripted proposition experiments.

Each experiment is a fixed script of one of the paper's constructions: its
laws, grids and qualitative expectations (trend directions, inequality
chains) are constants of that construction, kept in one private table per
experiment.  The run writes CSV evidence tables plus a summary.json that
records the table under ``"config"``, and succeeds (exit 0) iff every
expectation holds.  Expectations are deliberately qualitative: the
underlying statements are limits at infinity, and a desk-scale grid can
only trend toward them.

A claim that several experiments make is one helper (``_K_profile``,
``_os_transform``, ``_shift_ratio_unsettled``); a helper that one
construction alone needs sits beside its experiment.
"""

from __future__ import annotations

import math
import os
from pathlib import Path
from typing import Any

import numpy as np

from .builtins import (
    dyadic_pareto,
    fkz_a_sequence,
    fkz_example,
    plateau_example,
    weibull_heavy,
    xu_breakpoints,
    xu_piecewise,
)
from .convolve import _fused_and_split
from .distribution import Distribution, exp_moment, power_tail
from .errors import DivergenceError, ParameterError, TailforgeError, TruncationError
from .export import _write_csv, _write_json, export_grid
from .functionals import (
    _b2_profile,
    _t_ratios,
    geometric_grid,
    ratio_diagnostic,
    shift_probe_grid,
    weak_equiv_diag,
)
from .quadrature import QuadConfig
from .transform import gamma_transform

__all__ = ["EXPERIMENT_IDS", "exam300_lower_bound", "run_experiment"]

EXPERIMENT_IDS = ("prop-1.1", "prop-1.2", "prop-1.3", "prop-1.4", "thm-1.1")


class _Run:
    """One experiment's output directory, its checks, and the names of the
    tables it wrote, in write order."""

    def __init__(self, out: Path) -> None:
        self.out = out
        self.items: list[dict[str, Any]] = []
        self.artifacts: list[str] = []

    def table(self, name: str, header: list[str], rows) -> None:
        _write_csv(self.out / name, header, rows)
        self.artifacts.append(name)

    def series(self, name: str, result) -> None:
        export_grid(result, "csv", self.out / name)
        self.artifacts.append(name)

    def check(self, name: str, passed: bool, detail: str) -> None:
        self.items.append({"name": name, "passed": bool(passed), "detail": detail})

    @property
    def all_passed(self) -> bool:
        return all(item["passed"] for item in self.items)

    def first_failure(self) -> str | None:
        for item in self.items:
            if not item["passed"]:
                return item["name"]
        return None


def run_experiment(exp_id: str, out_dir: str | os.PathLike) -> int:
    """Run one scripted experiment; returns the exit status (0 pass, 1 fail)."""
    if exp_id not in EXPERIMENT_IDS:
        raise ParameterError(f"unknown experiment id {exp_id!r}; known: {EXPERIMENT_IDS}")
    runner, cfg = _SCRIPTS[exp_id]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    run = _Run(out)
    runner(cfg, QuadConfig(rel_tol=cfg["rel_tol"]), run)
    summary = {
        "experiment": exp_id,
        "config": cfg,
        "expectations": run.items,
        "passed": run.all_passed,
        "first_failure": run.first_failure(),
        "artifacts": run.artifacts,
    }
    _write_json(out / "summary.json", summary)
    return 0 if run.all_passed else 1


def _K_profile(run: _Run, col: str, Ks, x: float, vals: list[float], level: float | None) -> None:
    """Write one K-profile at threshold x as a ``K,x,<col>`` table and, given
    a level, expect it to rise: nondecreasing up to 1e-9 and ending at or
    above ``level``.  The b2 profile is the transform's, the t profile the
    source's."""
    name, check = {
        "b2": ("b2_transform.csv", "b2-transform-rises"),
        "t_ratio": ("t_ratio.csv", "t-ratio-rises"),
    }[col]
    run.table(name, ["K", "x", col], [(K, x, v) for K, v in zip(Ks, vals)])
    if level is not None:
        rises = all(b >= a - 1e-9 for a, b in zip(vals, vals[1:])) and vals[-1] >= level
        run.check(check, rises, f"profile {['%.4g' % v for v in vals]}")


def _os_transform(G: Distribution, grid, qcfg: QuadConfig, run: _Run, diverging: bool) -> None:
    """Write the transform's two-fold ratio F2bar(x)/F(x) to
    ``os_transform.csv`` and expect it to diverge (G lies outside OS) or,
    as evidence against S(gamma), not to converge."""
    os_g = ratio_diagnostic(G, "os", grid, cfg=qcfg)
    run.series("os_transform.csv", os_g)
    if diverging:
        run.check("os-transform-diverging", os_g.trend == "diverging", f"trend {os_g.trend}")
    else:
        run.check(
            "sgamma-against",
            os_g.trend != "converging",
            f"two-fold ratio of the transform has trend {os_g.trend}",
        )


def _shift_ratio_unsettled(G: Distribution, grid: np.ndarray, qcfg: QuadConfig, run: _Run) -> None:
    """Write G(x+1)/G(x) on the shift-probe grid to ``shift_ratio.csv`` and
    expect it not to settle: G is in L(beta) iff the ratio settles at
    e^{-beta}, so this one series refutes every rate."""
    shift = ratio_diagnostic(
        G, "lgamma", shift_probe_grid(G, grid, 1.0), t=1.0, gamma=0.0, cfg=qcfg
    )
    run.series("shift_ratio.csv", shift)
    run.check(
        "shift-ratio-unsettled", shift.trend != "converging", f"G(x+1)/G(x) trend {shift.trend}"
    )


# ------------------------------------------------------------------ prop 1.1

_PROP11: dict[str, Any] = {
    "gamma": 1.0,
    "bound_n": [1, 2, 3, 4],
    "gate_n": [1, 2, 3],
    # log tails beyond ~1e15 in magnitude lose all relative float
    # structure, so grids stop well before the last breakpoint
    "x_cap": 1.0e24,
    "identity_x": [1.0, 2.0, 5.0, 10.0, 100.0, 1e4, 1e6],
    "rel_tol": 1e-7,
}


def exam300_lower_bound(n: int) -> float:
    """(a_{n+1}^2 / 2 - a_n^2) * exp(-a_n) for the explosive-gap recursion
    a_{n+1} = exp(a_n)/a_n; strictly increasing for n >= 2 and unbounded."""
    if n < 1:
        raise ParameterError(f"need n >= 1, got {n}")
    a = fkz_a_sequence()
    if n + 1 >= len(a):
        raise TruncationError(
            f"a_{n + 1} is beyond the representable recursion (have {len(a) - 1} terms)"
        )
    gap = 0.5 * a[n + 1] ** 2 - a[n] ** 2
    if gap <= 0:
        return 0.0
    return math.exp(math.log(gap) - a[n])


def _run_prop11(cfg: dict, qcfg: QuadConfig, run: _Run) -> None:
    F = fkz_example()
    G = gamma_transform(F, cfg["gamma"])
    a = fkz_a_sequence()

    bounds = {n: exam300_lower_bound(n) for n in cfg["bound_n"]}
    run.table("exam300.csv", ["n", "lower_bound"], bounds.items())
    ns = sorted(cfg["bound_n"])
    increasing = all(
        bounds[ns[i + 1]] > bounds[ns[i]] for i in range(len(ns) - 1) if ns[i] >= 2
    )
    run.check("exam300-increasing-from-2", increasing, f"bounds {bounds}")
    run.check(
        "exam300-explodes", bounds[max(ns)] > 1e10, f"bound at n={max(ns)} is {bounds[max(ns)]:.3e}"
    )

    # Cross-integral ratio at the construction's breakpoints dominates the bound.
    ratio_rows = []
    chain_ok = True
    gate_x = [a[n + 1] ** 2 for n in cfg["gate_n"]]
    ratios = ratio_diagnostic(F, "osstar", gate_x, cfg=qcfg).values.tolist()
    for n, x, ratio in zip(cfg["gate_n"], gate_x, ratios):
        ratio_rows.append((n, x, ratio, bounds[n]))
        if not ratio >= bounds[n]:
            chain_ok = False
    run.table("osstar_at_breakpoints.csv", ["n", "x", "osstar_ratio", "lower_bound"], ratio_rows)
    run.check("osstar-dominates-bound", chain_ok, "cross-integral ratio >= lower bound at a_{n+1}^2")

    grid = geometric_grid(F, 2.0, cfg["x_cap"], 22)
    osstar = ratio_diagnostic(F, "osstar", grid, cfg=qcfg)
    run.series("osstar_series.csv", osstar)
    run.check("osstar-diverging", osstar.trend == "diverging", f"trend {osstar.trend}")

    # Tilted two-fold ratio, read through the base F on the full grid.  Its
    # two quadratures, fused (f + gamma F in one pass) and split (F2bar and
    # gamma int FF apart), must agree.
    id_rows = []
    id_ok = True
    xs = [float(x) for x in cfg["identity_x"]]
    for x, (fused, split) in zip(xs, _fused_and_split(F, cfg["gamma"], xs, qcfg)):
        rel = abs(math.expm1(split - fused))
        lt = F.tail.log_tail(x)
        id_rows.append((x, math.exp(fused - lt), math.exp(split - lt), rel))
        if rel > 1e-6:
            id_ok = False
    run.table("os_identity_check.csv", ["x", "fused", "split", "rel_err"], id_rows)
    run.check("os-identity-agrees", id_ok, "fused and split tilted ratios match to 1e-6")

    _os_transform(G, grid, qcfg, run, diverging=True)


# ------------------------------------------------------------------ prop 1.2

_PROP12: dict[str, Any] = {
    "gamma": 1.0,
    "K_list": [5.0, 10.0],
    "deep_x": [2237.9586057345873, 1.0e22, 1.0e24],
    "b2_K_list": [4.0, 16.0],
    "t_gate": 0.5,
    "x_cap": 1.0e24,
    "rel_tol": 1e-7,
}


def _run_prop12(cfg: dict, qcfg: QuadConfig, run: _Run) -> None:
    F = fkz_example()
    G = gamma_transform(F, cfg["gamma"])
    a = fkz_a_sequence()
    shallow_xs = [a[n] ** 2 for n in range(2, len(a)) if a[n] ** 2 <= cfg["x_cap"]]
    probe_xs = sorted(set(shallow_xs) | set(cfg["deep_x"]))

    pairs = [(K, x) for K in cfg["K_list"] for x in probe_xs if K <= x / 2]
    t_at = _t_ratios(F, pairs, qcfg)
    rows = []
    deep_ok = True
    for K, x in pairs:
        v = t_at[K, x]
        rows.append((K, x, v))
        if x in cfg["deep_x"] and v > cfg["t_gate"]:
            deep_ok = False
    run.table("t_ratio.csv", ["K", "x", "t_ratio"], rows)
    run.check(
        "t-criterion-fails",
        deep_ok,
        f"t_ratio at the deep probes stays <= {cfg['t_gate']}",
    )

    b2_vals = _b2_profile(G, a[4] ** 2, cfg["b2_K_list"], qcfg)
    _K_profile(run, "b2", cfg["b2_K_list"], a[4] ** 2, b2_vals, None)
    run.check(
        "b2-transform-low",
        not any(v > cfg["t_gate"] for v in b2_vals),
        f"small-summand probability stuck <= {cfg['t_gate']}",
    )

    _os_transform(G, geometric_grid(G, 2.0, cfg["x_cap"], 22), qcfg, run, diverging=True)


# ------------------------------------------------------------------ prop 1.3


def _dyadic_level(y: float) -> float:
    """dyadic_pareto's tail at y >= 0: 1 on [0, 2), 4^-n on [2^n, 2^(n+1))."""
    return 1.0 if y < 2.0 else math.ldexp(1.0, -2 * (math.frexp(y)[1] - 1))


def _dyadic_step_t(x: float, K: float) -> float:
    """t_ratio(dyadic_pareto(), x, K) as a finite sum, for x below the
    staircase's cut: F(x - y) F(y) is constant between consecutive cell
    edges 2^n and their mirrors x - 2^n, so each integral is a sum of level
    times overlap, exact up to the rounding of one ``math.fsum``."""
    edges = [0.0, x] + [e for n in range(1, math.frexp(x)[1] + 1) for e in (2.0**n, x - 2.0**n)]

    def integral(hi: float) -> float:
        pts = sorted({p for p in edges if 0.0 < p < hi} | {0.0, hi})
        return math.fsum(
            _dyadic_level(0.5 * (a + b)) * _dyadic_level(x - 0.5 * (a + b)) * (b - a)
            for a, b in zip(pts, pts[1:])
        )

    return 2.0 * integral(K) / integral(x)


_PROP13: dict[str, Any] = {
    "gamma": 0.5,
    "K_list": [64.0, 256.0, 1024.0],
    "m_grid": [12, 13, 14, 15, 16, 17, 18, 19, 20],
    "gate_m_min": 15,
    "gate_level": 0.9,
    "b2_K_list": [64.0, 1024.0],
    "b2_x": 262144.0,
    "rel_tol": 1e-7,
}


def _run_prop13(cfg: dict, qcfg: QuadConfig, run: _Run) -> None:
    F = dyadic_pareto()
    G = gamma_transform(F, cfg["gamma"])

    # t_ratio K-profiles on the power-of-two grid.
    cells = [(K, m) for K in cfg["K_list"] for m in cfg["m_grid"]]
    t_at = _t_ratios(F, [(K, 2.0**m) for K, m in cells], qcfg)
    rows = [(K, m, 2.0**m, t_at[K, 2.0**m]) for K, m in cells]
    run.table("t_ratio.csv", ["K", "m", "x", "t_ratio"], rows)
    K_max = max(cfg["K_list"])
    gate_min = min(t_at[K_max, 2.0**m] for m in cfg["m_grid"] if m >= cfg["gate_m_min"])
    run.check(
        "t-ratio-near-1",
        gate_min >= cfg["gate_level"],
        f"min t_ratio at K={K_max:g} over m >= {cfg['gate_m_min']} is {gate_min:.4g}",
    )
    tol = 10.0 * cfg["rel_tol"]
    gap = max(abs(t_at[K, 2.0**m] / _dyadic_step_t(2.0**m, K) - 1.0) for K, m in cells)
    run.check(
        "t-ratio-matches-step-sum",
        gap <= tol,
        f"largest relative gap to the exact step-function sum is {gap:.3e} "
        f"over {len(cells)} (K, x) cells; tolerance {tol:.3e}",
    )

    # The transform lies in no L(beta).
    _shift_ratio_unsettled(G, geometric_grid(G, 64.0, 2.0**20, 25), qcfg, run)

    # S(gamma) evidence-against: the two-fold ratio of G does not converge.
    _os_transform(G, geometric_grid(G, 4.0, 2.0**20, 22), qcfg, run, diverging=False)

    # Light/heavy control: tilted moment finite for the transform at rate
    # gamma/2, not certifiable for the heavy source.
    try:
        m_light = exp_moment(G, cfg["gamma"] / 2.0, qcfg)
        light_ok = math.isfinite(m_light)
    except TailforgeError:
        light_ok = False
    try:
        exp_moment(F, 0.05, qcfg)
        heavy_ok = False
    except (DivergenceError, TruncationError):
        heavy_ok = True
    run.check("transform-light-tailed", light_ok, "exp moment at gamma/2 finite for the transform")
    run.check("source-heavy-tailed", heavy_ok, "no positive exp moment certifiable for the source")

    # J evidence on the transform: small-summand profile rises with K.
    b2_vals = _b2_profile(G, cfg["b2_x"], cfg["b2_K_list"], qcfg)
    _K_profile(run, "b2", cfg["b2_K_list"], cfg["b2_x"], b2_vals, cfg["gate_level"])


# ------------------------------------------------------------------ prop 1.4

_PROP14: dict[str, Any] = {
    "a": 2.0,
    "gamma": 1.0,
    "K_list": [16.0, 64.0, 256.0],
    "x_star": 1.0e8,
    "x_lo": 4.0,
    "x_hi": 1.0e8,
    "n_grid": 40,
    "t": 1.0,
    "gate_level": 0.85,
    "rel_tol": 1e-7,
}


def _run_prop14(cfg: dict, qcfg: QuadConfig, run: _Run) -> None:
    F = plateau_example(a=cfg["a"])
    F1 = weibull_heavy(0.5)
    G = gamma_transform(F, cfg["gamma"])

    grid = geometric_grid(F, cfg["x_lo"], cfg["x_hi"], cfg["n_grid"])
    ol = ratio_diagnostic(F, "ol", grid, t=cfg["t"], cfg=qcfg)
    run.series("ol_series.csv", ol)
    late_max = float(np.max(ol.values[len(ol.values) // 2 :]))
    not_long = not (ol.trend == "converging" and ol.limit is not None and abs(ol.limit - 1) <= 0.02)
    run.check(
        "ol-bounded-but-not-1",
        not_long and cfg["a"] - 0.05 <= late_max <= cfg["a"] * (1.0 + 1e-3),
        f"late shift-ratio peak {late_max:.6g} pins the plateau factor a={cfg['a']:g}",
    )

    dser = ratio_diagnostic(F, "d", grid, cfg=qcfg)
    run.series("d_series.csv", dser)
    run.check("d-diverging", dser.trend == "diverging", f"halving ratio trend {dser.trend}")

    # Weak tail equivalence to the base: ratio pinned inside [1, a].
    lt_f = np.atleast_1d(F.tail.log_tail(grid))
    lt_f1 = np.atleast_1d(F1.tail.log_tail(grid))
    ratio = np.exp(lt_f - lt_f1)
    equiv_ok = bool(np.all(ratio >= 1.0 - 1e-9) and np.all(ratio <= cfg["a"] + 1e-9))
    run.table("weak_equiv_base.csv", ["x", "tail_ratio"], zip(grid, ratio))
    run.check("weak-equiv-to-base", equiv_ok, f"tail ratio within [1, {cfg['a']:g}]")

    # J mechanism on the source and the transform: profiles rise toward 1.
    Ks, x_star = cfg["K_list"], cfg["x_star"]
    t_at = _t_ratios(F, [(K, x_star) for K in Ks], qcfg)
    _K_profile(run, "t_ratio", Ks, x_star, [t_at[K, x_star] for K in Ks], cfg["gate_level"])
    b2_vals = _b2_profile(G, x_star, Ks, qcfg)
    _K_profile(run, "b2", Ks, x_star, b2_vals, cfg["gate_level"])


# ------------------------------------------------------------------- thm 1.1

_THM11: dict[str, Any] = {
    "alpha": 5.5,
    "x1": 4096.0,
    "m": 2,
    "gamma": 1.0,
    "t_list": [1.0, 2.0, 4.0, 8.0, 16.0],
    "ol_t_list": [1.0, 2.0, 4.0],
    "K_windows": [512.0, 1024.0, 2048.0, 4096.0],
    "n_window": 3,
    "gate_level": 0.9,
    "b2_gate_level": 0.85,
    "rel_tol": 1e-7,
}


def xu_window_labels(d: Distribution, xgrid, K: float) -> tuple[str, ...]:
    """Label each grid x with its ramp/plateau window.

    Windows per cycle: W1 = [x_n, x_n+K), W2 = [x_n+K, 1.5 x_n),
    W3 = [1.5 x_n, 2 x_n), W4 = [2 x_n, 2 x_n + K), W5 = [2 x_n + K, x_{n+1}).
    """
    xns = xu_breakpoints(d)
    labels = []
    for x in np.asarray(xgrid, dtype=float):
        idx = int(np.searchsorted(xns, x, side="right")) - 1
        if idx < 0:
            labels.append("head")
            continue
        xn = xns[idx]
        if x < xn + K:
            labels.append("W1")
        elif x < 1.5 * xn:
            labels.append("W2")
        elif x < 2.0 * xn:
            labels.append("W3")
        elif x < 2.0 * xn + K:
            labels.append("W4")
        else:
            labels.append("W5")
    return tuple(labels)


def _run_thm11(cfg: dict, qcfg: QuadConfig, run: _Run) -> None:
    alpha, x1 = cfg["alpha"], cfg["x1"]
    F = xu_piecewise(alpha, x1, m=1)
    Fm = power_tail(F, cfg["m"])
    Gm = gamma_transform(Fm, cfg["gamma"])
    xns = xu_breakpoints(F)

    # Sandwich bound on a grid covering at least 10 cycles.
    n_cycles = 12
    grid = np.unique(
        np.concatenate(
            [
                xns[:n_cycles],
                1.5 * xns[:n_cycles],
                2.0 * xns[:n_cycles],
                np.geomspace(x1, float(xns[n_cycles - 1]) * 2.0, 40),
            ]
        )
    )
    lt = np.atleast_1d(F.tail.log_tail(grid))
    lo_bound = -(alpha + 1.0) * np.log(grid)
    hi_bound = alpha * math.log(2.0) - alpha * np.log(grid)
    slack = 1e-9
    bound_ok = bool(np.all(lt >= lo_bound - slack) and np.all(lt <= hi_bound + slack))
    rows = zip(grid, lt, lo_bound, hi_bound)
    run.table("bound35.csv", ["x", "log_tail", "log_lower", "log_upper"], rows)
    run.check("bound-3.5", bound_ok, f"sandwich holds on {len(grid)} points over {n_cycles} cycles")

    # Shift-ratio identity at the ramp tops: F(2x_n - t)/F(2x_n) = 1 + t - t/x_n.
    id_rows = []
    id_ok = True
    for n, xn in enumerate(xns, start=1):
        for t in cfg["ol_t_list"]:
            two_xn = 2.0 * xn
            if two_xn - t == two_xn or two_xn - t <= xn:  # t below one ulp at this scale
                continue
            ratio = math.exp(F.tail.log_tail(two_xn - t) - F.tail.log_tail(two_xn))
            target = 1.0 + t - t / xn
            rel = abs(ratio / target - 1.0)
            id_rows.append((n, t, ratio, target, rel))
            if rel > 1e-12:
                id_ok = False
    run.table("ol_identity.csv", ["n", "t", "ratio", "target", "rel_err"], id_rows)
    run.check("ol-identity", id_ok, f"{len(id_rows)} ramp-top ratios match 1 + t - t/x_n to 1e-12")

    # Not weakly equivalent to anything long-tailed: sup shift ratio diverges
    # in t.  The grid probes the recurring ramp tops from the second cycle
    # on; the one-off junction at x_1 is a transient a limsup proxy skips.
    rec = xns[1:n_cycles]
    xgrid = np.unique(np.concatenate([2.0 * rec, 1.5 * rec, rec]))
    weak = weak_equiv_diag(F, cfg["t_list"], xgrid)
    run.series("weak_equiv.csv", weak)
    run.check("weak-equiv-diverging", weak.trend == "diverging", f"trend {weak.trend}")

    # Five-window small-summand criterion: T rises toward 1 in K, uniformly.
    nw = cfg["n_window"]
    xn = float(xns[nw - 1])
    x_next = float(xns[nw])
    cells = []  # (K, window, x)
    for K in cfg["K_windows"]:
        xs = [
            xn + 0.5 * K,
            math.sqrt((xn + K) * 1.5 * xn),
            1.75 * xn,
            2.0 * xn + 0.5 * K,
            min(2.0 * xn + 2.0 * K, 0.5 * (2.0 * xn + K + x_next)),
        ]
        cells += [(K, w, x) for x, w in zip(xs, xu_window_labels(F, xs, K))]
    t_at = _t_ratios(F, [(K, x) for K, _, x in cells], qcfg)
    win_rows = []
    t_win: dict[float, dict[str, float]] = {K: {} for K in cfg["K_windows"]}
    for K, w, x in cells:
        v = t_at[K, x]
        win_rows.append((K, w, x, v))
        t_win[K][w] = v
    run.table("t_windows.csv", ["K", "window", "x", "t_ratio"], win_rows)
    ks = cfg["K_windows"]
    windows = sorted(t_win[ks[-1]])
    monotone = all(
        t_win[hi][w] >= t_win[lo][w] - 1e-9 for lo, hi in zip(ks, ks[1:]) for w in windows
    )
    top = min(t_win[ks[-1]].values())
    run.check(
        "five-windows-rise",
        monotone and top >= cfg["gate_level"],
        f"min T per window at K={ks[-1]:g} is {top:.4g}; windows {windows}",
    )

    # No exponential rate fits the tilted power family.
    lg_grid = geometric_grid(Gm, 64.0, float(xns[7]) * 2.0, 25)
    _shift_ratio_unsettled(Gm, lg_grid, qcfg, run)

    # J evidence for the tilted power family.
    x_star = 2.2 * xn
    b2_vals = _b2_profile(Gm, x_star, cfg["K_windows"], qcfg)
    _K_profile(run, "b2", cfg["K_windows"], x_star, b2_vals, cfg["b2_gate_level"])


_SCRIPTS = {
    "prop-1.1": (_run_prop11, _PROP11),
    "prop-1.2": (_run_prop12, _PROP12),
    "prop-1.3": (_run_prop13, _PROP13),
    "prop-1.4": (_run_prop14, _PROP14),
    "thm-1.1": (_run_thm11, _THM11),
}
