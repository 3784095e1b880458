"""Tail functionals and class diagnostics.

Everything here produces *numerical evidence* about limsup/liminf-style
class definitions: a finite grid of ratios plus a deterministic trend
classification.  Verdicts are reported as evidence-for / evidence-against /
inconclusive and never as theorem claims.

Trend rule (documented, pure function of the values):

1. converging(limit) when the last quarter of the series stays inside a
   relative band (default 2%) around its mean;
2. diverging when the final value exceeds ``diverge_ratio`` times the first
   (default 10x) and the least-squares slope of the last half of the series
   against log(parameter) is positive;
3. oscillating when successive differences change sign on more than
   ``oscillate_frac`` (default 25%) of the steps;
4. otherwise increasing or decreasing by the sign of that slope.

Ratio values are computed in the log domain and exponentiated with
saturation at the float maximum, so a series may legitimately end in
8.99e307 meaning "blew past any float"; the raw logs are kept alongside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .builtins import fkz_a_sequence
from .convolve import (
    _log_stieltjes_bands,
    convn_tail_grid,
    log_conv2_tail,
    log_cross_integral,
    trunc_convn_tail_grid,
)
from .distribution import Distribution, exp_moment
from .errors import (
    DivergenceError,
    InconclusiveBracketError,
    ParameterError,
    TailforgeError,
    TruncationError,
)
from .quadrature import QuadConfig
from .tailcurve import TailCurve, _logsumexp_list, normal_form

__all__ = [
    "TrendConfig",
    "DiagSeries",
    "ClassEntry",
    "ClassReport",
    "ClassifyConfig",
    "JumpProfile",
    "classify_trend",
    "t_ratio",
    "b2_cond",
    "jump_cond",
    "jump_profile",
    "ratio_diagnostic",
    "exam300_lower_bound",
    "weak_equiv_diag",
    "classify",
    "geometric_grid",
    "shift_probe_grid",
    "xu_window_labels",
]

_NEG_INF = float("-inf")
_SAT_LOG = 709.0  # exp saturates just below float max

EVIDENCE_DISCLAIMER = "numerical evidence, not proof"


# ------------------------------------------------------------------- trends


@dataclass(frozen=True)
class TrendConfig:
    """Thresholds for the deterministic trend classifier."""

    converge_band: float = 0.02
    diverge_ratio: float = 10.0
    oscillate_frac: float = 0.25


def _untilted_base_curve(d: Distribution):
    """The source curve beneath a (possibly nested) tilt, or None."""
    cores = []
    for seg in d.tail.segments:
        rate, core, _, _ = normal_form(seg)
        if rate <= 0:
            return None
        cores.append(core)
    return TailCurve(cores, validate=False)


def classify_trend(
    grid: np.ndarray, values: np.ndarray, cfg: TrendConfig | None = None
) -> tuple[str, float | None]:
    """Classify a ratio series; returns (trend, limit_estimate_or_None)."""
    cfg = cfg or TrendConfig()
    grid = np.asarray(grid, dtype=float)
    values = np.asarray(values, dtype=float)
    n = len(values)
    if n < 3:
        return "inconclusive", None
    quarter = values[min(3 * n // 4, n - 2) :]
    center = float(np.mean(quarter))
    band = cfg.converge_band * max(abs(center), 1e-300)
    if float(np.max(quarter) - np.min(quarter)) <= 2 * band:
        return "converging", center
    half_v = values[n // 2 :]
    half_g = np.log(grid[n // 2 :])
    slope = float(np.polyfit(half_g, half_v, 1)[0]) if len(half_v) >= 2 else 0.0
    if values[-1] > cfg.diverge_ratio * values[0] and slope > 0:
        return "diverging", None
    diffs = np.diff(values)
    nz = diffs[diffs != 0]
    sign_changes = int(np.sum(nz[:-1] * nz[1:] < 0)) if len(nz) > 1 else 0
    if len(diffs) > 0 and sign_changes > cfg.oscillate_frac * len(diffs):
        return "oscillating", None
    return ("increasing" if slope > 0 else "decreasing"), None


@dataclass(frozen=True)
class DiagSeries:
    """Grid of ratio values standing in for a limsup/liminf.

    ``values`` = exp(log_values) saturated at the float maximum; ``trend``
    follows the documented classifier rule; ``limit`` is the last-quarter
    mean when the trend is converging.  ``windows`` optionally labels which
    ramp/plateau window each grid point falls in.
    """

    kind: str
    param_name: str
    grid: np.ndarray
    log_values: np.ndarray
    trend: str
    limit: float | None = None
    windows: tuple[str, ...] | None = None

    @property
    def values(self) -> np.ndarray:
        return np.exp(np.minimum(self.log_values, _SAT_LOG))

    @staticmethod
    def build(
        kind: str,
        param_name: str,
        grid,
        log_values,
        trend_cfg: TrendConfig | None = None,
        windows: tuple[str, ...] | None = None,
    ) -> "DiagSeries":
        grid = np.asarray(grid, dtype=float)
        log_values = np.asarray(log_values, dtype=float)
        if len(log_values) >= 3 and float(np.max(log_values[len(log_values) // 2 :])) >= _SAT_LOG:
            # Ratio blew past float range: divergence at any desk scale.
            trend, limit = "diverging", None
        else:
            vals = np.exp(np.minimum(log_values, _SAT_LOG))
            trend, limit = classify_trend(grid, vals, trend_cfg)
        return DiagSeries(kind, param_name, grid, log_values, trend, limit, windows)


# ----------------------------------------------------------------- t / b2 / jump


def t_ratio(d: Distribution, x: float, K: float, cfg: QuadConfig | None = None) -> float:
    """2 int_0^K F(x-y) F(y) dy  /  int_0^x F(x-y) F(y) dy, in (0, 1].

    Exactly 1 at K = x/2 by the y -> x - y symmetry of the denominator.
    """
    if not (0 < K <= x / 2):
        raise ParameterError(f"need 0 < K <= x/2, got K={K}, x={x}")
    cfg = cfg or QuadConfig()
    log_num = math.log(2.0) + log_cross_integral(d, 0.0, K, x, cfg)
    log_den = math.log(2.0) + log_cross_integral(d, 0.0, x / 2.0, x, cfg)
    val = math.exp(log_num - log_den)
    return min(val, 1.0)


def b2_cond(d: Distribution, x: float, K: float, cfg: QuadConfig | None = None) -> float:
    """P(smaller of two iid copies <= K | their sum > x), for x > 2K > 0.

    Computed as 2 int_{[0,K]} F(x-y) F(dy) / F2bar(x); lies in [0, 1].
    """
    return _b2_profile(d, x, [K], cfg or QuadConfig())[0]


def _b2_profile(d: Distribution, x: float, Ks: list[float], cfg: QuadConfig) -> list[float]:
    """``b2_cond(d, x, K)`` for each K of the increasing list ``Ks``.

    One banded Stieltjes pass over [0, max K], cut at every K, gives the
    numerators as prefix sums, so the profile is nondecreasing in K; the
    denominator is the whole two-fold tail, computed once.
    """
    for K in Ks:
        if not (x > 2 * K > 0):
            raise ParameterError(f"need x > 2K > 0, got x={x}, K={K}")
    if not all(a < b for a, b in zip(Ks, Ks[1:])):
        raise ParameterError(f"K values must increase, got {Ks}")
    bands = _log_stieltjes_bands(d, x, Ks, cfg)
    log_den = log_conv2_tail(d, x, cfg)
    out: list[float] = []
    terms: list[float] = []
    log_prefix = _NEG_INF
    for band in bands:
        terms.extend(band)
        # max() keeps the prefix exactly nondecreasing under rounding.
        log_prefix = max(log_prefix, _logsumexp_list(terms))
        if log_prefix == _NEG_INF:
            out.append(0.0)
        else:
            out.append(min(math.exp(math.log(2.0) + log_prefix - log_den), 1.0))
    return out


@dataclass(frozen=True)
class JumpBracket:
    """Certified enclosure of the single-big-jump conditional probability."""

    lower: float
    upper: float

    @property
    def mid(self) -> float:
        return 0.5 * (self.lower + self.upper)

    @property
    def width(self) -> float:
        return self.upper - self.lower


def jump_cond(
    d: Distribution, n: int, x: float, K: float, h: float
) -> JumpBracket:
    """Bracketed P(X_{n,1} > x - K | S_n > x) from staircase convolutions.

    The numerator complement P(all X_i <= x - K, S_n > x) comes from the
    truncated bracket, the denominator P(S_n > x) from the full bracket;
    interval arithmetic combines them.  K >= x makes the event sure.
    """
    if not 0 < x < math.inf:
        raise ParameterError(f"threshold x must be positive and finite, got {x}")
    if not -math.inf < K < math.inf:
        raise ParameterError(f"offset K must be finite, got {K}")
    if K >= x:
        return JumpBracket(1.0, 1.0)
    x_max = x + 2 * h
    den = convn_tail_grid(d, n, x_max, h)
    num = trunc_convn_tail_grid(d, n, x - K, x_max, h)
    den_lo, den_up = den.at(x)
    num_lo, num_up = num.at(x)
    if den_lo <= 0.0:
        raise InconclusiveBracketError(
            f"P(S_{n} > {x}) lower bound is 0 at step h={h}; bracket degenerate"
        )
    ratio_lo = min(num_lo / den_up, 1.0) if den_up > 0 else 0.0
    ratio_up = min(num_up / den_lo, 1.0)
    return JumpBracket(max(1.0 - ratio_up, 0.0), min(1.0 - ratio_lo, 1.0))


@dataclass(frozen=True)
class JumpProfile:
    """Jump-conditional brackets over a (K, x) grid for fixed fold count."""

    n: int
    K_grid: np.ndarray
    x_grid: np.ndarray
    lower: np.ndarray  # shape (len(K_grid), len(x_grid))
    upper: np.ndarray

    def __post_init__(self):
        if np.any(self.lower > self.upper + 1e-12):
            raise ParameterError("jump profile invariant violated: lower > upper")


def jump_profile(
    d: Distribution, n: int, x_grid, K_grid, h: float
) -> JumpProfile:
    x_grid = np.asarray(x_grid, dtype=float)
    K_grid = np.asarray(K_grid, dtype=float)
    lower = np.zeros((len(K_grid), len(x_grid)))
    upper = np.zeros_like(lower)
    for i, K in enumerate(K_grid):
        for j, x in enumerate(x_grid):
            br = jump_cond(d, n, float(x), float(K), h)
            lower[i, j] = br.lower
            upper[i, j] = br.upper
    return JumpProfile(n, K_grid, x_grid, lower, upper)


# --------------------------------------------------------- ratio diagnostics


def geometric_grid(
    d: Distribution, x_lo: float, x_hi: float, n: int, augment: bool = True
) -> np.ndarray:
    """Geometric grid clipped to the materialized range, augmented with the
    curve's breakpoints (oscillation lives exactly there)."""
    hi = min(x_hi, d.tail.truncation_hi)
    if hi <= x_lo:
        raise ParameterError(f"empty grid: [{x_lo}, {hi}]")
    pts = np.geomspace(x_lo, hi, n)
    if augment:
        bps = d.tail.breakpoints()
        bps = bps[(bps >= x_lo) & (bps <= hi)]
        pts = np.concatenate([pts, bps])
    return np.unique(pts)


def shift_probe_grid(d: Distribution, xgrid, t: float) -> np.ndarray:
    """Augment a grid with points t below each breakpoint: that is where the
    forward-shift ratio F(x+t)/F(x) exposes a staircase oscillation that a
    plain geometric grid slides past."""
    xs = np.asarray(xgrid, dtype=float)
    bps = d.tail.breakpoints() - t
    bps = bps[(bps >= xs.min()) & (bps <= xs.max())]
    return np.unique(np.concatenate([xs, bps]))


def ratio_diagnostic(
    d: Distribution,
    kind: str,
    xgrid,
    t: float = 1.0,
    gamma: float = 1.0,
    cfg: QuadConfig | None = None,
    trend_cfg: TrendConfig | None = None,
    windows: tuple[str, ...] | None = None,
) -> DiagSeries:
    """Per-x ratio series for one of the class functionals.

    kind: 'ol'      F(x-t)/F(x)                (finite limsup <=> OL)
          'd'       F(x/2)/F(x)                (bounded <=> D)
          'lgamma'  e^{gamma t} F(x+t)/F(x)    (-> 1 <=> L(gamma))
          'os'      F2bar(x)/F(x)              (bounded <=> OS)
          'osstar'  int_0^x F(x-y)F(y)dy/F(x)  (bounded <=> OS*)
    """
    cfg = cfg or QuadConfig()
    xs = np.unique(np.asarray(xgrid, dtype=float))
    if kind in ("ol", "lgamma") and t >= xs.min():
        raise ParameterError(f"shift t={t} must be below the smallest grid x={xs.min()}")
    logs = np.empty(len(xs))
    curve = d.tail
    if kind == "ol":
        lt = np.atleast_1d(curve.log_tail(xs))
        lt_sh = np.atleast_1d(curve.log_tail(xs - t))
        logs = lt_sh - lt
    elif kind == "d":
        lt = np.atleast_1d(curve.log_tail(xs))
        lt_half = np.atleast_1d(curve.log_tail(xs / 2.0))
        logs = lt_half - lt
    elif kind == "lgamma":
        if np.any(xs + t > curve.truncation_hi):
            xs = xs[xs + t <= curve.truncation_hi]
            logs = np.empty(len(xs))
        lt = np.atleast_1d(curve.log_tail(xs))
        lt_sh = np.atleast_1d(curve.log_tail(xs + t))
        logs = gamma * t + lt_sh - lt
    elif kind == "os":
        for i, x in enumerate(xs):
            logs[i] = log_conv2_tail(d, float(x), cfg) - curve.log_tail(float(x))
    elif kind == "osstar":
        for i, x in enumerate(xs):
            logs[i] = log_cross_integral(d, 0.0, float(x), float(x), cfg) - curve.log_tail(float(x))
    else:
        raise ParameterError(f"unknown ratio kind {kind!r}")
    return DiagSeries.build(kind, "x", xs, logs, trend_cfg, windows)


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


def weak_equiv_diag(
    d: Distribution,
    tgrid,
    xgrid,
    trend_cfg: TrendConfig | None = None,
) -> DiagSeries:
    """Series over t of sup over the x grid of F(x-t)/F(x).

    A diverging trend is numerical evidence that the tail is not weakly
    equivalent to any long-tailed function.  Because t grids span about a
    decade (not the decades x grids cover), the default divergence ratio
    here is 4 rather than the generic 10.
    """
    tgrid = np.asarray(tgrid, dtype=float)
    xs = np.asarray(xgrid, dtype=float)
    if tgrid.max() >= xs.min():
        raise ParameterError("largest t must stay below the smallest grid x")
    trend_cfg = trend_cfg or TrendConfig(diverge_ratio=4.0)
    curve = d.tail
    lt = np.atleast_1d(curve.log_tail(xs))
    sups = np.empty(len(tgrid))
    for i, t in enumerate(tgrid):
        lt_sh = np.atleast_1d(curve.log_tail(xs - t))
        sups[i] = float(np.max(lt_sh - lt))
    return DiagSeries.build("weak_equiv", "t", tgrid, sups, trend_cfg)


def xu_window_labels(d: Distribution, xgrid, K: float) -> tuple[str, ...]:
    """Label each grid x with its ramp/plateau window.

    Windows per cycle: W1 = [x_n, x_n+K), W2 = [x_n+K, 1.5 x_n),
    W3 = [1.5 x_n, 2 x_n), W4 = [2 x_n, 2 x_n + K), W5 = [2 x_n + K, x_{n+1}).
    """
    from .builtins import xu_breakpoints

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


# ---------------------------------------------------------------- classify


@dataclass(frozen=True)
class ClassifyConfig:
    """Grids and deterministic verdict thresholds for classify().

    ``K_list`` may be given explicitly; by default the K grid is derived
    from the distribution's own quantiles at ``K_levels`` (plus the untilted
    base's quantiles for tilted laws) so that the small-summand profile
    always probes K values carrying most of the mass; a fixed K grid says
    nothing about a law whose mean sits at 2000.

    Verdicts are relative to the configured x window: a construction whose
    defining excursions live beyond ``x_hi`` (doubly-exponential breakpoint
    spacing, say) reads as bounded here, and the scripted experiments with
    purpose-built grids are the instrument for those.
    """

    x_lo: float = 4.0
    x_hi: float = 1.0e6
    n_grid: int = 28
    t_list: tuple[float, ...] = (1.0, 2.0)
    gamma_grid: tuple[float, ...] = (0.25, 0.5, 1.0, 2.0)
    K_list: tuple[float, ...] | None = None
    K_levels: tuple[float, ...] = (0.3, 0.1, 0.03, 0.01, 0.003)
    j_x_lo: float = 64.0
    j_n_grid: int = 10
    l_tol: float = 0.05
    s_rel_band: float = 0.1
    j_hi: float = 0.9
    j_lo: float = 0.5
    rel_tol: float = 1e-7
    trend: TrendConfig = field(default_factory=TrendConfig)

    def __post_init__(self):
        # Each condition is written so that NaN fails it.
        if not 0.0 < self.x_lo < self.x_hi:
            raise ParameterError(f"need 0 < x_lo < x_hi, got x_lo={self.x_lo}, x_hi={self.x_hi}")
        if not self.j_x_lo > 0.0:
            raise ParameterError(f"j_x_lo must be positive, got {self.j_x_lo}")
        if not (self.n_grid >= 2 and self.j_n_grid >= 2):
            raise ParameterError(
                f"grid sizes must be >= 2, got n_grid={self.n_grid}, j_n_grid={self.j_n_grid}"
            )
        for name in ("t_list", "gamma_grid", "K_list"):
            values = getattr(self, name) or ()
            if not all(v > 0.0 for v in values):
                raise ParameterError(f"{name} entries must be positive, got {values}")
        if not all(0.0 < u < 1.0 for u in self.K_levels):
            raise ParameterError(f"K_levels must lie in (0, 1), got {self.K_levels}")
        if not 0.0 < self.j_lo < self.j_hi <= 1.0:
            raise ParameterError(f"need 0 < j_lo < j_hi <= 1, got j_lo={self.j_lo}, j_hi={self.j_hi}")
        self.quad()  # refuses rel_tol <= 0

    def quad(self) -> QuadConfig:
        return QuadConfig(rel_tol=self.rel_tol)

    def resolve_K(self, d: Distribution) -> tuple[float, ...]:
        if self.K_list is not None:
            return self.K_list
        curves = [d.tail]
        base = _untilted_base_curve(d)
        if base is not None:
            # For a tilted law the small-summand scale is set by the heavy
            # base: the tilt compresses d's own quantiles to O(1/gamma)
            # while the conditional mechanism still integrates base mass.
            curves.append(base)
        ks = []
        for curve in curves:
            for u in sorted(self.K_levels, reverse=True):
                try:
                    ks.append(max(float(curve.quantile(u)), 1.0))
                except TailforgeError:
                    continue
        out = sorted(set(ks))
        return tuple(out) if out else (1.0, 4.0, 16.0)


@dataclass(frozen=True)
class ClassEntry:
    cls: str
    verdict: str  # evidence-for / evidence-against / inconclusive
    detail: str
    evidence: tuple[DiagSeries, ...] = ()


@dataclass(frozen=True)
class ClassReport:
    label: str
    entries: tuple[ClassEntry, ...]
    disclaimer: str = EVIDENCE_DISCLAIMER

    def verdict(self, cls: str) -> str:
        for e in self.entries:
            if e.cls == cls:
                return e.verdict
        raise KeyError(cls)

    def entry(self, cls: str) -> ClassEntry:
        for e in self.entries:
            if e.cls == cls:
                return e
        raise KeyError(cls)

    def summary(self) -> str:
        lines = [f"class report for {self.label} ({self.disclaimer})"]
        for e in self.entries:
            lines.append(f"  {e.cls:8s} {e.verdict:17s} {e.detail}")
        return "\n".join(lines)


def classify(d: Distribution, config: ClassifyConfig | None = None) -> ClassReport:
    """Run the full diagnostic battery and aggregate deterministic verdicts.

    The verdict rules are documented inline; every one of them reduces to
    thresholds from the config applied to trend classifications, so a report
    is reproducible from (distribution spec, config) alone.
    """
    cfg = config or ClassifyConfig()
    qcfg = cfg.quad()
    xgrid = geometric_grid(d, cfg.x_lo, cfg.x_hi, cfg.n_grid)
    entries: list[ClassEntry] = []

    # --- shift ratios: OL and L -------------------------------------------
    ol_series = []
    for t in cfg.t_list:
        if t < xgrid.min():
            ol_series.append(
                ratio_diagnostic(d, "ol", xgrid, t=t, cfg=qcfg, trend_cfg=cfg.trend)
            )
    ol_diverging = any(s.trend == "diverging" for s in ol_series)
    entries.append(
        ClassEntry(
            "OL",
            "evidence-against" if ol_diverging else "evidence-for",
            "shift ratio " + ("diverges" if ol_diverging else "stays bounded"),
            tuple(ol_series),
        )
    )
    def late_excursion(s: DiagSeries) -> float:
        half = s.values[len(s.values) // 2 :]
        return float(np.max(np.abs(half - 1.0)))

    l_ok = all(
        s.trend == "converging"
        and s.limit is not None
        and abs(s.limit - 1.0) <= cfg.l_tol
        and late_excursion(s) <= 10 * cfg.l_tol
        for s in ol_series
    ) and bool(ol_series)
    if l_ok:
        l_verdict, l_detail = "evidence-for", "shift ratios converge to 1"
    elif any(
        s.trend in ("oscillating", "diverging")
        or (s.trend == "converging" and s.limit is not None and abs(s.limit - 1.0) > cfg.l_tol)
        or late_excursion(s) > 10 * cfg.l_tol
        for s in ol_series
    ):
        # persistent late excursions away from 1 refute shift invariance even
        # when sparse spikes do not register as oscillation
        l_verdict, l_detail = "evidence-against", "shift ratio fails to settle at 1"
    else:
        l_verdict, l_detail = "inconclusive", "shift ratio trend ambiguous"
    entries.append(ClassEntry("L", l_verdict, l_detail, tuple(ol_series)))

    # --- dominated variation ----------------------------------------------
    d_series = ratio_diagnostic(d, "d", xgrid, cfg=qcfg, trend_cfg=cfg.trend)
    d_spread = float(np.max(d_series.values)) / max(float(np.median(d_series.values)), 1e-300)
    if d_series.trend == "diverging":
        d_verdict, d_detail = "evidence-against", "halving ratio diverges"
    elif d_series.trend in ("converging", "decreasing") and d_spread <= 100.0:
        d_verdict, d_detail = (
            "evidence-for",
            f"halving ratio bounded (limit ~ {d_series.limit:.4g})"
            if d_series.limit is not None
            else "halving ratio bounded",
        )
    elif d_series.trend == "oscillating" and d_spread <= 100.0:
        d_verdict, d_detail = "evidence-for", "halving ratio oscillates in a bounded band"
    else:
        # isolated excursions spanning orders of magnitude leave the limsup
        # genuinely undecided at desk scale
        d_verdict, d_detail = "inconclusive", f"halving ratio trend {d_series.trend}"
    entries.append(ClassEntry("D", d_verdict, d_detail, (d_series,)))

    # --- L(gamma) scan ------------------------------------------------------
    lg_series: list[DiagSeries] = []
    winner: float | None = None
    for g in cfg.gamma_grid:
        ok = True
        for t in cfg.t_list:
            s = ratio_diagnostic(
                d,
                "lgamma",
                shift_probe_grid(d, xgrid, t),
                t=t,
                gamma=g,
                cfg=qcfg,
                trend_cfg=cfg.trend,
            )
            lg_series.append(s)
            if not (
                s.trend == "converging" and s.limit is not None and abs(s.limit - 1.0) <= cfg.l_tol
            ):
                ok = False
        if ok and winner is None:
            winner = g
    if winner is not None:
        lg_verdict = "evidence-for"
        lg_detail = f"tilted shift ratio settles at 1 for gamma={winner:g}"
    else:
        lg_verdict = "evidence-against"
        lg_detail = f"no gamma in {cfg.gamma_grid} settles the tilted shift ratio at 1"
    entries.append(ClassEntry("L(gamma)", lg_verdict, lg_detail, tuple(lg_series)))

    # --- convolution ratios: OS, OS*, S ------------------------------------
    os_series = ratio_diagnostic(d, "os", xgrid, cfg=qcfg, trend_cfg=cfg.trend)
    osstar_series = ratio_diagnostic(d, "osstar", xgrid, cfg=qcfg, trend_cfg=cfg.trend)
    os_against = os_series.trend == "diverging"
    entries.append(
        ClassEntry(
            "OS",
            "evidence-against" if os_against else "evidence-for",
            f"two-fold ratio trend {os_series.trend}"
            + (f", limit ~ {os_series.limit:.4g}" if os_series.limit is not None else ""),
            (os_series,),
        )
    )
    entries.append(
        ClassEntry(
            "OS*",
            "evidence-against" if osstar_series.trend == "diverging" else "evidence-for",
            f"cross-integral ratio trend {osstar_series.trend}",
            (osstar_series,),
        )
    )
    s_band = cfg.s_rel_band * 2.0
    os_late_max = float(np.max(os_series.values[len(os_series.values) // 2 :]))
    if os_series.trend == "converging" and os_series.limit is not None:
        if abs(os_series.limit - 2.0) <= s_band and os_late_max <= 2.0 + 2 * s_band:
            s_verdict, s_detail = "evidence-for", f"two-fold ratio -> {os_series.limit:.4g} ~ 2"
        else:
            s_verdict, s_detail = (
                "evidence-against",
                f"two-fold ratio converges to {os_series.limit:.4g} != 2",
            )
    elif os_series.trend == "diverging":
        s_verdict, s_detail = "evidence-against", "two-fold ratio diverges"
    elif os_late_max > 2.0 + s_band:
        # recurring late excess over 2 refutes convergence to 2 whether or
        # not sparse spikes register as oscillation
        s_verdict, s_detail = (
            "evidence-against",
            f"two-fold ratio keeps exceeding 2 (late max {os_late_max:.4g})",
        )
    else:
        s_verdict, s_detail = "inconclusive", f"two-fold ratio trend {os_series.trend}"
    entries.append(ClassEntry("S", s_verdict, s_detail, (os_series,)))

    # --- S(gamma) ------------------------------------------------------------
    if winner is None:
        entries.append(
            ClassEntry(
                "S(gamma)",
                "evidence-against",
                "no exponential shift rate found (not in any L(gamma))",
            )
        )
    else:
        try:
            m_gamma = exp_moment(d, winner, qcfg)
        except (DivergenceError, TruncationError) as exc:
            entries.append(
                ClassEntry(
                    "S(gamma)",
                    "evidence-against",
                    f"tilted moment at gamma={winner:g} not finite ({exc})",
                )
            )
            m_gamma = None
        if m_gamma is not None:
            target = 2.0 * m_gamma
            if (
                os_series.trend == "converging"
                and os_series.limit is not None
                and abs(os_series.limit - target) <= cfg.s_rel_band * target
            ):
                entries.append(
                    ClassEntry(
                        "S(gamma)",
                        "evidence-for",
                        f"two-fold ratio -> {os_series.limit:.4g} ~ 2*m(gamma={winner:g}) = {target:.4g}",
                        (os_series,),
                    )
                )
            else:
                entries.append(
                    ClassEntry(
                        "S(gamma)",
                        "evidence-against",
                        f"two-fold ratio does not settle at 2*m(gamma={winner:g}) = {target:.4g}",
                        (os_series,),
                    )
                )

    # --- J: conditional-small-summand profile -------------------------------
    j_entries = _classify_j(d, cfg, qcfg, os_against)
    entries.append(j_entries)

    return ClassReport(d.label or "distribution", tuple(entries))


def _classify_j(
    d: Distribution, cfg: ClassifyConfig, qcfg: QuadConfig, os_against: bool
) -> ClassEntry:
    profiles: list[DiagSeries] = []
    proxies: list[float] = []
    K_list = cfg.resolve_K(d)
    grids: list[tuple[float, list[float]]] = []
    for K in K_list:
        lo = max(cfg.j_x_lo, 2.0 * K * 1.5)
        hi = min(cfg.x_hi, d.tail.truncation_hi)
        if hi <= lo * 2:
            continue
        grids.append((float(K), [float(x) for x in geometric_grid(d, lo, hi, cfg.j_n_grid)]))
    # One profile per threshold covers every K whose grid holds it; an x
    # that fails is dropped for all of them.
    Ks_at: dict[float, set[float]] = {}
    for K, grid in grids:
        for x in grid:
            Ks_at.setdefault(x, set()).add(K)
    b2: dict[tuple[float, float], float] = {}
    for x, K_set in Ks_at.items():
        Ks = sorted(K_set)
        try:
            b2.update(((x, K), v) for K, v in zip(Ks, _b2_profile(d, x, Ks, qcfg)))
        except TailforgeError:
            continue
    for K, grid in grids:
        kept_x = [x for x in grid if (x, K) in b2]
        vals = [b2[x, K] for x in kept_x]
        if len(vals) < 3:
            continue
        log_vals = np.log(np.maximum(vals, 1e-300))
        series = DiagSeries.build(f"b2(K={K:g})", "x", np.array(kept_x), log_vals, cfg.trend)
        profiles.append(series)
        half = np.asarray(vals)[len(vals) // 2 :]
        proxies.append(float(np.min(half)))
    if os_against:
        return ClassEntry(
            "J",
            "evidence-against",
            "two-fold ratio diverges (membership would require a bounded one)",
            tuple(profiles),
        )
    if not proxies:
        return ClassEntry("J", "inconclusive", "no usable (x, K) grid", tuple(profiles))
    nondecreasing = all(
        proxies[i + 1] >= proxies[i] - 0.05 for i in range(len(proxies) - 1)
    )
    if proxies[-1] >= cfg.j_hi and nondecreasing:
        verdict, detail = (
            "evidence-for",
            f"small-summand profile reaches {proxies[-1]:.4g} at K={K_list[-1]:g}",
        )
    elif proxies[-1] <= cfg.j_lo:
        verdict, detail = (
            "evidence-against",
            f"small-summand profile stuck at {proxies[-1]:.4g} at K={K_list[-1]:g}",
        )
    else:
        verdict, detail = (
            "inconclusive",
            f"profile at K={K_list[-1]:g} is {proxies[-1]:.4g}",
        )
    return ClassEntry("J", verdict, detail, tuple(profiles))
