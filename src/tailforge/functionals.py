"""Tail functionals and class diagnostics.

Everything here produces *numerical evidence* about limsup/liminf-style
class definitions: a finite grid of ratios plus a deterministic trend
classification.  Verdicts are reported as evidence-for / evidence-against /
inconclusive and never as theorem claims.

Trend rule (documented, pure function of the values):

1. converging(limit) when the last quarter of the series stays inside a
   relative band of ``_CONVERGE_BAND`` around its mean;
2. diverging when the final value exceeds ``diverge_ratio`` (10 by
   default) times the first and the least-squares slope of the last half
   of the series against log(parameter) is positive;
3. oscillating when successive differences change sign on more than
   ``_OSCILLATE_FRAC`` of the steps;
4. otherwise increasing or decreasing by the sign of that slope.

The thresholds of this rule and of ``classify``'s verdicts are the module
constants named in one block below, not settings.

Ratio values are computed in the log domain and exponentiated with
saturation at the float maximum, so a series may legitimately end in
8.99e307 meaning "blew past any float"; the raw logs are kept alongside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .convolve import (
    _brackets,
    _fold_count,
    _log_conv2_tails,
    _log_cross_integrals,
)
from .distribution import Distribution, _split_tilt, _terminal_rate, exp_moment
from .errors import (
    DivergenceError,
    InconclusiveBracketError,
    ParameterError,
    TailforgeError,
    ToleranceError,
    TruncationError,
    _count,
    _positive,
)
from .quadrature import QuadConfig, _logsumexp_list

__all__ = [
    "DiagSeries",
    "ClassEntry",
    "ClassReport",
    "ClassifyConfig",
    "classify_trend",
    "t_ratio",
    "b2_cond",
    "jump_cond",
    "ratio_diagnostic",
    "weak_equiv_diag",
    "classify",
    "geometric_grid",
    "shift_probe_grid",
]

_NEG_INF = float("-inf")
_SAT_LOG = 709.0  # exp saturates just below float max

EVIDENCE_DISCLAIMER = "numerical evidence, not proof"


# --------------------------------------------------------------- thresholds

_CONVERGE_BAND = 0.02  # trend: last quarter within this relative band
_OSCILLATE_FRAC = 0.25  # trend: sign changes on more than this share of steps
_K_LEVELS = (0.3, 0.1, 0.03, 0.01, 0.003)  # tail levels of the default J Ks
_J_X_LO = 64.0  # J reads b2(x, K) from max(_J_X_LO, 3K) up
_J_HI = 0.9  # J: for when the largest K's late profile minimum reaches this
_J_LO = 0.5  # J: against when it stays at or below this
_L_TOL = 0.05  # L, L(gamma): a shift ratio settles within this of 1
_L_EXCURSION = 10.0  # L, L(gamma): a late excursion past this many _L_TOL refutes
_D_SPREAD = 100.0  # D: max over median of the halving ratio, bounded
_S_REL_BAND = 0.1  # S, S(gamma): relative band around 2 and 2 m(gamma)


# ------------------------------------------------------------------- trends


def classify_trend(
    grid: np.ndarray, values: np.ndarray, diverge_ratio: float = 10.0, rel_tol: float = 0.0
) -> tuple[str, float | None]:
    """Classify a ratio series; returns (trend, limit_estimate_or_None).

    ``rel_tol`` is the relative tolerance the values were computed at: a
    step of at most 10 rel_tol of the larger neighbour is a tie, so that
    rounding cannot count as an oscillation.
    """
    grid = np.asarray(grid, dtype=float)
    values = np.asarray(values, dtype=float)
    n = len(values)
    if n < 3:
        return "inconclusive", None
    quarter = values[min(3 * n // 4, n - 2) :]
    center = float(np.mean(quarter))
    band = _CONVERGE_BAND * max(abs(center), 1e-300)
    if float(np.max(quarter) - np.min(quarter)) <= 2 * band:
        return "converging", center
    # The least-squares slope of the last half has the sign of this sum.
    half_v = values[n // 2 :]
    half_g = np.log(grid[n // 2 :])
    slope = float(np.sum((half_g - np.mean(half_g)) * (half_v - np.mean(half_v))))
    if values[-1] > diverge_ratio * values[0] and slope > 0:
        return "diverging", None
    diffs = np.diff(values)
    ties = np.abs(diffs) <= 10.0 * rel_tol * np.maximum(np.abs(values[:-1]), np.abs(values[1:]))
    nz = diffs[~ties]
    sign_changes = int(np.sum(nz[:-1] * nz[1:] < 0)) if len(nz) > 1 else 0
    if len(diffs) > 0 and sign_changes > _OSCILLATE_FRAC * len(diffs):
        return "oscillating", None
    return ("increasing" if slope > 0 else "decreasing"), None


@dataclass(frozen=True)
class DiagSeries:
    """Grid of ratio values standing in for a limsup/liminf.

    ``values`` = exp(log_values) saturated at the float maximum; ``trend``
    follows the documented classifier rule; ``limit`` is the last-quarter
    mean when the trend is converging.
    """

    kind: str
    param_name: str
    grid: np.ndarray
    log_values: np.ndarray
    trend: str
    limit: float | None = None

    @property
    def values(self) -> np.ndarray:
        return np.exp(np.minimum(self.log_values, _SAT_LOG))

    @staticmethod
    def build(
        kind: str,
        param_name: str,
        grid,
        log_values,
        diverge_ratio: float = 10.0,
        rel_tol: float = 0.0,
    ) -> "DiagSeries":
        grid = np.asarray(grid, dtype=float)
        log_values = np.asarray(log_values, dtype=float)
        if len(log_values) >= 3 and float(np.max(log_values[len(log_values) // 2 :])) >= _SAT_LOG:
            # Ratio blew past float range: divergence at any desk scale.
            trend, limit = "diverging", None
        else:
            vals = np.exp(np.minimum(log_values, _SAT_LOG))
            trend, limit = classify_trend(grid, vals, diverge_ratio, rel_tol)
        return DiagSeries(kind, param_name, grid, log_values, trend, limit)


# ----------------------------------------------------------------- t / b2 / jump


def t_ratio(d: Distribution, x: float, K: float, cfg: QuadConfig | None = None) -> float:
    """2 int_0^K F(x-y) F(y) dy  /  int_0^x F(x-y) F(y) dy, in (0, 1].

    The one-pair case of ``_t_ratios``; exactly 1 at K = x/2 by the
    y -> x - y symmetry of the denominator.
    """
    return _t_ratios(d, [(K, x)], cfg or QuadConfig())[(K, x)]


def _t_ratios(d: Distribution, pairs, cfg: QuadConfig) -> dict[tuple[float, float], float]:
    """``t_ratio(d, x, K)`` at each (K, x) of ``pairs``, from one batch.

    The pairs are grouped by x, each x with its distinct Ks in increasing
    order.  The cross-integral bands over [0, x/2], cut at every K, give
    the numerators as prefix sums, so t is nondecreasing in K at each x,
    and half the denominator as the bands' total; at K = x/2 the prefix is
    that total, so the entry there is exactly 1.  The bands of every x are
    one ``_log_cross_integrals`` batch, and each band has the bits it has
    alone.  Every pair is checked before any band is integrated.
    """
    Ks_at: dict[float, set[float]] = {}
    for K, x in pairs:
        if not 0 < K <= x / 2:
            raise ParameterError(f"need 0 < K <= x/2, got K={K}, x={x}")
        Ks_at.setdefault(x, set()).add(K)
    profiles = [(x, sorted(Ks)) for x, Ks in Ks_at.items()]
    cuts_of = [[0.0, *Ks] if Ks[-1] == x / 2 else [0.0, *Ks, x / 2] for x, Ks in profiles]
    jobs = [(a, b, x) for (x, _), cuts in zip(profiles, cuts_of) for a, b in zip(cuts, cuts[1:])]
    logs = iter(_log_cross_integrals(d, jobs, cfg))
    out = {}
    for (x, Ks), cuts in zip(profiles, cuts_of):
        bands = [next(logs) for _ in cuts[1:]]
        log_den = math.log(2.0) + _logsumexp_list(bands)
        ts = _prefix_ratios(x, Ks, log_den, [[v] for v in bands], cfg)
        out.update(((K, x), t) for K, t in zip(Ks, ts))
    return out


def b2_cond(d: Distribution, x: float, K: float, cfg: QuadConfig | None = None) -> float:
    """P(smaller of two iid copies <= K | their sum > x), for x > 2K > 0.

    Computed as 2 int_{[0,K]} F(x-y) F(dy) / F2bar(x); lies in [0, 1].
    """
    return _b2_profile(d, x, [K], cfg or QuadConfig())[0]


def _b2_profile(d: Distribution, x: float, Ks: list[float], cfg: QuadConfig) -> list[float]:
    """``b2_cond(d, x, K)`` for each K of the increasing list ``Ks``.

    One banded Stieltjes pass over [0, x], cut at every K, gives the
    numerators as prefix sums, so the profile is nondecreasing in K, and
    the denominator F2bar(x) as the pass's total.
    """
    bad = next((K for K in Ks if not (x > 2 * K > 0)), None)
    if bad is not None:
        raise ParameterError(f"need x > 2K > 0, got x={x}, K={bad}")
    if not all(a < b for a, b in zip(Ks, Ks[1:])):
        raise ParameterError(f"K values must increase, got {Ks}")
    log_den, bands = _log_conv2_tails(d, [(x, Ks)], cfg)[0]
    return _prefix_ratios(x, Ks, log_den, bands, cfg)


def _prefix_ratios(x: float, Ks: list[float], log_den: float, bands, cfg: QuadConfig) -> list[float]:
    """2 e^{prefix - log_den} at each K, where the prefix sums the log terms
    of ``bands`` up to K's band: b2 reads the Stieltjes bands against
    F2bar(x), and t the cross-integral bands against twice their total."""
    out: list[float] = []
    terms: list[float] = []
    log_prefix = _NEG_INF
    for K, band in zip(Ks, bands):
        terms.extend(band)
        # max() keeps the prefix exactly nondecreasing under rounding.
        log_prefix = max(log_prefix, _logsumexp_list(terms))
        if log_prefix == _NEG_INF:
            out.append(0.0)
        else:
            out.append(_at_most_one(math.exp(math.log(2.0) + log_prefix - log_den), x, K, cfg))
    return out


def _at_most_one(val: float, x: float, K: float, cfg: QuadConfig) -> float:
    """A probability read off a ratio of two quadratures, clamped to 1 when
    it exceeds 1 by at most 10 rel_tol; a larger excess means one of the
    quadratures missed mass, and raises ToleranceError."""
    excess = val - 1.0
    if excess <= 0.0:
        return val
    if excess > 10.0 * cfg.rel_tol:
        raise ToleranceError(
            f"ratio at x={x!r}, K={K!r} exceeds 1 by {excess:.3e}, beyond "
            f"10 x rel_tol = {10.0 * cfg.rel_tol:.3e}",
            achieved_rel_error=excess,
        )
    return 1.0


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
    truncated bracket, the denominator P(S_n > x) from the full bracket,
    each on nodes j*h up to x + 2h and read at x as ``BracketGrid.at``
    reads it; interval arithmetic combines them.  Each bracket forms only
    the last fold's cells that this reading needs.  The numerator has the
    bits of ``trunc_convn_tail_grid``.  When the cap x - K lies in cell J
    with 2J > M, the denominator's chains are the capped ones plus the
    products that reach past the cap (``convolve`` module docstring,
    "Capped readings"): it agrees with ``convn_tail_grid`` within the
    rounding margin, 4 eps n M relative, and otherwise has its bits.  K >= x
    makes the event sure, once n and h pass the brackets' checks.
    """
    if not 0 < x < math.inf:
        raise ParameterError(f"threshold x must be positive and finite, got {x}")
    if not -math.inf < K < math.inf:
        raise ParameterError(f"offset K must be finite, got {K}")
    _fold_count(n, h)
    if K >= x:
        return JumpBracket(1.0, 1.0)
    den, num = _brackets(d, n, x + 2 * h, h, (math.inf, x - K), x)
    (den_lo, den_up), (num_lo, num_up) = den.at(x), num.at(x)
    if den_lo <= 0.0:
        raise InconclusiveBracketError(
            f"P(S_{n} > {x}) lower bound is 0 at step h={h}; bracket degenerate"
        )
    ratio_lo = min(num_lo / den_up, 1.0) if den_up > 0 else 0.0
    ratio_up = min(num_up / den_lo, 1.0)
    return JumpBracket(max(1.0 - ratio_up, 0.0), min(1.0 - ratio_lo, 1.0))


# --------------------------------------------------------- ratio diagnostics


def geometric_grid(d: Distribution, x_lo: float, x_hi: float, n: int) -> np.ndarray:
    """Geometric grid clipped to the materialized range, augmented with the
    curve's breakpoints (oscillation lives exactly there).  A geometric
    point within 4 ulps of a breakpoint is taken as that breakpoint: it is
    dropped and the breakpoint kept."""
    hi = min(x_hi, d.tail.truncation_hi)
    if hi <= x_lo:
        raise ParameterError(f"empty grid: [{x_lo}, {hi}]")
    bps = d.tail.breakpoints()
    bps = bps[(bps >= x_lo) & (bps <= hi)]
    xs = np.geomspace(x_lo, hi, n)
    ends = np.r_[-np.inf, bps, np.inf]
    j = np.searchsorted(bps, xs)  # bps[j - 1] < xs <= bps[j]
    near = np.minimum(xs - ends[j], ends[j + 1] - xs) <= 4 * np.spacing(xs)
    return np.unique(np.concatenate([xs[~near], bps]))


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
) -> DiagSeries:
    """Per-x ratio series for one of the class functionals.

    kind: 'ol'      F(x-t)/F(x)                (finite limsup <=> OL)
          'd'       F(x/2)/F(x)                (bounded <=> D)
          'lgamma'  e^{gamma t} F(x+t)/F(x)    (-> 1 <=> L(gamma))
          'os'      F2bar(x)/F(x)              (bounded <=> OS)
          'osstar'  int_0^x F(x-y)F(y)dy/F(x)  (bounded <=> OS*)

    Each ratio reads d's base F (``_split_tilt``) and adds d's tilt as an
    exact term; the two-fold values, per e^{-rate x}, are divided by F(x).
    """
    _positive("shift t", t)
    if not 0 <= gamma < math.inf:  # written so that NaN fails it too
        raise ParameterError(f"rate gamma must be a finite nonnegative number, got {gamma!r}")
    cfg = cfg or QuadConfig()
    xs = np.unique(np.asarray(xgrid, dtype=float))
    base, rate = _split_tilt(d)
    curve = base.tail
    if kind in ("ol", "lgamma"):
        if t >= xs.min():
            raise ParameterError(f"shift t={t} must be below the smallest grid x={xs.min()}")
        keep = _shift_resolved(xs, t)
        if kind == "lgamma":
            keep &= xs + t <= curve.truncation_hi
        if not keep.any():
            raise ParameterError(
                f"no grid point x where x - {t} and x + {t} differ from x within the support"
            )
        xs = xs[keep]
    if kind in ("ol", "d", "lgamma"):
        # The tilt's exact term (0 without a tilt) + log F(y) - log F(x) on the base.
        y, term = {
            "ol": (xs - t, rate * t),
            "d": (xs / 2.0, rate * np.maximum(xs, 0.0) / 2.0),  # the tail is 1 below 0
            "lgamma": (xs + t, (gamma - rate) * t),
        }[kind]
        logs = term + np.atleast_1d(curve.log_tail(y)) - np.atleast_1d(curve.log_tail(xs))
    elif kind == "os":
        entries = _log_conv2_tails(d, [(x, []) for x in xs.tolist()], cfg)
        logs = np.array([log_f2 for log_f2, _ in entries]) - curve.log_tail(xs)
    elif kind == "osstar":
        entries = _log_cross_integrals(d, [(0.0, x, x) for x in xs.tolist()], cfg)
        logs = np.array(entries) - curve.log_tail(xs)
    else:
        raise ParameterError(f"unknown ratio kind {kind!r}")
    return DiagSeries.build(kind, "x", xs, logs, rel_tol=cfg.rel_tol)


def weak_equiv_diag(d: Distribution, tgrid, xgrid) -> DiagSeries:
    """Series over t of sup over the x grid of F(x-t)/F(x).

    The sup runs over the whole x grid, not a late part of it, so a
    transient near the grid's start can set it: ``pareto(3)`` reads
    "diverging" for t = 1, 2, 4, 8, 16 on a geometric grid from x_lo = 32
    to 1e12, each sup taken at x = 32.  A diverging trend is numerical evidence that the
    tail is not weakly equivalent to any long-tailed function only on a
    grid that starts past the transients, as thm-1.1's grid of recurring
    ramp tops does.  Because t grids span about a decade (not the decades
    x grids cover), the divergence ratio here is 4 rather than the generic
    10.  Each sup is the largest value of ``ratio_diagnostic``'s 'ol' series.
    """
    tgrid = np.asarray(tgrid, dtype=float)
    if tgrid.max() >= np.min(xgrid):
        raise ParameterError("largest t must stay below the smallest grid x")
    sups = [np.max(ratio_diagnostic(d, "ol", xgrid, t=t).log_values) for t in tgrid.tolist()]
    return DiagSeries.build("weak_equiv", "t", tgrid, sups, diverge_ratio=4.0)


def _shift_resolved(xs: np.ndarray, t: float) -> np.ndarray:
    """Mask of the grid points where x - t and x + t both differ from x.

    Past 2^53 t the shift rounds away, and the ratio at such a point would
    compare the tail with itself; those points are dropped, not read as 1.
    """
    return (xs - t != xs) & (xs + t != xs)


# ---------------------------------------------------------------- classify


@dataclass(frozen=True)
class ClassifyConfig:
    """The x window, shifts, K grid and precision of classify().

    ``K_list`` may be given explicitly, strictly increasing; by default the
    K grid is the distribution's own quantiles at ``_K_LEVELS`` (plus the
    untilted base's for tilted laws), so that the small-summand profile
    probes K values carrying most of the mass.  Every shift in ``t_list``
    lies below ``x_lo``, where the x grid starts.

    Verdicts are relative to the x window: a construction whose defining
    excursions live beyond ``x_hi`` reads as bounded here, and the scripted
    experiments with purpose-built grids are the instrument for those.
    """

    x_lo: float = 4.0
    x_hi: float = 1.0e6
    n_grid: int = 28
    t_list: tuple[float, ...] = (1.0, 2.0)
    K_list: tuple[float, ...] | None = None
    rel_tol: float = 1e-7

    def __post_init__(self):
        for name in ("x_lo", "x_hi", "rel_tol"):
            _positive(name, getattr(self, name))
        if not self.x_lo < self.x_hi:
            raise ParameterError(f"need 0 < x_lo < x_hi, got x_lo={self.x_lo}, x_hi={self.x_hi}")
        _count("n_grid", self.n_grid, 2)
        for name in ("t_list", "K_list"):
            values = getattr(self, name)
            if name == "K_list" and values is None:
                continue  # the K grid is read off the law
            if not (isinstance(values, tuple) and values):
                raise ParameterError(f"{name} must be a nonempty tuple, got {values!r}")
            for v in values:
                _positive(f"{name} entry", v)
        K_list = self.K_list or ()
        if not all(a < b for a, b in zip(K_list, K_list[1:])):
            raise ParameterError(f"K_list must be strictly increasing, got {self.K_list}")
        if max(self.t_list) >= self.x_lo:
            raise ParameterError(f"t_list entries must be below x_lo={self.x_lo}, got {self.t_list}")

    def quad(self) -> QuadConfig:
        return QuadConfig(rel_tol=self.rel_tol)

    def resolve_K(self, d: Distribution) -> tuple[float, ...]:
        """``K_list``, or else the sorted distinct quantiles max(q(u), 1) at
        the levels u of ``_K_LEVELS``, of d's curve and, for a tilted law,
        of its base's; (1, 4, 16) when no level yields one.

        Each curve inverts its levels in one ``quantile`` call, leaving out
        those below the tail at its truncation point, which it would
        refuse.  Each level is inverted on its own (a bisection stops each
        level apart), so every K has the bits of a call at its level alone.
        """
        if self.K_list is not None:
            return self.K_list
        curves = [d.tail]
        base, rate = _split_tilt(d)
        if rate:
            # For a tilted law the small-summand scale is set by the heavy
            # base: the tilt compresses d's own quantiles to O(1/gamma)
            # while the conditional mechanism still integrates base mass.
            curves.append(base.tail)
        levels = np.array(_K_LEVELS)
        ks = []
        for curve in curves:
            us = levels[np.log(levels) >= curve._ends[-1]]
            ks.extend(np.maximum(curve.quantile(us), 1.0).tolist())
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
        return self.entry(cls).verdict

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


def _bounded(series) -> str:
    """OL, OS and OS*: evidence-against iff a series diverges."""
    return "evidence-against" if any(s.trend == "diverging" for s in series) else "evidence-for"


def _settles_at_one(series) -> str:
    """L and L(gamma): whether the shift ratio series settle at 1.

    evidence-for when every series converges within ``_L_TOL`` of 1 and no
    value of its last half strays more than ``_L_EXCURSION`` ``_L_TOL`` from
    1; evidence-against when a series oscillates, diverges, converges
    elsewhere or strays that far (a persistent late excursion refutes shift
    invariance even when sparse spikes do not register as oscillation);
    inconclusive otherwise, and for no series at all.
    """

    def limit_off(s: DiagSeries) -> float:
        # NaN, which no comparison passes, when the series has no limit
        converged = s.trend == "converging" and s.limit is not None
        return abs(s.limit - 1.0) if converged else math.nan

    def excursion(s: DiagSeries) -> float:
        return float(np.max(np.abs(s.values[len(s.values) // 2 :] - 1.0)))

    bound = _L_EXCURSION * _L_TOL
    if series and all(limit_off(s) <= _L_TOL and excursion(s) <= bound for s in series):
        return "evidence-for"
    if any(
        s.trend in ("oscillating", "diverging") or limit_off(s) > _L_TOL or excursion(s) > bound
        for s in series
    ):
        return "evidence-against"
    return "inconclusive"


def classify(d: Distribution, config: ClassifyConfig | None = None) -> ClassReport:
    """Run the full diagnostic battery and aggregate deterministic verdicts.

    The verdict rules are documented inline; every one of them reduces to
    the module's named thresholds applied to trend classifications, so a
    report is reproducible from (distribution spec, config) alone.
    """
    cfg = config or ClassifyConfig()
    qcfg = cfg.quad()
    xgrid = geometric_grid(d, cfg.x_lo, cfg.x_hi, cfg.n_grid)
    entries: list[ClassEntry] = []

    # --- shift ratios: OL and L -------------------------------------------
    ol_series = tuple(ratio_diagnostic(d, "ol", xgrid, t=t, cfg=qcfg) for t in cfg.t_list)
    ol_verdict = _bounded(ol_series)
    ol_detail = "diverges" if ol_verdict == "evidence-against" else "stays bounded"
    entries.append(ClassEntry("OL", ol_verdict, f"shift ratio {ol_detail}", ol_series))
    l_verdict = _settles_at_one(ol_series)
    l_detail = {
        "evidence-for": "shift ratios converge to 1",
        "evidence-against": "shift ratio fails to settle at 1",
        "inconclusive": "shift ratio trend ambiguous",
    }[l_verdict]
    entries.append(ClassEntry("L", l_verdict, l_detail, ol_series))

    # --- dominated variation ----------------------------------------------
    d_series = ratio_diagnostic(d, "d", xgrid, cfg=qcfg)
    d_spread = float(np.max(d_series.values)) / max(float(np.median(d_series.values)), 1e-300)
    if d_series.trend == "diverging":
        d_verdict, d_detail = "evidence-against", "halving ratio diverges"
    elif d_series.trend in ("converging", "decreasing") and d_spread <= _D_SPREAD:
        d_verdict, d_detail = (
            "evidence-for",
            f"halving ratio bounded (limit ~ {d_series.limit:.4g})"
            if d_series.limit is not None
            else "halving ratio bounded",
        )
    elif d_series.trend == "oscillating" and d_spread <= _D_SPREAD:
        d_verdict, d_detail = "evidence-for", "halving ratio oscillates in a bounded band"
    else:
        # isolated excursions spanning orders of magnitude leave the limsup
        # genuinely undecided at desk scale
        d_verdict, d_detail = "inconclusive", f"halving ratio trend {d_series.trend}"
    entries.append(ClassEntry("D", d_verdict, d_detail, (d_series,)))

    # --- L(gamma) at the terminal decay rate ------------------------------
    # The rate is read off the curve: its tilt rate, plus the last segment's
    # rate when it is exp-affine (the rate exp_moment checks a moment against).
    # L(gamma) reads the tilted shift ratios on the shift-probe grid as L
    # reads its own; S(gamma) compares the two-fold ratio with 2 m(gamma).
    gamma = _terminal_rate(d)
    lg_series = tuple(
        ratio_diagnostic(d, "lgamma", shift_probe_grid(d, xgrid, t), t=t, gamma=gamma, cfg=qcfg)
        for t in cfg.t_list
    )
    t_max = max(cfg.t_list)
    # Capped at 1, where e^{gamma t} - 1 is past _L_TOL: a huge rate would
    # overflow expm1.
    if math.expm1(min(gamma * t_max, 1.0)) <= _L_TOL:
        # e^{gamma t} stays within _L_TOL of 1 at every shift, so the window
        # cannot tell this rate from 0.
        lg_verdict = "evidence-against"
        lg_detail = f"no exponential decay resolved at shifts up to {t_max:g} (rate {gamma:g})"
    else:
        lg_verdict = _settles_at_one(lg_series)
        lg_detail = {
            "evidence-for": f"tilted shift ratio settles at 1 for gamma={gamma:g}",
            "evidence-against": f"tilted shift ratio does not settle at 1 for gamma={gamma:g}",
            "inconclusive": f"tilted shift ratio trend ambiguous for gamma={gamma:g}",
        }[lg_verdict]
    entries.append(ClassEntry("L(gamma)", lg_verdict, lg_detail, lg_series))

    # --- convolution ratios: OS, OS*, S ------------------------------------
    # One two-fold pass per grid point, cut at each K whose J profile reads
    # it: OS reads the totals, J the prefixes.
    K_list = cfg.resolve_K(d)
    j_jobs = [
        (x, sorted({K for K in K_list if x >= max(_J_X_LO, 3.0 * K)})) for x in xgrid.tolist()
    ]
    conv2 = _log_conv2_tails(d, j_jobs, qcfg)
    os_logs = np.array([log_f2 for log_f2, _ in conv2]) - _split_tilt(d)[0].tail.log_tail(xgrid)
    os_series = DiagSeries.build("os", "x", xgrid, os_logs, rel_tol=qcfg.rel_tol)
    osstar_series = ratio_diagnostic(d, "osstar", xgrid, cfg=qcfg)
    os_verdict = _bounded([os_series])
    os_limit = f", limit ~ {os_series.limit:.4g}" if os_series.limit is not None else ""
    os_detail = f"two-fold ratio trend {os_series.trend}{os_limit}"
    entries.append(ClassEntry("OS", os_verdict, os_detail, (os_series,)))
    entries.append(
        ClassEntry(
            "OS*",
            _bounded([osstar_series]),
            f"cross-integral ratio trend {osstar_series.trend}",
            (osstar_series,),
        )
    )
    s_band = _S_REL_BAND * 2.0
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
    sg_evidence: tuple[DiagSeries, ...] = ()
    if lg_verdict == "inconclusive":
        sg_verdict, sg_detail = "inconclusive", "exponential shift rate not settled (L(gamma))"
    elif lg_verdict != "evidence-for":
        sg_verdict = "evidence-against"
        sg_detail = "no exponential shift rate found (not in any L(gamma))"
    else:
        try:
            target = 2.0 * exp_moment(d, gamma, qcfg)
        except DivergenceError as exc:
            sg_verdict = "evidence-against"
            sg_detail = f"tilted moment at gamma={gamma:g} not finite ({exc})"
        except TruncationError as exc:
            sg_verdict = "inconclusive"
            sg_detail = f"tilted moment at gamma={gamma:g} not certified ({exc})"
        else:
            sg_evidence = (os_series,)
            if (
                os_series.trend == "converging"
                and os_series.limit is not None
                and abs(os_series.limit - target) <= _S_REL_BAND * target
            ):
                sg_verdict = "evidence-for"
                sg_detail = (
                    f"two-fold ratio -> {os_series.limit:.4g} ~ 2*m(gamma={gamma:g}) = {target:.4g}"
                )
            else:
                sg_verdict = "evidence-against"
                sg_detail = f"two-fold ratio does not settle at 2*m(gamma={gamma:g}) = {target:.4g}"
    entries.append(ClassEntry("S(gamma)", sg_verdict, sg_detail, sg_evidence))

    # --- J: conditional-small-summand profile -------------------------------
    entries.append(_classify_j(qcfg, K_list, j_jobs, conv2, os_verdict == "evidence-against"))

    return ClassReport(d.label or "distribution", tuple(entries))


def _classify_j(qcfg: QuadConfig, K_list, jobs, conv2, os_against: bool) -> ClassEntry:
    """J from one statistic: the late-half minimum of the b2 profile of the
    largest K with at least 3 points, against ``_J_HI`` and ``_J_LO``.
    Every such K's profile is evidence.  No smaller K's minimum can lie
    above it: each larger K's x set is a suffix of a smaller K's, a refused
    x leaves every K, and each x's ratios never fall with K."""
    rows: dict[float, tuple[list[float], list[float]]] = {K: ([], []) for K in K_list}
    for (x, Ks), (log_den, bands) in zip(jobs, conv2):
        try:
            vals = _prefix_ratios(x, Ks, log_den, bands, qcfg)
        except TailforgeError:
            continue  # a refused ratio at x leaves every profile
        for K, v in zip(Ks, vals):
            rows[K][0].append(x)
            rows[K][1].append(v)
    profiles: list[DiagSeries] = []
    for K in K_list:
        kept_x, vals = rows[K]
        if len(vals) < 3:
            continue
        log_vals = np.log(np.maximum(vals, 1e-300))
        series = DiagSeries.build(f"b2(K={K:g})", "x", kept_x, log_vals, rel_tol=qcfg.rel_tol)
        profiles.append(series)
        last_K, late = K, min(vals[len(vals) // 2 :])
    if os_against:
        return ClassEntry(
            "J",
            "evidence-against",
            "two-fold ratio diverges (membership would require a bounded one)",
            tuple(profiles),
        )
    if not profiles:
        return ClassEntry("J", "inconclusive", "no usable (x, K) grid", tuple(profiles))
    at = f"{late:.4g} at K={last_K:g}"
    if late >= _J_HI:
        verdict, detail = "evidence-for", f"small-summand profile reaches {at}"
    elif late <= _J_LO:
        verdict, detail = "evidence-against", f"small-summand profile stuck at {at}"
    else:
        verdict, detail = "inconclusive", f"profile at K={last_K:g} is {late:.4g}"
    return ClassEntry("J", verdict, detail, tuple(profiles))
