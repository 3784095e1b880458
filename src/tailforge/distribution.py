"""Distributions on [0, infinity): a tail curve and the measure dF it defines.

Its atoms are the curve's downward jumps (a tilt's, its base's), its
density ``TailCurve.log_density``.  Moments read the tail, not the measure:
each is one quadrature of it (``_log_tail_integral``).  Atom masses are
stored as logs; some here are as small as 3 * 4**-900.

The curve and its atoms are fixed at construction; the builtins fill in
``label``, ``spec`` and ``truncation_note`` afterwards.

Draws take one path: ``_draw_blocks`` turns a generator's raw uniforms
into inverse-transform draws a block of rows at a time, every row for
``sample`` (a pure function of (seed, n) on numpy's PCG64 generator) and,
for ``montecarlo.mc_jump_cond``, only the rows above a cutoff.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DivergenceError, ParameterError, ToleranceError, TruncationError, _count
from .quadrature import QuadConfig, log_quad
from .tailcurve import ExpAffineSegment, ExpPowSegment, PowerSegment, TailCurve, simplify_power

__all__ = [
    "Atom",
    "Distribution",
    "partial_moment",
    "quantile_from_tail",
    "sample",
    "power_tail",
    "exp_moment",
    "log_tail",
]

_NEG_INF = float("-inf")


@dataclass(frozen=True)
class Atom:
    """Point mass: F jumps down by exp(log_mass) at ``location``."""

    location: float
    log_mass: float

    @property
    def mass(self) -> float:
        return math.exp(self.log_mass)


# A join is an atom when F drops there by more than this many ulps of
# max(1, |log F|): smaller drops are rounding in the curve's log values.
_ATOM_ULPS = 4.0


def atoms_from_curve(curve: TailCurve) -> tuple[Atom, ...]:
    """The atoms of dF for an untilted curve: its downward jumps at segment
    joins.  A tilt takes its base's (``Distribution.atoms``)."""
    ends, starts = curve._ends[:-1], curve._starts[1:]
    with np.errstate(invalid="ignore"):  # a join where F is already 0
        drops = starts - ends
        joins = np.flatnonzero(drops < -_ATOM_ULPS * np.spacing(np.maximum(1.0, np.abs(ends))))
    return tuple(
        Atom(lo, float(ends[k] + math.log(-math.expm1(drops[k]))))
        for k, lo in zip(joins, curve._los[joins + 1].tolist())
    )


class Distribution:
    """Distribution on [0, inf): tail curve, atoms, label.

    dF is read off the curve: its density is ``TailCurve.log_density`` and
    its atoms are ``atoms``.
    """

    def __init__(self, tail: TailCurve, label: str = "", spec: dict | None = None):
        self.tail = tail
        self.label = label
        self.spec = spec or {}
        self.truncation_note: str | None = None
        self._mean: float | None = None
        self._split: tuple[Distribution, float] | None = None  # see _split_tilt

    def __repr__(self) -> str:
        return f"Distribution({self.label or 'anonymous'}, segments={len(self.tail.segments)})"

    @cached_property
    def atoms(self) -> tuple[Atom, ...]:
        """The curve's atoms (``atoms_from_curve``); a tilt's are its base's
        (``_split_tilt``), each log mass less rate * location: on the tilted
        curve that term would swamp the deep drops."""
        base, rate = _split_tilt(self)
        if not rate:
            return atoms_from_curve(self.tail)
        return tuple(Atom(a.location, a.log_mass - rate * a.location) for a in base.atoms)

    @cached_property
    def atom_locations(self) -> np.ndarray:
        """The atoms' locations, increasing as ``atoms`` is; read-only."""
        locs = np.array([a.location for a in self.atoms], dtype=float)
        locs.flags.writeable = False
        return locs

    @property
    def truncation_hi(self) -> float:
        return self.tail.truncation_hi

    def log_tail(self, x):
        return self.tail.log_tail(x)

    def log_tail_left(self, x):
        return self.tail.log_tail_left(x)

    @property
    def mean(self) -> float:
        """The mean, integral of the tail over [0, inf); cached."""
        if self._mean is None:
            self._mean = partial_moment(self, 0, 0.0, math.inf)
        return self._mean


def log_tail(d: Distribution, x):
    """Natural log of F(x).  Monotone nonincreasing; exact per segment."""
    return d.tail.log_tail(x)


# ------------------------------------------------------------------- moments


def partial_moment(
    d: Distribution, k: int, A: float, B: float, cfg: QuadConfig | None = None
) -> float:
    """integral_A^B y^k F(y) dy; B may be inf when the terminal form allows.
    ``_log_tail_integral`` at lam = 0, with its errors."""
    # Both checks are written so that NaN fails them.
    if not (k >= 0 and k % 1 == 0):
        raise ParameterError(f"moment order must be a nonnegative integer, got {k}")
    if not A <= B:
        raise ParameterError(f"moment bounds out of order or NaN: [{A}, {B}]")
    if A == B:
        return 0.0
    lv = _log_tail_integral(d, k, 0.0, A, B, cfg or QuadConfig())
    return math.exp(lv) if lv > _NEG_INF else 0.0


def exp_moment(d: Distribution, lam: float, cfg: QuadConfig | None = None) -> float:
    """integral e^{lam y} F(dy) over [0, inf) for a rate lam >= 0: exactly 1
    at lam = 0, else 1 + lam e^I, I the ``_log_tail_integral`` at lam, as
    e^{lam X} = 1 + integral_0^X lam e^{lam y} dy.  Finite only when the tail
    decays at least exponentially with rate > lam (rate >= lam with
    integrable remainder); DivergenceError otherwise."""
    if not 0.0 <= lam <= math.inf:  # NaN fails this
        raise ParameterError(f"exp moment rate must be a nonnegative number, got {lam}")
    if lam == 0.0:
        return 1.0
    lv = _log_tail_integral(d, 0, lam, 0.0, math.inf, cfg or QuadConfig())
    return 1.0 + lam * math.exp(lv) if lv > _NEG_INF else 1.0


def _log_tail_integral(
    d: Distribution, k: int, lam: float, A: float, B: float, cfg: QuadConfig
) -> float:
    """log integral_A^B y^k e^{lam y} G(y) dy for d's tail G = F e^{-gamma y}.

    One quadrature of log F(y) + (lam - gamma) y + k log y, F and gamma d's
    base and rate (``_split_tilt``), so lam and the tilt never cancel; seeded
    by ``_seeds``, so rel_tol bounds the whole integral.  An infinite B on an
    infinite curve is cut by ``_cutoff``.  Past a finite truncation hi the
    rest is bounded by log F(hi-) + (lam - gamma) hi + (k + 1) log max(hi, 2),
    the remainder under a y^-(k+2) envelope matched at hi: TruncationError
    when that exceeds 0, unintegrated, or rel_tol of the integral.
    ToleranceError when the moment, e^I or 1 + lam e^I, overflows binary64.
    """
    hi = d.tail.truncation_hi
    if A > hi or (B > hi and math.isfinite(B)):
        raise TruncationError(
            f"moment bounds [{A!r}, {B!r}] beyond materialized breakpoint {hi!r}"
        )
    base, rate = _split_tilt(d)
    net = lam - rate
    rest = _NEG_INF
    if math.isinf(B) and math.isinf(hi):
        _check_terminal_decay(d, lam, k)
        B = _cutoff(d, lam, k, A)
    elif math.isinf(B):
        rest = base.tail.log_tail_left(hi) + net * hi + (k + 1) * math.log(max(hi, 2.0))
    a, b = max(A, 0.0), min(B, hi)
    if b < A:  # a lower bound past the largest cutoff, 8.9e307
        raise ParameterError(f"integration bounds out of order: [{A}, {b}]")

    def integrand(y: np.ndarray) -> np.ndarray:
        vals = base.tail._on_panels(y)
        if net:
            vals = vals + net * y
        if k:
            with np.errstate(divide="ignore"):
                vals = vals + k * np.log(y)
        return vals

    # A rest past 0 would run the quadrature into a LogDepthError first.
    lv = log_quad(integrand, a, b, _seeds(d, b), cfg).log_value if a < b and rest <= 0 else _NEG_INF
    if not rest <= lv + math.log(cfg.rel_tol):  # NaN fails this
        raise TruncationError(
            f"cannot certify the integral to infinity beyond the materialized breakpoint {hi!r}; "
            f"the log of its remainder bound {rest!r} is too large"
        )
    if lv + (math.log(lam) if lam else 0.0) > math.log(sys.float_info.max):
        raise ToleranceError(f"the moment overflows binary64: its log integral is {lv!r}", math.inf)
    return lv


def _seeds(d: Distribution, B: float) -> np.ndarray:
    """Forced panel bounds of a quadrature against d over [0, B]: every
    join, so that no panel straddles one, and the powers of 8 from 2^-60
    (about 1e-18, the floor of the tail grades) up to B, so that every scale
    of a heavy tail, and of an integrand singular at 0, has its panel in the
    first round instead of one bisection per round."""
    ladder = 2.0 ** np.arange(-60.0, math.log2(B), 3.0)
    return np.concatenate([d.tail.breakpoints(), ladder])


def _cutoff(d: Distribution, lam: float, k: int, A: float = 0.0) -> float:
    """A finite upper limit past which the integral of y^k e^{lam y} against
    d's tail is below float significance relative to its integral from A.

    Doubles T from max(lo, 1, A), lo the last segment's start, until the log
    of a bound on the integrand times T^2 falls below -60 + min(0, b(A)),
    b(A) = log F(A) + lam A + (k + 2) log max(A, 1) the same bound read off
    the curve at A (0 for A <= 0); capped at 8.9e307.  The bound at T fuses
    lam with the curve's tilt rate: evaluating the tail and the exponential
    apart cancels at large T.
    """
    seg = d.tail.segments[-1]
    net = lam - d.tail.rate
    floor = -60.0
    if A > 0:
        floor += min(0.0, d.tail.log_tail(A) + lam * A + (k + 2) * math.log(max(A, 1.0)))
    T = max(seg.lo, 1.0, A)
    for _ in range(600):
        T *= 2.0
        if T >= 8.9e307:
            return 8.9e307
        if seg.log_value_at(T) + net * T + (k + 2) * math.log(T) < floor:
            return T
    return T


def _split_tilt(d: Distribution) -> tuple[Distribution, float]:
    """The base law F and rate gamma of d's tail F(x) e^{-gamma x}, gamma the
    curve's tilt rate (d and 0 for an untilted curve).  A tilt takes its
    source's base from ``gamma_transform``; other laws build it once."""
    if d._split is None:
        rate = d.tail.rate
        base = Distribution(TailCurve(d.tail.segments)) if rate else d
        d._split = (base, rate)
    return d._split


def _terminal_rate(d: Distribution) -> float:
    """The exponential decay rate of the last segment: the curve's tilt
    rate, plus the segment's rate when it is exp-affine."""
    seg, rate = d.tail.segments[-1], d.tail.rate
    return rate + seg.rate if isinstance(seg, ExpAffineSegment) else rate


def _check_terminal_decay(d: Distribution, lam: float, k: int) -> None:
    """DivergenceError unless the last segment's decay makes the integral
    of y^k e^{lam y} against its tail finite: k = 0 for ``exp_moment``,
    lam = 0 for ``partial_moment``.

    A decay rate above lam converges.  At the rate, it converges when y^k
    times the tail's residual factor is integrable: a power with
    k + exponent < -1, or a stretched exponential.  A finite last segment
    is left to the truncation certificate.
    """
    seg = d.tail.segments[-1]
    if math.isfinite(seg.hi):
        return
    budget = _terminal_rate(d)
    if lam > budget:
        raise DivergenceError(
            f"exp moment with rate {lam} diverges: terminal exponential decay "
            f"rate is {budget}"
        )
    if lam < budget:
        return
    if isinstance(seg, PowerSegment) and k + seg.exponent < -1.0:
        return
    if isinstance(seg, ExpPowSegment):
        return
    what = f"exp moment at the terminal decay rate {budget}" if lam else f"integral of y^{k} * tail"
    raise DivergenceError(f"{what} diverges: the residual tail factor is not integrable")


# ------------------------------------------------------------ quantile / rng


def quantile_from_tail(d: Distribution, u) -> float | np.ndarray:
    """Smallest x with F(x) <= u for u in (0, 1]."""
    return d.tail.quantile(u)


# Rows per block of draws, a divisor of montecarlo's chunk: a block's levels,
# quantiles and whatever the caller does with them stay in cache.
_BLOCK = 8192


def _draw_blocks(
    d: Distribution, rng: np.random.Generator, rows: int, cols: int, cutoff: float | None = None
):
    """Inverse-transform draws of ``rows`` tuples of ``cols`` values from
    ``rng``, as (first row, kept offsets or None, draws) for consecutive
    blocks of up to ``_BLOCK`` rows: the one loop that inverts raw uniforms.

    Consecutive ``random`` calls continue one stream in C order, so the
    blocks hold the values that one ``random((rows, cols))`` call maps to.
    With a ``cutoff``, only the rows whose largest raw uniform exceeds it
    are gathered, inverted and yielded, at the kept offsets (increasing,
    from the block's first row).  Under ``montecarlo._row_cutoff``'s u* no
    row can reach {S_n > x}, and a row with a level below a truncation
    floor lies above it, so that level still raises TruncationError.

    Levels are 1 - u, in (0, 1].  A block's levels (its kept rows) live in
    one buffer: their logs are taken in it, and the curve inverts them from
    there, checking them by one minimum and one maximum and writing a
    closed inverse's quantiles over them.  So a block's draws may be
    overwritten by the next block's.
    """
    levels = np.empty((min(rows, _BLOCK), cols))
    for start in range(0, rows, _BLOCK):
        u = levels[: min(_BLOCK, rows - start)]
        rng.random(out=u)
        kept = None
        if cutoff is not None:
            most = u[:, 0] if cols == 1 else np.maximum(u[:, 0], u[:, 1])
            for j in range(2, cols):
                np.maximum(most, u[:, j], out=most)
            kept = np.flatnonzero(most > cutoff)
            u = u.take(kept, axis=0)
        if len(u):
            np.subtract(1.0, u, out=u)
            np.log(u, out=u)
            u = d.tail._quantile_of_log(u.reshape(-1)).reshape(u.shape)
        yield start, kept, u


def sample(d: Distribution, seed: int, n: int) -> np.ndarray:
    """Draw n values by inverse transform; deterministic in (seed, n).

    PRNG: numpy PCG64 seeded directly with ``seed``, an integer >= 0; the
    uniform stream is mapped through u -> 1 - u so levels lie in (0, 1].
    """
    n = _count("sample count", n, 1)
    rng = np.random.Generator(np.random.PCG64(_count("seed", seed, 0)))
    out = np.empty(n)
    for start, _, xs in _draw_blocks(d, rng, n, 1):
        out[start : start + len(xs)] = xs[:, 0]
    return out


# ------------------------------------------------------------------ algebra


def power_tail(d: Distribution, m: int) -> Distribution:
    """Distribution with tail F^m (the paper-style power family).

    Log tails scale by m pointwise; segment structure is preserved.  Atoms
    are recomputed from the new jump sizes, densities get the chain-rule
    factor m F^{m-1}.
    """
    m = _count("power", m, 1)
    if m == 1:
        return d
    segs = tuple(simplify_power(s, m) for s in d.tail.segments)
    curve = TailCurve(segs, rate=m * d.tail.rate)
    label = f"{d.label}^({m})" if d.label else f"power({m})"
    spec = {"kind": "power", "m": m, "base": d.spec} if d.spec else {}
    return Distribution(curve, label=label, spec=spec)
