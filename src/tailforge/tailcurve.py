"""Exact piecewise survival functions evaluated in the log domain.

A TailCurve represents F-bar on [0, infinity) as an ordered list of
contiguous segments, each carrying a closed-form expression for the log of
the tail.  Everything downstream (transforms, convolution integrands, class
diagnostics) queries tails exclusively through log values: the constructions
implemented here produce values like exp(-7.4e18), far below any float, and
the diagnostics divide pairs of such numbers.

Numerical conventions that matter:

* Decreasing affine pieces are anchored at their *upper* endpoint,
  F(x) = exp(lva) * (1 + r (x - hi)).  Anchoring at the small end keeps
  ratios such as F(2 x_n - t) / F(2 x_n) exact to a few ulp even when
  x_n ~ 1e16, which the shift diagnostics rely on.
* Consecutive segments are chained so the value at a join is carried over
  bit-for-bit; a new segment whose closed form would start a hair above the
  previous endpoint (float roundoff) is snapped down.  Upward jumps beyond
  roundoff are construction errors.
* Queries beyond the last materialized breakpoint raise TruncationError;
  extrapolating an infinite construction would fabricate its asymptotics.
* An exponential tilt is one rate on the curve, not a wrapper and not a
  field of its segments: a curve with rate gamma reads
  log G(x) = log F(x) - gamma * x, F from its segments' closed forms.
* An integer power is a closed form too: ``simplify_power`` folds F^m into
  the closed form of F's own family (an affine piece keeps m as a field).
  No segment holds another segment.

Each segment family writes its closed form once, as ``_value(p, x)`` and
``_density(p, x)`` over a parameter holder p, and its closed inverse, where
it has one, as ``_inverse(p, log_u)``, which overwrites its array of log
levels step by step in the order of the formula.  A tilted curve and a
flat piece have none: each level is bisected from its own segment's ends
(``_bisect``).  A segment passes itself, so its fields are scalars.  A
curve keeps a family table (``_SegmentTable``), which carries the curve's
rate and groups its segments by family and by the field a family keeps as
a scalar (``beta`` of the stretched exponential); it passes a group's
fields gathered into arrays with one entry per point.  So a curve
evaluates any number of points, and inverts any number of quantile levels,
in one array pass per group, and each point gets the bits its own segment
gives it (points that all lie in one segment pass that segment itself).
A quadrature's (panels, 15) nodes are evaluated a panel at a time
(``TailCurve._on_panels``): its seeds put every join at a panel end, so
each row reads the segment of its middle node and gathers its fields once,
broadcast along the row.
Constants such as log(rate) are computed once per segment, by the
segment's ``log_dcoeff``.
"""

from __future__ import annotations

import dataclasses
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import cached_property, partial
from typing import ClassVar, Sequence

import numpy as np

from .errors import ParameterError, TruncationError, _count

__all__ = [
    "Segment",
    "ConstSegment",
    "AffineSegment",
    "PowerSegment",
    "ExpAffineSegment",
    "ExpPowSegment",
    "TailCurve",
    "chain_segments",
]

_NEG_INF = float("-inf")
# Permitted relative size of an upward jump at a join before it is treated
# as a construction bug rather than roundoff.
_SNAP_RTOL = 1e-9
# Quantile's segment table (a guide table, Chen & Asau 1974): v = -log u
# over [0, 64) in buckets of width 2^-6, so v * 64 is exact and its floor is
# each level's bucket.
_GUIDE_SCALE = 64.0
_GUIDE_BUCKETS = 4096


@dataclass(frozen=True)
class Segment(ABC):
    """One piece of a survival function on [lo, hi).

    Subclasses provide the exact log tail value of a closed form, its log
    density (-inf where flat), and an exact inverse when the form is
    invertible in closed form.  ``log_offset`` is a vertical shift in the
    log domain used for join snapping and power simplifications:
    log F(x) = closed form + log_offset.
    """

    lo: float
    hi: float
    log_offset: float = 0.0

    # Fields a family table keeps as one scalar per group (module docstring).
    _SCALARS: ClassVar[tuple[str, ...]] = ()
    has_density: ClassVar[bool] = True
    # The closed form's inverse, _inverse(p, log_u), in the families that
    # have one: it writes x over the array log_u and returns it.
    _inverse: ClassVar = None

    def __post_init__(self):
        if not (self.lo < self.hi):
            raise ParameterError(f"segment bounds out of order: [{self.lo}, {self.hi})")

    @staticmethod
    @abstractmethod
    def _value(p, x: np.ndarray) -> np.ndarray:
        """log of the closed form at x, for the parameters p."""

    @staticmethod
    @abstractmethod
    def _density(p, x: np.ndarray) -> np.ndarray:
        """log of the closed form's density at x, for the parameters p."""

    @property
    def log_dcoeff(self) -> float:
        """log of the constant factor of the closed form's density."""
        return _NEG_INF

    def log_value(self, x: np.ndarray) -> np.ndarray:
        return _log_value(type(self), self, np.asarray(x, dtype=float))

    def log_value_at(self, x: float) -> float:
        return float(self.log_value(np.array([x]))[0])

    def log_density(self, x: np.ndarray, lam: float = 0.0) -> np.ndarray:
        """log(exp(lam * x) * f(x)), f the density of the piece."""
        return _log_density(type(self), self, np.asarray(x, dtype=float), lam)

    def inverse(self, log_u: float | np.ndarray) -> float | np.ndarray:
        """x in [lo, hi] with log_value(x) = log_u: exact where the closed
        form has an inverse, else bisected (``_bisect``).

        Takes a scalar or an array of log levels and returns the same shape;
        the caller's array is left as it is.
        """
        lu = np.array(log_u, dtype=float)
        return _inverse(type(self), self, lu.ravel()).reshape(lu.shape)[()]

    def with_offset(self, delta: float) -> "Segment":
        return dataclasses.replace(self, log_offset=self.log_offset + delta)

    def with_bounds(self, lo: float, hi: float) -> "Segment":
        return dataclasses.replace(self, lo=lo, hi=hi)


def _log_value(fam: type[Segment], p, x: np.ndarray, rate: float = 0.0) -> np.ndarray:
    """log G(x) = log F(x) - rate * x, F of the family ``fam`` with
    parameters p (module docstring)."""
    out = fam._value(p, x) + p.log_offset
    # A rate of 0 subtracts nothing: 0 * inf would turn -inf at x = inf
    # into NaN.
    return out - rate * x if rate else out


def _log_density(fam: type[Segment], p, x: np.ndarray, lam, rate: float = 0.0) -> np.ndarray:
    """log(e^{lam x} g(x)), g the density of G(x) = F(x) e^{-rate x}, F of
    ``fam`` with parameters p."""
    dens = fam._density(p, x) + p.log_offset
    if not rate:
        # lam = 0 adds nothing, and 0 * inf would turn a density's -inf at
        # x = inf into NaN.
        return dens + lam * x if lam else dens
    # The tilted density exp(-rate x) * (f(x) + rate * F(x)), with
    # exp(lam x) fused into the net rate: the two exponentials evaluated
    # apart cancel catastrophically at large x.
    jump = math.log(rate) + (fam._value(p, x) + p.log_offset)
    return np.logaddexp(dens, jump) + (lam - rate) * x


def _inverse(fam: type[Segment], p, lu: np.ndarray, rate: float = 0.0) -> np.ndarray:
    """x in [p.lo, p.hi] with log G(x) = lu, G(x) = F(x) e^{-rate x} and F
    of ``fam`` with parameters p, for a 1-d lu: the closed inverse clamped
    to [p.lo, p.hi], written over lu, or bisection where there is none (a
    flat piece, or a rate), which leaves lu as it is.  A closed inverse
    past the largest float reads inf (``pareto(1e-3)`` at u = 0.1)."""
    if fam._inverse is None or rate:
        return _bisect(partial(_log_value, fam, p, rate=rate), p.lo, p.hi, lu)
    with np.errstate(over="ignore"):
        x = fam._inverse(p, lu)
    np.maximum(x, p.lo, out=x)
    # min(x, inf) is x: a piece that reaches infinity skips the pass.
    return x if np.ndim(p.hi) == 0 and p.hi == math.inf else np.minimum(x, p.hi, out=x)


def _bisect(log_g, seg_lo, seg_hi, lu: np.ndarray) -> np.ndarray:
    """x in [seg_lo, seg_hi] with log_g(x) = lu, for a nonincreasing log_g
    and a 1-d lu; the ends are scalars or one per level.

    The bisection starts at each level's own ends; an infinite end starts at
    max(lo + 1, 1) and doubles until log_g falls to the level.  Each round
    evaluates every level, and each level stops on its own, at absolute
    width 1e-12 (1 + x), keeping its ends from then on, so its x is the
    same in any call."""
    lo, hi = np.empty_like(lu), np.empty_like(lu)
    lo[:], hi[:] = seg_lo, seg_hi
    far = np.isinf(hi)
    if far.any():
        hi[far] = np.maximum(lo[far] + 1.0, 1.0)
        for _ in range(400):
            short = far & (log_g(hi) > lu)
            if not short.any():
                break
            hi[short] *= 2.0
        else:
            raise ParameterError("failed to bracket quantile on an infinite segment")
    live = np.ones(lu.shape, dtype=bool)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        too_high = log_g(mid) > lu  # tail still above u: move right
        np.copyto(lo, mid, where=live & too_high)
        np.copyto(hi, mid, where=live & ~too_high)
        live &= hi - lo > 1e-12 * (1.0 + np.abs(hi))
        if not live.any():
            break
    return hi


@dataclass(frozen=True)
class ConstSegment(Segment):
    """Flat tail: F(x) = exp(level).  Carries no density of its own; on a
    tilted curve it has the tilt's."""

    level: float = 0.0
    has_density: ClassVar[bool] = False

    @staticmethod
    def _value(p, x):
        return np.full_like(x, p.level)

    @staticmethod
    def _density(p, x):
        return np.full_like(x, _NEG_INF)


@dataclass(frozen=True)
class AffineSegment(Segment):
    """Integer power of a linear tail anchored at the upper endpoint.

    F(x) = (exp(log_v_hi) * (1 + ratio * (x - hi))) ** m with ratio < 0 so
    the tail decreases toward exp(m * log_v_hi) at hi.  m = 1 is the linear
    tail itself; ``simplify_power`` folds a power into m.
    """

    log_v_hi: float = 0.0
    ratio: float = -1.0
    m: int = 1

    def __post_init__(self):
        super().__post_init__()
        _count("affine power m", self.m, 1)
        if not self.ratio < 0:
            raise ParameterError(f"affine tail must decrease: ratio={self.ratio}")
        # An affine tail reaches 0 at a finite point; past it log F is not real.
        if not self.hi < math.inf:
            raise ParameterError("affine tail needs a finite upper end, got hi=inf")
        # Value must stay positive on [lo, hi).
        if 1.0 + self.ratio * (self.lo - self.hi) <= 0.0:
            raise ParameterError("affine tail nonpositive at segment start")

    @staticmethod
    def from_endpoints(lo: float, hi: float, log_v_lo: float, log_v_hi: float) -> "AffineSegment":
        if not log_v_lo > log_v_hi:
            raise ParameterError("affine tail requires log_v_lo > log_v_hi")
        try:
            ratio = math.expm1(log_v_lo - log_v_hi) / (lo - hi)
        except OverflowError:
            ratio = -math.inf
        if ratio == -math.inf:
            raise ParameterError(
                f"affine tail from log F {log_v_lo!r} at {lo!r} to {log_v_hi!r} at {hi!r} "
                "is steeper than binary64 can hold"
            )
        return AffineSegment(lo=lo, hi=hi, log_v_hi=log_v_hi, ratio=ratio)

    @staticmethod
    def _linear(p, x):
        """log of the linear tail L."""
        return p.log_v_hi + np.log1p(p.ratio * (x - p.hi))

    @staticmethod
    def _value(p, x):
        return p.m * AffineSegment._linear(p, x)

    @staticmethod
    def _density(p, x):
        # The chain rule: m L^(m-1) times the density of the linear tail L.
        return np.log(p.m) + (p.m - 1) * AffineSegment._linear(p, x) + p.log_dcoeff

    @property
    def log_dcoeff(self) -> float:
        """The linear tail's; ``_density`` adds the power's factor m L^(m-1)."""
        return self.log_v_hi + math.log(-self.ratio)

    @staticmethod
    def _inverse(p, lu):
        # expm1((lu - log_offset) / m - log_v_hi) / ratio + hi
        lu -= p.log_offset
        lu /= p.m
        lu -= p.log_v_hi
        np.expm1(lu, out=lu)
        lu /= p.ratio
        lu += p.hi
        return lu


@dataclass(frozen=True)
class PowerSegment(Segment):
    """Shifted power tail: F(x) = exp(log_coeff) * (shift + x) ** exponent."""

    log_coeff: float = 0.0
    exponent: float = -1.0
    shift: float = 1.0

    def __post_init__(self):
        super().__post_init__()
        if self.exponent >= 0:
            raise ParameterError(f"power tail must decrease: exponent={self.exponent}")
        if self.shift + self.lo <= 0:
            raise ParameterError("power tail undefined: shift + lo <= 0")

    @staticmethod
    def _value(p, x):
        return p.log_coeff + p.exponent * np.log(p.shift + x)

    @staticmethod
    def _density(p, x):
        return p.log_dcoeff + (p.exponent - 1.0) * np.log(p.shift + x)

    @property
    def log_dcoeff(self) -> float:
        return self.log_coeff + math.log(-self.exponent)

    @staticmethod
    def _inverse(p, lu):
        # exp((lu - log_offset - log_coeff) / exponent) - shift
        lu -= p.log_offset
        lu -= p.log_coeff
        lu /= p.exponent
        np.exp(lu, out=lu)
        lu -= p.shift
        return lu


@dataclass(frozen=True)
class ExpAffineSegment(Segment):
    """Exponential tail: F(x) = exp(log_v_lo - rate * (x - lo))."""

    log_v_lo: float = 0.0
    rate: float = 1.0

    def __post_init__(self):
        super().__post_init__()
        if not self.rate > 0:
            raise ParameterError(f"exp-affine rate must be positive, got {self.rate}")

    @staticmethod
    def _value(p, x):
        return p.log_v_lo - p.rate * (x - p.lo)

    @staticmethod
    def _density(p, x):
        return p.log_dcoeff + ExpAffineSegment._value(p, x)

    @property
    def log_dcoeff(self) -> float:
        return math.log(self.rate)

    @staticmethod
    def _inverse(p, lu):
        # (log_v_lo + log_offset - lu) / rate + lo
        np.subtract(p.log_v_lo + p.log_offset, lu, out=lu)
        lu /= p.rate
        lu += p.lo
        return lu


@dataclass(frozen=True)
class ExpPowSegment(Segment):
    """Stretched-exponential tail: F(x) = exp(-coeff * x ** beta), 0 < beta < 1."""

    beta: float = 0.5
    coeff: float = 1.0

    # numpy takes x ** 0.5 as a square root for a scalar exponent only.
    _SCALARS = ("beta",)

    def __post_init__(self):
        super().__post_init__()
        if not (0.0 < self.beta < 1.0):
            raise ParameterError(f"beta must lie in (0, 1), got {self.beta}")
        if not self.coeff > 0:
            raise ParameterError(f"coeff must be positive, got {self.coeff}")
        if self.lo < 0:
            raise ParameterError("stretched-exponential tail requires lo >= 0")

    @staticmethod
    def _value(p, x):
        return -p.coeff * np.power(x, p.beta)

    @staticmethod
    def _density(p, x):
        with np.errstate(divide="ignore"):
            return p.log_dcoeff + (p.beta - 1.0) * np.log(x) + ExpPowSegment._value(p, x)

    @property
    def log_dcoeff(self) -> float:
        return math.log(self.coeff * self.beta)

    @staticmethod
    def _inverse(p, lu):
        # ((log_offset - lu) / coeff) ** (1 / beta).  Levels above the
        # curve's top have a negative target; flooring it at 0 sends them to
        # lo through the clamp.
        np.subtract(p.log_offset, lu, out=lu)
        lu /= p.coeff
        np.maximum(lu, 0.0, out=lu)
        return np.power(lu, 1.0 / p.beta, out=lu)


def simplify_power(inner: Segment, m: int) -> Segment:
    """Raise a segment's tail to an integer power, folding closed forms."""
    if m == 1:
        return inner
    off = m * inner.log_offset
    if isinstance(inner, ConstSegment):
        return dataclasses.replace(inner, level=m * inner.level, log_offset=off)
    if isinstance(inner, ExpAffineSegment):
        return dataclasses.replace(
            inner, log_v_lo=m * inner.log_v_lo, rate=m * inner.rate, log_offset=off
        )
    if isinstance(inner, PowerSegment):
        return dataclasses.replace(
            inner, log_coeff=m * inner.log_coeff, exponent=m * inner.exponent, log_offset=off
        )
    if isinstance(inner, ExpPowSegment):
        return dataclasses.replace(inner, coeff=m * inner.coeff, log_offset=off)
    return dataclasses.replace(inner, m=m * inner.m, log_offset=off)


def chain_segments(segments: Sequence[Segment]) -> tuple[Segment, ...]:
    """Check contiguity and snap away roundoff-sized upward jumps.

    Downward jumps (atoms) pass through untouched.  An upward jump larger
    than roundoff is a construction bug and raises ParameterError.
    """
    return _chained(_SegmentTable(segments))[0]


def _chained(table: "_SegmentTable") -> tuple[tuple[Segment, ...], bool]:
    """``chain_segments`` on a table's segments, and whether it snapped
    one.  Joins are judged in order from the table's end values, at the
    table's rate; a snapped segment's end is read again, and so is the join
    after it."""
    if not table.segs:
        raise ParameterError("a tail curve needs at least one segment")
    segs, (starts, ends) = table.segs, table.end_values
    apart = np.flatnonzero(table.los[1:] != table.his[:-1])
    stop = int(apart[0]) + 1 if apart.size else len(segs)
    up = np.flatnonzero(starts[1:stop] > ends[: stop - 1]) + 1
    out, ends = list(segs), ends.tolist()
    judged, snapped = 0, False
    for k in up.tolist():
        while judged < k < stop:
            judged = k
            prev_end, start = ends[k - 1], float(starts[k])
            if not start > prev_end:
                break
            gap = start - prev_end
            if gap > _SNAP_RTOL * max(1.0, abs(prev_end)):
                raise ParameterError(
                    f"upward tail jump of {gap:.3e} at x={segs[k].lo}; tails must be nonincreasing"
                )
            seg = out[k] = out[k].with_offset(prev_end - start)
            snapped = True
            ends[k] = float(_log_value(type(seg), seg, np.array([seg.hi]), table.rate)[0])
            k += 1
    if apart.size:
        raise ParameterError(
            f"segments not contiguous: previous ends at {segs[stop - 1].hi}, "
            f"next starts at {segs[stop].lo}"
        )
    return tuple(out), snapped


class _SegmentTable:
    """A curve's segments as parameter tables, one per group of the module
    docstring: segment k is row ``_local[k]`` of group ``_group[k]``.  A
    group's columns are gathered from its segments on first use.  Every
    value, density and inverse is G(x) = F(x) e^{-rate x}'s."""

    def __init__(self, segs: Sequence[Segment], rate: float = 0.0):
        self.segs, self.rate = tuple(segs), rate
        self.los = np.array([s.lo for s in segs], dtype=float)
        self.his = np.array([s.hi for s in segs], dtype=float)
        keys = [(type(s), *(getattr(s, n) for n in s._SCALARS)) for s in segs]
        ids: dict = {}
        self._group = np.array([ids.setdefault(key, len(ids)) for key in keys], dtype=np.intp)
        self._local = np.empty(len(segs), dtype=np.intp)
        self._groups = []
        for (fam, *_), g in ids.items():
            rows = np.flatnonzero(self._group == g)
            self._local[rows] = np.arange(len(rows))
            self._groups.append(_Group(fam, [segs[k] for k in rows]))

    @cached_property
    def end_values(self) -> tuple[np.ndarray, np.ndarray]:
        """Each segment's log value at its lo and at its hi, by its own
        formula: at an infinite hi a decaying piece gives -inf and a flat
        one its level."""
        k = np.arange(len(self.segs))
        return self.log_value(self.los, k), self.log_value(self.his, k)

    def log_value(self, x: np.ndarray, k: np.ndarray | int) -> np.ndarray:
        """log G at each point x[j] by the formula of its segment k[j]."""
        return self._each(x, k, lambda g, p, y: _log_value(g.fam, p, y, self.rate))

    def log_density(self, x: np.ndarray, k: np.ndarray | int, lam=0.0) -> np.ndarray:
        """log(e^{lam x} g(x)) at each point x[j] by its segment k[j]."""
        return self._each(x, k, lambda g, p, y: _log_density(g.fam, p, y, lam, self.rate))

    def inverse(self, lu: np.ndarray, k: np.ndarray | int) -> np.ndarray:
        """x with log G(x) = lu[j] in each level's segment k[j]; may write
        x over lu."""
        return self._each(lu, k, lambda g, p, y: _inverse(g.fam, p, y, self.rate))

    def _each(self, x, k, run):
        """``run(group, parameters, points)`` over the groups the points
        meet.  k is each point's segment, or one segment for all points,
        whose own fields are then the parameters: the scalars that its
        gathered columns would repeat.  For a 2-D x, k may be a (1, n) row,
        one segment per column of x (``TailCurve._on_panels``): each field
        is then gathered once per column and broadcast down it."""
        if np.ndim(k) == 0:
            return run(self._groups[self._group[k]], self.segs[k], x)
        if len(self._groups) == 1:
            return run(self._groups[0], _Rows(self._groups[0], self._local[k]), x)
        group = self._group[k]
        # The points of a 1-d x, or the columns of a 2-d one, of each group
        # met; the groups' results are put back in order by one ``take``.
        ats = [(grp, np.flatnonzero(group == g)) for g, grp in enumerate(self._groups)]
        ats = [(grp, at) for grp, at in ats if at.size]
        if len(ats) < 2:  # one group, or no points
            grp = ats[0][0] if ats else self._groups[0]
            return run(grp, _Rows(grp, self._local[k]), x)
        parts = [
            run(grp, _Rows(grp, self._local[k.take(at, axis=-1)]), x.take(at, axis=-1))
            for grp, at in ats
        ]
        order = np.concatenate([at for _, at in ats])
        back = np.empty_like(order)
        back[order] = np.arange(order.size)
        return np.concatenate(parts, axis=-1).take(back, axis=-1)


class _Group:
    """The segments of one family table group, with their columns."""

    def __init__(self, fam: type[Segment], segs: list[Segment]):
        self.fam, self._segs = fam, segs
        self._cols = {n: getattr(segs[0], n) for n in fam._SCALARS}

    def column(self, name: str):
        """One entry per segment, or the group's scalar."""
        if name not in self._cols:
            self._cols[name] = np.array([getattr(s, name) for s in self._segs])
        return self._cols[name]


class _Rows:
    """Parameters of a group at the rows ``rows``, one per point, read by
    the family formulas as a segment's fields are."""

    def __init__(self, group: _Group, rows: np.ndarray):
        self._group, self._rows = group, rows

    def __getattr__(self, name: str):
        col = self._group.column(name)
        val = col[self._rows] if isinstance(col, np.ndarray) else col
        setattr(self, name, val)
        return val


class TailCurve:
    """Piecewise survival function on [0, truncation_hi].

    G(x) = F(x) e^{-rate x}, F from the segments and ``rate`` >= 0 the
    exponential tilt (0 for none); G(x) = 1 for x < 0 by convention.
    Evaluation is right-continuous; the left limit (needed for atom masses
    and staircase discretization) is available via ``log_tail_left``.  All
    values are logs.
    """

    def __init__(self, segments: Sequence[Segment], *, rate: float = 0.0):
        if not 0.0 <= rate < math.inf:
            raise ParameterError(f"tilt rate must be finite and nonnegative, got {rate}")
        table = _SegmentTable(segments, rate)
        segs, changed = _chained(table)
        if segs[0].lo != 0.0:
            raise ParameterError(f"support must start at 0, got {segs[0].lo}")
        first = segs[0].log_value_at(0.0)
        if first > 1e-12:
            raise ParameterError(f"tail at 0 exceeds 1: log value {first}")
        if first > 0.0:
            # Roundoff pushed log F(0) a hair above 0; pin it back.
            segs, changed = (segs[0].with_offset(-first), *segs[1:]), True
        self._table = _SegmentTable(segs, rate) if changed else table
        self.segments, self.rate = segs, rate
        self.support_lo = 0.0
        self.truncation_hi = segs[-1].hi
        self._los = self._table.los
        self._starts, self._ends = self._table.end_values
        # Segments with a density among the first k: _dense_below[k].  A
        # rate gives every segment one.
        self._dense_below = np.cumsum([False, *(bool(rate) or s.has_density for s in segs)])
        self._guide: np.ndarray | None = None  # built by the first quantile call
        finite_hi = [self.truncation_hi] if math.isfinite(self.truncation_hi) else []
        self._breakpoints = np.append(self._los, finite_hi)
        self._breakpoints.flags.writeable = False

    # ------------------------------------------------------------------ eval

    def _checked(self, x) -> np.ndarray:
        """x as an at least 1-d float array, refused if NaN or past the
        truncation."""
        xa = np.atleast_1d(np.asarray(x, dtype=float))
        # One comparison catches both NaN and points past the truncation.
        if not np.all(xa <= self.truncation_hi):
            if np.any(np.isnan(xa)):
                raise ParameterError("tail argument x is NaN")
            bad = float(xa[xa > self.truncation_hi][0])
            raise TruncationError(
                f"x={bad!r} beyond materialized breakpoint {self.truncation_hi!r}; "
                "refusing to extrapolate"
            )
        return xa

    def log_tail(self, x) -> np.ndarray | float:
        """log F(x); scalar in, scalar out, else x's shape.  x < 0 gives 0.0
        (tail is 1)."""
        xa = self._checked(x)
        out = self._on_support(xa.ravel(), self._table.log_value, 0.0)
        return float(out[0]) if np.isscalar(x) else out.reshape(xa.shape)

    def log_density(self, x: np.ndarray, lam: float = 0.0) -> np.ndarray:
        """log(e^{lam x} f(x)) on an array x within the support, f the density
        of dF: each point's segment's own ``log_density``, -inf on flat
        segments and for x < 0.  NaN and points past the truncation are
        refused as ``log_tail`` refuses them, and x = +-inf when lam != 0,
        where e^{lam x} f(x) has no value to read."""
        xa = self._checked(x)
        if lam and not np.isfinite(xa).all():
            raise ParameterError(f"log_density with lam={lam!r} needs finite x")
        fn = partial(self._table.log_density, lam=lam)
        return self._on_support(xa.ravel(), fn, _NEG_INF).reshape(xa.shape)

    def _on_panels(self, x: np.ndarray, left=False, lam: float | None = None) -> np.ndarray:
        """``log_tail`` on a quadrature's (panels, 15) nodes x, or with lam
        given ``log_density(x, lam)``, each row by the formula of its middle
        node's segment.  The seeds put every join, and every mirror x - join,
        at a panel end, so a row lies in one segment but for rounding.  The
        middle node is looked up from the right, or from the left in the
        rows where ``left`` (a bool or a (panels, 1) column) is set: an
        argument x - y that rounds onto a join lies below it.  x is not
        checked for NaN or truncation, as the integrands' bounds are; a
        middle node below the support is refused.

        The work runs on x.T, one segment per column, so that a parameter
        broadcast along a row of x is contiguous with the other rows'
        (``_gk15`` lays its nodes out this way)."""
        fn = self._table.log_value if lam is None else partial(self._table.log_density, lam=lam)
        mid = x[:, x.shape[1] // 2]
        k = self._los.searchsorted(mid, side="right") - 1
        if np.any(left):
            k -= np.ravel(left) & (self._los[k] == mid)
        first = int(k.min())
        if first < 0:
            raise ParameterError(f"a panel's middle node lies below the support: {mid.min()!r}")
        return fn(x.T, first if first == k.max() else k[None]).T

    def _on_support(self, x: np.ndarray, fn, below: float) -> np.ndarray:
        """``fn(points, their segments)`` on the points of a flat x at or
        above 0, and ``below`` where x < 0.  Points that all lie in one
        segment pass its index alone."""
        if not x.size:
            return np.full_like(x, below)
        first = int(self._los.searchsorted(x.min(), side="right")) - 1
        if first >= 0 and (first + 1 == len(self._los) or x.max() < self._los[first + 1]):
            return fn(x, first)
        k = self._los.searchsorted(x, side="right") - 1
        if first >= 0:
            return fn(x, k)
        out = np.full_like(x, below)
        pos = np.flatnonzero(k >= 0)
        out[pos] = fn(x[pos], k[pos])
        return out

    def log_tail_left(self, x) -> np.ndarray | float:
        """log F(x-): the left limit, which exceeds log F(x) at an atom.

        Scalar in, scalar out, else x's shape; x <= 0 gives 0.0.
        """
        xa = np.atleast_1d(np.asarray(x, dtype=float))
        flat = xa.ravel()
        out = self.log_tail(flat)  # refuses NaN and points past the truncation
        out[flat <= 0] = 0.0
        # At a segment start, the left limit is the previous segment's value.
        j = np.searchsorted(self._los, flat, side="left")
        join = (j > 0) & (j < len(self._los))
        join[join] = self._los[j[join]] == flat[join]
        at = np.flatnonzero(join)
        out[at] = self._table.log_value(flat[at], j[at] - 1)
        return float(out[0]) if np.isscalar(x) else out.reshape(xa.shape)

    # -------------------------------------------------------------- quantile

    def quantile(self, u) -> np.ndarray | float:
        """Smallest x with F(x) <= u, for u in (0, 1].

        Exact per-segment inversion where closed forms exist, bisection to
        absolute tolerance 1e-12 * (1 + x) otherwise.  u below the tail at
        the truncation point, or below the level of a flat last piece that
        reaches infinity, raises TruncationError.  A quantile past the
        largest float reads inf.  Scalar in, scalar out, else u's shape.
        """
        ua = np.atleast_1d(np.asarray(u, dtype=float))
        if not ua.size:
            return np.empty_like(ua)
        # u = 0 and u < 0 are refused from their logs, -inf and NaN.
        with np.errstate(divide="ignore", invalid="ignore"):
            lu = np.log(ua.ravel())
        out = self._quantile_of_log(lu)
        return float(out[0]) if np.isscalar(u) else out.reshape(ua.shape)

    def _quantile_of_log(self, lu: np.ndarray) -> np.ndarray:
        """``quantile`` at the levels e^lu, for a flat nonempty array lu of
        log levels, which it may overwrite with the result.

        log u in (-inf, 0] is u in (0, 1], so one minimum and one maximum
        check the levels, the truncation floor and the only segment."""
        lo, hi = lu.min(), lu.max()
        # Written so that NaN fails the test too.
        if not (lo > _NEG_INF and hi <= 0):
            raise ParameterError("quantile level u must lie in (0, 1]")
        tail_floor = float(self._ends[-1])
        if lo < tail_floor:
            raise TruncationError(
                "quantile level below the tail at the truncation point "
                f"(log u < {tail_floor!r})"
            )
        if len(self.segments) == 1 and hi < self._starts[0]:
            # Every level lies inside the only segment.
            return self._table.inverse(lu, 0)
        k = self._segment_of_level(lu)
        out = self._los[k]
        if not self._dense_below[-1]:
            # Without a density every level lands on a segment start.
            return out
        inside = np.flatnonzero(self._starts[k] > lu)
        if inside.size:
            # Levels that all lie in one segment pass its index alone.
            k_in = k[inside]
            first = int(k_in.min())
            out[inside] = self._table.inverse(lu[inside], first if first == k_in.max() else k_in)
        return out

    def _segment_of_level(self, lu: np.ndarray) -> np.ndarray:
        """First segment k whose end value is at most lu, that is
        ``searchsorted(-_ends, -lu, "left")`` (the floor check in
        ``quantile`` keeps k in range): the level lands on its start (an
        atom or a flat) or inside it.

        k is read from the bucket of v = -lu where k is the same at both
        ends of the bucket; levels in the other buckets, and in the last
        one, which also holds v >= 64, are searched.  u > 0 keeps v below
        745, so v * 64 fits an index."""
        if self._guide is None:
            v_ends = np.arange(_GUIDE_BUCKETS + 1) / _GUIDE_SCALE
            k_ends = np.searchsorted(-self._ends, v_ends, side="left")
            guide = np.where(k_ends[:-1] == k_ends[1:], k_ends[:-1], -1)
            guide[-1] = -1
            self._guide = guide
        k = self._guide.take((lu * -_GUIDE_SCALE).astype(np.intp), mode="clip")
        search = np.flatnonzero(k < 0)
        k[search] = np.searchsorted(-self._ends, -lu[search], side="left")
        return k

    # ------------------------------------------------------------- integrals

    def breakpoints(self) -> np.ndarray:
        """The segment starts and a finite truncation point, read-only."""
        return self._breakpoints

    def has_density_in(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Whether a segment with a density meets (lo[j], hi[j]), for each
        pair of bounds."""
        first = np.maximum(np.searchsorted(self._los, lo, side="right") - 1, 0)
        stop = np.searchsorted(self._los, hi, side="left")
        return (np.asarray(lo) < hi) & (self._dense_below[stop] > self._dense_below[first])
