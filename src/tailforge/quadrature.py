"""Adaptive Gauss-Kronrod quadrature carried out in the log domain.

All integrands in this package are products of survival functions whose
magnitudes can span thousands of orders (values like exp(-7e18) appear in the
deep piecewise constructions), so panel contributions are represented as
logarithms and combined with log-sum-exp.  A (G7, K15) rule is applied per
panel, and refinement runs in rounds.  Each round bisects every panel whose
log error exceeds log(total * rel_tol / n_panels), its even share of the
target, and always the worst panel while the total error misses the target.
An integral's panels stay in ascending order: a bisected panel is replaced
in place by its lower then its upper half, and the worst panel is the first
of equal errors.  ``max_subdivisions`` counts bisections; a round that would
overrun it bisects the worst panels first, the first of equal errors first.

``log_quads`` refines a batch of integrals as one panel table, grouped by
integral, and a round applies these rules to every live integral at once
with segmented numpy reductions (``np.maximum.reduceat``,
``np.add.reduceat``): totals, errors, the convergence test, the depth guard,
the splits, the narrow-panel rule and the budget.  The new panels of all
integrals are evaluated together, up to ``_MAX_PANELS`` panels per call of
the integrand, which is told each panel's integral.  A segment's sums read
its own entries only, so each integral gets the same bits as alone;
``log_quad`` is the batch of one.

The integrand sees the panels as rows: its abscissae come as a (panels, 15)
array whose row i holds panel i's Kronrod nodes in ascending order, and the
owners as a (panels, 1) column, so an elementwise integrand broadcasts over
both unchanged and returns a (panels, 15) array.  A piecewise integrand
whose pieces' ends are among the seeds can read each row's piece once, at
its middle node, the middle column (``TailCurve._on_panels`` does so).

The K15 and G7 sums of a panel are row sums over its 15 nodes, not a matrix
product against the weights: a product's blocking makes a row's last bits
depend on where it sits in the batch, and a row sum does not, so a panel
has the same value alone as in a round of any size.

Panels are seeded from caller-supplied mandatory breakpoints, which for tail
integrands are the segment boundaries of both factors.  That keeps every
panel's integrand smooth, which is what makes the K15-G7 error estimate
trustworthy.  A batch takes them as one seed table, a row (integral,
point) per breakpoint, and cuts every integral's seed panels in one sort:
those panels are the table's first round.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import LogDepthError, ParameterError, ToleranceError, _count, _positive

__all__ = ["QuadConfig", "LogQuadResult", "log_quad", "log_quads"]

# 15-point Kronrod nodes on [-1, 1] (positive half; rule is symmetric) with
# the embedded 7-point Gauss rule on the odd-indexed nodes.  Standard
# QUADPACK dqk15 constants.
_XGK_HALF = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
])
_WGK_HALF = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG_HALF = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

# Full-rule node/weight tables (15 nodes, ascending).
_XGK = np.concatenate([-_XGK_HALF[:-1], _XGK_HALF[::-1]])
_WGK = np.concatenate([_WGK_HALF[:-1], _WGK_HALF[::-1]])
_WG = np.zeros(15)
_WG[1:14:2] = np.concatenate([_WG_HALF[:-1], _WG_HALF[::-1]])

_NEG_INF = float("-inf")


@dataclass(frozen=True)
class QuadConfig:
    """Tolerances and limits for adaptive tail quadrature.

    breakpoints of both integrand factors are always forced as initial panel
    boundaries; ``max_subdivisions`` caps the number of panel bisections.
    """

    rel_tol: float = 1e-9
    max_subdivisions: int = 2000

    def __post_init__(self):
        _positive("rel_tol", self.rel_tol)
        _count("max_subdivisions", self.max_subdivisions, 1)


@dataclass
class LogQuadResult:
    """Log-domain integral with its achieved error estimate.

    ``log_value`` is log of the integral (-inf for a zero integral);
    ``rel_error`` is the estimated |error| / value, inf when value is zero
    but the error estimate is not.
    """

    log_value: float
    rel_error: float
    n_panels: int

    @property
    def value(self) -> float:
        return math.exp(self.log_value) if self.log_value > _NEG_INF else 0.0


def _gk15(log_f: Callable[[np.ndarray], np.ndarray], los: np.ndarray, his: np.ndarray):
    """(G7, K15) on every panel [los[i], his[i]] with one call of ``log_f``,
    which takes the nodes as a (panels, 15) array of ascending rows.

    Returns (log integrals, log abs error estimates), one entry per panel.
    The rule's sums are row sums, so each panel's result is the same bits
    whatever other panels share the call.
    """
    half = 0.5 * (his - los)
    # Node-major in memory, so that an integrand's parameters broadcast
    # along a row run over the panels in the inner loop.
    xs = (0.5 * (los + his) + _XGK[:, None] * half).T
    # C order: each row's sums below then add its 15 nodes in one fixed
    # order, whatever the layout of the integrand's result.
    ls = np.asarray(log_f(xs), dtype=float, order="C").reshape(xs.shape)
    m = ls.max(axis=1)
    # A row whose maximum is not finite is identically zero (or invalid);
    # its sums are formed against 0 and then discarded.
    live = np.isfinite(m)
    m[~live] = 0.0
    with np.errstate(all="ignore"):
        scaled = np.exp(ls - m[:, None])
        k15 = (scaled * _WGK).sum(axis=1)
        g7 = (scaled * _WG).sum(axis=1)
        diff = np.abs(k15 - g7)
        # QUADPACK-style sharpened estimate; floored at 1 ulp of the value.
        err = np.maximum(np.maximum(np.minimum((200.0 * diff) ** 1.5, diff), diff * 1e-6), k15 * 1e-16)
        log_half = np.log(half)
        live &= k15 > 0.0
        vals = np.where(live, m + np.log(k15) + log_half, _NEG_INF)
        errs = np.where(live & (err > 0.0), m + np.log(err) + log_half, _NEG_INF)
    return vals, errs


# Memory cap of log_quads: one call of the integrand takes at most
# _MAX_PANELS panels, so its (panels, 15) temporaries stay small however
# large the table.  Without it, the peak RSS of the 12 classify calls and
# five experiments of the evidence benchmark, run in one process, rose
# from 35 to 40 MB.  It bounds memory, not the results: a panel's bits do
# not depend on its call (see _gk15).
_MAX_PANELS = 512


def _heads(keys: np.ndarray) -> np.ndarray:
    """Marks the first entry of each run of equal keys."""
    heads = np.ones(len(keys), dtype=bool)
    heads[1:] = keys[1:] != keys[:-1]
    return heads


def _seed_panels(owners: np.ndarray, pts: np.ndarray):
    """Panels (owner, lo, hi) between the distinct points of each owner,
    grouped by owner and ascending within each group."""
    order = np.lexsort((pts, owners))
    owners, pts = owners[order], pts[order]
    first = _heads(owners) | _heads(pts)
    owners, pts = owners[first], pts[first]
    pair = owners[1:] == owners[:-1]
    return owners[1:][pair], pts[:-1][pair], pts[1:][pair]


def _seg_logsumexp(x: np.ndarray, starts: np.ndarray, counts: np.ndarray):
    """Log-sum-exp of each segment x[starts[k]:starts[k] + counts[k]], and
    each segment's maximum.  A segment's bits depend on its entries alone."""
    m = np.maximum.reduceat(x, starts)
    shift = np.where(m == _NEG_INF, 0.0, m)
    with np.errstate(divide="ignore"):
        s = np.log(np.add.reduceat(np.exp(x - np.repeat(shift, counts)), starts))
    return np.where(m == _NEG_INF, _NEG_INF, shift + s), m


def _logsumexp_list(values: list[float]) -> float:
    if len(values) == 1 and math.isfinite(values[0]):
        # m + log(exp(0)) bit for bit, -0.0 read as 0.0
        return values[0] + 0.0
    finite = [v for v in values if v > _NEG_INF]
    if not finite:
        return _NEG_INF
    m = max(finite)
    return m + math.log(sum(math.exp(v - m) for v in finite))


def log_quads(
    log_f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    a: Sequence[float],
    b: Sequence[float],
    seeds: tuple[np.ndarray, np.ndarray],
    cfg: QuadConfig | None = None,
) -> list[LogQuadResult]:
    """``log_quad`` on the integrals i = 0, 1, ... of [a[i], b[i]] together.

    ``log_f(y, owner)`` returns log-integrand values at the abscissae y, a
    (panels, 15) array with one panel's nodes per row in ascending order,
    where ``owner``, a (panels, 1) column, holds the index of the integral
    that each row belongs to; the result has y's shape.
    ``seeds`` is the seed table (owner, point) of forced panel boundaries:
    point j is one of integral owner[j]'s, in any order, and points outside
    (a[i], b[i]) are ignored.

    The live panels of all integrals form one table, grouped by integral
    and ascending within each; every integral's seed panels enter it at
    round 1.  Each round evaluates the table's new panels with one call of
    ``log_f`` (at most ``_MAX_PANELS`` panels per call) and then applies the
    rules of the module docstring to every integral at once with segmented
    reductions.  Every integral refines on its own, exactly as alone, so
    entry i of the result is the LogQuadResult ``log_quad`` returns for it.

    The first failure stops the batch.  Unordered bounds raise
    ParameterError before any integral is evaluated, at the lowest such
    index; then the earliest round in which an integral is beyond
    log-domain resolution (LogDepthError) or out of subdivisions
    (ToleranceError) raises it, at the lowest index of that round.  Each
    error is the one the integral raises alone.
    """
    cfg = cfg or QuadConfig()
    log_tol = math.log(cfg.rel_tol)
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    ordered = (-math.inf < a) & (a <= b) & (b < math.inf)  # NaN fails this too
    if not ordered.all():
        i = np.argmin(ordered)  # the first unordered pair
        raise ParameterError(f"integration bounds must be finite and ordered, got [{a[i]}, {b[i]}]")
    results = [LogQuadResult(_NEG_INF, 0.0, 0) for _ in a]  # a == b keeps it
    live = np.flatnonzero(a < b)
    s_owner, s_pts = np.asarray(seeds[0], dtype=np.intp), np.asarray(seeds[1], dtype=float)
    inside = (s_pts > a[s_owner]) & (s_pts < b[s_owner])
    # Every seed panel, grouped by integral in increasing order.
    owner, los, his = _seed_panels(
        np.concatenate([live, live, s_owner[inside]]),
        np.concatenate([a[live], b[live], s_pts[inside]]),
    )
    vals, errs = np.empty(len(owner)), np.empty(len(owner))
    fresh = np.arange(len(owner))  # rows awaiting evaluation
    splits = np.zeros(len(a), dtype=np.int64)
    while len(owner):
        for s in range(0, len(fresh), _MAX_PANELS):
            part = fresh[s : s + _MAX_PANELS]
            col = owner[part][:, None]
            vals[part], errs[part] = _gk15(lambda y: log_f(y, col), los[part], his[part])

        starts = np.flatnonzero(_heads(owner))
        counts = np.diff(np.r_[starts, len(owner)])
        seg_owner = owner[starts]
        mids = 0.5 * (los + his)
        # Panels narrower than float resolution are accepted, not split.
        narrow = (mids <= los) | (mids >= his)
        split = np.zeros(len(owner), dtype=bool)
        done = np.zeros(len(starts), dtype=bool)
        todo = np.ones(len(starts), dtype=bool)
        rel = np.empty(len(starts))  # as of the pass that judged each integral
        while todo.any():
            total, _ = _seg_logsumexp(vals, starts, counts)
            toterr, worst = _seg_logsumexp(errs, starts, counts)
            with np.errstate(invalid="ignore", over="ignore"):
                gap = toterr - total
                rel[todo] = np.exp(gap[todo])
            deep = todo & np.isfinite(total) & (np.abs(total) > 4.5e15)
            if deep.any():
                # The ulp of the log exceeds any log-domain correction: a value
                # this deep has no representable relative structure in binary64.
                k = np.argmax(deep)
                raise LogDepthError(
                    f"integral magnitude exp({total[k]:.3e}) is beyond log-domain float "
                    "resolution; no relative accuracy is attainable at this depth",
                    achieved_rel_error=math.inf,
                )
            exact = todo & (toterr == _NEG_INF)
            met = todo & (total > _NEG_INF) & (gap <= log_tol)
            for k in np.flatnonzero(exact | met):
                results[seg_owner[k]] = LogQuadResult(
                    float(total[k]), float(rel[k]) if met[k] else 0.0, int(counts[k])
                )
            done |= exact | met
            todo &= ~done
            # Split every panel over its even share of the target error, and
            # always the worst one, the first of equal errors.
            rows = np.repeat(todo, counts)
            want = rows & (errs > np.repeat(total + log_tol - np.log(counts), counts))
            tops = np.flatnonzero(rows & (errs == np.repeat(worst, counts)))
            want[tops[_heads(owner[tops])]] = True
            errs[want & narrow] = _NEG_INF
            want &= ~narrow
            split |= want
            # An integral whose every split was narrow is judged again.
            todo &= ~np.logical_or.reduceat(want, starts)

        # The subdivision budget: an integral that has spent it fails, and one
        # that would overrun it splits its worst panels first, the first of
        # equal errors first.
        n_split = np.add.reduceat(split, starts)
        spent = (n_split > 0) & (splits[seg_owner] >= cfg.max_subdivisions)
        if spent.any():
            k = np.argmax(spent)
            i = seg_owner[k]
            achieved = math.inf if total[k] == _NEG_INF else float(rel[k])
            raise ToleranceError(
                f"quadrature on [{a[i]}, {b[i]}] achieved relative error "
                f"{achieved:.3e} > requested {cfg.rel_tol:.3e} after {splits[i]} subdivisions",
                achieved_rel_error=achieved,
            )
        keep = np.repeat(~done, counts)
        split &= keep
        room = cfg.max_subdivisions - splits[seg_owner]
        over = ~done & (n_split > room)
        if over.any():
            rows = np.flatnonzero(split & np.repeat(over, counts))
            rows = rows[np.lexsort((rows, -errs[rows], owner[rows]))]
            firsts = np.flatnonzero(_heads(owner[rows]))
            sizes = np.diff(np.r_[firsts, len(rows)])
            rank = np.arange(len(rows)) - np.repeat(firsts, sizes)
            split[rows[rank >= np.repeat(room[over], sizes)]] = False
        splits[seg_owner] += np.add.reduceat(split, starts)

        # Drop finished integrals; each split panel becomes its lower then
        # its upper half, in place, so the table stays grouped and ascending.
        cuts = mids[split]
        reps = (1 + split)[keep]
        halves = (np.cumsum(reps) - reps)[split[keep]]
        owner, los, his, vals, errs = (
            np.repeat(v[keep], reps) for v in (owner, los, his, vals, errs)
        )
        his[halves] = cuts
        los[halves + 1] = cuts
        fresh = np.stack([halves, halves + 1], axis=1).ravel()
    return results


def log_quad(
    log_f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    breakpoints: Iterable[float] = (),
    cfg: QuadConfig | None = None,
) -> LogQuadResult:
    """Compute log( integral_a^b exp(log_f(y)) dy ) adaptively.

    ``log_f`` must accept a (panels, 15) array of abscissae, one panel's
    nodes per row in ascending order, and return log-integrand values of
    the same shape (-inf where the integrand vanishes).  ``breakpoints``
    are forced panel boundaries; points outside (a, b) are ignored.

    Raises ParameterError unless -inf < a <= b < inf, and ToleranceError
    when the requested relative tolerance cannot be certified within the
    subdivision budget.
    """
    bps = np.asarray(
        breakpoints if isinstance(breakpoints, np.ndarray) else list(breakpoints), dtype=float
    )
    seeds = (np.zeros(len(bps), dtype=np.intp), bps)
    return log_quads(lambda y, owner: log_f(y), [a], [b], seeds, cfg)[0]

