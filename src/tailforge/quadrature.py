"""Adaptive Gauss-Kronrod quadrature carried out in the log domain.

All integrands in this package are products of survival functions whose
magnitudes can span thousands of orders (values like exp(-7e18) appear in the
deep piecewise constructions), so panel contributions are represented as
logarithms and combined with log-sum-exp.  A (G7, K15) rule is applied per
panel, and refinement runs in rounds.  Each round bisects every panel whose
log error exceeds log(total * rel_tol / n_panels), its even share of the
target, and always the worst panel while the total error misses the target.
The panels live in one list in the order they were made: bisected panels
leave it and their halves go to its end.  ``max_subdivisions`` counts
bisections; a round that would overrun it bisects the worst panels first,
the earliest of equal errors first.

``log_quads`` refines a batch of integrals together, and a round spans
every live integral of the batch: the new halves of all of them are
evaluated together, up to ``_MAX_PANELS`` panels per call of the
integrand, which is told each point's integral.  Each integral keeps its own panel list, budget and errors, so it
gets the same bits as alone; ``log_quad`` is the batch of one.

The K15 and G7 sums of a panel are row sums over its 15 nodes, not a matrix
product against the weights: a product's blocking makes a row's last bits
depend on where it sits in the batch, and a row sum does not, so a panel
has the same value alone as in a round of any size.

Panels are seeded from caller-supplied mandatory breakpoints, which for tail
integrands are the segment boundaries of both factors.  That keeps every
panel's integrand smooth, which is what makes the K15-G7 error estimate
trustworthy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import LogDepthError, ParameterError, TailforgeError, ToleranceError

__all__ = ["QuadConfig", "LogQuadResult", "log_quad", "log_quads", "logsubexp"]

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


def logsubexp(a: float, b: float) -> float:
    """log(exp(a) - exp(b)) for a >= b, stable for nearly equal arguments."""
    if b == _NEG_INF:
        return a
    if b > a:
        raise ValueError(f"logsubexp requires a >= b, got a={a}, b={b}")
    if a == b:
        return _NEG_INF
    return a + math.log1p(-math.exp(b - a))


@dataclass(frozen=True)
class QuadConfig:
    """Tolerances and limits for adaptive tail quadrature.

    breakpoints of both integrand factors are always forced as initial panel
    boundaries; ``max_subdivisions`` caps the number of panel bisections.
    """

    rel_tol: float = 1e-9
    max_subdivisions: int = 2000

    def __post_init__(self):
        if not self.rel_tol > 0:
            raise ParameterError(f"rel_tol must be positive, got {self.rel_tol}")
        if self.max_subdivisions < 1:
            raise ParameterError("max_subdivisions must be >= 1")


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
    """(G7, K15) on every panel [los[i], his[i]] with one call of ``log_f``.

    Returns (log integrals, log abs error estimates), one entry per panel.
    The rule's sums are row sums, so each panel's result is the same bits
    whatever other panels share the call.
    """
    half = 0.5 * (his - los)
    xs = (0.5 * (los + his))[:, None] + half[:, None] * _XGK
    ls = np.asarray(log_f(xs.ravel()), dtype=float).reshape(xs.shape)
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


# Memory caps of log_quads: how many integrals refine at once, and how many
# panels go into one call of the integrand.  Both bound the working set, not
# the results: a panel's bits do not depend on its call (see _gk15).
_MAX_LIVE = 32
_MAX_PANELS = 512


class _Refinement:
    """One integral's adaptive refinement: its panel list, split rule,
    subdivision budget and depth guard.

    ``new_los``/``new_his`` are the panels awaiting evaluation; ``absorb``
    takes their (G7, K15) results and advances to the next request or to
    ``outcome``, a LogQuadResult or the error the integral raises.
    """

    def __init__(self, a: float, b: float, breakpoints, cfg: QuadConfig):
        if not -math.inf < a <= b < math.inf:  # NaN fails this too
            raise ParameterError(f"integration bounds must be finite and ordered, got [{a}, {b}]")
        self.a, self.b, self.cfg = a, b, cfg
        self.outcome: LogQuadResult | ToleranceError | None = None
        if b == a:
            self.outcome = LogQuadResult(_NEG_INF, 0.0, 0)
            return
        bps = np.asarray(breakpoints if isinstance(breakpoints, np.ndarray) else list(breakpoints), dtype=float)
        inner = bps[(bps > a) & (bps < b)]
        pts = np.unique(np.concatenate([[a, b], inner])) if inner.size else np.array([a, b], dtype=float)
        # Panels in the order they were made: bounds, log values, log errors.
        self.los = self.his = self.vals = self.errs = np.empty(0)
        self.keep = np.empty(0, dtype=bool)
        self.new_los, self.new_his = pts[:-1], pts[1:]
        self.splits = 0

    def absorb(self, new_vals: np.ndarray, new_errs: np.ndarray) -> None:
        # Bisected panels leave the list and their halves go to its end.
        keep = self.keep
        self.los = np.concatenate([self.los[keep], self.new_los])
        self.his = np.concatenate([self.his[keep], self.new_his])
        self.vals = np.concatenate([self.vals[keep], new_vals])
        self.errs = np.concatenate([self.errs[keep], new_errs])
        self.splits += len(keep) - int(keep.sum())
        self._advance()

    def _advance(self) -> None:
        los, his, errs, cfg = self.los, self.his, self.errs, self.cfg
        log_tol = math.log(cfg.rel_tol)
        while True:
            total = _logsumexp(self.vals)
            toterr = _logsumexp(errs)
            if math.isfinite(total) and abs(total) > 4.5e15:
                # The ulp of the log exceeds any log-domain correction: a value
                # this deep has no representable relative structure in binary64.
                self.outcome = LogDepthError(
                    f"integral magnitude exp({total:.3e}) is beyond log-domain float "
                    "resolution; no relative accuracy is attainable at this depth",
                    achieved_rel_error=math.inf,
                )
                return
            if toterr == _NEG_INF:
                self.outcome = LogQuadResult(total, 0.0, len(los))
                return
            if total > _NEG_INF and toterr - total <= log_tol:
                self.outcome = LogQuadResult(total, math.exp(toterr - total), len(los))
                return
            # This round splits every panel over its even share of the target
            # error, and always the worst one (argmax takes the earliest).
            split = errs > total + log_tol - math.log(len(los))
            split[int(np.argmax(errs))] = True
            mids = 0.5 * (los + his)
            narrow = split & ((mids <= los) | (mids >= his))
            if narrow.any():
                # Panels narrower than float resolution: accept their estimates.
                errs[narrow] = _NEG_INF
                split &= ~narrow
                if not split.any():
                    continue
            if self.splits >= cfg.max_subdivisions:
                achieved = math.inf if total == _NEG_INF else math.exp(toterr - total)
                self.outcome = ToleranceError(
                    f"quadrature on [{self.a}, {self.b}] achieved relative error {achieved:.3e} "
                    f"> requested {cfg.rel_tol:.3e} after {self.splits} subdivisions",
                    achieved_rel_error=achieved,
                )
                return
            idx = np.flatnonzero(split)
            room = cfg.max_subdivisions - self.splits
            if len(idx) > room:
                # Worst first, the earliest of equal errors first.
                idx = np.sort(idx[np.argsort(-errs[idx], kind="stable")[:room]])
            # Halves of each split panel, lower then upper, in split order.
            self.new_los = np.stack([los[idx], mids[idx]], axis=1).ravel()
            self.new_his = np.stack([mids[idx], his[idx]], axis=1).ravel()
            self.keep = np.ones(len(los), dtype=bool)
            self.keep[idx] = False
            return


def log_quads(
    log_f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    a: Sequence[float],
    b: Sequence[float],
    breakpoints: Iterable[Iterable[float]],
    cfg: QuadConfig | None = None,
) -> list[LogQuadResult | TailforgeError]:
    """``log_quad`` on the integrals i = 0, 1, ... of [a[i], b[i]] together.

    ``log_f(y, owner)`` returns log-integrand values at the abscissae y,
    where ``owner[j]`` is the index of the integral that y[j] belongs to.
    ``breakpoints`` gives each integral's forced panel boundaries; it is
    read one entry at a time as integrals start, so it may be a generator.

    Each round evaluates the pending panels of every live integral with one
    call of ``log_f`` (at most ``_MAX_PANELS`` panels per call).  Every
    integral refines on its own, exactly as alone, so entry i of the result
    is the LogQuadResult ``log_quad`` returns for it, or the error it raises
    there (ParameterError, ToleranceError or LogDepthError); a failing
    integral does not stop the others.
    """
    cfg = cfg or QuadConfig()
    results: list[LogQuadResult | TailforgeError | None] = [None] * len(a)
    waiting = enumerate(zip(a, b, breakpoints))
    live: dict[int, _Refinement] = {}
    while True:
        for i, (lo, hi, bps) in waiting:
            try:
                q = _Refinement(lo, hi, bps, cfg)
            except ParameterError as err:
                results[i] = err
                continue
            if q.outcome is not None:
                results[i] = q.outcome
                continue
            live[i] = q
            if len(live) == _MAX_LIVE:
                break
        if not live:
            return results  # type: ignore[return-value]
        owners = np.concatenate([np.full(len(q.new_los), i) for i, q in live.items()])
        los = np.concatenate([q.new_los for q in live.values()])
        his = np.concatenate([q.new_his for q in live.values()])
        vals, errs = np.empty(len(los)), np.empty(len(los))
        for s in range(0, len(los), _MAX_PANELS):
            part = slice(s, s + _MAX_PANELS)
            owner = np.repeat(owners[part], len(_XGK))
            vals[part], errs[part] = _gk15(lambda y: log_f(y, owner), los[part], his[part])
        start = 0
        for i, q in list(live.items()):
            stop = start + len(q.new_los)
            q.absorb(vals[start:stop], errs[start:stop])
            start = stop
            if q.outcome is not None:
                results[i] = q.outcome
                del live[i]


def log_quad(
    log_f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    breakpoints: Iterable[float] = (),
    cfg: QuadConfig | None = None,
) -> LogQuadResult:
    """Compute log( integral_a^b exp(log_f(y)) dy ) adaptively.

    ``log_f`` must accept an ndarray of abscissae and return log-integrand
    values (-inf where the integrand vanishes).  ``breakpoints`` are forced
    panel boundaries; points outside (a, b) are ignored.

    Raises ParameterError unless -inf < a <= b < inf, and ToleranceError
    when the requested relative tolerance cannot be certified within the
    subdivision budget.
    """
    return unwrap(log_quads(lambda y, owner: log_f(y), [a], [b], [breakpoints], cfg)[0])


def unwrap(entry):
    """The value of one entry of a batched result, or raise its error."""
    if isinstance(entry, TailforgeError):
        raise entry
    return entry


def _logsumexp(values: np.ndarray) -> float:
    # Panel logs are finite or -inf, and exp(-inf - m) is 0.
    m = float(values.max())
    if m == _NEG_INF:
        return _NEG_INF
    return m + math.log(float(np.exp(values - m).sum()))
