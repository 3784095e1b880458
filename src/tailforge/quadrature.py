"""Adaptive Gauss-Kronrod quadrature carried out in the log domain.

All integrands in this package are products of survival functions whose
magnitudes can span thousands of orders (values like exp(-7e18) appear in the
deep piecewise constructions), so panel contributions are represented as
logarithms and combined with log-sum-exp.  A (G7, K15) rule is applied per
panel; the worst panel (by estimated absolute error) is bisected until the
total error estimate meets the requested relative tolerance.

Panels are seeded from caller-supplied mandatory breakpoints, which for tail
integrands are the segment boundaries of both factors.  That keeps every
panel's integrand smooth, which is what makes the K15-G7 error estimate
trustworthy.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .errors import LogDepthError, ParameterError, ToleranceError

__all__ = ["QuadConfig", "LogQuadResult", "log_quad", "logsubexp"]

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
    converged: bool

    @property
    def value(self) -> float:
        return math.exp(self.log_value) if self.log_value > _NEG_INF else 0.0


def _panel_gk15(log_f: Callable[[np.ndarray], np.ndarray], a: float, b: float):
    """One (G7, K15) application on [a, b] in the log domain.

    Returns (log_integral, log_abs_error_estimate).
    """
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    xs = mid + half * _XGK
    ls = np.asarray(log_f(xs), dtype=float)
    m = np.max(ls)
    if not np.isfinite(m):
        # Integrand is identically zero (or invalid) on this panel.
        return _NEG_INF, _NEG_INF
    scaled = np.exp(ls - m)
    k15 = float(np.dot(_WGK, scaled))
    g7 = float(np.dot(_WG, scaled))
    if k15 <= 0.0:
        return _NEG_INF, _NEG_INF
    log_value = m + math.log(k15) + math.log(half)
    diff = abs(k15 - g7)
    # QUADPACK-style sharpened estimate; floored at 1 ulp of the value.
    err = (200.0 * diff) ** 1.5 if diff > 0 else 0.0
    err = max(min(err, diff), diff * 1e-6, k15 * 1e-16)
    log_err = m + math.log(err) + math.log(half) if err > 0 else _NEG_INF
    return log_value, log_err


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

    Raises ToleranceError when the requested relative tolerance cannot be
    certified within the subdivision budget.
    """
    cfg = cfg or QuadConfig()
    if b < a:
        raise ValueError(f"integration bounds out of order: [{a}, {b}]")
    if b == a:
        return LogQuadResult(_NEG_INF, 0.0, 0, True)

    pts = sorted({float(a), float(b), *(float(p) for p in breakpoints if a < p < b)})
    # Panel heap keyed by descending error; counter breaks ties deterministically.
    heap: list[tuple[float, int, float, float, float]] = []
    counter = 0
    panels: dict[int, tuple[float, float, float, float]] = {}
    for lo, hi in zip(pts[:-1], pts[1:]):
        lv, le = _panel_gk15(log_f, lo, hi)
        panels[counter] = (lo, hi, lv, le)
        heapq.heappush(heap, (-le, counter, lo, hi, lv))
        counter += 1

    splits = 0
    while splits < cfg.max_subdivisions:
        vals = np.array([p[2] for p in panels.values()])
        errs = np.array([p[3] for p in panels.values()])
        total = _logsumexp(vals)
        toterr = _logsumexp(errs)
        if math.isfinite(total) and abs(total) > 4.5e15:
            # The ulp of the log exceeds any log-domain correction: a value
            # this deep has no representable relative structure in binary64.
            raise LogDepthError(
                f"integral magnitude exp({total:.3e}) is beyond log-domain float "
                "resolution; no relative accuracy is attainable at this depth",
                achieved_rel_error=math.inf,
            )
        if toterr == _NEG_INF:
            return LogQuadResult(total, 0.0, len(panels), True)
        if total > _NEG_INF and toterr - total <= math.log(cfg.rel_tol):
            return LogQuadResult(total, math.exp(toterr - total), len(panels), True)
        # Refine the worst panel.
        neg_le, key, lo, hi, lv_old = heapq.heappop(heap)
        if key not in panels:
            continue
        del panels[key]
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            # Panel narrower than float resolution: accept its estimate as is.
            panels[key] = (lo, hi, lv_old, _NEG_INF)
            continue
        for lo2, hi2 in ((lo, mid), (mid, hi)):
            lv, le = _panel_gk15(log_f, lo2, hi2)
            panels[counter] = (lo2, hi2, lv, le)
            heapq.heappush(heap, (-le, counter, lo2, hi2, lv))
            counter += 1
        splits += 1

    vals = np.array([p[2] for p in panels.values()])
    errs = np.array([p[3] for p in panels.values()])
    total = _logsumexp(vals)
    toterr = _logsumexp(errs)
    if toterr == _NEG_INF or (total > _NEG_INF and toterr - total <= math.log(cfg.rel_tol)):
        rel = 0.0 if toterr == _NEG_INF else math.exp(toterr - total)
        return LogQuadResult(total, rel, len(panels), True)
    achieved = math.inf if total == _NEG_INF else math.exp(toterr - total)
    raise ToleranceError(
        f"quadrature on [{a}, {b}] achieved relative error {achieved:.3e} "
        f"> requested {cfg.rel_tol:.3e} after {splits} subdivisions",
        achieved_rel_error=achieved,
    )


def _logsumexp(values: np.ndarray) -> float:
    finite = values[np.isfinite(values)]
    if finite.size == 0:
        return _NEG_INF
    m = float(np.max(finite))
    return m + math.log(float(np.sum(np.exp(finite - m))))
