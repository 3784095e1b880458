"""Built-in distributions, including the counterexample constructions.

Smooth families (pareto, exponential, heavy Weibull) live on a single
segment reaching infinity.  The piecewise constructions are materialized
segment by segment until the next breakpoint stops being representable in
binary64; the curve then ends with a hard truncation point and a note is
recorded on the distribution.  The measure is read off the curve (atoms
from ``atoms_from_curve``, densities from the segments); a construction
only lays out its segments.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .distribution import Distribution, power_tail
from .errors import ParameterError, _count, _positive
from .tailcurve import (
    AffineSegment,
    ConstSegment,
    ExpAffineSegment,
    ExpPowSegment,
    PowerSegment,
    Segment,
    TailCurve,
)

__all__ = [
    "builtin",
    "pareto",
    "exponential",
    "weibull_heavy",
    "dyadic_pareto",
    "fkz_example",
    "fkz_a_sequence",
    "plateau_example",
    "xu_piecewise",
    "xu_breakpoints",
]

_LOG4 = math.log(4.0)
# Largest magnitude we allow for a materialized breakpoint.
_BREAKPOINT_CAP = 1e306


def builtin(spec: dict) -> Distribution:
    """Construct a built-in distribution from a spec document: its ``kind``
    and the builder's keyword parameters (a ``schema`` key is ignored)."""
    kind = spec.get("kind")
    params = {k: v for k, v in spec.items() if k not in ("kind", "schema")}
    builders: dict[str, Callable[..., Distribution]] = {
        "pareto": pareto,
        "exponential": exponential,
        "weibull_heavy": weibull_heavy,
        "dyadic_pareto": dyadic_pareto,
        "fkz_example": fkz_example,
        "plateau_example": plateau_example,
        "xu_piecewise": xu_piecewise,
    }
    if kind not in builders:
        raise ParameterError(f"unknown builtin kind {kind!r}; known: {sorted(builders)}")
    try:
        return builders[kind](**params)
    except TypeError as exc:
        raise ParameterError(f"bad parameters for {kind!r}: {exc}") from exc


def pareto(alpha: float) -> Distribution:
    """F(x) = (1 + x)^(-alpha) on [0, inf)."""
    _positive("alpha", alpha)
    seg = PowerSegment(lo=0.0, hi=math.inf, log_coeff=0.0, exponent=-float(alpha), shift=1.0)
    curve = TailCurve([seg])
    return Distribution(curve, label=f"pareto({alpha:g})", spec={"kind": "pareto", "alpha": float(alpha)})


def exponential(lam: float = 1.0) -> Distribution:
    """F(x) = exp(-lam x) on [0, inf)."""
    _positive("lam", lam)
    seg = ExpAffineSegment(lo=0.0, hi=math.inf, log_v_lo=0.0, rate=float(lam))
    curve = TailCurve([seg])
    return Distribution(curve, label=f"exponential({lam:g})", spec={"kind": "exponential", "lam": float(lam)})


def weibull_heavy(beta: float) -> Distribution:
    """F(x) = exp(-x^beta) with 0 < beta < 1 (heavy-tailed Weibull)."""
    _positive("beta", beta)
    if not beta < 1.0:
        raise ParameterError(f"weibull_heavy requires beta in (0, 1), got {beta}")
    seg = ExpPowSegment(lo=0.0, hi=math.inf, beta=float(beta), coeff=1.0)
    curve = TailCurve([seg])
    return Distribution(curve, label=f"weibull_heavy({beta:g})", spec={"kind": "weibull_heavy", "beta": float(beta)})


def dyadic_pareto(n_max: int = 998) -> Distribution:
    """Staircase tail: F = 1 on [0, 2), 4^-n on [2^n, 2^{n+1}).

    Purely atomic: point mass 3 * 4^-n at 2^n for n >= 1.  Dominatedly
    varying with ratio exactly 4, finite mean 3, not long-tailed; serves as
    the D-minus-strong-subexponential witness in the experiments.
    """
    n_max = _count("n_max", n_max, 2)
    if n_max > 1020:
        raise ParameterError(f"dyadic_pareto requires 2 <= n_max <= 1020, got {n_max}")
    segs: list[Segment] = [
        ConstSegment(lo=0.0, hi=1.0, level=0.0),
        ConstSegment(lo=1.0, hi=2.0, level=0.0),
    ]
    for n in range(1, n_max + 1):
        segs.append(ConstSegment(lo=2.0**n, hi=2.0 ** (n + 1), level=-n * _LOG4))
    curve = TailCurve(segs)
    d = Distribution(curve, label="dyadic_pareto", spec={"kind": "dyadic_pareto", "n_max": n_max})
    d.truncation_note = f"staircase cut after n={n_max}; residual mass 4^-{n_max}"
    return d


def fkz_a_sequence(max_terms: int | None = None) -> list[float]:
    """The recursion a_0 = 0, a_1 = 1, a_{n+1} = exp(a_n) / a_n, while
    representable (a_{n+1} and its square must stay finite)."""
    a = [0.0, 1.0]
    while max_terms is None or len(a) < max_terms:
        cur = a[-1]
        if cur > 700.0:  # exp overflows
            break
        nxt = math.exp(cur) / cur
        if nxt * nxt >= _BREAKPOINT_CAP:
            break
        a.append(nxt)
    return a


def fkz_example(max_segments: int | None = None) -> Distribution:
    """Piecewise exponential tail exp(-(a_n + (x - a_n^2)/(a_n + a_{n+1})))
    on [a_n^2, a_{n+1}^2); continuous, absolutely continuous."""
    if max_segments is not None:
        max_segments = _count("max_segments", max_segments, 1)
    a = fkz_a_sequence(None if max_segments is None else max_segments + 1)
    if max_segments is not None:
        a = a[: max_segments + 1]
    if len(a) < 2:
        raise ParameterError("fkz_example needs at least one segment")
    segs: list[Segment] = []
    level = 0.0  # chained log value at the running left endpoint
    for n in range(len(a) - 1):
        lo, hi = a[n] ** 2, a[n + 1] ** 2
        rate = 1.0 / (a[n] + a[n + 1])
        segs.append(ExpAffineSegment(lo=lo, hi=hi, log_v_lo=level, rate=rate))
        level = level - rate * (hi - lo)
    curve = TailCurve(segs)
    d = Distribution(
        curve,
        label="fkz_example",
        spec={"kind": "fkz_example", "max_segments": max_segments},
    )
    d.truncation_note = (
        f"materialized {len(segs)} segments; next breakpoint exceeds binary64"
        if max_segments is None
        else None
    )
    return d


def plateau_example(
    a: float,
    y0: float | None = None,
    max_pairs: int | None = None,
) -> Distribution:
    """Flat-step modification of the base tail F1(x) = exp(-sqrt(x)).

    The tail equals F1 below x_1, is frozen at F1(x_i) on [x_i, y_i), and
    rejoins F1 on [y_i, x_{i+1}), where F1(x_i) = a * F1(y_i) forces
    sqrt(y_i) = sqrt(x_i) + ln(a).  Each rejoin point y_i carries an atom of
    mass (a - 1) * F1(y_i).

    The interleaving rule x_{i+1} = 2 * y_i, with x_1 = max(y0, 1) + 1, is a
    choice of this artifact, not of the construction, which only requires
    x_i < y_i < x_{i+1}.
    """
    _positive("a", a)
    if not a > 1:
        raise ParameterError(f"plateau_example requires a > 1, got {a}")
    if max_pairs is not None:
        max_pairs = _count("max_pairs", max_pairs, 0)
    ln_a = math.log(a)
    if y0 is None:
        y0 = ln_a**2
    else:
        _positive("y0", y0)
    if ln_a > math.sqrt(y0) + 1e-12:
        raise ParameterError(
            f"constraint a * F1(y0) <= 1 violated: need sqrt(y0) >= ln(a) = {ln_a:g}"
        )

    segs: list[Segment] = []
    x_i = max(y0, 1.0) + 1.0
    segs.append(ExpPowSegment(lo=0.0, hi=x_i, beta=0.5, coeff=1.0))
    pairs = 0
    while True:
        sx = math.sqrt(x_i)
        y_i = (sx + ln_a) ** 2
        if y_i <= x_i:
            # ln(a) fell below the ulp of sqrt(x_i): the plateau is no longer
            # representable, so the construction truncates here.
            break
        x_next = 2.0 * y_i
        if x_next >= _BREAKPOINT_CAP or (max_pairs is not None and pairs >= max_pairs):
            break
        segs.append(ConstSegment(lo=x_i, hi=y_i, level=-sx))
        segs.append(ExpPowSegment(lo=y_i, hi=x_next, beta=0.5, coeff=1.0))
        x_i = x_next
        pairs += 1
    curve = TailCurve(segs)
    d = Distribution(
        curve,
        label=f"plateau_example(a={a:g})",
        spec={"kind": "plateau_example", "a": float(a), "y0": float(y0), "max_pairs": max_pairs},
    )
    d.truncation_note = f"materialized {pairs} plateau pairs"
    return d


def xu_piecewise(alpha: float, x1: float, m: int = 1, max_cycles: int | None = None) -> Distribution:
    """Ramp-and-plateau power-law construction with breakpoints
    x_{n+1} = x_n^(1 + 1/alpha).

    The tail falls linearly from 1 to x1^-alpha on [0, x1), then on each
    cycle falls linearly from x_n^-alpha to x_n^-(alpha+1) across
    [x_n, 2 x_n) and stays flat until x_{n+1}.  Continuity at x_{n+1} is
    exact because alpha * ln(x_{n+1}) = (alpha + 1) * ln(x_n).
    Requires alpha > 2 + 3/m and x1 > 4^alpha.
    """
    _positive("alpha", alpha)
    _positive("x1", x1)
    m = _count("m", m, 1)
    if max_cycles is not None:
        max_cycles = _count("max_cycles", max_cycles, 0)
    if not alpha > 2.0 + 3.0 / m:
        raise ParameterError(
            f"xu_piecewise requires alpha > 2 + 3/m = {2.0 + 3.0 / m:g}, got {alpha}"
        )
    if not math.log(x1) > alpha * math.log(4.0):
        raise ParameterError(f"xu_piecewise requires x1 > 4^alpha, got x1={x1!r}")

    segs: list[Segment] = [
        AffineSegment.from_endpoints(0.0, x1, 0.0, -alpha * math.log(x1))
    ]
    x_n = float(x1)
    cycles = 0
    while True:
        try:
            x_next = x_n ** (1.0 + 1.0 / alpha)
        except OverflowError:
            break
        if not math.isfinite(x_next) or x_next >= _BREAKPOINT_CAP:
            break
        if max_cycles is not None and cycles >= max_cycles:
            break
        ln_xn = math.log(x_n)
        ramp = AffineSegment.from_endpoints(x_n, 2.0 * x_n, -alpha * ln_xn, -(alpha + 1.0) * ln_xn)
        plateau = ConstSegment(lo=2.0 * x_n, hi=x_next, level=ramp.log_v_hi)
        segs.extend([ramp, plateau])
        x_n = x_next
        cycles += 1
    curve = TailCurve(segs)
    base = Distribution(
        curve,
        label=f"xu_piecewise(alpha={alpha:g}, x1={x1:g})",
        spec={"kind": "xu_piecewise", "alpha": float(alpha), "x1": float(x1), "m": 1},
    )
    base.truncation_note = f"materialized {cycles} ramp/plateau cycles"
    if m == 1:
        return base
    d = power_tail(base, m)
    d.label = f"xu_piecewise(alpha={alpha:g}, x1={x1:g}, m={m})"
    d.spec = {"kind": "xu_piecewise", "alpha": float(alpha), "x1": float(x1), "m": m}
    d.truncation_note = base.truncation_note
    return d


def xu_breakpoints(d: Distribution) -> np.ndarray:
    """The x_n sequence of an xu_piecewise distribution (ramp starts)."""
    los = [s.lo for s in d.tail.segments[1::2]]
    return np.array(los)
