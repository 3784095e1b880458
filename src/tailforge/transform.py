"""The heavy-to-light tail tilt G(x) = F(x) * exp(-gamma x) and its algebra.

The transform wraps every segment of the source curve rather than refitting:
ratios like G(x - t) / G(x) have to be exact so that oscillation of the
source tail shows up undamped in the shift diagnostics.  The measure parts
are derived from the tilted curve like any other (``parts_from_curve``):
atoms scale by exp(-gamma * location), and every stretch carries the density
exp(-gamma x) * (f(x) + gamma F(x)) with the rate kept symbolic.

This is the plain tail tilt; no Esscher normalization is applied.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distribution import Distribution
from .errors import ParameterError
from .tailcurve import TailCurve, TiltedSegment

__all__ = ["TransformSpec", "gamma_transform", "tilt_compose_check", "CheckReport"]


@dataclass(frozen=True)
class TransformSpec:
    """Tilt rate gamma > 0 (units 1/x)."""

    gamma: float

    def __post_init__(self):
        if not self.gamma > 0:
            raise ParameterError(f"tilt rate must be positive, got {self.gamma}")


def gamma_transform(d: Distribution, spec: TransformSpec | float) -> Distribution:
    """Distribution with tail G(x) = F(x) * exp(-gamma x) for x >= 0."""
    gamma = spec.gamma if isinstance(spec, TransformSpec) else float(spec)
    if not gamma > 0:
        raise ParameterError(f"tilt rate must be positive, got {gamma}")
    segs = tuple(
        TiltedSegment(lo=s.lo, hi=s.hi, inner=s, gamma=gamma) for s in d.tail.segments
    )
    curve = TailCurve(segs, validate=False)

    label = f"tilt({d.label or 'F'}, gamma={gamma:g})"
    spec_doc = {"kind": "tilted", "gamma": gamma, "base": d.spec} if d.spec else {}
    out = Distribution(curve, label=label, spec=spec_doc)
    out.truncation_note = d.truncation_note
    return out


@dataclass(frozen=True)
class CheckReport:
    """Outcome of a pointwise log-tail comparison on a grid."""

    passed: bool
    max_scaled_diff: float
    worst_x: float
    tol: float

    def __str__(self) -> str:
        verdict = "pass" if self.passed else "FAIL"
        return (
            f"{verdict}: max scaled log-tail difference {self.max_scaled_diff:.3e} "
            f"at x={self.worst_x:g} (tol {self.tol:g})"
        )


def tilt_compose_check(
    d: Distribution,
    gamma1: float,
    gamma2: float,
    grid,
    tol: float = 1e-12,
    candidate: Distribution | None = None,
) -> CheckReport:
    """Verify tilt(tilt(d, g1), g2) matches tilt(d, g1 + g2) on a grid.

    Log tails are compared with tolerance tol * max(1, |log value|), which
    absorbs the one-ulp float non-associativity of (g1 + g2) * x at large x.
    ``candidate`` overrides the composed route (used to inject failures in
    self-tests).
    """
    if gamma1 <= 0 or gamma2 <= 0:
        raise ParameterError("tilt rates must be positive")
    composed = candidate or gamma_transform(gamma_transform(d, gamma1), gamma2)
    direct = gamma_transform(d, gamma1 + gamma2)
    xs = np.asarray(grid, dtype=float)
    lc = np.atleast_1d(composed.tail.log_tail(xs))
    ld = np.atleast_1d(direct.tail.log_tail(xs))
    scale = np.maximum(1.0, np.abs(ld))
    diffs = np.abs(lc - ld) / scale
    worst = int(np.argmax(diffs))
    return CheckReport(
        passed=bool(diffs[worst] <= tol),
        max_scaled_diff=float(diffs[worst]),
        worst_x=float(xs[worst]),
        tol=tol,
    )
