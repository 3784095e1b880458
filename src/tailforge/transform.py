"""The heavy-to-light tail tilt G(x) = F(x) * exp(-gamma x) and its algebra.

The transform adds gamma to the ``tilt`` of every segment of the source curve
rather than refitting: ratios like G(x - t) / G(x) have to be exact so that
oscillation of the source tail shows up undamped in the shift diagnostics.
Tilting twice adds the rates, so tilt(tilt(d, g1), g2) and tilt(d, g1 + g2)
are the same curve whenever the rates sum to the same float.  The measure
is read off the tilted curve like any other: atoms (``atoms_from_curve``)
scale by exp(-gamma * location), and every tilted segment carries the
density exp(-gamma x) * (f(x) + gamma F(x)) with the rate kept symbolic.
The tilt keeps its source's base and the summed rate as its split
(``distribution._split_tilt``), which the two-fold quadratures read.

This is the plain tail tilt; no Esscher normalization is applied.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .distribution import Distribution, _split_tilt
from .errors import ParameterError
from .tailcurve import TailCurve

__all__ = ["gamma_transform", "tilt_compose_check", "CheckReport"]


def gamma_transform(d: Distribution, gamma: float) -> Distribution:
    """Distribution with tail G(x) = F(x) * exp(-gamma x) for x >= 0, for a
    tilt rate gamma > 0 (units 1/x)."""
    gamma = float(gamma)
    if not 0 < gamma < math.inf:
        raise ParameterError(f"tilt rate must be positive and finite, got {gamma}")
    segs = tuple(dataclasses.replace(s, tilt=s.tilt + gamma) for s in d.tail.segments)
    curve = TailCurve(segs, validate=False)

    label = f"tilt({d.label or 'F'}, gamma={gamma:g})"
    spec_doc = {"kind": "tilted", "gamma": gamma, "base": d.spec} if d.spec else {}
    out = Distribution(curve, label=label, spec=spec_doc)
    out.truncation_note = d.truncation_note
    base, rate = _split_tilt(d)
    out._split = (base, rate + gamma)
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

    Tilting adds the rate to each segment's ``tilt``, so the two routes are
    the same curve, bit for bit, when their summed rates are the same float:
    always for an untilted d.  On an already tilted d, (t + g1) + g2 may
    differ from t + (g1 + g2) in the last ulp; log tails are compared with
    tolerance tol * max(1, |log value|), which absorbs that.  ``candidate``
    overrides the composed route (used to inject failures in self-tests).
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
