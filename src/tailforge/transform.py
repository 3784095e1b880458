"""The heavy-to-light tail tilt G(x) = F(x) * exp(-gamma x).

The transform adds gamma to the tilt rate of the source curve rather than
refitting: the tilted curve keeps the source's segments, and reads
log G(x) = log F(x) - rate * x, so ratios like G(x - t) / G(x) are exact
and oscillation of the source tail shows up undamped in the shift
diagnostics.  Tilting twice adds two floats, so tilt(tilt(d, g1), g2) and
tilt(d, g1 + g2) are the same curve whenever the rates sum to the same
float.  The tilt keeps its source's base and the summed rate as its split
(``distribution._split_tilt``), which its moments and the two-fold
quadratures read.  Its atoms are the base's, each scaled by
exp(-gamma * location) (``atoms_from_curve``), and every segment carries
the density exp(-gamma x) * (f(x) + gamma F(x)) with the rate kept symbolic.

This is the plain tail tilt; no Esscher normalization is applied.
"""

from __future__ import annotations

import math
import numbers

from .distribution import Distribution, _split_tilt
from .errors import ParameterError
from .tailcurve import TailCurve

__all__ = ["gamma_transform"]


def gamma_transform(d: Distribution, gamma: float) -> Distribution:
    """Distribution with tail G(x) = F(x) * exp(-gamma x) for x >= 0, for a
    tilt rate gamma > 0 (units 1/x): a real number, not a bool or a string."""
    if isinstance(gamma, bool) or not isinstance(gamma, numbers.Real):
        raise ParameterError(f"tilt rate must be a number, got {gamma!r}")
    gamma = float(gamma)
    if not 0 < gamma < math.inf:
        raise ParameterError(f"tilt rate must be positive and finite, got {gamma}")
    curve = TailCurve(d.tail.segments, rate=d.tail.rate + gamma)

    label = f"tilt({d.label or 'F'}, gamma={gamma:g})"
    spec_doc = {"kind": "tilted", "gamma": gamma, "base": d.spec} if d.spec else {}
    out = Distribution(curve, label=label, spec=spec_doc)
    out.truncation_note = d.truncation_note
    out._split = (_split_tilt(d)[0], curve.rate)
    return out
