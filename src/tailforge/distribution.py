"""Distributions on [0, infinity): tail curve plus measure decomposition.

A Distribution couples a TailCurve with the decomposition of dF into an
absolutely continuous part (per-segment log densities) and a list of atoms,
which is what Stieltjes integrals against dF need.  Atom masses are stored
as logs; the constructions here include atoms with masses like 3 * 4**-900.

Values are immutable after construction; ``sample`` is a pure function of
(seed, n) built on inverse transform with numpy's PCG64 generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DivergenceError, LogDepthError, ParameterError, TruncationError
from .quadrature import QuadConfig, log_quad
from .tailcurve import (
    ConstSegment,
    ExpAffineSegment,
    ExpPowSegment,
    PowerSegment,
    TailCurve,
    normal_form,
    simplify_power,
)

__all__ = [
    "Atom",
    "DensityPiece",
    "MeasureParts",
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


@dataclass(frozen=True)
class DensityPiece:
    """Absolutely continuous stretch with a vectorized log density.

    Exponential tilts are carried symbolically: the full density is
    exp(-tilt_rate * y) * (core(y) + tilt_rate * core_tail(y)), where core
    and core_tail belong to the untilted ancestor.  Keeping the rate as a
    number lets tilted-moment integrands fuse exp(+lam y) against the tilt
    exactly; evaluating the two factors separately would cancel
    catastrophically at large y.
    """

    lo: float
    hi: float
    log_core: Callable[[np.ndarray], np.ndarray]
    tilt_rate: float = 0.0
    log_core_tail: Callable[[np.ndarray], np.ndarray] | None = None

    def log_pdf(self, y) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        core = np.asarray(self.log_core(y), dtype=float)
        if self.tilt_rate == 0.0:
            return core
        jump = math.log(self.tilt_rate) + np.asarray(self.log_core_tail(y), dtype=float)
        return np.logaddexp(core, jump) - self.tilt_rate * y

    def log_pdf_exp_weighted(self, y, lam: float) -> np.ndarray:
        """log( exp(lam * y) * pdf(y) ), computed with the rates fused."""
        y = np.asarray(y, dtype=float)
        core = np.asarray(self.log_core(y), dtype=float)
        if self.tilt_rate == 0.0:
            return core + lam * y
        jump = math.log(self.tilt_rate) + np.asarray(self.log_core_tail(y), dtype=float)
        return np.logaddexp(core, jump) + (lam - self.tilt_rate) * y


@dataclass(frozen=True)
class MeasureParts:
    """Decomposition of dF into density pieces plus atoms."""

    atoms: tuple[Atom, ...]
    density_pieces: tuple[DensityPiece, ...]


# A join is an atom when F drops there by more than this many ulps of
# max(1, |log F|): smaller drops are rounding in the curve's log values.
_ATOM_ULPS = 4.0


def parts_from_curve(curve: TailCurve) -> MeasureParts:
    """Derive MeasureParts from a curve: density from each segment form,
    atoms from downward jumps at segment joins.  Tilted segments are split
    so their pieces carry the tilt rate symbolically."""
    ends, starts = curve._ends[:-1], curve._starts[1:]
    with np.errstate(invalid="ignore"):  # a join where F is already 0
        drops = starts - ends
        joins = np.flatnonzero(drops < -_ATOM_ULPS * np.spacing(np.maximum(1.0, np.abs(ends))))
    atoms = tuple(
        Atom(curve.segments[k + 1].lo, float(ends[k] + math.log(-math.expm1(drops[k]))))
        for k in joins
    )
    pieces: list[DensityPiece] = []
    for seg in curve.segments:
        rate, core, _, _ = normal_form(seg)
        if rate > 0.0:
            pieces.append(
                DensityPiece(
                    seg.lo,
                    seg.hi,
                    log_core=core.log_density,
                    tilt_rate=rate,
                    log_core_tail=core.log_value,
                )
            )
        elif seg.has_density:
            pieces.append(DensityPiece(seg.lo, seg.hi, log_core=seg.log_density))
    return MeasureParts(atoms, tuple(pieces))


class Distribution:
    """Immutable distribution on [0, inf): tail curve, parts, label.

    The parts are always derived from the curve by ``parts_from_curve``.
    """

    def __init__(self, tail: TailCurve, label: str = "", spec: dict | None = None):
        self.tail = tail
        self.parts = parts_from_curve(tail)
        self.label = label
        self.spec = spec or {}
        self.truncation_note: str | None = None
        self._mean: float | None = None

    def __repr__(self) -> str:
        return f"Distribution({self.label or 'anonymous'}, segments={len(self.tail.segments)})"

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

    Uses per-segment closed forms where available and adaptive quadrature
    otherwise.  Raises DivergenceError when the integral is infinite, and
    TruncationError when B = inf cannot be certified from a finite curve.
    """
    # Both checks are written so that NaN fails them.
    if not (k >= 0 and k % 1 == 0):
        raise ParameterError(f"moment order must be a nonnegative integer, got {k}")
    if not A <= B:
        raise ParameterError(f"moment bounds out of order or NaN: [{A}, {B}]")
    cfg = cfg or QuadConfig()
    if A == B:
        return 0.0
    hi = d.tail.truncation_hi
    if math.isinf(B):
        if math.isinf(hi):
            _check_terminal_convergence(d, k)
            B_eff = _effective_upper_cutoff(d, k)
            lv = d.tail.log_moment_range(k, A, B_eff, cfg)
            return math.exp(lv) if lv > _NEG_INF else 0.0
        # Finite truncation: integrate everything materialized, then make
        # sure nothing representable can hide beyond the cutoff.  The proxy
        # is the remainder under a y^-(k+2) envelope matched at the cutoff,
        # roughly tail(hi) * hi^(k+1).
        lv = d.tail.log_moment_range(k, A, hi, cfg)
        terminal = d.tail.log_tail_left(hi)
        remainder_proxy = terminal + (k + 1) * math.log(max(hi, 2.0))
        if lv == _NEG_INF or remainder_proxy > lv + math.log(cfg.rel_tol):
            raise TruncationError(
                "cannot certify the integral to infinity beyond the materialized "
                f"breakpoint {hi!r}; terminal log tail {terminal!r} is too large"
            )
        return math.exp(lv)
    if B > hi:
        raise TruncationError(
            f"moment upper bound {B!r} beyond materialized breakpoint {hi!r}"
        )
    lv = d.tail.log_moment_range(k, A, B, cfg)
    return math.exp(lv) if lv > _NEG_INF else 0.0


def _check_terminal_convergence(d: Distribution, k: int) -> None:
    """Tail-exponent analysis of the last (infinite) segment."""
    rate, _, power, base = normal_form(d.tail.segments[-1])
    if rate > 0:
        return  # exponential decay dominates any polynomial factor
    if isinstance(base, PowerSegment):
        eff = base.exponent * power
        if k + eff >= -1.0:
            raise DivergenceError(
                f"integral of y^{k} * tail diverges: tail exponent {eff} "
                f"needs k + exponent < -1"
            )
        return
    if isinstance(base, ConstSegment):
        raise DivergenceError("integral diverges: terminal segment is flat to infinity")
    # exp-affine / stretched-exponential decay beats any polynomial.
    return


def _effective_upper_cutoff(d: Distribution, k: int) -> float:
    """A finite T with integral_T^inf y^k F(y) dy below float significance."""
    seg = d.tail.segments[-1]
    lo = max(seg.lo, 1.0)
    T = lo
    for _ in range(600):
        T *= 2.0
        if T >= 8.9e307:
            return 8.9e307
        if seg.log_value_at(T) + (k + 2) * math.log(T) < -60.0:
            return T
    return T


def exp_moment(d: Distribution, lam: float, cfg: QuadConfig | None = None) -> float:
    """integral e^{lam y} F(dy) over [0, inf) (a Stieltjes integral).

    Finite for lam <= 0 always; for lam > 0 only when the tail decays at
    least exponentially with rate > lam (rate >= lam with integrable
    remainder).  Raises DivergenceError otherwise.
    """
    if not -math.inf <= lam <= math.inf:  # NaN fails this
        raise ParameterError(f"exp moment rate must be a number, got {lam}")
    cfg = cfg or QuadConfig()
    hi = d.tail.truncation_hi
    if lam > 0:
        _check_exp_moment_convergence(d, lam)
    if math.isinf(hi):
        B = _exp_moment_cutoff(d, lam)
    else:
        B = hi
        terminal = d.tail.log_tail_left(hi) + lam * hi + math.log(max(hi, 2.0))
        if terminal > -30.0:
            raise TruncationError(
                "cannot certify the tilted moment beyond the materialized "
                f"breakpoint {hi!r}"
            )
    pieces: list[float] = []
    for atom in d.parts.atoms:
        if atom.location <= B:
            pieces.append(atom.log_mass + lam * atom.location)
    for piece in d.parts.density_pieces:
        p_hi = min(piece.hi, B)
        if p_hi <= piece.lo:
            continue
        try:
            res = log_quad(
                lambda y, _p=piece: _p.log_pdf_exp_weighted(y, lam),
                piece.lo,
                p_hi,
                cfg=cfg,
            )
        except LogDepthError:
            continue  # piece is zero beyond float depth; siblings dominate
        pieces.append(res.log_value)
    if not pieces:
        return 0.0
    m = max(pieces)
    if m == _NEG_INF:
        return 0.0
    return math.exp(m) * sum(math.exp(p - m) for p in pieces)


def _check_exp_moment_convergence(d: Distribution, lam: float) -> None:
    seg = d.tail.segments[-1]
    if math.isfinite(seg.hi):
        return  # finite support handled by the truncation certificate
    budget, _, power, base = normal_form(seg)
    if isinstance(base, ExpAffineSegment):
        budget += base.rate * power
    if lam > budget:
        raise DivergenceError(
            f"exp moment with rate {lam} diverges: terminal exponential decay "
            f"rate is {budget}"
        )
    if lam == budget:
        # Boundary rate: e^{lam y} dG decays only through the base factor.
        if isinstance(base, PowerSegment) and base.exponent * power < -1.0:
            return  # finite-mean power residual keeps the integral finite
        if isinstance(base, ExpPowSegment):
            return  # stretched-exponential residual decays to zero
        raise DivergenceError(
            f"exp moment at the terminal decay rate {budget} diverges: "
            "the residual tail factor is not integrable"
        )


def _exp_moment_cutoff(d: Distribution, lam: float) -> float:
    seg = d.tail.segments[-1]
    rate, core, _, _ = normal_form(seg)
    net = lam - rate  # fused: evaluating tail and tilt separately cancels
    T = max(seg.lo, 1.0)
    for _ in range(600):
        T *= 2.0
        if T >= 8.9e307:
            return 8.9e307
        if core.log_value_at(T) + net * T + 2 * math.log(T) < -60.0:
            return T
    return T


# ------------------------------------------------------------ quantile / rng


def quantile_from_tail(d: Distribution, u) -> float | np.ndarray:
    """Smallest x with F(x) <= u for u in (0, 1]."""
    return d.tail.quantile(u)


def sample(d: Distribution, seed: int, n: int) -> np.ndarray:
    """Draw n values by inverse transform; deterministic in (seed, n).

    PRNG: numpy PCG64 seeded directly with ``seed``; the uniform stream is
    mapped through u -> 1 - u so levels lie in (0, 1].
    """
    if n < 1:
        raise ParameterError(f"sample count must be >= 1, got {n}")
    rng = np.random.Generator(np.random.PCG64(seed))
    u = 1.0 - rng.random(n)
    return np.asarray(d.tail.quantile(u))


# ------------------------------------------------------------------ algebra


def power_tail(d: Distribution, m: int) -> Distribution:
    """Distribution with tail F^m (the paper-style power family).

    Log tails scale by m pointwise; segment structure is preserved.  Atoms
    are recomputed from the new jump sizes, densities get the chain-rule
    factor m F^{m-1}.
    """
    if m < 1 or m != int(m):
        raise ParameterError(f"power must be a positive integer, got {m}")
    if m == 1:
        return d
    segs = tuple(simplify_power(s, m) for s in d.tail.segments)
    curve = TailCurve(segs)
    label = f"{d.label}^({m})" if d.label else f"power({m})"
    spec = {"kind": "power", "m": m, "base": d.spec} if d.spec else {}
    return Distribution(curve, label=label, spec=spec)
