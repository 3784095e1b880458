"""Rejection-sampling estimation of the single-big-jump conditional
probability, plus the MC-versus-quadrature cross-validation harness.

Monte Carlo exists here as an *independent oracle* for the bracket route at
moderate thresholds, so it deliberately stays plain: inverse-transform
sampling, rejection on {S_n > x}, no importance sampling (an IS scheme would
share assumptions with the code it is meant to check).

Streams: scenario i draws from SeedSequence(seed, spawn_key=(i,)) and chunk
c of a run from spawn_key=(..., c), so results are bit-reproducible for a
fixed (seed, N) and adding scenarios or extending N never perturbs earlier
draws.  A run draws one stream: the acceptance check reads its first
ceil(10 / floor) draws and the estimate its first N, with no separate pilot
key.

A chunk of 65536 rows is drawn from its one generator through
``distribution._draw_blocks``, the one loop that turns raw uniforms into
draws, in blocks of 8192 rows, each filtered, inverted, summed and counted
while it stays in cache.  Consecutive draws continue the chunk's stream, so
the blocks hold the draws a whole chunk drew, and the check stops the run at
the block that holds its last draw.  The loop inverts only the rows whose
largest raw uniform exceeds the run's cutoff (``_row_cutoff``): the other
rows cannot reach {S_n > x}, so every estimate keeps the bits that
inverting every row gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .distribution import _BLOCK, Distribution, _draw_blocks
from .errors import LowAcceptanceError, ParameterError, TailforgeError, _count
from .functionals import jump_cond

__all__ = ["McEstimate", "mc_jump_cond", "ComparisonRow", "ComparisonTable", "mc_vs_quadrature"]

_CHUNK = 65536
_PILOT_CAP = 500_000
_Z_FLAG = 4.0  # mc_vs_quadrature flags a row whose |z| exceeds this
# The row filter runs while the share of rows that can reach the event stays
# below this: near it, finding and gathering those rows costs about what the
# inverse of the rest, at exponential(1)'s cheap closed form, would.
_FILTER_SHARE = 0.7


@dataclass(frozen=True)
class McEstimate:
    """Conditional-probability estimate with its binomial standard error."""

    estimate: float
    std_error: float
    accepted: int
    total: int
    seed: int

    def __post_init__(self):
        if not (0.0 <= self.estimate <= 1.0):
            raise ParameterError(f"estimate out of [0,1]: {self.estimate}")
        if self.accepted > self.total:
            raise ParameterError("accepted > total")


def _chunk_streams(base: np.random.SeedSequence, count: int) -> list[np.random.SeedSequence]:
    return [
        np.random.SeedSequence(entropy=base.entropy, spawn_key=base.spawn_key + (c,))
        for c in range(count)
    ]


def _row_cutoff(d: Distribution, n: int, x: float) -> float | None:
    """The cutoff u* on a row's raw uniforms: a row whose every draw u is
    at most u* cannot reach {S_n > x}, so it need not be inverted.  None
    where every row is to be inverted: z = x/n - 1e-6 (1 + x/n) outside
    (0, truncation_hi), or a share bound 1 - (1 - F(z))^n of rows that may
    reach the event of at least ``_FILTER_SHARE``.

    u* = 1 - F(z)(1 + 1e-9) - 1e-15.  A draw's level is fl(1 - u), at most
    2^-53 from 1 - u, so every level of a row at or below u* exceeds
    F(z)(1 + 1e-9).  The pad 1e-9 covers the rounding of F(z) and of the
    level's log against the curve's own end values (ulps of |log F| <= 745),
    so the quantile of each level lies at or below z, and the computed one
    exceeds it at most by the inverse's own error: ulps for a closed form,
    1e-12 (1 + z) for bisection.  The margin 1e-6 (1 + x/n) dominates both
    and the rounding of a sum of n terms, so every draw lies below x/n, and
    their float sum, whose rounding is monotone on nonnegative terms, stays
    at or below x: the row is no hit and no event.  A level below the
    truncation floor lies below F(z), so its row is inverted and still
    raises TruncationError."""
    z = x / n - 1e-6 * (1.0 + x / n)
    if not 0.0 < z < d.tail.truncation_hi:
        return None
    tail = math.exp(d.tail.log_tail(z))
    if 1.0 - (1.0 - tail) ** n >= _FILTER_SHARE:
        return None
    return 1.0 - tail * (1.0 + 1e-9) - 1e-15


def mc_jump_cond(
    d: Distribution,
    n: int,
    x: float,
    K: float,
    N: int,
    seed: int | np.random.SeedSequence,
    acceptance_floor: float = 1e-4,
) -> McEstimate:
    """Estimate P(X_{n,1} > x - K | S_n > x) from N rejection-sampled tuples.

    The run checks that the acceptance probability P(S_n > x) clears
    ``acceptance_floor``: the share of its own first ceil(10 / floor) draws
    with S_n > x must reach the floor, or LowAcceptanceError says the
    quadrature/bracket route is the right tool.  A run of fewer draws still
    draws that many for the check; the estimate reads the first N.  Floors
    that would need more than ``_PILOT_CAP`` draws skip the check and rely
    on the zero-accepted guard.
    """
    n = _count("fold count", n, 1)
    N = _count("sample count", N, 1)
    if not (-math.inf < x < math.inf and -math.inf < K < math.inf):
        raise ParameterError(f"threshold x and offset K must be finite, got x={x}, K={K}")
    # Written so that NaN fails the test too.
    if not 0.0 <= acceptance_floor < 1.0:
        raise ParameterError(f"acceptance floor must lie in [0, 1), got {acceptance_floor}")
    base = seed
    if not isinstance(seed, np.random.SeedSequence):
        base = np.random.SeedSequence(_count("seed", seed, 0))
    seed_tag = int(base.entropy) if isinstance(base.entropy, int) else 0

    threshold = x - K  # max > threshold; threshold <= 0 makes the event sure
    # The acceptance check reads the run's first pilot_n draws (about 10
    # expected hits at the floor); floors too small to certify cheaply skip it.
    pilot_n = int(math.ceil(10.0 / acceptance_floor)) if acceptance_floor > 0 else 0
    if pilot_n > _PILOT_CAP:
        pilot_n = 0
    total = max(N, pilot_n)

    cutoff = _row_cutoff(d, n, x)
    accepted = 0
    events = 0
    pilot_hits = 0
    n_chunks = (total + _CHUNK - 1) // _CHUNK
    for c, ss in enumerate(_chunk_streams(base, n_chunks)):
        rng = np.random.Generator(np.random.PCG64(ss))
        first = c * _CHUNK
        rows = min(_CHUNK, total - first)
        # The chunk's blocks continue its one stream row by row, so the
        # first rows of a chunk are the draws a shorter chunk makes.
        for offset, kept, xs in _draw_blocks(d, rng, rows, n, cutoff):
            start = first + offset
            end = first + min(offset + _BLOCK, rows)
            # Running sum and maximum over the n columns, from the first
            # two: a reduction along a short row axis is many times slower,
            # and for n below numpy's pairwise block of 8 it adds in the
            # same order.
            sums = top = xs[:, 0]
            if n > 1:
                sums, top = xs[:, 0] + xs[:, 1], np.maximum(xs[:, 0], xs[:, 1])
            for j in range(2, n):
                sums += xs[:, j]
                np.maximum(top, xs[:, j], out=top)
            hit = sums > x
            event = hit if threshold <= 0 else hit & (top > threshold)
            # The estimate counts the inverted rows before block row N -
            # start, and the check those before pilot_n - start.
            to_N, to_pilot = N - start, pilot_n - start
            if kept is not None:
                to_N, to_pilot = kept.searchsorted((to_N, to_pilot))
            if start < N:
                hits = int(np.count_nonzero(hit[:to_N]))
                accepted += hits
                events += int(np.count_nonzero(event[:to_N]))
            if start < pilot_n:
                # Where the check and the estimate read the same rows of the
                # block, the check takes the estimate's count.
                if min(pilot_n, end) != min(N, end):
                    hits = int(np.count_nonzero(hit[:to_pilot]))
                pilot_hits += hits
                if end >= pilot_n and pilot_hits / pilot_n < acceptance_floor:
                    rate = pilot_hits / pilot_n
                    raise LowAcceptanceError(
                        f"acceptance {rate:.2e} over the first {pilot_n} draws below floor "
                        f"{acceptance_floor:.0e} for P(S_{n} > {x}); use the quadrature/bracket route",
                        pilot_acceptance=rate,
                    )
    if accepted == 0:
        raise LowAcceptanceError(
            f"no accepted tuples among {N} draws for P(S_{n} > {x})",
            pilot_acceptance=0.0,
        )
    p = events / accepted
    se = math.sqrt(p * (1.0 - p) / accepted)
    return McEstimate(estimate=p, std_error=se, accepted=accepted, total=N, seed=seed_tag)


# ------------------------------------------------------- comparison harness


@dataclass(frozen=True)
class ComparisonRow:
    n: int
    x: float
    K: float
    estimate: float | None
    std_error: float | None
    bracket_lower: float | None
    bracket_upper: float | None
    z: float | None
    flagged: bool
    error: str | None = None


@dataclass(frozen=True)
class ComparisonTable:
    rows: tuple[ComparisonRow, ...]
    z_flag: float

    @property
    def flags(self) -> tuple[int, ...]:
        return tuple(i for i, r in enumerate(self.rows) if r.flagged)


def _default_bracket_step(x: float) -> float:
    """Power-of-two step near x/2000: binary-exact nodes keep dyadic atoms
    on the grid, which collapses their bracket width to zero."""
    return 2.0 ** math.floor(math.log2(max(x, 1e-6) / 2000.0))


def mc_vs_quadrature(
    d: Distribution,
    scenarios: Sequence[tuple[int, float, float]],
    N: int,
    seed: int,
    acceptance_floor: float = 1e-4,
    bias_injection: Mapping[int, float] | None = None,
) -> ComparisonTable:
    """Run every (n, x, K) scenario through both routes and z-score them.

    z = (MC estimate - bracket midpoint) / sqrt(SE_ac^2 + (width/2)^2),
    where SE_ac is the Agresti-Coull adjusted standard error (two pseudo
    successes and failures), which stays positive at empirical rates of 0
    or 1 where the plain binomial SE degenerates.  The bracket step is
    ``_default_bracket_step(x)``, and rows with |z| > _Z_FLAG are flagged.
    A scenario's ``TailforgeError`` is recorded in the table, not raised;
    any other exception is a fault and propagates.  ``bias_injection`` maps
    row index -> additive bias, a self-test hook for verifying that the
    harness flags what it should.
    """
    seed = _count("seed", seed, 0)
    rows: list[ComparisonRow] = []
    for i, (n, x, K) in enumerate(scenarios):
        try:
            stream = np.random.SeedSequence(entropy=seed, spawn_key=(i,))
            est = mc_jump_cond(d, n, float(x), float(K), N, stream, acceptance_floor)
            bracket = jump_cond(d, n, float(x), float(K), _default_bracket_step(float(x)))
            value = est.estimate + (bias_injection.get(i, 0.0) if bias_injection else 0.0)
            events = est.estimate * est.accepted
            p_adj = (events + 2.0) / (est.accepted + 4.0)
            se_ac = math.sqrt(p_adj * (1.0 - p_adj) / (est.accepted + 4.0))
            se_eff = math.sqrt(se_ac**2 + (bracket.width / 2.0) ** 2)
            if se_eff == 0.0:
                z = 0.0 if value == bracket.mid else math.inf
            else:
                z = (value - bracket.mid) / se_eff
            rows.append(
                ComparisonRow(
                    n=n,
                    x=float(x),
                    K=float(K),
                    estimate=value,
                    std_error=est.std_error,
                    bracket_lower=bracket.lower,
                    bracket_upper=bracket.upper,
                    z=z,
                    flagged=abs(z) > _Z_FLAG,
                )
            )
        except TailforgeError as exc:  # recorded, not thrown; a coding fault propagates
            rows.append(
                ComparisonRow(
                    n=n,
                    x=float(x),
                    K=float(K),
                    estimate=None,
                    std_error=None,
                    bracket_lower=None,
                    bracket_upper=None,
                    z=None,
                    flagged=True,
                    error=f"{type(exc).__name__}: {exc}",
                )
            )
    return ComparisonTable(tuple(rows), _Z_FLAG)
