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

A chunk of 65536 rows is drawn from its one generator in blocks of 8192
rows (``distribution.quantile_blocks``), each inverted, summed and counted
while it stays in cache.  A block's levels live in one buffer, which holds
their logs and then, for a closed inverse, their quantiles; the curve
checks them on log u, u in (0, 1] and above the truncation floor, by one
minimum and one maximum.  Consecutive draws continue the chunk's stream, so
the blocks hold the draws a whole chunk drew, and the check stops the run
at the block that holds its last draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .distribution import Distribution, quantile_blocks
from .errors import LowAcceptanceError, ParameterError, TailforgeError, _count
from .functionals import jump_cond

__all__ = ["McEstimate", "mc_jump_cond", "ComparisonRow", "ComparisonTable", "mc_vs_quadrature"]

_CHUNK = 65536
_PILOT_CAP = 500_000
_Z_FLAG = 4.0  # mc_vs_quadrature flags a row whose |z| exceeds this


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

    accepted = 0
    events = 0
    pilot_hits = 0
    n_chunks = (total + _CHUNK - 1) // _CHUNK
    for c, ss in enumerate(_chunk_streams(base, n_chunks)):
        rng = np.random.Generator(np.random.PCG64(ss))
        first = c * _CHUNK
        # The chunk's blocks continue its one stream row by row, so the
        # first rows of a chunk are the draws a shorter chunk makes.
        for offset, xs in quantile_blocks(d, rng, min(_CHUNK, total - first), n):
            start = first + offset
            end = start + len(xs)
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
            if start < N:
                hits = int(np.count_nonzero(hit[: N - start]))
                accepted += hits
                events += int(np.count_nonzero(event[: N - start]))
            if start < pilot_n:
                # Where the check and the estimate read the same rows of the
                # block, the check takes the estimate's count.
                if min(pilot_n, end) != min(N, end):
                    hits = int(np.count_nonzero(hit[: pilot_n - start]))
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
