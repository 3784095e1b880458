"""Reference values computed without tailforge.

Everything here is closed-form or exact enumeration in plain Python, so a
fault in the package under test cannot leak into the values it is checked
against.  All sums run over nonnegative terms except the inclusion-exclusion
of ``exp_jump_cond``, whose terms are O(1), so every value carries a relative
(resp. absolute) rounding error of a few ulp.
"""

from __future__ import annotations

import math
from functools import lru_cache

# Relative slack granted to a reference value for its own float rounding.
# It is far below the narrowest bracket any workload builds (the outward
# margin 4 * eps * n * M is about 3.5e-11 at M = 16000), so it cannot hide
# a bracket that misses the truth.
TRUTH_RTOL = 1e-12


# ------------------------------------------------------------ exponential(1)


def erlang_log_tail(n: int, y: float) -> float:
    """log Q_n(y), where Q_n(y) = e^{-y} sum_{j<n} y^j / j! is the tail of
    the sum of n iid exponential(1) variables; Q_n(y) = 1 for y <= 0."""
    if y <= 0:
        return 0.0
    return -y + math.log(sum(y**j / math.factorial(j) for j in range(n)))


def exp_jump_cond(n: int, x: float, K: float) -> float:
    """P(max_i X_i > x - K | S_n > x) for n iid exponential(1) summands.

    By memorylessness and inclusion-exclusion over the summands that exceed
    c = x - K:  1 - sum_k (-1)^k C(n,k) e^{-kc} Q_n(x - kc) / Q_n(x).
    """
    if K >= x:
        return 1.0
    c = x - K
    log_den = erlang_log_tail(n, x)
    total = 0.0
    for k in range(n + 1):
        total += (-1) ** k * math.comb(n, k) * math.exp(
            -k * c + erlang_log_tail(n, x - k * c) - log_den
        )
    return 1.0 - total


# ------------------------------------------------------------ dyadic_pareto
#
# The law with atoms 3 * 4^-k at 2^k, k >= 1.  Tails come from the recursion
#     P(S_n > z) = P(X > z) + sum_{2^k <= z} 3 * 4^-k * P(S_{n-1} > z - 2^k),
# with P(S_0 > w) = [w < 0]; every term is nonnegative.  Arguments are dyadic
# rationals, so z - 2^k is exact.


def _dyadic_atoms_upto(z: float):
    k = 1
    while 2.0**k <= z:
        yield 2.0**k, 3.0 * 4.0**-k
        k += 1


def dyadic_single_tail(z: float) -> float:
    """P(X > z): 1 below 2, 4^-k on [2^k, 2^{k+1})."""
    if z < 2.0:
        return 1.0
    return 4.0 ** -math.floor(math.log2(z))


@lru_cache(maxsize=None)
def dyadic_tail(n: int, z: float) -> float:
    """P(S_n > z)."""
    if z < 0:
        return 1.0
    if n == 0:
        return 0.0
    total = dyadic_single_tail(z)
    for a, m in _dyadic_atoms_upto(z):
        total += m * dyadic_tail(n - 1, z - a)
    return total


@lru_cache(maxsize=None)
def dyadic_capped_tail(n: int, z: float, cap: float) -> float:
    """P(every X_i <= cap, S_n > z)."""
    if n == 0:
        return 1.0 if z < 0 else 0.0
    return sum(m * dyadic_capped_tail(n - 1, z - a, cap) for a, m in _dyadic_atoms_upto(cap))


def dyadic_jump_cond(n: int, x: float, K: float) -> float:
    """P(max_i X_i > x - K | S_n > x)."""
    if K >= x:
        return 1.0
    return 1.0 - dyadic_capped_tail(n, x, x - K) / dyadic_tail(n, x)


def within(lower: float, value: float, upper: float, rtol: float = TRUTH_RTOL) -> bool:
    """lower <= value <= upper, granting ``value`` its own relative rounding."""
    slack = rtol * abs(value)
    return lower <= value + slack and value - slack <= upper
