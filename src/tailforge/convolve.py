"""Convolution tails: exact two-fold Stieltjes quadrature and certified
n-fold grid brackets.

A tilt is an exact factor.  For a tail G(x) = F(x) e^{-gamma x}
(``distribution._split_tilt``) the two-fold quadratures integrate the base
F only: F(x - y) F(y), and F(x - y) against F's atoms and against
f + gamma F, G's density at its rate.  They return G's values divided by
e^{-gamma x}, a factor no quadrature reads: its rounding alone is 6e-5
relative at gamma x = 1e12.  Two routes to a tilted two-fold tail remain,
both on the base, cross-checked by ``g_conv2_identity_residual``: the
fused one above, and the split one, F2bar and the cross integral apart,
joined by

    G2bar(x) = (F2bar(x) + gamma * int_0^x F(x-y) F(y) dy) e^{-gamma x},

so disagreement between quadratures is a detectable failure, not silent
error.  The n-fold route discretizes the measure into upper and lower
staircases (mass in a cell pushed to its upper, resp. lower, edge; atoms on
grid nodes assigned exactly) so that the true tail is enclosed between two
computable discrete tails.

One chain.  Where no atom sits on a node (below the last node, inside the
cap), the upper staircase PMF is the lower one shifted up one cell, so the
upper n-fold sum is the lower one plus n cells, overflow included:
P(S_up > v_k) = P(S_down > v_{k-n}) for k >= n, and the n-fold's whole
mass for k < n.  Such laws convolve the lower chain alone and read the
upper tail off it; laws with atoms on nodes fold both chains.

Product tree.  The staircase sum of n summands is formed by halves,
S_n = S_ceil(n/2) * S_floor(n/2), larger half first, each power once per
chain: S_2 = S_1 * S_1 and S_3 = S_2 * S_1 as a fold one summand at a time
would form them, but S_4 = S_2 * S_2 and S_8 = S_4 * S_4, so a grid takes
n - 1 full folds for n <= 3, two for n = 4 and three for n = 8.  Most of
these folds are squares (S_2, S_4, and the last product for even n): cell k
of S_a * S_a sums p[i] p[j] over i + j = k, symmetric in i and j, so each
pair of tiles is formed once, doubled, and each tile's own product once.
A square forms about half the products of a fold of two different factors.

Tiled folds.  A dense fold forms cells 0..M - 16 by matrix products over
64-cell tiles (``_tiled_cells``): GEMM d multiplies the tiles of the left
factor, reversed, by one 64 x 64 window of the right factor's cells, and
adds the product to the rows of cells from tile d on.  A GEMM runs at
about three times the rate of the dots it replaces.  Tiles past either
factor's last nonzero cell (past a cap, say) are left out.  The top 16
cells are each summed alone from their own products, in an order fixed by
M, with no BLAS call (``_top_cells``): a node reading needs those only.

Lattice folds.  A law whose mass sits on a few nodes leaves most cells of
its staircases at zero, yet spread over most tiles: at h = 1/8 and 22 001
cells, ``dyadic_pareto``'s S_1 has 16 nonzero cells and S_2 120.  A fold
whose factors have k1 and k2 nonzero cells forms from those cells alone
when ``_SPARSE_COST`` k1 k2 is below the dense route's cost in products,
each GEMM step's fixed cost included (``_dense_products``; a scattered
add costs about 250 products of a GEMM, a GEMM step about 2e5): each
product p1[i] p2[j] with i + j <= M is added into cell i + j, a square
taking all ordered pairs, in chunks of about ``_CHUNK`` pairs, so memory
stays O(M + _CHUNK).  Every cell is formed and the kept ones are sliced
off, so a reading from a node keeps the full fold's bits.

Rounding margin.  Each fold keeps cells 0..M of the product, each a sum of
at most M + 1 nonnegative products in some order: a GEMM sums a tile's
products against a window, fused or not, and the partial sums of the
windows are added into the cell; a top cell adds two pairwise sums.  Zero
padding adds exact zeros.  In a square, doubling is exact: a doubled term
is the product 2 p[i] p[j], standing for the two terms p[i] p[j] and
p[j] p[i], or those two terms apart, so each cell still sums at most
M + 1 rounded products.  A lattice fold sums each cell's nonzero products
one by one in ascending i, leaving out only exact zeros: again at most
M + 1 rounded products, in another order, which the bound below does not
depend on.  The spill past cell M is a sum of nonnegative terms against
suffix sums of at most M terms.  Recursive summation of m nonnegative
terms, in any order and any tree, has relative error at most
gamma_{m-1} = (m - 1) u / (1 - (m - 1) u) with u = eps / 2 (a fused
multiply-add rounds once where a product and a sum round twice), and a
product of rounded nonnegative factors carries their relative errors
forward.  So the fold S_a * S_b has relative error at most
err(S_a) + err(S_b) + about (2M + 4) u on each cell and on the overflow,
and along any product tree of n leaves (n - 1 folds) the errors add up to
about (n - 1)(2M + 4) u.  The final suffix sums (and, with one chain, the
total mass) add another (M + 2) u: at most n (M + 2) eps in all, which the
outward margin 4 eps n max(M, 1) of ``_bracket_on`` covers for every M >= 0.

Node readings.  A bracket read at one point x (``jump_cond``) needs the
tails at two nodes only, and a tail at node k sums cells k + 1..M.  So the
halves run in full, and the last product forms only the cells from the
lowest node the reading needs: that node, or n nodes lower with one chain.
A reading at x on a grid that ends two nodes past it (``jump_cond``'s)
reads from node M - 3 at the lowest, or from M - 3 - n >= M - 11, all
among the top 16 cells, which it forms alone, each summed as in the full
fold; from a lower node it forms the full fold and slices it.  The suffix
sums run down from cell M alike, so every tail read keeps its bits, and
the margin and containment argument above holds unchanged.  No cell's sum
depends on the BLAS thread count: the GEMMs split only their rows and
columns across threads, and the top cells and the spill call no BLAS.  The
full bracket and the capped ones at one x share one evaluation of the
summand's tails at the nodes (``_brackets``).  The tails are nonincreasing
node by node in floating point too, so the running minimum of the upper
bounds, taken from the read node on, is the whole grid's when that node's
upper tail is above the underflow floor (or its bound is already -inf);
otherwise the reading falls back to the full last product.

Capped readings.  ``jump_cond`` reads the full bracket and the one capped
at c = x - K on the same nodes.  Let J be the cap cell, v_J <= c <
v_{J+1}.  Below cell J the capped staircase holds the full one's cell
masses, F(v_j) - F(v_{j+1}) read as a difference of F - F(c); from cell J
on it holds only what lies up to c.  So each full power is
S_k = S^c_k + D_k: D_1 is the full masses from cell J on less the capped
ones, overflow included, and D_{a+b} = S^c_a * D_b + D_a * S^c_b +
D_a * D_b.  Every product in D_k has a summand from cell J on, so D_k
lies on cells J..M, and when 2J > M the term D_a * D_b lies past cell M
and adds to the overflow only (``_past``).  The capped chain folds as
``trunc_convn_tail_grid`` folds it, with its bits; each D product is one
fold of the M - J + 1 cells from J on, both factors shifted down by J, and
a square's two cross terms are one fold, doubled.  At J = 0.75 M and
n = 3 the halves of both chains take about 0.25 M^2 products instead of
0.47 M^2.  When 2J <= M the products past the cap are no fewer than the
full fold's, and each cap folds its own chains.  The margin argument
carries over: every term is a product of nonnegative rounded factors, and
S^c_k and D_k each carry at most S_k's error bound.  A cell of S_k adds
its cell of S^c_k, a sum of at most M + 1 rounded products, to its cell
of D_k, two sums of at most M - J + 1 joined by one addition: a sum of
nonnegative terms whose tree is at most two additions deeper than a
fold's, which the margin's slack (n (M + 2) eps against 4 eps n M)
covers.  Below cell J the full bracket's masses are the capped
staircase's, the same cell masses rounded once more, so its bits differ
from ``convn_tail_grid``'s, within the margin of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .distribution import Distribution, _split_tilt
from .errors import GridGuardError, ParameterError, TruncationError, _count
from .quadrature import QuadConfig, _logsumexp_list, log_quads
from .tailcurve import TailCurve
from .transform import gamma_transform

__all__ = [
    "BracketGrid",
    "cross_integral",
    "log_cross_integral",
    "conv2_tail",
    "log_conv2_tail",
    "g_conv2_identity_residual",
    "log_tilt_identity",
    "convn_tail_grid",
    "trunc_convn_tail_grid",
    "MAX_FOLDS",
    "MAX_CELLS",
]

_NEG_INF = float("-inf")
MAX_FOLDS = 8
MAX_CELLS = 2_000_000


# ----------------------------------------------------------- cross integral


# Geometric offsets w 8^-k, k = 1..20, from a part's small-argument end a: a
# ratio of 8 down to the same w 2^-60 floor as a ratio of 2 with 60 seeds.
# Refinement fills in between grades where it must, and mostly it need not.
# A grade is kept only if its offset is at least _GRADE_FLOOR a, so that it
# moves the argument by 0.1 % or more: at a = 0, where the peaks sit, every
# grade is kept, and at a > 0 the deep grades, which round to within a few
# ulps of a, are not.
_GRADES = 8.0 ** -np.arange(1, 21)
_GRADE_FLOOR = 2.0**-10


def _spans(starts: np.ndarray, stops: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(row, index) of every index in the ranges starts[row]:stops[row]."""
    counts = np.maximum(stops - starts, 0)
    rows = np.repeat(np.arange(len(counts)), counts)
    return rows, np.arange(len(rows)) - np.repeat(np.cumsum(counts) - counts - starts, counts)


def _half_seeds(curve: TailCurve, x: np.ndarray, a: np.ndarray, b: np.ndarray):
    """The seed table (owner, point) of the halves [a[i], b[i]] at x[i]: the
    points strictly inside (a, b) among the curve's breakpoints, their
    mirrors x - breakpoint, and the grades a + (b - a) 8^-k whose offset
    (b - a) 8^-k is at least ``_GRADE_FLOOR`` a, where g(y) F(x - y) can
    kink or peak.  Breakpoints and mirrors are read off ``searchsorted``
    slices of the sorted breakpoints.  x - bp is nonincreasing in bp, and
    lies in (a, b) only if bp lies in [x - b, x - a] as rounded, so that
    slice holds every mirror inside."""
    bps = curve.breakpoints()
    own, at = _spans(np.searchsorted(bps, a, "right"), np.searchsorted(bps, b, "left"))
    m_own, m_at = _spans(np.searchsorted(bps, x - b, "left"), np.searchsorted(bps, x - a, "right"))
    mirrors = x[m_own] - bps[m_at]
    offsets = (b - a)[:, None] * _GRADES
    g_own, k = np.nonzero(offsets >= _GRADE_FLOOR * a[:, None])
    owners = np.concatenate([own, m_own, g_own])
    pts = np.concatenate([bps[at], mirrors, a[g_own] + offsets[g_own, k]])
    keep = (pts > a[owners]) & (pts < b[owners])
    return owners[keep], pts[keep]


def _log_against_tail(log_g, curve: TailCurve, jobs, cfg: QuadConfig) -> list[float]:
    """log of int_lo^hi g(y) F(x - y) dy for each job (x, lo, hi), each in
    two halves, all in one ``log_quads`` batch.

    The part of [lo, hi] below x / 2 is integrated in y, and the part above
    in u = x - y, as int g(x - u) F(u) du.  So the argument that can be
    small, y of g below x / 2 and u of F above it, is exact: it is never x
    minus a nearly equal number, which at x = 4e20 rounds to a multiple of
    2^16.  Each half is seeded (``_half_seeds``) at the curve's
    breakpoints and their mirrors about x / 2, a set that is the same in y
    and in u, and at geometric offsets w 8^-k, k = 1..20 (``_GRADES``),
    from its small-argument end a, where w is the half's width: the
    O(1)-wide peak of F near u = 0, or of a density near y = 0, gets panels
    in the first round instead of one bisection per round.  A half with
    a > 0 holds no such peak, and keeps only the offsets of at least
    ``_GRADE_FLOOR`` a.  The integrand reads
    each panel's x and half from its owner, and both factors a panel at a
    time, ``log_g(arg, left)`` as ``TailCurve._on_panels``: x - y, or
    x - u, is read from the left, as the number below x that it is.
    Entry i is job i's log; the batch raises its first failure
    (``log_quads``).
    """
    halves = []  # (job, x, in u, a, b)
    for i, (x, lo, hi) in enumerate(jobs):
        c = 0.5 * x
        if lo < c:
            halves.append((i, x, False, lo, min(hi, c)))
        if hi > c:
            halves.append((i, x, True, x - hi, x - max(lo, c)))
    x_of = np.array([h[1] for h in halves], dtype=float)
    in_u = np.array([h[2] for h in halves], dtype=bool)
    a = np.array([h[3] for h in halves], dtype=float)
    b = np.array([h[4] for h in halves], dtype=float)

    def integrand(v: np.ndarray, owner: np.ndarray) -> np.ndarray:
        x, u = x_of[owner], in_u[owner]
        rest = x - v
        return log_g(np.where(u, rest, v), u) + curve._on_panels(np.where(u, v, rest), ~u)

    results = log_quads(integrand, a, b, _half_seeds(curve, x_of, a, b), cfg)
    parts: list[list[float]] = [[] for _ in jobs]
    for (i, *_), res in zip(halves, results):
        parts[i].append(res.log_value)
    return [_logsumexp_list(p) for p in parts]


def _log_cross_integrals(d: Distribution, jobs, cfg: QuadConfig) -> list[float]:
    """``log_cross_integral`` for each job (A, B, x), in one batch, per
    e^{-gamma x} of d's tilt (``_split_tilt``): the integral of the base's
    F(x - y) F(y).  Every job is checked before any is integrated, and the
    batch raises its first failure."""
    for A, B, x in jobs:
        if not (0 <= A <= B <= x):
            raise ParameterError(f"need 0 <= A <= B <= x, got A={A}, B={B}, x={x}")
    d.tail._checked([x for *_, x in jobs])
    # F(y) F(x - y) is symmetric about x / 2, and so are the two halves.
    whole = [A == 0.0 and B == x for A, B, x in jobs]
    quad = [(x, 0.0, 0.5 * x) if w else (x, A, B) for (A, B, x), w in zip(jobs, whole) if A < B]
    curve = _split_tilt(d)[0].tail
    vals = iter(_log_against_tail(curve._on_panels, curve, quad, cfg))
    return [
        _NEG_INF if A == B else (math.log(2.0) + next(vals) if w else next(vals))
        for (A, B, _), w in zip(jobs, whole)
    ]


def log_cross_integral(
    d: Distribution, A: float, B: float, x: float, cfg: QuadConfig | None = None
) -> float:
    """log of integral_A^B F(x - y) F(y) dy for 0 <= A <= B <= x."""
    rate = _split_tilt(d)[1]
    lv = _log_cross_integrals(d, [(A, B, x)], cfg or QuadConfig())[0]
    return lv - rate * x if rate else lv


def cross_integral(
    d: Distribution, A: float, B: float, x: float, cfg: QuadConfig | None = None
) -> float:
    """integral_A^B F(x - y) F(y) dy.  May underflow to 0.0 for extreme x;
    ratio diagnostics use the log route internally."""
    lv = log_cross_integral(d, A, B, x, cfg)
    return math.exp(lv) if lv > _NEG_INF else 0.0


# ----------------------------------------------------------- two-fold tails


def _log_conv2_tails(d: Distribution, jobs, cfg: QuadConfig) -> list:
    """For each job (x, cuts), log F2bar(x) and the log terms of
    int F(x - y) F(dy) over the bands of the increasing ``cuts``, all below
    x, both per e^{-gamma x} of d's tilt (``_split_tilt``).

    Band j is (cuts[j-1], cuts[j]]; the first band is [0, cuts[0]].  Each
    band lists one term per atom of the base in it, then one for d's
    density at its rate, ``log_density(y, gamma)`` = log(f + gamma F), if
    it has one there, so a single cut K gives the terms of int_{[0, K]}.
    log F2bar(x) sums F(x) and the terms of every band and of one more,
    (cuts[-1], x], so a prefix of the bands and the total share their
    quadratures; with no cuts the one band is [0, x].  The atom terms of all
    jobs come from one ``log_tail`` call and the density terms from one
    ``_log_against_tail`` batch.  Every x is checked before any job is
    integrated, and the batch raises its first failure.
    """
    d.tail._checked([x for x, _ in jobs])
    passes = [(x, [*cuts, x]) for x, cuts in jobs if x >= 0]
    base, rate = _split_tilt(d)
    curve = base.tail
    heads = curve.log_tail(np.array([x for x, _ in passes], dtype=float)).tolist()
    out: list = [[[] for _ in cuts] for _, cuts in passes]
    if base.atoms and passes:
        locs = base.atom_locations
        log_masses = np.array([a.log_mass for a in base.atoms])
        hits = []  # (job, band of each atom in it, atoms in it)
        for i, (x, cuts) in enumerate(passes):
            band = np.searchsorted(cuts, locs, side="left")
            at = np.flatnonzero(band < len(cuts))
            hits.append((i, band[at], at))
        args = np.concatenate([passes[i][0] - locs[at] for i, _, at in hits])
        masses = log_masses[np.concatenate([at for *_, at in hits])]
        terms = iter((masses + curve.log_tail(args)).tolist())
        for i, band, _ in hits:
            for j in band.tolist():
                out[i][j].append(next(terms))
    bands = [
        (i, j, (x, lo, hi))
        for i, (x, cuts) in enumerate(passes)
        for j, (lo, hi) in enumerate(zip([0.0, *cuts], cuts))
    ]
    ends = np.array([job[1:] for *_, job in bands], dtype=float).reshape(-1, 2)
    dense = [bands[k] for k in np.flatnonzero(d.tail.has_density_in(ends[:, 0], ends[:, 1]))]
    log_g = partial(d.tail._on_panels, lam=rate)
    vals = _log_against_tail(log_g, curve, [job for *_, job in dense], cfg)
    for (i, j, _), v in zip(dense, vals):
        out[i][j].append(v)
    pairs = iter(
        (_logsumexp_list([head, *(t for band in own for t in band)]), own[:-1])
        for head, own in zip(heads, out)
    )
    # log F2bar(x) = 0 for x < 0
    return [(0.0, [[] for _ in cuts]) if x < 0 else next(pairs) for x, cuts in jobs]


def log_conv2_tail(d: Distribution, x: float, cfg: QuadConfig | None = None) -> float:
    """log of F2bar(x) = F(x) + int_{[0, x]} F(x - y) F(dy)."""
    rate = _split_tilt(d)[1]
    lv = _log_conv2_tails(d, [(x, [])], cfg or QuadConfig())[0][0]
    return lv - rate * max(x, 0.0) if rate else lv  # the tail is 1 below 0


def conv2_tail(d: Distribution, x: float, cfg: QuadConfig | None = None) -> float:
    """Two-fold convolution tail F2bar(x)."""
    lv = log_conv2_tail(d, x, cfg)
    return math.exp(lv) if lv > _NEG_INF else 0.0


def log_tilt_identity(log_f2, log_cross, gamma: float):
    """log G2bar(x) e^{gamma x} = log(F2bar(x) + gamma int_0^x F(x-y) F(y) dy)
    from the logs of the two untilted terms (module docstring).  Given them
    divided by F(x), it returns log G2bar(x) / G(x)."""
    return np.logaddexp(log_f2, math.log(gamma) + log_cross)


def _fused_and_split(d: Distribution, gamma: float, xs, cfg: QuadConfig) -> list:
    """(fused, split) at each x: log G2bar(x) e^{gamma x} for G the tilt of d
    at gamma, by the module docstring's two routes, per d's own tilt."""
    jobs = [(x, []) for x in xs]
    fused = _log_conv2_tails(gamma_transform(d, gamma), jobs, cfg)
    f2 = _log_conv2_tails(d, jobs, cfg)
    cross = _log_cross_integrals(d, [(0.0, x, x) for x in xs], cfg)
    return [
        (g2, float(log_tilt_identity(lf2, lc, gamma)))
        for (g2, _), (lf2, _), lc in zip(fused, f2, cross)
    ]


def g_conv2_identity_residual(
    d: Distribution, gamma: float, x: float, cfg: QuadConfig | None = None
) -> float:
    """Relative residual between the two quadratures of the tilted two-fold
    tail (``_fused_and_split``): |split / fused - 1|."""
    if x < 0 or gamma <= 0:
        raise ParameterError(f"need x >= 0 and gamma > 0, got x={x}, gamma={gamma}")
    fused, split = _fused_and_split(d, gamma, [x], cfg or QuadConfig())[0]
    return abs(math.expm1(split - fused))


# ------------------------------------------------------------ grid brackets


@dataclass(frozen=True)
class BracketGrid:
    """Certified log-tail bounds for an n-fold convolution on a step grid.

    ``log_lower[k] <= log F*n(grid[k]) <= log_upper[k]`` for every node.
    A lower bound of -inf only says the tail is at least 0; an upper bound
    of -inf marks a provably zero tail.  ``h`` is the discretization step,
    ``cap`` the per-summand truncation point (inf when absent).
    """

    grid: np.ndarray
    log_lower: np.ndarray
    log_upper: np.ndarray
    n: int
    h: float
    cap: float = math.inf

    def __post_init__(self):
        if np.any(self.log_lower > self.log_upper + 1e-12):
            raise ParameterError("bracket invariant violated: lower > upper")

    def log_at(self, x: float) -> tuple[float, float]:
        """(lower, upper) bounds on log P(S_n > x), any x in range."""
        if not self.grid[0] <= x <= self.grid[-1]:
            raise ParameterError(f"x={x} outside bracket grid [{self.grid[0]}, {self.grid[-1]}]")
        k = int(np.searchsorted(self.grid, x, side="left"))
        # Between nodes: tails are nonincreasing, so bound by neighbors.
        k_up = k if self.grid[k] == x else k - 1
        return float(self.log_lower[k]), float(self.log_upper[k_up])

    def at(self, x: float) -> tuple[float, float]:
        """(lower, upper) probability bounds for P(S_n > x), any x in range."""
        log_lo, log_up = self.log_at(x)
        return math.exp(log_lo), math.exp(log_up)


def _node_tails(d: Distribution, x_max: float, h: float):
    """What every cap's staircase (``_staircase_masses``) reads on the
    nodes v_j = j*h, j = 0..M, M = ceil(x_max / h), built once per grid:
    (nodes, log F there, the left-limit tails F(v_j-), the atoms on nodes
    as (j, mass, location)).  A left-limit tail is the right-continuous
    tail plus the mass of any atom sitting exactly on the node.

    Only the atoms at or below the last node are visited, found by one
    search of the law's ``atom_locations``.
    """
    M = int(math.ceil(x_max / h - 1e-12))
    if M + 1 > MAX_CELLS:
        raise GridGuardError(
            f"x_max/h = {x_max / h:.3e} exceeds the cell limit {MAX_CELLS}"
        )
    nodes = np.arange(M + 1) * h
    trunc = d.tail.truncation_hi
    if nodes[-1] > trunc:
        raise TruncationError(
            f"grid reaches {nodes[-1]!r}, beyond materialized breakpoint {trunc!r}"
        )
    log_t = np.atleast_1d(d.tail.log_tail(nodes))
    t_left = np.exp(log_t)
    on_node = []
    for a in d.atoms[: int(d.atom_locations.searchsorted(nodes[-1], side="right"))]:
        j = int(round(a.location / h))
        if 0 <= j <= M and nodes[j] == a.location:
            mass = math.exp(a.log_mass)
            t_left[j] += mass
            on_node.append((j, mass, a.location))
    return nodes, log_t, t_left, on_node


def _staircase_masses(d: Distribution, node_tails, cap: float):
    """Upper/lower staircase PMFs on nodes j*h, j = 0..M, plus overflow,
    from the nodes' tails (``_node_tails``) and F(cap).

    Returns (pmf_down, pmf_up, overflow, end, on_nodes, log_fcap) where
    overflow applies to both staircases (mass at or beyond the last node, and beyond
    cap it is dropped entirely).  ``end`` is the first node index the
    (restricted) summand provably never exceeds, read from the log-domain
    tail and the cap rather than from the PMFs, whose small masses
    underflow; it is M + 1 when no node qualifies.  ``on_nodes`` says
    whether an atom sits on a node below the last one and inside the cap;
    without one, ``pmf_up`` is ``pmf_down`` shifted up one cell.
    ``log_fcap`` is log F(cap), -inf without a cap.
    """
    nodes, log_t, t_left, on_node = node_tails
    M = len(nodes) - 1
    trunc = d.tail.truncation_hi
    atom_on_node = np.zeros(M + 1)
    for j, mass, location in on_node:
        if location <= cap:
            atom_on_node[j] = mass
    log_fcap = _NEG_INF
    if math.isfinite(cap):
        if cap > trunc:
            raise TruncationError(f"cap={cap!r} beyond materialized breakpoint {trunc!r}")
        log_fcap = d.tail.log_tail(cap)
    fbar_cap = math.exp(log_fcap)
    s = np.maximum(t_left - fbar_cap, 0.0)
    masses = np.maximum(s[:-1] - s[1:], 0.0)  # cell [v_j, v_{j+1})
    overflow = float(s[-1])
    atom_cell = atom_on_node[:-1]
    atom_cell = np.minimum(atom_cell, masses)
    pmf_down = np.zeros(M + 1)
    pmf_down[:-1] = masses
    pmf_up = np.zeros(M + 1)
    pmf_up[1:] = masses - atom_cell
    pmf_up[:-1] += atom_cell
    # F(v_j) = F(c) (F(v_j) = 0 without a cap) leaves no mass in (v_j, c],
    # and no restricted draw passes a node at or past c: either way the
    # restricted summand is at most v_j.
    bounded = np.flatnonzero((log_t <= log_fcap) | (nodes >= cap))
    end = int(bounded[0]) if bounded.size else M + 1
    return pmf_down, pmf_up, overflow, end, bool(atom_cell.any()), log_fcap


# Cells per tile of the dense kernel (``_tiled_cells``).  Its GEMMs run at
# 40-45 GFLOP/s on one x86-64 core (OpenBLAS 0.3.31), against about 16 for
# the dots of np.correlate.  Of 32, 48, 64, 96 and 128, 64 was the fastest
# or within 5 % of it from 1e3 to 2.5e4 cells: smaller tiles take more
# GEMM steps, larger ones copy more window cells.
_TILE = 64
# The cells below the top of every dense fold that are summed one at a time
# (``_top_cells``): a reading at x reads from node M - 3 at the lowest, or
# n <= MAX_FOLDS nodes lower with one chain, so it forms these alone.
_TOP = 16
# Windows copied per call of the dense kernel: 8 of 64 x 64 floats, 256 KiB.
_WINDOWS = 8
# Pairs of nonzero cells per chunk of the sparse route: its scratch arrays
# hold O(_CHUNK) entries whatever the factors.
_CHUNK = 1 << 16
# What one product of the sparse route costs in products of the dense one,
# and what each GEMM step of the dense route costs whatever its rows: a
# window copied, a call, a slice added, about 6 us (one x86-64 core,
# OpenBLAS 0.3.31, numpy 2.4).  Fitted to the crossovers measured on
# squares of k scattered nonzero cells: the routes cost the same at
# k = 225-230 of 3001 cells (here: k = 218), k = 390-400 of 8001 (here:
# k = 408) and k = 830-855 of 20 001 (here: k = 811).
_SPARSE_COST = 250
_STEP_COST = 200_000


def _suffix_sums(p: np.ndarray) -> np.ndarray:
    # out[j] = sum_{i >= j} p[i]
    return np.cumsum(p[::-1])[::-1]


def _tile_rows(p1, p2, N):
    """The tiles ``_tiled_cells`` multiplies for cells 0..N: for each GEMM
    d = 0, 1, ..., the number of tiles of the left factor it takes (from
    tile 0 on), and for a square the number of band steps.  Tiles past
    either factor's last nonzero cell are all zero, and are left out."""
    if N < 0:
        return np.zeros(0, dtype=int), 0
    S = N // _TILE + 1
    ends = [N - int(np.argmax(p[N::-1] != 0)) for p in (p1, p2)]  # last nonzero cells
    if not (p1[ends[0]] and p2[ends[1]]):
        return np.zeros(0, dtype=int), 0
    last1, last2 = ends[0] // _TILE, ends[1] // _TILE
    d = np.arange(min(last2 + 1, S - 1) + 1)
    rows = np.minimum(last1, S - 1 - d)
    if p1 is p2:
        return np.maximum(np.minimum(rows, d - 2) + 1, 0), min(last1 + 1, S // 2) + 1
    return rows + 1, 0


def _windows(v, start, shape, steps):
    """A read-only view of the contiguous array v: entry (a, b, ...) is
    v[start + a steps[0] + b steps[1] + ...]."""
    size = v.itemsize
    view = np.ndarray(shape, v.dtype, v, start * size, tuple(s * size for s in steps))
    view.flags.writeable = False
    return view


def _tiled_cells(p1, p2, N, rows, bands):
    """Cells 0..N of p1 * p2 by GEMMs over m-cell tiles (``_tile_rows``
    gives ``rows`` and ``bands``).

    Tile s of p1, reversed, is row s of A; window d of p2 holds
    p2[(d - 1) m + 1 + t + r] at (t, r), zero outside 0..N.  Then
    A[s] @ W_d is the sum over r of p1[s m + m - 1 - r] p2[(d - 1) m + 1
    + t + r], the part of cell (s + d) m + t that tile s forms with the
    cells of p2 in the window, and over d = 0, 1, ... each pair of cells
    is formed once.  So GEMM d adds A[:S - d] @ W_d to the tile rows of
    cells from d on, one window copied per GEMM.

    A square (p1 is p2) forms each pair of tiles once.  Its GEMM d takes
    the tiles s <= d - 2, doubled (exact), whose window lies past them.
    Band step d adds, to tile row 2d - 1, what tile d - 1 forms with W_d
    and, once more, with U_d, W_d's part in tile d (t + r >= m - 1); and
    to row 2d what tile d forms with U_d, its own product's first row.
    Doubled or twice, each cell sums at most N + 1 nonnegative products.
    """
    m = _TILE
    S = N // m + 1
    cells = np.zeros((S + 2, m))  # tile row u of the cells is cells[u + 1]
    padded = np.zeros((S + 2) * m)
    padded[m : m + N + 1] = p1[: N + 1]
    A = padded.reshape(S + 2, m)[:, ::-1].copy()  # A[s + 1]: tile s, reversed
    q = np.zeros((S + 1) * m)
    q[m - 1 : m + N] = p2[: N + 1]
    windows = _windows(q, 0, (S, m, m), (m, 1, 1))  # window d: q[d m + t + r]
    part = np.empty((S, m))
    left = A
    if p1 is p2:
        left = 2.0 * A
        ends = np.zeros((bands, 2 * m - 1))  # m - 1 zeros, then tile d
        ends[:, m - 1 :] = padded[m : (bands + 1) * m].reshape(bands, m)
        upper = _windows(ends, 0, (bands, m, m), (2 * m - 1, 1, 1))
        # Band step d as one product: (tile d - 1, tile d - 1) against
        # (W_d, U_d) for tile row 2d - 1, and (0, tile d) for row 2d.
        steps = np.zeros((_WINDOWS, 2, 2 * m))
        band = np.empty((_WINDOWS, 2, m))
    # One buffer for the windows and, in a square, their parts U_d: a
    # second one that size is mapped afresh, and paged in, on every call.
    both = np.empty((_WINDOWS, 2 if p1 is p2 else 1, m, m))
    for d0 in range(0, len(rows), _WINDOWS):
        g = min(_WINDOWS, len(rows) - d0)
        np.copyto(both[:g, 0], windows[d0 : d0 + g])
        for i, r in enumerate(rows[d0 : d0 + g].tolist()):
            if r:
                np.matmul(left[1 : r + 1], both[i, 0], out=part[:r])
                cells[d0 + i + 1 : d0 + i + 1 + r] += part[:r]
        k = min(g, bands - d0)
        if k > 0:
            np.copyto(both[:k, 1], upper[d0 : d0 + k])
            steps[:k, 0, :m] = steps[:k, 0, m:] = A[d0 : d0 + k]
            steps[:k, 1, m:] = A[d0 + 1 : d0 + k + 1]
            np.matmul(steps[:k], both[:k].reshape(k, 2 * m, m), out=band[:k])
            cells[2 * d0 : 2 * (d0 + k)] += band[:k].reshape(2 * k, m)
    return cells[1:].ravel()[: N + 1]


def _top_cells(p1, p2, M, lo):
    """Cells lo..M of p1 * p2, lo >= s = max(M - _TOP + 1, 0).  Cell k is
    the pairwise sum of its products p1[i] p2[k - i] for i <= s, plus that
    of the fewer than _TOP ones past s: rows of one block sum alone, so
    no cell's bits depend on lo, and no BLAS call, so no thread count,
    enters.  Blocks hold at most ``_CHUNK`` products, or one cell."""
    s, n = max(M - _TOP + 1, 0), M + 1 - lo
    p2 = np.ascontiguousarray(p2)
    head = _windows(p2, lo - s, (n, s + 1), (1, 1))  # p2[k - i], i = s..0
    rev = p1[s::-1].copy()
    low = np.zeros(2 * _TOP)  # _TOP zeros, then p2's first cells
    low[_TOP : _TOP + M - s] = p2[: M - s]
    tail = _windows(low, _TOP + lo - s - 1, (n, M - s), (1, -1))  # i = s + 1..M
    step = max(_CHUNK // (s + 1), 1)
    heads = [np.add.reduce(head[a : a + step] * rev, axis=1) for a in range(0, n, step)]
    return np.concatenate(heads) + np.add.reduce(tail * p1[s + 1 : M + 1], axis=1)


def _sparse_cells(p1, p2, M):
    """Cells 0..M of p1 * p2 from the factors' nonzero cells alone: each
    product p1[i] p2[j] with i + j <= M is added into cell i + j, row i by
    row i and j ascending within a row, so each cell sums its products in
    ascending i.  The rows run in chunks of about ``_CHUNK`` pairs, and
    ``np.add.at`` adds in the order given, so the chunk size does not
    change the bits."""
    i1 = np.flatnonzero(p1)
    i2 = i1 if p1 is p2 else np.flatnonzero(p2)
    cells = np.zeros(M + 1)
    w2 = p2[i2]
    rows = max(_CHUNK // max(len(i2), 1), 1)
    for s in range(0, len(i1), rows):
        i = i1[s : s + rows, None]
        k = i + i2
        keep = k <= M
        np.add.at(cells, k[keep], (p1[i] * w2)[keep])
    return cells


def _dense_products(rows, bands, M):
    """What the dense route costs, in products: m^2 per tile of each GEMM and
    3 m^2 per band step (``_tile_rows``), ``_STEP_COST`` per GEMM step, and
    M + 1 for each top cell."""
    tiles = int(rows.sum()) + 3 * bands
    return _TILE**2 * tiles + _STEP_COST * len(rows) + (M + 1) * min(_TOP, M + 1)


def _convolve_defective(p1, o1, p2, o2, M, first=0):
    """Cells first..M of the convolution of two defective PMFs on cells
    0..M, plus its overflow: all mass beyond cell M, where o1 and o2 are
    the factors' own masses beyond it.  Only nonnegative terms are summed,
    and each cell gets the same bits whatever ``first`` is.  Factors with
    k1 and k2 nonzero cells fold from those cells alone (``_sparse_cells``,
    all cells formed, then sliced) when their k1 k2 products cost less than
    the dense route's.  The dense route forms cells 0..M - _TOP by tiled
    GEMMs (``_tiled_cells``) and the top ``_TOP`` cells one at a time
    (``_top_cells``); from first > M - _TOP on it forms those alone."""
    k1 = np.count_nonzero(p1)
    k2 = k1 if p1 is p2 else np.count_nonzero(p2)
    top = max(M - _TOP + 1, 0)
    tiles = _tile_rows(p1, p2, top - 1)
    if _SPARSE_COST * k1 * k2 < _dense_products(*tiles, M):
        cells = _sparse_cells(p1, p2, M)[first:]
    elif first >= top:
        cells = _top_cells(p1, p2, M, first)
    else:
        cells = np.concatenate([_tiled_cells(p1, p2, top - 1, *tiles), _top_cells(p1, p2, M, top)])
        cells = cells[first:]
    # Products p1[i] p2[j] with i + j > M: p1[i] times the mass of p2 on
    # cells M - i + 1 .. M, summed pairwise (a BLAS dot splits its sum
    # across threads).
    spill = float(np.add.reduce(p1[1:] * _suffix_sums(p2)[M:0:-1]))
    overflow = spill + o1 * float(p2.sum()) + o2 * (float(p1.sum()) + o1)
    return cells, overflow


def _tails_from_pmf(pmf: np.ndarray, overflow: float) -> np.ndarray:
    # tail[k] = P(S > v_k) = sum_{j > k} pmf[j] + overflow
    tail = np.empty_like(pmf)
    tail[:-1] = _suffix_sums(pmf)[1:]
    tail[-1] = 0.0
    return tail + overflow


def _power(powers: dict, k: int, M: int):
    """The staircase sum S_k of k summands with its overflow, from the
    powers formed so far: S_k = S_ceil(k/2) * S_floor(k/2), larger half
    first, each power formed once."""
    if k not in powers:
        powers[k] = _convolve_defective(
            *_power(powers, k - k // 2, M), *_power(powers, k // 2, M), M
        )
    return powers[k]


def _halves(powers: dict, n: int, M: int):
    """S_ceil(n/2) and S_floor(n/2), each with its overflow, from the powers
    {1: S_1, ...}; every power formed is kept in ``powers``.  (A nested
    recursive helper would hold itself in its closure, and the powers until
    the cycle collector runs.)"""
    return (*_power(powers, n - n // 2, M), *_power(powers, n // 2, M))


def _head(power, J: int, M: int):
    """A capped power's cells 0..M - J, and its mass past them."""
    cells, overflow = power
    return cells[: M - J + 1], float(cells[M - J + 1 :].sum()) + overflow


def _past(low: dict, past: dict, k: int, J: int, M: int):
    """D_k = S_k - S^c_k: the products of k summands that reach past cell J,
    as cells J..M shifted down by J, with the mass past cell M.  ``low``
    holds the capped powers S^c and ``past`` the D formed so far:
    D_{a+b} = S^c_a * D_b + D_a * S^c_b, one fold of a square doubled, and
    D_a * D_b lies past cell 2J > M, so it adds to the mass past M only."""
    if k not in past:
        a, b = k - k // 2, k // 2
        d_a, d_b = _past(low, past, a, J, M), _past(low, past, b, J, M)
        cells, over = _convolve_defective(*_head(low[a], J, M), *d_b, M - J)
        if a == b:
            cells, over = 2.0 * cells, 2.0 * over
        else:
            more, more_over = _convolve_defective(*d_a, *_head(low[b], J, M), M - J)
            cells, over = cells + more, over + more_over
        over += (float(d_a[0].sum()) + d_a[1]) * (float(d_b[0].sum()) + d_b[1])
        past[k] = cells, over
    return past[k]


def _halves_past(low: dict, pmf: np.ndarray, overflow: float, n: int, J: int, M: int):
    """``_halves`` of the chain whose capped twin, capped in cell J with
    2J > M, has the powers ``low``: each S_k = S^c_k + D_k (``_past``), with
    D_1 the masses from cell J on less the capped ones, and S_1 = pmf."""
    low_pmf, low_overflow = low[1]
    past = {1: (np.maximum(pmf[J:] - low_pmf[J:], 0.0), max(overflow - low_overflow, 0.0))}
    sums = {1: (pmf, overflow)}
    for k in (n - n // 2, n // 2):
        if k not in sums:
            cells, over = _past(low, past, k, J, M)
            total = low[k][0].copy()
            total[J:] += cells
            sums[k] = total, low[k][1] + over
    return (*sums[n - n // 2], *sums[n // 2])


def _fold_count(n, h: float) -> int:
    """The fold count n of an n-fold bracket on step h, as an int; refuses
    a count that is not an integer in [2, MAX_FOLDS] and a step that is not
    positive and finite."""
    n = _count("fold count", n, 2)
    if n > MAX_FOLDS:
        raise ParameterError(f"fold count {n} beyond configured cap {MAX_FOLDS}")
    if not 0.0 < h < math.inf:
        raise ParameterError(f"step must be positive and finite, got {h}")
    return n


def _brackets(
    d: Distribution, n: int, x_max: float, h: float, caps, at: float | None = None
) -> list[BracketGrid]:
    """The bracket on nodes j*h, j = 0..M, for each cap in turn: the
    summand's log tails there are evaluated once for all of them.  Given
    ``at``, each is the same bracket on the nodes from the lowest one that
    ``log_at(at)`` reads, with the same bits there.  The last product of
    the two halves then forms only the cells from that node on (from n
    nodes lower with one chain).

    The lowest cap folds its own chains.  With J its cap cell
    (v_J <= cap < v_{J+1}) and 2J > M, every other cap's chains are the
    lowest one's plus the products that reach past cell J
    (``_halves_past``; module docstring, "Capped readings"); otherwise each
    cap folds its own."""
    n = _fold_count(n, h)
    if not 0.0 <= x_max < math.inf:
        raise ParameterError(f"grid end must be nonnegative and finite, got {x_max}")
    node_tails = _node_tails(d, x_max, h)
    stairs = [_staircase_masses(d, node_tails, cap) for cap in caps]
    del node_tails  # its three node arrays would stay live through the folds
    M = len(stairs[0][0]) - 1
    low = int(np.argmin(caps))
    lows = [{1: (pmf, stairs[low][2])} for pmf in _chains(stairs[low])]
    low_halves = [_halves(powers, n, M) for powers in lows]
    J = int(np.searchsorted(np.arange(M + 1) * h, caps[low], side="right")) - 1

    def halves(stair):
        return [
            _halves_past(lows[c], pmf, stair[2], n, J, M)
            if 2 * J > M and c < len(lows)
            else _halves({1: (pmf, stair[2])}, n, M)
            for c, pmf in enumerate(_chains(stair))
        ]

    return [
        _bracket_on(d, n, stair, low_halves if i == low else halves(stair), h, cap, at)
        for i, (stair, cap) in enumerate(zip(stairs, caps))
    ]


def _chains(stair):
    """The staircase PMFs a bracket folds: the lower one, and the upper one
    when an atom sits on a node (``_staircase_masses``)."""
    pmf_down, pmf_up, *_, on_nodes, _ = stair
    return (pmf_down, pmf_up) if on_nodes else (pmf_down,)


def _bracket_on(d: Distribution, n: int, stair, halves, h: float, cap: float, at) -> BracketGrid:
    """One cap's bracket (``_brackets``) from its staircase masses and the
    halves of each chain it folds."""
    pmf_down, _, _, end, on_nodes, log_fcap = stair
    M = len(pmf_down) - 1
    nodes = np.arange(M + 1) * h

    def tails(chain: int, first: int):
        # Tails on nodes first..M from the last fold's cells first..M.
        acc, ov = _convolve_defective(*halves[chain], M, first)
        return acc, _tails_from_pmf(acc, ov)

    def bounds(first: int):
        if on_nodes:
            tail_d, tail_u = tails(0, first)[1], tails(1, first)[1]
        elif first >= n:
            # One chain: the upper sum is the lower one plus n cells (module
            # docstring), so its tail is the lower tail n nodes back.
            tail_d = tails(0, first - n)[1]
            tail_d, tail_u = tail_d[n:], tail_d[: M + 1 - first]
        else:
            # ... and the n-fold's whole mass below node n.
            acc_d, tail_d = tails(0, 0)
            lead = min(n, M + 1)
            tail_u = np.empty(M + 1)
            tail_u[:lead] = tail_d[0] + acc_d[0]
            tail_u[lead:] = tail_d[: M + 1 - lead]
            tail_d, tail_u = tail_d[first:], tail_u[first:]
        # Round outward by the roundoff of the arithmetic above (module
        # docstring): at most n (M + 2) eps relative on every tail, whichever
        # order the blocked sums take, so the true tail stays contained.
        margin = 4.0 * np.finfo(float).eps * n * max(M, 1)
        with np.errstate(divide="ignore"):
            log_lower = np.log(np.maximum(tail_d, 0.0)) + math.log1p(-margin)
            log_upper = np.log(np.maximum(tail_u, 0.0)) + math.log1p(margin)
        # Results that underflow are rounded in absolute terms: about 2 n M^2
        # roundings of at most half a subnormal ulp (tiny * eps / 2) each.  On
        # a tail of at least n M tiny that is a relative error of at most
        # M eps, well inside the margin.  Below that floor the lower bound
        # drops to 0 and the upper bound becomes the union bound
        # P(S_n > v) <= n F(v/n), with v/n rounded down, except from n times
        # the summand's support end on, where the true tail is exactly 0.
        # Under a cap no tail exceeds the restricted n-fold mass
        # (1 - F(cap))^n, which bounds the union bound too: its log, from
        # expm1, and rounded outward by the margin and by 2 ulps of itself.
        # The tail is nonincreasing, so an upper bound also holds at every
        # later node; carrying the running minimum keeps the tighter of the
        # two.
        floor = n * max(M, 1) * np.finfo(float).tiny
        log_lower[tail_d < floor] = _NEG_INF
        deep = np.flatnonzero(tail_u[: max(n * end - first, 0)] < floor)
        if deep.size:
            share = np.nextafter(nodes[first + deep] / n, 0.0)
            log_upper[deep] = math.log(n) + math.log1p(margin) + d.tail.log_tail(share)
        if math.isfinite(cap):
            mass, whole = -math.expm1(log_fcap), _NEG_INF
            if mass > 0.0:
                whole = n * math.log(mass)
                whole += math.log1p(margin) + 2.0 * np.finfo(float).eps * abs(whole)
            np.minimum(log_upper, whole, out=log_upper)
        log_upper = np.minimum.accumulate(np.maximum(log_upper, log_lower))
        # The running minimum from node first on is the whole grid's when
        # no node below it is under the floor (their tails, and the logs of
        # them, are no smaller), or when it is already -inf.
        exact = first == 0 or tail_u[0] >= floor or log_upper[0] == _NEG_INF
        return BracketGrid(nodes[first:], log_lower, log_upper, n=n, h=h, cap=cap), exact

    first = 0  # also when at is off the grid, whose log_at then refuses it
    if at is not None and 0.0 <= at <= nodes[-1]:
        k = int(np.searchsorted(nodes, at, side="left"))
        first = k if nodes[k] == at else k - 1
    bracket, exact = bounds(first)
    return bracket if exact else bounds(0)[0]


def convn_tail_grid(d: Distribution, n: int, x_max: float, h: float) -> BracketGrid:
    """Certified bracket for the n-fold convolution tail on nodes j*h.

    The lower staircase floors each summand to its cell's lower edge, the
    upper staircase ceils it (atoms on nodes stay put), so the true tail of
    S_n lies between the two discrete tails at every node.
    """
    return _brackets(d, n, x_max, h, (math.inf,))[0]


def trunc_convn_tail_grid(
    d: Distribution, n: int, cap: float, x_max: float, h: float
) -> BracketGrid:
    """Bracket for the n-fold convolution of d restricted to [0, cap].

    The restricted measure is defective with total mass F(cap); the bracket
    bounds P(all summands <= cap, S_n > x).
    """
    if not cap > 0:
        raise ParameterError(f"cap must be positive, got {cap}")
    return _brackets(d, n, x_max, h, (cap,))[0]
