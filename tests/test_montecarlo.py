"""Monte Carlo estimator and the MC-versus-quadrature harness."""

import math

import numpy as np
import pytest

import tailforge as tf
from tailforge import montecarlo
from tailforge.distribution import _BLOCK
from tailforge.errors import LowAcceptanceError, ParameterError, TruncationError
from tailforge.montecarlo import _CHUNK


def test_determinism_bitwise(exp1):
    a = tf.mc_jump_cond(exp1, 2, 5.0, 1.0, 50000, seed=11)
    b = tf.mc_jump_cond(exp1, 2, 5.0, 1.0, 50000, seed=11)
    assert a == b


def test_sure_event(exp1):
    est = tf.mc_jump_cond(exp1, 2, 5.0, 6.0, 20000, seed=3)
    assert est.estimate == 1.0


def test_exponential_against_quadrature_oracle(exp1):
    # closed-form target: 1 - P(both <= x-K, S > x) / P(S > x)
    x, K = 5.0, 1.0
    c = x - K
    num = (2 * c - x) * math.exp(-x) - math.exp(-x) + math.exp(-2 * c)
    oracle = 1 - num / ((1 + x) * math.exp(-x))
    est = tf.mc_jump_cond(exp1, 2, x, K, 10**6, seed=99)
    assert abs(est.estimate - oracle) <= 3 * est.std_error


def test_pareto_against_bracket(pareto3):
    est = tf.mc_jump_cond(pareto3, 2, 20.0, 5.0, 10**6, seed=7)
    br = tf.jump_cond(pareto3, 2, 20.0, 5.0, 2.0**-7)
    se = math.sqrt(est.std_error**2 + (br.width / 2) ** 2) + 1e-12
    assert abs(est.estimate - br.mid) <= 4 * se


def test_pareto_n3_low_acceptance_route(pareto3):
    # P(S_3 > 50) ~ 2e-5 sits below the default acceptance floor
    with pytest.raises(LowAcceptanceError):
        tf.mc_jump_cond(pareto3, 3, 50.0, 10.0, 10**5, seed=1)
    # lowering the floor enables the run; the harness z stays sane
    table = tf.mc_vs_quadrature(
        pareto3, [(3, 50.0, 10.0)], 2 * 10**6, seed=1, acceptance_floor=1e-6
    )
    assert table.rows[0].error is None
    assert table.flags == ()


def test_monotone_in_K_beyond_noise(exp1):
    ests = [
        tf.mc_jump_cond(exp1, 2, 8.0, K, 200000, seed=21) for K in (0.5, 1.0, 2.0, 4.0)
    ]
    for a, b in zip(ests, ests[1:]):
        assert b.estimate >= a.estimate - 3 * (a.std_error + b.std_error)


def test_empty_scenarios(exp1):
    table = tf.mc_vs_quadrature(exp1, [], 1000, seed=0)
    assert table.rows == ()
    assert table.flags == ()


def test_ten_exponential_scenarios_no_flags(exp1):
    # thresholds chosen so the acceptance clears the default floor
    scenarios = [(2, x, 1.0) for x in (3.0, 5.0, 8.0, 9.0, 10.0)]
    scenarios += [(3, x, 1.0) for x in (3.0, 5.0, 8.0, 10.0, 12.0)]
    table = tf.mc_vs_quadrature(exp1, scenarios, 100000, seed=20240808)
    assert len(table.rows) == 10
    assert all(r.error is None for r in table.rows)
    assert table.flags == (), [r.z for r in table.rows]


def test_bias_injection_flags_exactly_that_row(exp1):
    scenarios = [(2, x, 1.0) for x in (3.0, 5.0, 8.0)]
    table = tf.mc_vs_quadrature(
        exp1, scenarios, 100000, seed=20240808, bias_injection={1: 0.05}
    )
    assert table.flags == (1,)


def test_errors_recorded_not_thrown(exp1):
    # second scenario is hopeless (deep tail); its row carries the error
    table = tf.mc_vs_quadrature(exp1, [(2, 5.0, 1.0), (2, 200.0, 1.0)], 10000, seed=2)
    assert table.rows[0].error is None
    assert table.rows[1].error is not None
    assert table.rows[1].flagged


def test_only_tailforge_errors_are_recorded(monkeypatch, exp1):
    # A coding fault in the bracket route propagates; the deep-tail row,
    # which fails in the Monte Carlo route first, still records its
    # LowAcceptanceError.
    def broken(*args):
        raise TypeError("broken route")

    monkeypatch.setattr(montecarlo, "jump_cond", broken)
    table = tf.mc_vs_quadrature(exp1, [(2, 200.0, 1.0)], 10000, seed=2)
    assert table.rows[0].error.startswith("LowAcceptanceError")
    with pytest.raises(TypeError, match="broken route"):
        tf.mc_vs_quadrature(exp1, [(2, 5.0, 1.0)], 10000, seed=2)


def test_validation(exp1):
    with pytest.raises(ParameterError):
        tf.mc_jump_cond(exp1, 2, 5.0, 1.0, 0, seed=1)


def test_refuses_nan_threshold(exp1):
    with pytest.raises(ParameterError, match="finite"):
        tf.mc_jump_cond(exp1, 2, math.nan, 1.0, 1000, seed=1)


def test_refuses_nan_offset(exp1):
    with pytest.raises(ParameterError, match="finite"):
        tf.mc_jump_cond(exp1, 2, 3.0, math.nan, 1000, seed=1)


# (accepted, estimate) at seed 11, read before the acceptance check moved
# onto the run's own draws: the estimates keep their bits.
MC_PINNED = [
    ("exp1", 2, 5.0, 1.0, 200000, 8053, 0.6529243760089408),
    ("exp1", 3, 5.0, 1.0, 200000, 24804, 0.3973552652797936),
    ("dyadic", 3, 12.0, 2.0, 200000, 19299, 0.4724597129384942),
    ("pareto3", 1, 2.0, 0.5, 200000, 7476, 1.0),
    ("exp1", 2, 5.0, 6.0, 200000, 8053, 1.0),
    # N below the 10 / floor draws of the acceptance check
    ("exp1", 2, 5.0, 1.0, 50000, 2036, 0.6517681728880157),
    # N equal to them, and above them: the check shares the estimate's
    # count on the blocks where both read the same rows.
    ("exp1", 2, 5.0, 1.0, 100000, 4018, 0.6503235440517671),
    ("exp1", 2, 5.0, 1.0, 150000, 6030, 0.655223880597015),
    ("dyadic", 3, 12.0, 2.0, 150000, 14434, 0.475266731328807),
]


@pytest.mark.parametrize("name,n,x,K,N,accepted,estimate", MC_PINNED)
def test_estimates_bit_identical_to_pinned(request, name, n, x, K, N, accepted, estimate):
    est = tf.mc_jump_cond(request.getfixturevalue(name), n, x, K, N, seed=11)
    assert (est.accepted, est.estimate, est.total) == (accepted, estimate, N)


def _whole_chunk_reference(d, n, x, K, N, seed, floor=1e-4):
    """The estimator with each chunk drawn and inverted in one call:
    (estimate, accepted), or the pilot acceptance that fails the floor."""
    base = np.random.SeedSequence(seed)
    pilot_n = math.ceil(10.0 / floor)
    total = max(N, pilot_n)
    chunks = []
    for c in range(-(-total // _CHUNK)):
        ss = np.random.SeedSequence(entropy=base.entropy, spawn_key=(c,))
        size = min(_CHUNK, total - c * _CHUNK)
        u = 1.0 - np.random.Generator(np.random.PCG64(ss)).random((size, n))
        chunks.append(d.tail.quantile(u.ravel()).reshape(size, n))
    xs = np.concatenate(chunks)
    sums = xs[:, 0].copy()
    for j in range(1, n):
        sums += xs[:, j]
    hit = sums > x
    rate = np.count_nonzero(hit[:pilot_n]) / pilot_n
    if rate < floor:
        return rate
    event = hit & (xs.max(axis=1) > x - K)
    accepted = np.count_nonzero(hit[:N])
    return np.count_nonzero(event[:N]) / accepted, accepted


@pytest.fixture(scope="module")
def pareto3_tilt05(pareto3):
    return tf.gamma_transform(pareto3, 0.5)


# (n, law, x, K, whether the run inverts only the rows that can reach
# {S_n > x}).  dyadic at x/n = 4 and 8 and at n = 3, x = 6 puts x/n on an
# atom; the tilt inverts by bisection, and plateau2 has atoms off the
# dyadic lattice.
WHOLE_CHUNK_CASES = [
    (n, name, x, K, True)
    for n in (2, 3)
    for name, x, K in [
        ("exp1", 5.0, 1.0), ("exp1", 8.0, 0.5), ("dyadic", 12.0, 2.0), ("dyadic", 24.0, 4.0)
    ]
] + [
    (2, "pareto3", 20.0, 5.0, True),
    (3, "exp1", 3.0, 1.0, False),
    (3, "dyadic", 6.0, 2.0, False),
    (2, "pareto3_tilt05", 5.0, 1.0, True),
    (2, "plateau2", 10.0, 1.0, True),
]


@pytest.mark.parametrize("n,name,x,K,filtered", WHOLE_CHUNK_CASES)
def test_row_filter_runs_where_few_rows_can_reach_the_event(request, n, name, x, K, filtered):
    d = request.getfixturevalue(name)
    assert (montecarlo._row_cutoff(d, n, x) is not None) == filtered


@pytest.mark.parametrize("n,name,x,K", [case[:4] for case in WHOLE_CHUNK_CASES])
def test_blocked_draws_match_whole_chunks(request, name, n, x, K):
    # N ends past the first chunk's edge and inside a block.
    N = 70001
    assert N > _CHUNK and (N - _CHUNK) % _BLOCK
    d = request.getfixturevalue(name)
    want = _whole_chunk_reference(d, n, x, K, N, seed=29)
    est = tf.mc_jump_cond(d, n, x, K, N, seed=29)
    assert (est.estimate, est.accepted, est.total) == (*want, N)


@pytest.mark.parametrize(
    "name,n,x,K,floor",
    [("pareto3", 2, 30.0, 5.0, 1e-4), ("exp1", 2, 13.0, 1.0, 1e-4), ("exp1", 2, 8.0, 1.0, 1e-2)],
)
def test_blocked_acceptance_check_matches_whole_chunks(request, name, n, x, K, floor):
    # The check's 10 / floor draws end inside a block (of the first chunk
    # or the second) that the run of N draws fills to its end.
    N = 120000
    pilot_n = math.ceil(10.0 / floor)
    assert pilot_n % _CHUNK % _BLOCK and N >= (pilot_n // _BLOCK + 1) * _BLOCK
    d = request.getfixturevalue(name)
    rate = _whole_chunk_reference(d, n, x, K, N, seed=29, floor=floor)
    assert 0 < rate < floor
    with pytest.raises(LowAcceptanceError) as info:
        tf.mc_jump_cond(d, n, x, K, N, seed=29, acceptance_floor=floor)
    assert info.value.pilot_acceptance == rate


def test_draws_past_a_truncated_curve_still_raise():
    # fkz_example cut after 3 segments ends at x = 31.08 with F = 0.0038:
    # the filter keeps every row with a level below that floor.
    d = tf.fkz_example(max_segments=3)
    assert montecarlo._row_cutoff(d, 2, 10.0) < 1.0 - math.exp(d.tail.log_tail(d.truncation_hi))
    with pytest.raises(TruncationError):
        _whole_chunk_reference(d, 2, 10.0, 1.0, 70001, seed=29)
    with pytest.raises(TruncationError):
        tf.mc_jump_cond(d, 2, 10.0, 1.0, 70001, seed=29)


def test_acceptance_check_reads_the_runs_own_draws(pareto3):
    # P(S_2 > 30) is about 7e-5, below the default floor of 1e-4.
    free = tf.mc_jump_cond(pareto3, 2, 30.0, 5.0, 10**5, seed=5, acceptance_floor=0)
    with pytest.raises(LowAcceptanceError) as info:
        tf.mc_jump_cond(pareto3, 2, 30.0, 5.0, 10**5, seed=5)
    assert info.value.pilot_acceptance == free.accepted / 10**5 == 3e-05


def test_acceptance_check_draws_past_a_short_run(pareto3):
    # A run of N = 1000 still draws 10 / floor tuples for the check (1000
    # draws alone would hold no hit and read 0), and the estimate reads the
    # first N of them.
    with pytest.raises(LowAcceptanceError) as info:
        tf.mc_jump_cond(pareto3, 2, 30.0, 5.0, 1000, seed=5)
    assert info.value.pilot_acceptance == 3e-05
    short = tf.mc_jump_cond(pareto3, 2, 5.0, 1.0, 1000, seed=5)
    free = tf.mc_jump_cond(pareto3, 2, 5.0, 1.0, 1000, seed=5, acceptance_floor=0)
    assert short == free


@pytest.mark.parametrize(
    "n,N", [(2.5, 1000), (True, 1000), (2, 1000.0), (2, False), (2, "1000"), (0, 1000)]
)
def test_refuses_non_integer_counts(exp1, n, N):
    with pytest.raises(ParameterError):
        tf.mc_jump_cond(exp1, n, 5.0, 1.0, N, seed=1)


@pytest.mark.parametrize("seed", [-1, True, 2.0, None], ids=repr)
def test_refuses_a_seed_that_is_no_count(exp1, seed):
    with pytest.raises(ParameterError, match="seed"):
        tf.mc_jump_cond(exp1, 2, 5.0, 1.0, 1000, seed=seed)
    with pytest.raises(ParameterError, match="seed"):
        tf.mc_vs_quadrature(exp1, [(2, 5.0, 1.0)], 1000, seed=seed)


@pytest.mark.parametrize("floor", [math.nan, -1e-4, 1.0, 2.0])
def test_refuses_bad_acceptance_floor(exp1, floor):
    with pytest.raises(ParameterError, match="acceptance floor"):
        tf.mc_jump_cond(exp1, 2, 5.0, 1.0, 1000, seed=1, acceptance_floor=floor)
