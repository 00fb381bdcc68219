"""Spray attack model: shift reads, exact probabilities, sampling, intervals."""

import itertools
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binomtest

from ruma import spray as spray_module
from ruma.spray import (
    AttackScenario,
    SprayPattern,
    _wilson,
    chained_success,
    monte_carlo,
    read_at_shift,
)

import oracles

GENERIC64 = SprayPattern(0xDEADBEEFCAFEBABE, 8)
GENERIC32 = SprayPattern(0xCAFEBABE, 4)
BSI64 = SprayPattern(0x9797979797979797, 8)
HALF64 = SprayPattern(0x3534353435343534, 8)  # two-byte period


def scenario(width=8, g=1, k=1, pattern=None):
    pattern = pattern or (GENERIC64 if width == 8 else GENERIC32)
    return AttackScenario(width, g, k, pattern)


# -- read_at_shift -----------------------------------------------------------


def test_zero_shift_is_identity():
    assert read_at_shift(GENERIC64, 0) == GENERIC64.value


def test_bsi_pattern_reads_same_at_every_shift():
    for s in range(8):
        assert read_at_shift(BSI64, s) == BSI64.value


def test_shift_one_is_a_byte_rotation():
    got = read_at_shift(GENERIC64, 1)
    assert got == oracles.rotate_right_bytes(GENERIC64.value, 8, 1)
    # and built directly from the repeated byte buffer
    buf = GENERIC64.data * 2
    assert got == int.from_bytes(buf[1:9], "little")


@settings(max_examples=200, deadline=None)
@given(value=st.integers(0, (1 << 64) - 1), shift=st.integers(0, 7))
def test_read_matches_rotation_arithmetic(value, shift):
    pattern = SprayPattern(value, 8)
    assert read_at_shift(pattern, shift) == oracles.rotate_right_bytes(value, 8, shift)


@settings(max_examples=100, deadline=None)
@given(value=st.integers(0, (1 << 32) - 1), shift=st.integers(0, 3))
def test_read_is_periodic(value, shift):
    pattern = SprayPattern(value, 4)
    buf = pattern.data * 3
    wrapped = int.from_bytes(buf[shift + 4 : shift + 8], "little")
    assert read_at_shift(pattern, shift) == wrapped


def test_shift_bounds():
    with pytest.raises(ValueError):
        read_at_shift(GENERIC64, 8)
    with pytest.raises(ValueError):
        read_at_shift(GENERIC64, -1)


def test_pattern_validation():
    with pytest.raises(ValueError):
        SprayPattern(1 << 32, 4)
    with pytest.raises(ValueError):
        SprayPattern(1, 3)


def test_scenario_names_a_bad_pointer_width():
    with pytest.raises(ValueError, match="^pointer_width must be 4 or 8, got 2$"):
        AttackScenario(pointer_width=2, granularity=1, chain_length=1,
                       pattern=SprayPattern(0, 4))


def test_shift_outcome_enumeration_is_complete():
    shifts = list(scenario(width=8, g=1).shifts)
    assert shifts == list(range(8))
    reads = [read_at_shift(GENERIC64, s) for s in shifts]
    assert reads[0] == GENERIC64.value
    assert len(set(reads)) == 8  # every byte rotation of a generic value differs


# -- exact probabilities ------------------------------------------------------


def test_single_deref_generic_patterns():
    assert chained_success(scenario(width=8, g=1)) == 0.125
    assert chained_success(scenario(width=4, g=1)) == 0.25


def test_word_granularity_always_succeeds():
    assert chained_success(scenario(width=8, g=8)) == 1.0
    assert chained_success(scenario(width=8, g=8, pattern=BSI64)) == 1.0


def test_bsi_pattern_defeats_byte_granularity():
    assert chained_success(scenario(width=8, g=1, pattern=BSI64)) == 1.0


def test_half_period_pattern_survives_half_the_shifts():
    pattern = SprayPattern(0x35343534, 4)  # two-byte period
    assert chained_success(scenario(width=4, g=1, pattern=pattern)) == 0.5


def test_match_count_times_states_is_integral():
    for g in (1, 2, 4, 8):
        for pattern in (GENERIC64, BSI64, SprayPattern(0x3534353435343534, 8)):
            sc = scenario(width=8, g=g, pattern=pattern)
            p = chained_success(sc)
            assert (p * (8 // g)) == int(p * (8 // g))


@settings(max_examples=150, deadline=None)
@given(value=st.integers(0, (1 << 64) - 1))
def test_monotone_in_granularity(value):
    pattern = SprayPattern(value, 8)
    probs = [
        chained_success(scenario(width=8, g=g, pattern=pattern))
        for g in (8, 4, 2, 1)
    ]
    assert all(a >= b for a, b in zip(probs, probs[1:]))


@settings(max_examples=150, deadline=None)
@given(value=st.integers(0, (1 << 64) - 1))
def test_success_one_iff_all_bytes_equal(value):
    pattern = SprayPattern(value, 8)
    p = chained_success(scenario(width=8, g=1, pattern=pattern))
    # every shift reads the same word exactly when all its bytes are equal
    all_bytes_equal = len(set(value.to_bytes(8, "little"))) == 1
    assert (p == 1.0) == all_bytes_equal


def test_chained_matches_literal_tuple_enumeration():
    # independent oracle: walk every shift tuple with raw buffer reads
    sc = scenario(width=4, g=1, k=2)
    good = 0
    for tup in itertools.product(range(4), repeat=2):
        if all(read_at_shift(GENERIC32, s) == GENERIC32.value for s in tup):
            good += 1
    assert chained_success(sc) == good / 16 == 0.0625


def test_chained_mixed_pattern_enumeration():
    pattern = SprayPattern(0x35343534, 4)
    sc = scenario(width=4, g=1, k=3, pattern=pattern)
    good = sum(
        all(read_at_shift(pattern, s) == pattern.value for s in tup)
        for tup in itertools.product(range(4), repeat=3)
    )
    assert chained_success(sc) == good / 64 == 0.125


def test_chained_decay_and_sub_one_percent():
    for k in range(1, 6):
        assert chained_success(scenario(width=4, g=1, k=k)) == 0.25**k
        assert chained_success(scenario(width=8, g=1, k=k)) == 0.125**k
    assert chained_success(scenario(width=4, g=1, k=4)) < 0.01


def test_long_chain_closed_form():
    assert chained_success(scenario(width=8, g=1, k=31)) == 0.125**31


@pytest.mark.parametrize("k", [1, 2, 3, 7, 53, 1000, 10**6])
def test_chained_success_is_the_rounded_fraction_power(k, monkeypatch):
    # int/int true division is correctly rounded, so m**k / n**k is the
    # float nearest (m/n)**k for every share m/n of matching shifts
    for n in (1, 2, 4, 8):
        for m in range(n + 1):
            table = [True] * m + [False] * (n - m)
            monkeypatch.setattr(spray_module, "_match_table", lambda sc: table)
            got = chained_success(scenario(width=8, g=8 // n, k=k))
            assert got == float(Fraction(m, n) ** k), (m, n)


def test_scenario_validation():
    with pytest.raises(ValueError):
        scenario(width=8, g=3)
    with pytest.raises(ValueError):
        scenario(width=8, g=1, k=0)
    with pytest.raises(ValueError):
        AttackScenario(8, 1, 1, GENERIC32)


# -- Monte Carlo --------------------------------------------------------------


def test_monte_carlo_brackets_exact():
    sc = scenario(width=8, g=1, k=1)
    result = monte_carlo(sc, 200_000, seed=11)
    assert result.ci_low <= 0.125 <= result.ci_high
    assert abs(result.estimate - 0.125) < 0.005


def test_monte_carlo_deterministic_success():
    result = monte_carlo(scenario(width=4, g=4, k=3), 1000, seed=1)
    assert result.estimate == 1.0 == result.ci_high
    assert result.successes == 1000


def test_monte_carlo_seed_reproducible():
    sc = scenario(width=4, g=1, k=2)
    a = monte_carlo(sc, 50_000, seed=77)
    b = monte_carlo(sc, 50_000, seed=77)
    c = monte_carlo(sc, 50_000, seed=78)
    assert a == b
    assert a != c


def test_monte_carlo_validates_trials():
    with pytest.raises(ValueError):
        monte_carlo(scenario(), 0, seed=1)
    with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
        monte_carlo(scenario(), 10, seed=-1)


ORACLE_GRID = [
    (width, g, pattern)
    for width, patterns in ((4, (GENERIC32,)), (8, (GENERIC64, HALF64)))
    for g in (1, 2, 4, 8)
    if g <= width
    for pattern in patterns
]


@pytest.mark.parametrize("k", [1, 2, 3, 7, 1000])
@pytest.mark.parametrize("width, g, pattern", ORACLE_GRID)
def test_monte_carlo_counts_the_chains_of_one_stream(monkeypatch, width, g, pattern, k):
    # batches a few chains long, and a trial count that ends mid-batch
    monkeypatch.setattr(spray_module, "_BATCH_HALVES", 3000)
    sc = scenario(width=width, g=g, k=k, pattern=pattern)
    trials = 2 * max(1, 3000 // k) + 1
    expected = oracles.reference_monte_carlo(sc, trials, k)
    assert monte_carlo(sc, trials, seed=k).successes == expected


@pytest.mark.parametrize("k", [1, 2, 3, 7, 1000])
def test_monte_carlo_counts_the_chains_across_full_batches(k):
    # the real batch size, ending one chain into a further batch
    sc = scenario(width=8, g=4, k=k)  # one stage in two reads the value back
    trials = 1_000_000 // k + 1
    expected = oracles.reference_monte_carlo(sc, trials, 5)
    assert monte_carlo(sc, trials, seed=5).successes == expected


@pytest.mark.parametrize("width, g, pattern", ORACLE_GRID)
def test_monte_carlo_carries_the_kept_half_across_batches(monkeypatch, width, g, pattern):
    # three chains of three stages a batch: 9 halves, so every other batch
    # starts on the high half the batch before it kept
    monkeypatch.setattr(spray_module, "_BATCH_HALVES", 9)
    sc = scenario(width=width, g=g, k=3, pattern=pattern)
    assert monte_carlo(sc, 40, seed=3).successes == oracles.reference_monte_carlo(sc, 40, 3)


def test_monte_carlo_counts_chains_longer_than_a_batch():
    # one chain a batch, one half longer than the real batch, so each
    # batch ends on a kept half; a stage reads the value back at one
    # shift in four or at all four
    for pattern, expected in ((GENERIC64, 0), (HALF64, 5)):
        sc = scenario(width=8, g=2, k=131_073, pattern=pattern)
        result = monte_carlo(sc, 5, seed=13)
        assert result.successes == oracles.reference_monte_carlo(sc, 5, 13) == expected


def test_monte_carlo_memory_stays_in_cache_sized_batches():
    # numpy reports its buffers to tracemalloc; the first call only warms
    # up numpy.random's import, which is not the sampler's memory
    sc = scenario(width=8, g=1, k=2)
    monte_carlo(sc, 1, seed=1)
    tracemalloc.start()
    try:
        monte_carlo(sc, 10**6, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_monte_carlo_counts_million_stage_chains():
    # a million stages: one chain per batch
    for g, expected in ((4, 0), (8, 3)):
        sc = scenario(width=8, g=g, k=1_000_000)
        result = monte_carlo(sc, 3, seed=9)
        assert result.successes == oracles.reference_monte_carlo(sc, 3, 9) == expected


@pytest.mark.parametrize(
    "sc, trials, seed, successes",
    [
        # the benchmark's tradeoff scenario, at a tenth of its trials
        (scenario(width=8, g=1, k=2), 1_000_000, 1, 15706),
        (scenario(width=4, g=1, k=3, pattern=SprayPattern(0x35343534, 4)),
         1_234_567, 7, 153845),
        (scenario(width=8, g=1, k=7, pattern=HALF64), 1_000_003, 3, 7862),
    ],
)
def test_monte_carlo_successes_are_pinned(sc, trials, seed, successes):
    assert monte_carlo(sc, trials, seed).successes == successes


# -- Wilson interval ----------------------------------------------------------


def _scipy_wilson(k, n):
    ci = binomtest(k, n).proportion_ci(confidence_level=0.99, method="wilson")
    return float(ci.low), float(ci.high)


def test_wilson_matches_scipy_bit_for_bit():
    for n in (1, 2, 3, 7, 8, 64, 1000, 99_991, 10**7, 2**40 + 5):
        for k in sorted({0, 1, n // 8, n // 3, n // 2, n - 1, n}):
            assert _wilson(k, n) == _scipy_wilson(k, n), (k, n)


def test_monte_carlo_interval_matches_scipy_at_the_edges():
    # granularity equal to the width always succeeds; a 31-stage chain
    # at 0.125 per stage never does in 1000 trials
    for sc, successes in [(scenario(width=4, g=4, k=3), 1000), (scenario(k=31), 0)]:
        result = monte_carlo(sc, 1000, seed=5)
        assert result.successes == successes
        assert (result.ci_low, result.ci_high) == _scipy_wilson(successes, 1000)
