"""Spray attack model: shift reads, exact probabilities, sampling, intervals."""

import itertools
import os
import platform
import random
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binomtest

from ruma import native, philox
from ruma import spray as spray_module
from ruma.spray import (
    AttackScenario,
    SprayPattern,
    _match_table,
    _wilson,
    chained_success,
    monte_carlo,
    read_at_shift,
)

import oracles
from conftest import needs_cc

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


def test_records_are_immutable_values():
    sc = AttackScenario(
        pointer_width=8, granularity=1, chain_length=2,
        pattern=SprayPattern(value=0xDEADBEEFCAFEBABE, width=8),
    )
    assert sc == scenario(width=8, g=1, k=2) and hash(sc) == hash(scenario(k=2))
    assert sc != scenario(width=8, g=1, k=3)
    for record, name in ((sc, "chain_length"), (sc.pattern, "value")):
        with pytest.raises(AttributeError):
            setattr(record, name, 1)
    result = monte_carlo(sc, 10, seed=1)
    assert result == monte_carlo(sc, 10, seed=1)
    with pytest.raises(AttributeError):
        result.successes = 0


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


@pytest.mark.parametrize("width", [4, 8])
@pytest.mark.parametrize(
    "value, periods",
    [
        (GENERIC64.value, {8: 8, 4: 4}),
        (0x1234567812345678, {8: 4, 4: 4}),
        (HALF64.value, {8: 2, 4: 2}),
        (BSI64.value, {8: 1, 4: 1}),
    ],
)
def test_matching_shift_indices_are_the_multiples_of_q(width, value, periods):
    # the samplers' field rule: shift index t reads the value back exactly
    # when q, the byte period in shift-index units, divides t
    pattern = SprayPattern(value & ((1 << 8 * width) - 1), width)
    for g in (1, 2, 4, 8):
        if g <= width:
            sc = scenario(width=width, g=g, pattern=pattern)
            q = max(1, periods[width] // g)
            states = width // g
            assert _match_table(sc) == [t % q == 0 for t in range(states)], g


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


NATIVE_KERNEL = native.compiled


def use_source(monkeypatch, source, halves):
    """Make ``monte_carlo`` draw a run of ``halves`` halves from ``source``:
    ruma.philox ("philox"), the compiled kernel ("native", when it builds)
    or numpy's raw words ("numpy", as on a host without a compiler)."""
    monkeypatch.setattr(
        spray_module, "_PYTHON_HALVES", halves if source == "philox" else 0
    )
    monkeypatch.setattr(
        native, "compiled", NATIVE_KERNEL if source == "native" else lambda: None
    )


SOURCES = ("philox", "native", "numpy")


@pytest.fixture
def each_source(monkeypatch):
    """``run(sc, trials, seed)`` samples once from each source of the one
    stream, in the order of ``SOURCES``, and returns the three successes."""

    def run(sc, trials, seed):
        got = []
        for source in SOURCES:
            use_source(monkeypatch, source, trials * sc.chain_length)
            got.append(monte_carlo(sc, trials, seed).successes)
        return got

    return run


@needs_cc
def test_the_kernel_builds_where_there_is_a_compiler():
    # otherwise "native" in each_source would quietly be numpy again
    assert callable(NATIVE_KERNEL().spray_successes)


ORACLE_GRID = [
    (width, g, pattern)
    for width, patterns in ((4, (GENERIC32,)), (8, (GENERIC64, HALF64)))
    for g in (1, 2, 4, 8)
    if g <= width
    for pattern in patterns
]


@pytest.mark.parametrize("k", [1, 2, 3, 7, 1000])
@pytest.mark.parametrize("width, g, pattern", ORACLE_GRID)
def test_monte_carlo_counts_the_chains_of_one_stream(
    monkeypatch, each_source, width, g, pattern, k
):
    # batches a few chains long, and a trial count that ends mid-batch
    monkeypatch.setattr(spray_module, "_BATCH_HALVES", 3000)
    sc = scenario(width=width, g=g, k=k, pattern=pattern)
    trials = 2 * max(1, 3000 // k) + 1
    expected = oracles.reference_monte_carlo(sc, trials, k)
    assert each_source(sc, trials, k) == [expected] * 3


@pytest.mark.parametrize("k", [1, 2, 3, 7, 1000])
def test_monte_carlo_counts_the_chains_across_full_batches(each_source, k):
    # the real batch size, ending one chain into a further batch
    sc = scenario(width=8, g=4, k=k)  # one stage in two reads the value back
    trials = 1_000_000 // k + 1
    expected = oracles.reference_monte_carlo(sc, trials, 5)
    assert each_source(sc, trials, 5) == [expected] * 3


@pytest.mark.parametrize("width, g, pattern", ORACLE_GRID)
def test_monte_carlo_carries_the_kept_half_across_batches(
    monkeypatch, each_source, width, g, pattern
):
    # three chains of three stages a batch: 9 halves, so every other batch
    # starts on the high half the batch before it kept
    monkeypatch.setattr(spray_module, "_BATCH_HALVES", 9)
    sc = scenario(width=width, g=g, k=3, pattern=pattern)
    assert each_source(sc, 40, 3) == [oracles.reference_monte_carlo(sc, 40, 3)] * 3


def test_monte_carlo_counts_chains_longer_than_a_batch(each_source):
    # one chain a batch, one half longer than the real batch, so each
    # batch ends on a kept half; a stage reads the value back at one
    # shift in four or at all four
    for pattern, expected in ((GENERIC64, 0), (HALF64, 5)):
        sc = scenario(width=8, g=2, k=131_073, pattern=pattern)
        assert oracles.reference_monte_carlo(sc, 5, 13) == expected
        assert each_source(sc, 5, 13) == [expected] * 3


def test_monte_carlo_memory_stays_in_cache_sized_batches(monkeypatch):
    # numpy reports its buffers to tracemalloc; the first call of each
    # source only warms up that source's imports and library, which are
    # not the sampler's memory
    sc = scenario(width=8, g=1, k=2)
    for source in SOURCES:
        use_source(monkeypatch, source, 2 * 10**6)
        monte_carlo(sc, 1, seed=1)
        tracemalloc.start()
        try:
            monte_carlo(sc, 10**6, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20, source


def test_an_odd_chain_holds_no_more_than_an_even_one(monkeypatch):
    # At an odd chain every other batch begins on the kept half of the one
    # before; it is tested on its own, so the batch is not copied to put
    # the half in front. One chain a batch: 3.8 MiB of drawn halves each.
    use_source(monkeypatch, "numpy", 0)
    peaks = []
    for k in (10**6, 10**6 - 1):
        sc = scenario(width=8, g=1, k=k)
        monte_carlo(sc, 1, seed=9)  # warms up numpy's import
        tracemalloc.start()
        try:
            monte_carlo(sc, 3, seed=9)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < peaks[0] + 2**18, peaks


def test_monte_carlo_counts_million_stage_chains(each_source):
    # a million stages: one chain per batch
    for g, expected in ((4, 0), (8, 3)):
        sc = scenario(width=8, g=g, k=1_000_000)
        assert oracles.reference_monte_carlo(sc, 3, 9) == expected
        assert each_source(sc, 3, 9) == [expected] * 3


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize(
    "width, g, pattern",
    [(8, 1, BSI64), (8, 2, HALF64), (8, 8, GENERIC64), (4, 4, GENERIC32)],
    ids=["bsi64-g1", "half64-g2", "generic64-g8", "generic32-g4"],
)
def test_a_run_where_every_shift_reads_back_draws_nothing(
    monkeypatch, width, g, pattern, k
):
    def no_draws(seed):
        raise AssertionError("drew from Philox")

    monkeypatch.setattr(philox, "_batches", no_draws)
    monkeypatch.setattr(np.random, "Philox", no_draws)
    monkeypatch.setattr(native, "compiled", no_draws)
    sc = scenario(width=width, g=g, k=k, pattern=pattern)
    for trials in (spray_module._PYTHON_HALVES // k, spray_module._PYTHON_HALVES + 1):
        result = monte_carlo(sc, trials, seed=1)
        assert result.successes == trials == result.trials


def stage_field(sc):
    """The bits a stage's half must have clear to read the value back: the
    low bits of its shift index (the top log2(states) bits of the half),
    below the spacing of the matching shifts."""
    matches = _match_table(sc)
    spacing = len(matches) // sum(matches)
    return (spacing - 1) << (32 - (len(matches).bit_length() - 1))


SAMPLERS = ("_python_successes", "_native_successes", "_numpy_successes")


@pytest.mark.parametrize(
    "extra, source",
    [(0, "_python_successes"), (1, "_native_successes"), (1, "_numpy_successes")],
)
def test_monte_carlo_draws_from_philox_up_to_the_threshold(monkeypatch, extra, source):
    # exactly _PYTHON_HALVES halves come from ruma.philox; one more from
    # the compiled kernel, or from numpy where the kernel cannot be built
    if source == "_numpy_successes":
        monkeypatch.setattr(native, "compiled", lambda: None)
    elif source == "_native_successes" and NATIVE_KERNEL() is None:
        pytest.skip("no compiled kernel without cc")
    calls = []
    for name in SAMPLERS:
        sampler = getattr(spray_module, name)
        monkeypatch.setattr(
            spray_module, name,
            lambda *args, name=name, sampler=sampler: (
                calls.append(name) or sampler(*args)
            ),
        )
    sc = scenario(width=8, g=1, k=1)
    trials = spray_module._PYTHON_HALVES + extra
    expected = oracles.reference_monte_carlo(sc, trials, 4)
    assert monte_carlo(sc, trials, seed=4).successes == expected
    assert calls == [source]


def test_monte_carlo_takes_numpy_when_the_halves_pass_63_bits(monkeypatch):
    # the kernel counts halves in 64-bit ints, and a run of 2**63 halves
    # or more is left to numpy (stubbed here: nobody draws that many)
    calls = []
    monkeypatch.setattr(
        spray_module, "_native_successes", lambda *args: calls.append("native") or 0
    )
    monkeypatch.setattr(
        spray_module, "_numpy_successes", lambda *args: calls.append("numpy") or 0
    )
    for trials, source in ((2**62 - 1, "native"), (2**62, "numpy")):
        calls.clear()
        assert monte_carlo(scenario(k=2), trials, seed=1).successes == 0
        assert calls == [source] or NATIVE_KERNEL() is None


@pytest.mark.parametrize("k", [1, 2, 3, 9])
@pytest.mark.parametrize("width, g, pattern", ORACLE_GRID)
def test_the_kernel_counts_what_the_oracle_and_numpy_count(
    monkeypatch, width, g, pattern, k
):
    # calls of 7 chains, so an odd chain's calls start on high halves too
    monkeypatch.setattr(spray_module, "_NATIVE_CHAINS", 7)
    kernel = NATIVE_KERNEL()
    if kernel is None:
        pytest.skip("no compiled kernel without cc")
    sc = scenario(width=width, g=g, k=k, pattern=pattern)
    field = stage_field(sc)
    for seed in (0, 1, 2**64 - 1):
        trials = 600 + seed % 7
        expected = oracles.reference_monte_carlo(sc, trials, seed)
        assert spray_module._native_successes(kernel, field, k, trials, seed) == (
            expected
        ), seed
        assert spray_module._numpy_successes(field, k, trials, seed) == expected


@needs_cc
def test_the_kernel_restarts_on_a_high_half_between_calls():
    # an odd chain over three calls of the real size: the second call
    # starts on a word's high half, the third on a low one
    k, chains = 3, spray_module._NATIVE_CHAINS
    assert chains * k % 2 == 1
    sc = scenario(width=8, g=2, k=k)  # one shift in four reads back
    field = stage_field(sc)
    assert field == 3 << 30
    trials = 2 * chains + 1001
    kernel = NATIVE_KERNEL()
    got = spray_module._native_successes(kernel, field, k, trials, 11)
    assert got == spray_module._numpy_successes(field, k, trials, 11)
    assert monte_carlo(sc, trials, seed=11).successes == got


@needs_cc
@pytest.mark.parametrize("k", range(1, 10))
def test_the_kernel_counts_odd_sized_calls_of_each_short_chain(monkeypatch, k):
    # calls of an odd 100,003 chains, so that calls start and end inside a
    # block and inside a group of 8 blocks (at an odd k, on high halves
    # too): where the CPU has the vector path, it takes chains of up to 8
    # halves, and hands each call's tail to the scalar loop
    monkeypatch.setattr(spray_module, "_NATIVE_CHAINS", 100_003)
    sc = scenario(width=8, g=4, k=k)  # one stage in two reads the value back
    field = stage_field(sc)
    trials = 2 * 100_003 + 4321
    expected = oracles.reference_monte_carlo(sc, trials, 21)
    kernel = NATIVE_KERNEL()
    assert spray_module._native_successes(kernel, field, k, trials, 21) == expected
    assert spray_module._numpy_successes(field, k, trials, 21) == expected


@needs_cc
def test_the_vector_and_scalar_samplers_count_alike():
    # a call of fewer than 64 chains stays on the scalar loop, and chains
    # are judged at fixed places in the stream, so one call counts what
    # the same range counts in calls of at most 63 chains. Every chain
    # length the vector path takes and one it does not, calls of a few
    # chains to a few thousand from anywhere in the stream, and the
    # fields monte_carlo passes beside two that test low bits
    kernel = NATIVE_KERNEL()
    if kernel.sampler() == "scalar":
        pytest.skip("this CPU takes the scalar loop alone")
    fields = [1 << 31, 1 << 30, 3 << 30, 1 << 29, 3 << 29, 7 << 29, 1, 0x80000001]
    rng = random.Random(37)
    for _ in range(3000):
        k = rng.randint(1, 9)
        first = rng.randrange(1 << 24)
        first -= first % 2 if k % 2 == 0 else 0  # an even chain starts on a word
        chains = rng.choice((rng.randrange(20), rng.randrange(400), rng.randrange(5000)))
        k0, k1, field = rng.getrandbits(64), rng.getrandbits(64), rng.choice(fields)
        scalar = sum(
            kernel.spray_successes(k0, k1, first + start * k, min(63, chains - start), k, field)
            for start in range(0, chains, 63)
        )
        args = (k0, k1, first, chains, k, field)
        assert kernel.spray_successes(*args) == scalar, args


@needs_cc
def test_the_sampler_takes_the_vector_path_where_the_cpu_has_it():
    sampler = NATIVE_KERNEL().sampler()
    if platform.machine() != "x86_64" or sys.maxsize < 2**32:
        assert sampler == "scalar"  # the vector path is not compiled
        return
    if not os.path.exists("/proc/cpuinfo"):
        pytest.skip("no /proc/cpuinfo to read the CPU's flags from")
    # Linux lists avx512f only where it saves the ZMM state too
    with open("/proc/cpuinfo", encoding="utf-8") as handle:
        flags = next(line for line in handle if line.startswith("flags")).split()
    vector = "avx512f" in flags and "popcnt" in flags
    assert sampler == ("avx512f" if vector else "scalar")


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
def test_monte_carlo_successes_are_pinned(each_source, sc, trials, seed, successes):
    assert each_source(sc, trials, seed) == [successes] * 3


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
