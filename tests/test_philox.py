"""ruma.philox against numpy: the key, the blocks, the stream, the arena."""

import math
from itertools import chain
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ruma import ArenaConfig, philox
from ruma.arena import PAGE_SIZE, Arena
from ruma.philox import (
    _LANES,
    _blocks,
    _packed_keys,
    integers_then_tops,
    pick,
    seed_key,
    standard_normal,
    tops,
    words,
)

import oracles


def _numpy_key(seed):
    state = np.random.SeedSequence(seed).generate_state(2, np.uint64)
    return tuple(int(w) for w in state)


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1])
def test_key_is_numpys_seed_sequence_state(seed):
    key = seed_key(seed)
    assert key == _numpy_key(seed)
    assert key == tuple(int(w) for w in np.random.Philox(seed).state["state"]["key"])


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**64 - 1))
def test_key_sweep_matches_numpy(seed):
    assert seed_key(seed) == _numpy_key(seed)


def test_scalar_reference_block_is_numpys():
    key = seed_key(11)
    for counter in (1, 2, 2**64 - 1, 2**64):
        # numpy's Philox adds one to its counter before each block
        theirs = np.random.Philox(counter=counter - 1, key=key[0] | key[1] << 64)
        assert oracles.philox_block(key, counter) == theirs.random_raw(4).tolist()


@pytest.mark.parametrize("first", [1, 5000, 2**64 - _LANES])
@pytest.mark.parametrize("seed", [0, 3, 2**64 - 1])
def test_lane_packed_blocks_match_the_scalar_reference(seed, first):
    key = seed_key(seed)
    batch = _blocks(_packed_keys(key), first)
    words = [
        int.from_bytes(batch[i : i + 8], "little") for i in range(0, len(batch), 8)
    ]
    assert len(words) == 4 * _LANES
    for lane in (0, 1, 2, 511, _LANES - 1):
        assert words[4 * lane : 4 * lane + 4] == oracles.philox_block(key, first + lane)
    theirs = np.random.Philox(counter=first - 1, key=key[0] | key[1] << 64)
    assert words == theirs.random_raw(4 * _LANES).tolist()


@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
def test_raw_words_are_numpys_across_refills(seed):
    batches = words(seed)
    ours = [word for _ in range(4) for word in next(batches)]
    assert ours == np.random.Philox(seed).random_raw(4 * 4 * _LANES).tolist()


@pytest.mark.parametrize(
    "ns",
    [
        [1, 2, 3, 1000],  # 32-bit draws, each after the kept half or a fresh word
        [2**31 + 1, 3 * 2**30],  # 32-bit, rejecting about a half and a quarter
        [2**32, 2**32 + 1, 2**47],  # the last 32-bit width, then 64-bit draws
        [2**63 + 1, 7],  # 64-bit, rejecting about a half, between 32-bit draws
        [2**64, 2**64 - 1],
    ],
    ids=["small", "reject32", "widths", "reject64", "full"],
)
def test_integers_draw_what_numpys_integers_draws(ns):
    raw = chain.from_iterable(words(5)).__next__
    spare = -1
    theirs = np.random.Generator(np.random.Philox(5))
    for step in range(3000):
        n = ns[step % len(ns)]
        value, spare = pick(raw, n, spare)
        assert value == theirs.integers(0, n, dtype=np.uint64), step
    assert (spare >= 0) == theirs.bit_generator.state["has_uint32"]
    assert raw() == theirs.bit_generator.random_raw()  # the same words taken


@pytest.mark.parametrize("bits", [1, 2, 3, 8])
def test_tops_are_numpys_power_of_two_draws(bits):
    # from the start, after a 32-bit draw that keeps a half, and after a
    # 64-bit draw, which keeps none
    for n, kept in ((None, False), (7, True), (2**40 + 3, False)):
        theirs = np.random.Generator(np.random.Philox(9))
        if n is None:
            batches = tops(9)
            head = 2 * 4 * _LANES
        else:
            value, batches = integers_then_tops(9, n)
            assert value == theirs.integers(0, n, dtype=np.uint64)
            assert theirs.bit_generator.state["buffer_pos"] == 1  # one word read
            head = kept + 2 * (4 * _LANES - 1)  # the kept half, then the rest
        assert theirs.bit_generator.state["has_uint32"] == kept
        got = list(next(batches))
        assert len(got) == head, n
        for _ in range(3):  # whole refills, two halves per word
            batch = next(batches)
            assert len(batch) == 2 * 4 * _LANES
            got += batch
        want = theirs.integers(0, 1 << bits, size=len(got)).tolist()
        assert [b >> (8 - bits) for b in got] == want, n


@pytest.mark.parametrize("seed", [0, 1, 3, 2**64 - 1])
def test_standard_normal_is_numpys_ziggurat(seed, monkeypatch):
    # Bit for bit against numpy, so a wrong entry of _KI, _WI or _FI, or a
    # numpy whose stream has changed, fails here. log1p runs only in the
    # tail loop and exp only in the wedge test; each must be reached.
    calls = {"tail": 0, "wedge": 0}

    def log1p(x):
        calls["tail"] += 1
        return math.log1p(x)

    def exp(x):
        calls["wedge"] += 1
        return math.exp(x)

    monkeypatch.setattr(philox, "math", SimpleNamespace(log1p=log1p, exp=exp))
    n = 200_000
    raw = chain.from_iterable(words(seed)).__next__
    ours = [standard_normal(raw) for _ in range(n)]
    theirs = np.random.Generator(np.random.Philox(seed))
    want = theirs.standard_normal(n)
    assert np.array_equal(np.array(ours).view(np.uint64), want.view(np.uint64))
    assert raw() == theirs.bit_generator.random_raw()  # the same words taken
    assert calls["tail"] and calls["wedge"], calls


@pytest.mark.parametrize("address_space_bits", [32, 64])
def test_an_arena_without_randomization_draws_nothing_after_its_base(
    address_space_bits,
):
    config = ArenaConfig(randomize=False, address_space_bits=address_space_bits)
    arena = Arena(config)
    for size in (8, 100, 5000) * 300:
        arena.alloc(size)
    base, offsets, _ = oracles.reference_arena_draws(config, 64)
    assert arena._base == base
    # the offsets the arena would draw next are still numpy's first ones
    # after the base
    assert [arena._next_offset() for _ in offsets] == offsets


# capacities whose base draw Lemire rejects about once in 4096 seeds, with
# a seed where it does: 2**n % (top // PAGE_SIZE) is about top // PAGE_SIZE
_REJECT32 = {"address_space_bits": 32, "arena_capacity": 1040384, "rng_seed": 8301}
_REJECT64 = {
    "address_space_bits": 64, "arena_capacity": 4502500384108544, "rng_seed": 5418
}


@pytest.mark.parametrize(
    ("overrides", "kept", "rejected"),
    [
        ({}, False, False),
        ({"rng_seed": 2**64 - 1, "pointer_width": 4}, False, False),
        ({"arena_capacity": 1 << 47}, False, False),  # the whole 64-bit space
        (_REJECT64, False, True),
        ({"address_space_bits": 32}, True, False),
        ({"address_space_bits": 32, "pointer_width": 4, "rng_seed": 0}, True, False),
        (_REJECT32, False, True),
        ({**_REJECT32, "pointer_width": 4}, False, True),
    ],
    ids=[
        "64", "64-w4", "64-full", "64-reject",
        "32", "32-w4", "32-reject", "32-reject-w4",
    ],
)
def test_arena_draws_numpys_base_and_offsets(overrides, kept, rejected):
    # past 2 * 4096 offsets the arena has refilled from a new batch
    config = ArenaConfig(**overrides)
    base, offsets, state = oracles.reference_arena_draws(config, 20000)
    assert state["has_uint32"] == kept
    if config.address_space_bits == 64:
        assert state["buffer_pos"] == 1 + rejected
    else:
        # a rejected first half makes the draw take the kept one too
        assert state["buffer_pos"] == 1 and kept != rejected
    arena = Arena(config)
    assert arena._base == base
    assert base % PAGE_SIZE == 0
    assert [arena.alloc(8).offset for _ in offsets] == offsets
