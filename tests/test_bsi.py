"""Byte-shift-independent address detection against brute-force oracles."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ruma.bsi import (
    BSI_PERIOD,
    is_bsi_address,
    range_contains_bsi,
    range_contains_bsi_counted,
)

import oracles
from test_arena import _arena_with_bsi_slot


def test_all_bytes_equal_is_bsi():
    assert is_bsi_address(0x35353535)
    assert is_bsi_address(0x00000000)
    assert is_bsi_address(0xFFFFFFFF)


def test_half_period_is_not_bsi_by_default():
    assert not is_bsi_address(0x35343534)
    assert is_bsi_address(0x35343534, strict=True)
    # strict mode still reports plain repeated-byte values
    assert is_bsi_address(0x97979797, strict=True)


def test_is_bsi_matches_byte_equality_enumeration():
    expected = set(oracles.BSI_TABLE)
    hits = {a for a in expected if is_bsi_address(a)}
    assert hits == expected
    # spot-check negatives around each table entry
    for a in oracles.BSI_TABLE[1:-1]:
        assert not is_bsi_address(a - 1)
        assert not is_bsi_address(a + 1)


def test_strict_matches_halfword_enumeration_sample():
    rng = random.Random(9)
    sample = rng.sample(oracles.HALF_TABLE, 500)
    for a in sample:
        assert is_bsi_address(a, strict=True)


def test_address_bounds_checked():
    with pytest.raises(ValueError):
        is_bsi_address(1 << 32)
    with pytest.raises(ValueError):
        is_bsi_address(-1)


def test_range_start_bounds_checked():
    with pytest.raises(ValueError, match="^not a 32-bit address: 0x100000000$"):
        range_contains_bsi(1 << 32, 1)


def test_range_examples_by_brute_scan():
    assert range_contains_bsi(0x12121210, 8)
    assert oracles.scan_contains_bsi(0x12121210, 8)
    assert not range_contains_bsi(0x12121213, 4)
    assert not oracles.scan_contains_bsi(0x12121213, 4)


def test_empty_range_contains_nothing():
    assert not range_contains_bsi(0x12121212, 0)


def test_pigeonhole_full_period_always_contains():
    for start in (0x0, 0x1234, 0x10000000, 0xFE000000):
        if start + BSI_PERIOD <= 1 << 32:
            assert range_contains_bsi(start, BSI_PERIOD)


def test_wraparound_rejected():
    with pytest.raises(ValueError):
        range_contains_bsi(0xFFFFFFFF, 2)
    with pytest.raises(ValueError):
        range_contains_bsi(0x10, -1)


def test_range_at_top_of_space():
    assert range_contains_bsi(0xFFFFFF00, 0x100)  # covers 0xFFFFFFFF
    assert not range_contains_bsi(0xFF000000, 0x10000)


def test_oracles_agree_with_each_other():
    # the scalable table oracle is itself validated against the literal
    # per-address scan before being trusted in bulk comparisons
    rng = random.Random(1)
    for _ in range(2000):
        start = rng.randrange(0, 1 << 32)
        length = rng.randrange(0, 1 << 12)
        if start + length > 1 << 32:
            continue
        assert oracles.scan_contains_bsi(start, length) == oracles.table_contains(
            start, length
        )


@settings(max_examples=300, deadline=None)
@given(
    start=st.integers(0, (1 << 32) - 1),
    length=st.integers(0, 1 << 16),
)
def test_stepping_matches_table_oracle(start, length):
    if start + length > 1 << 32:
        length = (1 << 32) - start
    hit, checked = range_contains_bsi_counted(start, length)
    assert hit == oracles.table_contains(start, length)
    assert checked == (length > 0)
    hit, checked = range_contains_bsi_counted(start, length, strict=True)
    assert hit == oracles.table_contains(start, length, oracles.HALF_TABLE)
    assert checked == (length > 0)


def test_strict_range_detects_halfword_values():
    assert range_contains_bsi(0x35343530, 8, strict=True)
    assert not range_contains_bsi(0x35343530, 4, strict=True)
    assert not range_contains_bsi(0x35343530, 8)


def test_candidate_count_small_ranges_at_most_two():
    rng = random.Random(3)
    for _ in range(5000):
        start = rng.randrange(0, (1 << 32) - (1 << 16))
        length = rng.randrange(0, 1 << 16)
        _, checked = range_contains_bsi_counted(start, length)
        assert checked == (length > 0)


def _check_span(start, length, expected):
    assert range_contains_bsi(start, length) == expected
    assert oracles.scan_contains_bsi(start, length) == expected


def test_slot_verdict_modes():
    # a filtered 32-bit arena withholds a slot exactly when its outgoing
    # span covers a BSI address
    _check_span(0x97979790, 0x20, True)
    _check_span(0x97979790, 0x4, False)
    # the slot whose 512-byte span covers a BSI address is tested and
    # withheld with the filter on, and handed out untested with it off
    for filter_bsi in (True, False):
        arena, addr = _arena_with_bsi_slot(filter_bsi=filter_bsi)
        bsi_slot = addr - (addr - arena._base) % 1024
        recs = [arena.alloc(512) for _ in range((addr - arena._base) // 1024 + 1)]
        handed_out = bsi_slot in [r.start - r.offset for r in recs]
        assert handed_out != filter_bsi
        assert (arena.counters.bsi_span_checks, arena.counters.bsi_quarantined) == (
            (1, 1) if filter_bsi else (0, 0)
        )


def test_slot_verdict_tests_the_outgoing_span_not_the_slot():
    # 0x35353535 sits 0x35 bytes into this slot: a request span stopping
    # just short of it is clean, one byte more and the slot is withheld
    _check_span(0x35353500, 0x35, False)
    _check_span(0x35353500, 0x36, True)
    _check_span(0x35353500, 0x40, True)
