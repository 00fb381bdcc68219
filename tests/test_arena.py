"""Arena placement, lifecycle, and accounting contracts."""

import dataclasses
import random
from bisect import bisect_left

import pytest
from scipy.stats import chisquare

from ruma import Arena, ArenaConfig, CapacityError, ConfigError, HandleError
from ruma import arena as arena_module, membench
from ruma.arena import CACHE_LINE, LARGE_CLASS, PAGE_SIZE, build_class_table
from ruma.bsi import BSI_PERIOD

import oracles


def make_arena(**overrides):
    return Arena(ArenaConfig(**overrides))


# -- configuration ---------------------------------------------------------


def test_default_config_creates_empty_arena():
    arena = make_arena()
    assert len(arena.live_allocations()) == 0
    stats = arena.stats()
    assert stats.live_bytes == 0
    assert stats.overhead_ratio == 1.0
    assert stats.line_straddles == 0 and stats.page_straddles == 0


@pytest.mark.parametrize(
    "overrides",
    [
        {"pointer_width": 16},
        {"arena_capacity": 0},
        {"arena_capacity": -5},
        {"address_space_bits": 48},
        {"address_space_bits": 32, "arena_capacity": 1 << 32},
        {"rng_seed": -1},
    ],
)
def test_bad_configs_rejected(overrides):
    with pytest.raises(ConfigError):
        ArenaConfig(**overrides).validate()


def test_capacity_beyond_user_space_draws_the_base_from_the_full_space():
    # 2**47 bytes leave no page-aligned base below the 47-bit user space
    capacity = 1 << 47
    base = make_arena(arena_capacity=capacity)._base
    assert base % PAGE_SIZE == 0
    assert base >= 1 << 47
    assert base + capacity <= (1 << 64) - PAGE_SIZE


def test_config_file_round_trip(tmp_path):
    text = (
        "pointer_width = 4\n"
        "randomize = off\n"
        "filter_bsi = true\n"
        "address_space_bits = 32\n"
        "rng_seed = 99\n"
        "arena_capacity = 1048576\n"
        "# trailing comment\n"
    )
    path = tmp_path / "arena.cfg"
    path.write_text(text, encoding="utf-8")
    cfg = ArenaConfig.from_file(path)
    assert cfg.pointer_width == 4
    assert cfg.randomize is False
    assert cfg.filter_bsi is True
    assert cfg.address_space_bits == 32
    assert cfg.rng_seed == 99
    assert cfg.arena_capacity == 1 << 20


@pytest.mark.parametrize(
    "text",
    [
        "bogus_key = 3\n",
        "pointer_width 8\n",
        "randomize = maybe\n",
        "page_size = big\n",
        "rng_seed = 1\nrng_seed = 2\n",
        "cache_line = 64\n",
        "page_size = 4096\n",
    ],
)
def test_config_file_errors(text):
    with pytest.raises(ConfigError):
        ArenaConfig.from_text(text)


def test_config_file_names_a_bad_integer():
    with pytest.raises(ConfigError, match="^line 1: bad integer 'x'$"):
        ArenaConfig.from_text("pointer_width = x\n")


def test_geometry_is_fixed_and_read_only():
    cfg = ArenaConfig()
    assert cfg.cache_line == CACHE_LINE == 64
    assert cfg.page_size == PAGE_SIZE == 4096
    with pytest.raises(TypeError):
        ArenaConfig(cache_line=128)
    assert len(dataclasses.fields(ArenaConfig)) == 6
    # one definition: 4096 is past CPython's small-int cache, so a second
    # ``PAGE_SIZE = 4096`` in membench would be another object
    assert membench.CACHE_LINE is arena_module.CACHE_LINE
    assert membench.PAGE_SIZE is arena_module.PAGE_SIZE


# -- size class table ------------------------------------------------------


def test_default_ladder_shape():
    table = build_class_table(8)
    assert [c.max_size for c in table] == [
        16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512, 768, 1024, 1536, 2048,
    ]


@pytest.mark.parametrize("ptr", [4, 8])
def test_alloc_class_matches_a_bisect_oracle(ptr):
    arena = make_arena(pointer_width=ptr)
    maxes = [c.max_size for c in arena.size_class_table]
    for size in range(PAGE_SIZE + 2):
        i = bisect_left(maxes, size)  # the first class whose max covers size
        expected = i if i < len(maxes) else LARGE_CLASS
        assert arena.alloc(size).size_class_index == expected, size


def test_table_invariants():
    line, page = CACHE_LINE, PAGE_SIZE
    for ptr in (4, 8):
        table = build_class_table(ptr)
        maxes = [c.max_size for c in table]
        assert maxes == sorted(set(maxes)), "classes strictly increasing"
        assert maxes[-1] == page // 2
        for cls in table:
            assert cls.stride >= cls.max_size + ptr
            assert cls.slots_per_run == page // cls.stride >= 1
            if cls.max_size + ptr <= line:
                assert line % cls.stride == 0, "small class stride divides the line"
            else:
                assert page % cls.stride == 0, "medium class stride divides the page"
            # no slot in a page-aligned run straddles the border that matters
            border = line if cls.max_size + ptr <= line else page
            for k in range(cls.slots_per_run):
                lo = k * cls.stride
                hi = lo + cls.max_size + ptr - 1
                assert lo // border == hi // border


# -- placement rules -------------------------------------------------------


def test_small_alloc_stays_inside_one_line():
    arena = make_arena(rng_seed=11)
    for _ in range(500):
        rec = arena.alloc(24)
        assert not oracles.spans_border(rec.start, rec.requested, 64)


def test_medium_alloc_stays_inside_one_page():
    arena = make_arena(rng_seed=12)
    for _ in range(500):
        rec = arena.alloc(200)
        assert not oracles.spans_border(rec.start, rec.requested, 4096)


def test_band_above_half_page_still_page_safe():
    # sizes too big for the ladder but whose reserve fits a page
    arena = make_arena(rng_seed=13)
    for size in (2049, 3000, 4000, 4088):
        rec = arena.alloc(size)
        assert rec.size_class_index == LARGE_CLASS
        assert not oracles.spans_border(rec.start, rec.requested, 4096)


def test_huge_alloc_has_no_border_guarantee_but_lives():
    arena = make_arena(rng_seed=14)
    rec = arena.alloc(3 * 4096)
    assert rec.size_class_index == LARGE_CLASS
    assert rec.requested == 3 * 4096


def test_offsets_uniform_for_first_alloc_across_seeds():
    starts = {make_arena(rng_seed=s).alloc(24).start % 8 for s in range(200)}
    assert starts == set(range(8))


def test_zero_size_alloc_gets_smallest_class_slot():
    arena = make_arena(rng_seed=15)
    rec = arena.alloc(0)
    assert rec.requested == 0
    assert rec.size_class_index == 0
    assert len(arena.live_allocations()) == 1
    other = arena.alloc(0)
    assert rec.id != other.id


def test_reserved_accounts_for_pad_and_class_rounding():
    arena = make_arena(rng_seed=16)
    rec = arena.alloc(24)
    assert rec.reserved == 24 + 8  # class max 24 plus the pad
    rec2 = arena.alloc(17)
    assert rec2.reserved == 24 + 8  # rounded up to the 24-byte class
    off = make_arena(randomize=False, rng_seed=16).alloc(24)
    assert off.reserved == 24


def test_baseline_mode_is_word_aligned_and_unpadded():
    arena = make_arena(randomize=False, rng_seed=17)
    for size in (1, 24, 100, 3000):
        rec = arena.alloc(size)
        assert rec.start % 8 == 0
        assert rec.offset == 0


def test_determinism_same_seed_same_addresses():
    def addresses(seed):
        arena = make_arena(rng_seed=seed)
        out = []
        ids = []
        for i in range(300):
            rec = arena.alloc((i * 7) % 300)
            out.append(rec.start)
            ids.append(rec.id)
            if i % 3 == 2:
                arena.free(ids.pop(0))
        return out

    assert addresses(5) == addresses(5)
    assert addresses(5) != addresses(6)


def test_alignment_requests_exempt_from_randomization():
    arena = make_arena(rng_seed=18)
    rec = arena.alloc(100, align=512)
    assert rec.start % 512 == 0
    assert rec.offset == 0
    stats = arena.stats()
    assert stats.aligned_allocs == 1
    assert stats.promotions >= 1  # 100 naturally lands in a 256-stride class
    page = arena.config.page_size
    rec = arena.alloc(24, align=page)  # only the last class has a page stride
    assert rec.start % page == 0
    assert rec.size_class_index == len(arena.size_class_table) - 1
    assert arena.stats().promotions == stats.promotions + 1
    with pytest.raises(ValueError):
        arena.alloc(8, align=3)
    with pytest.raises(ValueError):
        arena.alloc(8, align=8192)


def test_failed_aligned_alloc_is_not_counted():
    arena = make_arena(arena_capacity=1 << 16, rng_seed=1)
    for _ in range(16):
        arena.alloc(3000)  # one large page each fills the arena
    for align in (512, 4096):
        with pytest.raises(CapacityError):
            arena.alloc(100, align=align)
    stats = arena.stats()
    assert (stats.aligned_allocs, stats.promotions) == (0, 0)


# -- lifecycle -------------------------------------------------------------


def test_free_returns_slot_and_redraws_offset():
    arena = make_arena(rng_seed=19)
    first = arena.alloc(24)
    slot = first.start - first.offset
    arena.free(first.id)
    offsets = set()
    for _ in range(300):
        again = arena.alloc(24)
        assert again.start - again.offset == slot, "LIFO reuse of the freed slot"
        offsets.add(again.offset)
        arena.free(again.id)
    assert offsets == set(range(8)), "fresh draw on every reuse"


def test_free_errors():
    arena = make_arena(rng_seed=20)
    rec = arena.alloc(16)
    arena.free(rec.id)
    with pytest.raises(HandleError):
        arena.free(rec.id)
    with pytest.raises(HandleError):
        arena.free(424242)


def test_realloc_moves_and_consumes_old_handle():
    arena = make_arena(rng_seed=21)
    rec = arena.alloc(24)
    new = arena.realloc(rec.id, 24)
    assert new.requested == 24
    assert new.id != rec.id
    with pytest.raises(HandleError):
        arena.free(rec.id)
    bigger = arena.realloc(new.id, 200)
    assert not oracles.spans_border(bigger.start, 200, 4096)
    with pytest.raises(HandleError):
        arena.realloc(new.id, 8)
    assert arena.counters.total_allocs == 3, "a dead handle allocates nothing"


def test_realloc_returns_an_ordinary_randomized_chunk():
    # like C realloc of memalign'd memory: the alignment is not carried over
    arena = make_arena(rng_seed=1)
    rec = arena.alloc(100, align=64)
    assert rec.start % 64 == 0
    new = arena.realloc(rec.id, 200)
    assert new.start % arena.config.pointer_width == new.offset
    assert arena.counters.aligned_allocs == 1


def test_alloc_rejects_bad_sizes():
    arena = make_arena()
    with pytest.raises(ValueError):
        arena.alloc(-1)
    with pytest.raises(ValueError):
        arena.alloc("lots")


def test_capacity_exhaustion_is_not_a_config_error():
    arena = make_arena(arena_capacity=1 << 16, rng_seed=22)
    with pytest.raises(CapacityError):
        for _ in range(100):
            arena.alloc(4096 * 4)


def test_freed_pages_serve_other_classes():
    arena = make_arena(arena_capacity=1 << 20, rng_seed=1)
    try:
        ids = [arena.alloc(4000).id for _ in range(256)]
    except CapacityError as exc:
        pytest.fail(f"filling the arena with one-page chunks failed: {exc}")
    for alloc_id in ids:
        arena.free(alloc_id)
    assert arena.alloc(24).requested == 24


def test_a_growing_chunk_reuses_its_freed_pages():
    # the shape of a perl run: one buffer realloc'd a page larger at a time,
    # with a small chunk beside it each step; unless each freed span merges
    # with its neighbours, 4 MiB runs out before the buffer reaches 257 pages
    arena = make_arena(arena_capacity=1 << 22, rng_seed=1)
    rec = arena.alloc(PAGE_SIZE - 8)
    for pages in range(2, 258):
        arena.alloc(48)
        rec = arena.realloc(rec.id, pages * PAGE_SIZE - 8)
    assert arena.stats().reserved_bytes == 257 * PAGE_SIZE + 256 * 56 == 1_067_008


@pytest.mark.parametrize("capacity", [1, PAGE_SIZE // 2, PAGE_SIZE - 1])
def test_an_arena_under_one_page_refuses_every_carve(capacity):
    arena = make_arena(arena_capacity=capacity, rng_seed=1)
    for size in (0, 24, 2048, 3000, 2 * PAGE_SIZE):
        with pytest.raises(CapacityError):
            arena.alloc(size)
    with pytest.raises(CapacityError):
        arena.alloc(8, align=PAGE_SIZE)
    assert arena.live_allocations() == []


# -- randomized operation property ------------------------------------------


def test_random_ops_keep_invariants():
    arena = make_arena(rng_seed=23, arena_capacity=1 << 28)
    cfg = arena.config
    rng = random.Random(23)
    live = []
    for step in range(20_000):
        action = rng.random()
        if action < 0.55 or not live:
            rec = arena.alloc(rng.randrange(0, 5000))
            live.append(rec)
        elif action < 0.85:
            victim = live.pop(rng.randrange(len(live)))
            arena.free(victim.id)
        else:
            victim = live.pop(rng.randrange(len(live)))
            live.append(arena.realloc(victim.id, rng.randrange(0, 5000)))
        if step % 2500 == 0:
            oracles.assert_live_disjoint(arena.live_allocations())
    live = arena.live_allocations()
    oracles.assert_live_disjoint(live)
    assert arena.counters.line_rule_violations == 0
    assert arena.counters.page_rule_violations == 0
    stats = arena.stats()
    for border, straddles in (
        (cfg.cache_line, stats.line_straddles),
        (cfg.page_size, stats.page_straddles),
    ):
        assert straddles == sum(
            oracles.spans_border(a.start, a.requested, border) for a in live
        ) > 0
    for rec in live:
        guarded = rec.requested + cfg.pointer_width
        if guarded <= cfg.cache_line:
            assert not oracles.spans_border(rec.start, rec.requested, cfg.cache_line)
        elif guarded <= cfg.page_size:
            assert not oracles.spans_border(rec.start, rec.requested, cfg.page_size)


def test_spans_border_matches_the_oracle():
    for border in (CACHE_LINE, PAGE_SIZE):
        for start in range(border - 70, border + 70):
            for size in range(140):
                assert arena_module._spans_border(
                    start, size, border
                ) == oracles.spans_border(start, size, border), (start, size)


@pytest.mark.parametrize(
    "size, at, violations, straddles",
    [(24, 56, (1, 0), (1, 0)), (200, 4000, (0, 1), (1, 1))],
    ids=["line", "page"],
)
def test_border_rule_violations_are_counted(monkeypatch, size, at, violations, straddles):
    # force the chunk across the one border its size is guaranteed to avoid
    arena = make_arena(randomize=False, rng_seed=35)
    monkeypatch.setattr(arena, "_carve_run", lambda *_: arena._base + at)
    arena.alloc(size)
    c = arena.counters
    assert (c.line_rule_violations, c.page_rule_violations) == violations
    stats = arena.stats()
    assert (stats.line_straddles, stats.page_straddles) == straddles


def test_offset_histogram_chi_square():
    arena = make_arena(rng_seed=24)
    for _ in range(20_000):
        rec = arena.alloc(24)
        arena.free(rec.id)
    hist = arena.stats().offset_histogram
    assert sum(hist) == 20_000
    assert chisquare(hist).pvalue > 0.001


# -- stats -----------------------------------------------------------------


def test_stats_recomputed_from_allocation_list():
    arena = make_arena(rng_seed=25)
    for _ in range(1000):
        arena.alloc(24)
    stats = arena.stats()
    live = arena.live_allocations()
    assert stats.line_straddles == sum(
        oracles.spans_border(a.start, a.requested, 64) for a in live
    ) == 0
    assert all(a.reserved >= a.requested + 8 for a in live)
    assert stats.live_bytes == sum(a.requested for a in live)
    assert stats.reserved_bytes == sum(a.reserved for a in live)
    assert stats.overhead_ratio == pytest.approx(
        sum(a.reserved for a in live) / sum(a.requested for a in live)
    )
    by_class = {c["max_size"]: c for c in stats.per_class}
    assert by_class[24]["live"] == 1000
    assert by_class[24]["capacity"] >= 1000


def test_stats_dict_shape(schemas):
    import jsonschema

    stats = make_arena(rng_seed=26).stats()
    jsonschema.validate(stats.as_dict(), schemas["replay_stats"])


# -- 32-bit filtering --------------------------------------------------------


def test_filtered_arena_never_spans_bsi():
    # the slot holding a BSI address is withheld first, so the random mix
    # runs against a live quarantine
    arena, addr = _arena_with_bsi_slot()
    live = _withhold_bsi_slot(arena)
    assert arena._quarantine[_CLASS_512] == [addr - (addr - arena._base) % 1024]
    rng = random.Random(31)
    for _ in range(4000):
        if rng.random() < 0.7 or not live:
            rec = arena.alloc(rng.randrange(1, 3000))
            assert not oracles.table_contains(rec.start, rec.requested)
            live.append(rec.id)
        else:
            arena.free(live.pop(rng.randrange(len(live))))


def _arena_with_bsi_slot(
    window=1 << 21, stride=1024, lo=448, hi=512, *, filter_bsi=True
):
    """Find a seed whose arena base parks a repeated-byte address early in
    the run area, at a slot-relative position inside [lo, hi)."""
    for seed in range(5000):
        arena = make_arena(
            address_space_bits=32, filter_bsi=filter_bsi,
            arena_capacity=1 << 25, rng_seed=seed,
        )
        i = bisect_left(oracles.BSI_TABLE, arena._base)
        if i == len(oracles.BSI_TABLE):
            continue
        addr = oracles.BSI_TABLE[i]
        if addr < arena._base + window and lo <= (addr - arena._base) % stride < hi:
            return arena, addr
    raise AssertionError("no seed parked the arena over a usable BSI address")


_CLASS_512 = arena_module._CLASS_OF[512]  # 1024-byte strides


def _withhold_bsi_slot(arena):
    """Allocate 512 bytes until the filter withholds a slot; return the ids."""
    ids = []
    while not arena.counters.bsi_quarantined:
        ids.append(arena.alloc(512).id)
    return ids


def test_filter_quarantines_and_reuses_slots():
    # 512-byte requests use 1024-byte strides, so the slot holding the BSI
    # address must be withheld from them but may serve shorter requests
    arena, addr = _arena_with_bsi_slot()
    bsi_slot = addr - (addr - arena._base) % 1024
    slot_index = (addr - arena._base) // 1024
    live = [arena.alloc(512) for _ in range(slot_index + 4)]
    assert arena.counters.bsi_quarantined >= 1
    for rec in live:
        assert not oracles.table_contains(rec.start, rec.requested)
        assert rec.start - rec.offset != bsi_slot
    # a shorter same-class request whose span stops before the address
    # gets the withheld slot back
    reuse = arena.alloc(385)
    assert reuse.start - reuse.offset == bsi_slot
    assert not oracles.table_contains(reuse.start, reuse.requested)


def test_filter_tests_a_slot_whose_reserve_ends_on_a_bsi_address():
    # 24-byte requests get 32-byte slots with an 8-byte pad: the address is
    # the last pad byte of one slot, which no chunk there covers, yet that
    # slot still goes to the counted span test, while slots with no address
    # in their reserve go out untested, a freshly carved run's first included
    arena, addr = _arena_with_bsi_slot(stride=32, lo=31, hi=32)
    target = addr - 31
    for _ in range((addr - arena._base) // PAGE_SIZE):
        arena.alloc(2048)  # one page per slot, all below the address's page
    # the page's slots go out in address order, the run's first one carved
    for slot in range(target - target % PAGE_SIZE, target + 1, 32):
        checks = arena.counters.bsi_span_checks
        rec = arena.alloc(24)
        assert rec.start - rec.offset == slot
        tested = slot == target
        assert arena.counters.bsi_span_checks - checks == tested, hex(slot)
    assert rec.start + rec.requested <= addr
    assert arena.counters.bsi_quarantined == 0


def test_filter_tests_only_the_withheld_slot_once_it_is_withheld():
    # the slots after the withheld one hold no BSI address in their reserve,
    # freshly carved runs included, and every 512-byte span of the withheld
    # slot covers its address, so no alloc tests anything
    arena, _ = _arena_with_bsi_slot()
    _withhold_bsi_slot(arena)
    for _ in range(8):  # carves two fresh runs of four slots
        checks = arena.counters.bsi_span_checks
        arena.alloc(512)
        assert arena.counters.bsi_span_checks - checks == 0
    assert arena.counters.bsi_quarantined == 1


def test_filter_passes_over_a_withheld_slot_only_while_its_span_covers_the_address():
    # randomize off puts every span at its slot's start; the base, drawn
    # before any offset, is the randomized arena's
    arena, addr = _arena_with_bsi_slot()
    arena = Arena(dataclasses.replace(arena.config, randomize=False))
    _withhold_bsi_slot(arena)
    (slot,) = arena._quarantine[_CLASS_512]
    reach = addr - slot  # a request this long stops just short of the address
    checks = arena.counters.bsi_span_checks
    assert arena.alloc(reach + 1).start != slot
    assert arena.counters.bsi_span_checks == checks  # passed over untested
    assert arena.alloc(reach).start == slot
    assert arena.counters.bsi_span_checks == checks + 1


def test_filter_exempts_spans_of_a_full_bsi_period():
    # every span this long covers a BSI address, so no placement could pass
    arena = make_arena(address_space_bits=32, filter_bsi=True, rng_seed=34)
    rec = arena.alloc(BSI_PERIOD)
    assert arena.counters.bsi_span_checks == 0
    assert oracles.table_contains(rec.start, rec.requested)


def _arena_with_bsi_in_page_11():
    # seed 2293 puts a BSI address 2907 bytes into page 11 of 16
    return make_arena(
        address_space_bits=32, pointer_width=4, filter_bsi=True,
        arena_capacity=16 * PAGE_SIZE, rng_seed=2293,
    )


def test_a_large_span_moves_below_the_bsi_address_it_would_cover():
    # the fifth one-page span, carved from the top, would cover the address,
    # so it moves down to page 10, and page 11 stays free
    arena = _arena_with_bsi_in_page_11()
    ids = []
    while not arena.counters.bsi_quarantined:
        ids.append(arena.alloc(3000).id)
    fifth = arena.live_allocations()[-1]
    assert len(ids) == 5
    assert fifth.start - fifth.offset == arena._base + 10 * PAGE_SIZE
    for alloc_id in ids:
        arena.free(alloc_id)
    # a 2048-byte chunk's run fills a page, and its span ends before the
    # address, so every page of the emptied arena could serve one
    for _ in range(16):
        arena.alloc(2048)


def test_a_large_request_fails_only_when_every_free_page_covers_its_bsi_address():
    # filled with 3000-byte chunks, the arena keeps only page 11 free, which
    # covers the address at every offset, so the last request fails
    arena = _arena_with_bsi_in_page_11()
    chunks = [arena.alloc(3000) for _ in range(15)]
    assert {c.start - c.offset for c in chunks} == {
        arena._base + page * PAGE_SIZE for page in range(16) if page != 11
    }
    with pytest.raises(CapacityError, match="exhausted carving 1 pages"):
        arena.alloc(3000)
    # a freed page serves the next request
    arena.free(chunks[0].id)
    again = arena.alloc(3000)
    assert again.start - again.offset == chunks[0].start - chunks[0].offset


@pytest.mark.parametrize("size", [15 << 20, 16 << 20, (16 << 20) + PAGE_SIZE])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_a_gap_between_bsi_addresses_serves_a_large_chunk(size, seed):
    # each 16.06 MiB gap between BSI addresses holds one such chunk, and a
    # 1 GiB arena spans about 64 gaps
    arena = make_arena(
        address_space_bits=32, pointer_width=4, filter_bsi=True,
        arena_capacity=1 << 30, rng_seed=seed,
    )
    chunks = [arena.alloc(size) for _ in range(16)]
    assert arena.counters.bsi_quarantined > 0
    for rec in chunks:
        assert not oracles.table_contains(rec.start, rec.requested)
    oracles.assert_live_disjoint(chunks)


def test_filter_off_never_checks():
    arena = make_arena(address_space_bits=32, filter_bsi=False, rng_seed=32)
    for _ in range(100):
        arena.alloc(100)
    assert arena.counters.bsi_span_checks == 0


def test_filter_inactive_in_64_bit_mode():
    arena = make_arena(address_space_bits=64, filter_bsi=True, rng_seed=33)
    for _ in range(100):
        arena.alloc(100)
    assert arena.counters.bsi_span_checks == 0
