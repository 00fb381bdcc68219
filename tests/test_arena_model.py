"""Stateful model test: random operation sequences on an Arena are
checked after every step against a dict of what the live set must be.

The model derives each chunk's class and reserve from the class table and
the request alone, and counts the aligned allocs that succeeded.
Capacities are small, so ``CapacityError`` paths run too, and each refusal
is checked against the free spans: it must leave no room the request could
have taken.

Class runs and large spans share the arena's free pages. A class run takes
the lowest free page, so the runs fill the lowest pages from the base, the
layout that keeps seeded output fixed, until a large span takes the page
just above them; the model checks that layout until then.
"""

from collections import Counter

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from ruma import Arena, ArenaConfig, CapacityError
from ruma.arena import LARGE_CLASS, PAGE_SIZE
from ruma.bsi import BSI_PERIOD

import oracles

SIZES = st.one_of(
    st.integers(0, 120), st.integers(0, 2100), st.integers(2049, 3 * 4096)
)
ALIGNS = st.integers(0, 12).map(lambda k: 1 << k)  # 1 .. the 4096-byte page
# 32-bit arenas of 64 KiB whose range covers a BSI address: in the first
# page (1517, 2000), where the first class run is carved, or in the last
# (1075, 2850), where the first large span is.
BSI_SEEDS = (1075, 1517, 2000, 2850)


class ArenaModel(RuleBasedStateMachine):
    def start(self, config: ArenaConfig) -> None:
        self.arena = Arena(config)
        self.cfg = config
        self.table = self.arena.size_class_table
        self.pad = config.pointer_width if config.randomize else 0
        self.filtered = config.filter_bsi and config.address_space_bits == 32
        self.model = {}  # id -> (requested, class index)
        self.aligned = self.promoted = self.peak = 0
        self.runs_at_base = True  # cleared once a large span holds the next page

    # -- the model's own placement decisions ---------------------------------

    def _class_for(self, size: int, align) -> int:
        for i, cls in enumerate(self.table):
            if cls.max_size >= size and (align is None or cls.stride % align == 0):
                return i
        return LARGE_CLASS

    def _reserved(self, size: int, ci: int) -> int:
        return self.pad + (size if ci == LARGE_CLASS else self.table[ci].max_size)

    def _total_reserved(self) -> int:
        return sum(self._reserved(n, ci) for n, ci in self.model.values())

    def _run_pages(self) -> int:
        per_class = self.arena.stats().per_class
        return sum(
            c["capacity"] // cls.slots_per_run for c, cls in zip(per_class, self.table)
        )

    def _pages(self, size: int) -> int:
        return (size + self.cfg.pointer_width - 1) // PAGE_SIZE + 1

    def _large_spans(self):
        """[start, end) of every live large chunk's pages."""
        for a in self.arena.live_allocations():
            if a.size_class_index == LARGE_CLASS:
                slot = a.start - a.offset
                yield slot, slot + self._pages(a.requested) * PAGE_SIZE

    def _free_spans(self):
        return list(zip(self.arena._starts, self.arena._ends))

    def _check_refusal(self, size: int, align) -> None:
        """A class request is refused only when no free page is left. A
        large one only when no free span holds its pages whole, or in a
        filtered arena, one page more strictly between two consecutive BSI
        addresses, so that some page-aligned slot fits at any offset."""
        spans = self._free_spans()
        if self._class_for(size, align) != LARGE_CLASS:
            assert not spans, f"class request of {size} refused with pages free"
            return
        need = (self._pages(size) + self.filtered) * PAGE_SIZE
        for start, end in spans:
            cuts = [b for b in oracles.BSI_TABLE if start <= b < end and self.filtered]
            parts = zip([start] + [b + 1 for b in cuts], cuts + [end])
            room = max(hi - lo for lo, hi in parts)
            assert room < need, f"{size} bytes refused with {room} free at {start:#x}"

    def _record(self, rec, align) -> None:
        ci = self._class_for(rec.requested, align)
        assert rec.size_class_index == ci
        if align is None:
            assert 0 <= rec.offset < self.cfg.pointer_width
            assert self.cfg.randomize or rec.offset == 0
        else:
            assert rec.offset == 0 and rec.start % align == 0
            self.aligned += 1
            self.promoted += ci != self._class_for(rec.requested, None)
        self.model[rec.id] = (rec.requested, ci)

    def _alloc(self, size: int, align) -> None:
        try:
            rec = self.arena.alloc(size, align=align)
        except CapacityError:
            self._check_refusal(size, align)
            return
        self.peak = max(self.peak, self._total_reserved() + rec.reserved)
        self._record(rec, align)

    # -- operations ------------------------------------------------------------

    @rule(size=SIZES)
    def alloc(self, size):
        self._alloc(size, None)

    @rule(size=SIZES, align=ALIGNS)
    def aligned_alloc(self, size, align):
        self._alloc(size, align)

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def free(self, data):
        alloc_id = data.draw(st.sampled_from(sorted(self.model)))
        self.arena.free(alloc_id)
        del self.model[alloc_id]

    @precondition(lambda self: self.model)
    @rule(data=st.data(), size=SIZES)
    def realloc(self, data, size):
        alloc_id = data.draw(st.sampled_from(sorted(self.model)))
        try:
            rec = self.arena.realloc(alloc_id, size)
        except CapacityError:
            self._check_refusal(size, None)
            return
        self.peak = max(self.peak, self._total_reserved() + rec.reserved)
        del self.model[alloc_id]
        self._record(rec, None)

    # -- invariants ------------------------------------------------------------

    @invariant()
    def live_set_matches_model(self):
        live = self.arena.live_allocations()
        assert {a.id for a in live} == self.model.keys()
        for a in live:
            requested, ci = self.model[a.id]
            assert (a.requested, a.size_class_index) == (requested, ci)
            assert a.reserved == self._reserved(requested, ci)

    @invariant()
    def live_slots_are_disjoint(self):
        # each chunk's whole reserve, which holds its requested bytes, so
        # two zero-byte chunks in one slot are caught too
        slots = sorted(
            (a.start - a.offset, a.start - a.offset + a.reserved)
            for a in self.arena.live_allocations()
        )
        for (s1, e1), (s2, _) in zip(slots, slots[1:]):
            assert e1 <= s2, f"live slots [{s1:#x}, {e1:#x}) and {s2:#x}.. overlap"

    @invariant()
    def border_rules_hold(self):
        cfg = self.cfg
        for a in self.arena.live_allocations():
            guarded = a.requested + cfg.pointer_width
            if guarded <= cfg.cache_line:
                assert not oracles.spans_border(a.start, a.requested, cfg.cache_line)
            elif guarded <= cfg.page_size:
                assert not oracles.spans_border(a.start, a.requested, cfg.page_size)
        c = self.arena.counters
        assert (c.line_rule_violations, c.page_rule_violations) == (0, 0)

    @invariant()
    def stats_match_model(self):
        stats = self.arena.stats()
        assert stats.live_bytes == sum(n for n, _ in self.model.values())
        assert stats.reserved_bytes == self._total_reserved()
        assert self.arena.peak_reserved == self.peak
        per_class = Counter(ci for _, ci in self.model.values())
        assert [c["live"] for c in stats.per_class] == [
            per_class[i] for i in range(len(self.table))
        ]
        assert stats.aligned_allocs == self.aligned
        assert stats.promotions == self.promoted

    @invariant()
    def class_runs_fill_the_lowest_pages(self):
        base = self.arena._base
        top = base + self._run_pages() * PAGE_SIZE
        if self.runs_at_base:
            for a in self.arena.live_allocations():
                if a.size_class_index != LARGE_CLASS:
                    assert base <= a.start < top, f"class chunk {a.start:#x} off the runs"
        usable = self.cfg.arena_capacity // PAGE_SIZE * PAGE_SIZE
        self.runs_at_base = self.runs_at_base and top < base + usable and not any(
            start <= top < end for start, end in self._large_spans()
        )

    @invariant()
    def free_spans_hold_the_pages_nothing_else_holds(self):
        # sorted, never touching, page-aligned and inside the arena; with
        # the class runs and the live large chunks, they hold every page
        base = self.arena._base
        usable = self.cfg.arena_capacity // PAGE_SIZE * PAGE_SIZE
        spans = self._free_spans()
        bounds = [x for span in spans for x in span]
        assert bounds == sorted(set(bounds))
        assert all(x % PAGE_SIZE == 0 and base <= x <= base + usable for x in bounds)
        large = sorted(self._large_spans())
        held = sorted(spans + large)
        for (s1, e1), (s2, _) in zip(held, held[1:]):
            assert e1 <= s2, f"free span and large chunk overlap at {s2:#x}"
        assert sum(e - s for s, e in held) + self._run_pages() * PAGE_SIZE == usable

    @invariant()
    def filtered_spans_miss_bsi(self):
        if not self.filtered:
            return
        for a in self.arena.live_allocations():
            if a.requested < BSI_PERIOD:
                assert not oracles.table_contains(a.start, a.requested)


class DefaultArenaModel(ArenaModel):
    @initialize(seed=st.integers(0, 2**64 - 1), randomize=st.booleans())
    def make_arena(self, seed, randomize):
        self.start(
            ArenaConfig(arena_capacity=1 << 17, rng_seed=seed, randomize=randomize)
        )

    @precondition(lambda self: self.runs_at_base)
    @rule()
    def freed_large_spans_merge(self):
        # freed, the large spans rejoin the pages above the runs as one span
        for alloc_id, (_, ci) in list(self.model.items()):
            if ci == LARGE_CLASS:
                self.arena.free(alloc_id)
                del self.model[alloc_id]
        pages = self.cfg.arena_capacity // PAGE_SIZE - self._run_pages()
        if pages:
            rec = self.arena.alloc(pages * PAGE_SIZE - self.cfg.pointer_width)
            self.peak = max(self.peak, self._total_reserved() + rec.reserved)
            self._record(rec, None)


class FilteredArenaModel(ArenaModel):
    @initialize(seed=st.sampled_from(BSI_SEEDS))
    def make_arena(self, seed):
        self.start(
            ArenaConfig(
                address_space_bits=32, filter_bsi=True,
                arena_capacity=1 << 16, rng_seed=seed,
            )
        )
        assert oracles.table_contains(self.arena._base, 1 << 16), (
            "the arena must cover a BSI address"
        )


_SETTINGS = settings(max_examples=100, stateful_step_count=50, deadline=None)
DefaultArenaModel.TestCase.settings = _SETTINGS
FilteredArenaModel.TestCase.settings = _SETTINGS
TestDefaultArenaModel = DefaultArenaModel.TestCase
TestFilteredArenaModel = FilteredArenaModel.TestCase
