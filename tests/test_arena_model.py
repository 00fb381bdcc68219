"""Stateful model test: random operation sequences on a backed Arena are
checked after every step against a dict of what the live set must be.

The model derives each chunk's class and reserve from the class table and
the request alone, keeps the bytes it wrote, and counts the aligned allocs
that succeeded. Capacities are small, so ``CapacityError`` paths run too.
"""

import random
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
from ruma.arena import LARGE_CLASS
from ruma.bsi import BSI_PERIOD

import oracles

SIZES = st.one_of(
    st.integers(0, 120), st.integers(0, 2100), st.integers(2049, 3 * 4096)
)
ALIGNS = st.integers(0, 12).map(lambda k: 1 << k)  # 1 .. the 4096-byte page
PAYLOAD_SEEDS = st.integers(0, 2**32 - 1)
# 32-bit arenas of 64 KiB whose range covers a BSI address: in the first
# page (1517, 2000), where class runs are carved, or in the last (1075,
# 2850), where large spans are.
BSI_SEEDS = (1075, 1517, 2000, 2850)


def _payload(seed: int, n: int) -> bytes:
    return random.Random(seed).randbytes(n)


class ArenaModel(RuleBasedStateMachine):
    def start(self, config: ArenaConfig) -> None:
        self.arena = Arena(config, backed=True)
        self.cfg = config
        self.table = self.arena.size_class_table
        self.pad = config.pointer_width if config.randomize else 0
        self.model = {}  # id -> (requested, class index, bytes)
        self.aligned = self.promoted = self.peak = 0

    # -- the model's own placement decisions ---------------------------------

    def _class_for(self, size: int, align) -> int:
        for i, cls in enumerate(self.table):
            if cls.max_size >= size and (align is None or cls.stride % align == 0):
                return i
        return LARGE_CLASS

    def _reserved(self, size: int, ci: int) -> int:
        return self.pad + (size if ci == LARGE_CLASS else self.table[ci].max_size)

    def _total_reserved(self) -> int:
        return sum(self._reserved(n, ci) for n, ci, _ in self.model.values())

    def _record(self, rec, align, seed: int) -> None:
        ci = self._class_for(rec.requested, align)
        assert rec.size_class_index == ci
        if align is None:
            assert 0 <= rec.offset < self.cfg.pointer_width
            assert self.cfg.randomize or rec.offset == 0
        else:
            assert rec.offset == 0 and rec.start % align == 0
            self.aligned += 1
            self.promoted += ci != self._class_for(rec.requested, None)
        data = _payload(seed, rec.requested)
        self.arena.write(rec.id, data)
        self.model[rec.id] = (rec.requested, ci, data)

    def _alloc(self, size: int, align, seed: int) -> None:
        try:
            rec = self.arena.alloc(size, align=align)
        except CapacityError:
            return
        self.peak = max(self.peak, self._total_reserved() + rec.reserved)
        self._record(rec, align, seed)

    # -- operations ------------------------------------------------------------

    @rule(size=SIZES, seed=PAYLOAD_SEEDS)
    def alloc(self, size, seed):
        self._alloc(size, None, seed)

    @rule(size=SIZES, align=ALIGNS, seed=PAYLOAD_SEEDS)
    def aligned_alloc(self, size, align, seed):
        self._alloc(size, align, seed)

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def free(self, data):
        alloc_id = data.draw(st.sampled_from(sorted(self.model)))
        self.arena.free(alloc_id)
        del self.model[alloc_id]

    @precondition(lambda self: self.model)
    @rule(data=st.data(), size=SIZES, seed=PAYLOAD_SEEDS)
    def realloc(self, data, size, seed):
        alloc_id = data.draw(st.sampled_from(sorted(self.model)))
        try:
            rec = self.arena.realloc(alloc_id, size)
        except CapacityError:
            return
        self.peak = max(self.peak, self._total_reserved() + rec.reserved)
        old = self.model.pop(alloc_id)[2]
        kept = min(len(old), size)
        assert self.arena.read(rec.id, kept) == old[:kept]
        self._record(rec, None, seed)

    @precondition(lambda self: self.model)
    @rule(data=st.data(), seed=PAYLOAD_SEEDS)
    def write(self, data, seed):
        alloc_id = data.draw(st.sampled_from(sorted(self.model)))
        requested, ci, old = self.model[alloc_id]
        at = data.draw(st.integers(0, requested))
        chunk = _payload(seed, data.draw(st.integers(0, requested - at)))
        self.arena.write(alloc_id, chunk, at)
        self.model[alloc_id] = (requested, ci, old[:at] + chunk + old[at + len(chunk):])

    # -- invariants ------------------------------------------------------------

    @invariant()
    def live_set_matches_model(self):
        live = self.arena.live_allocations()
        assert {a.id for a in live} == self.model.keys()
        for a in live:
            requested, ci, data = self.model[a.id]
            assert (a.requested, a.size_class_index) == (requested, ci)
            assert a.reserved == self._reserved(requested, ci)
            assert self.arena.read(a.id, requested) == data

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
        assert stats.live_bytes == sum(n for n, _, _ in self.model.values())
        assert stats.reserved_bytes == self._total_reserved()
        assert self.arena.peak_reserved == self.peak
        per_class = Counter(ci for _, ci, _ in self.model.values())
        assert [c["live"] for c in stats.per_class] == [
            per_class[i] for i in range(len(self.table))
        ]
        assert stats.aligned_allocs == self.aligned
        assert stats.promotions == self.promoted

    @invariant()
    def filtered_spans_miss_bsi(self):
        if not (self.cfg.filter_bsi and self.cfg.address_space_bits == 32):
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


class FilteredArenaModel(ArenaModel):
    @initialize(seed=st.sampled_from(BSI_SEEDS))
    def make_arena(self, seed):
        self.start(
            ArenaConfig(
                address_space_bits=32, filter_bsi=True,
                arena_capacity=1 << 16, rng_seed=seed,
            )
        )
        assert oracles.table_contains(self.arena.base, 1 << 16), (
            "the arena must cover a BSI address"
        )


_SETTINGS = settings(max_examples=100, stateful_step_count=50, deadline=None)
DefaultArenaModel.TestCase.settings = _SETTINGS
FilteredArenaModel.TestCase.settings = _SETTINGS
TestDefaultArenaModel = DefaultArenaModel.TestCase
TestFilteredArenaModel = FilteredArenaModel.TestCase
