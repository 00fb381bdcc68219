"""Size-class arena allocator with byte-granularity address randomization.

Every chunk is reserved ``pointer_width`` extra bytes and starts at a
uniformly random offset of 0..pointer_width-1 inside its slot, so chunk
addresses carry no predictable word alignment. Slot strides are powers of
two sized to the class reserve, so they divide the cache line (small
classes) or the page (medium classes): by construction no chunk whose
reserve fits a cache line spans a line border, and no chunk whose reserve
fits a page spans a page border. Class runs and larger requests share one
pool of free page spans. A class run takes the lowest free page and stays
bound to its class. A request too big for the class pools takes the top
pages of the highest free span that fits it, with the random offset applied
and no border handling beyond that; freeing it returns its pages to the
pool, merged with their free neighbours.

A 32-bit arena with ``filter_bsi`` hands out no chunk that covers a
byte-shift-independent address (see :mod:`ruma.bsi`). A class slot whose
outgoing span would cover one is withheld, and tested again only for a span
that does not cover its BSI address. A large chunk that would cover a BSI
address ``b`` moves down instead, to the highest page-aligned slot whose
chunk ends at or below ``b``, in the same free span and then in the lower
ones; the pages it passes over stay free. So a large request fails only
when no free span has room for it between two BSI addresses. Spans of
``BSI_PERIOD`` bytes or more are exempt and never checked: every such span
covers one, so no placement could pass the filter. Any candidate slot,
freed or fresh, with no BSI address in its reserve is handed out untested.

All randomness comes from numpy's ``Generator(Philox(rng_seed))`` stream,
computed in pure Python by :func:`ruma.philox.integers_then_tops`, so an
arena imports no numpy. The base is that stream's first draw,
``integers(0, n)``, and each offset the top ``log2(pointer_width)`` bits
of its next 32-bit half, which is what ``integers(0, pointer_width)``
draws, read off the half's top byte by one 256-byte table.

An arena manages a purely virtual address range and never touches real
memory, which makes 32-bit address space experiments cheap inside a
64-bit process.

Concurrency contract: an arena has a single logical owner. Operations on
one arena must be externally serialized; distinct arenas are fully
independent. Nothing here locks.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import asdict, dataclass
from itertools import chain
from pathlib import Path

from .bsi import BSI_PERIOD, range_contains_bsi_counted
from .errors import CapacityError, ConfigError, HandleError, check_seed
from .philox import integers_then_tops

__all__ = [
    "Allocation",
    "Arena",
    "ArenaConfig",
    "ArenaCounters",
    "LARGE_CLASS",
    "ReplayStats",
    "SizeClass",
    "build_class_table",
]

LARGE_CLASS = -1  # size_class_index of chunks served outside the class pools
CACHE_LINE = 64  # the one geometry the border rules and ruma.membench model
PAGE_SIZE = 4096

_USER_SPACE_BITS = 47  # 64-bit base addresses are drawn below this, like user space


def _is_pow2(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


def _next_pow2(n: int) -> int:
    return 1 if n <= 1 else 1 << (n - 1).bit_length()


def _spans_border(start: int, size: int, border: int) -> bool:
    # the last byte of a non-empty span lies past the next border
    return start % border + size > border


def _base_pages(cfg) -> int:
    """How many bases an arena of ``cfg`` draws from: its base is
    ``PAGE_SIZE * (1 + integers(0, pages))``, below 2**47 if it fits."""
    space = 1 << min(cfg.address_space_bits, _USER_SPACE_BITS)
    if cfg.arena_capacity + 2 * PAGE_SIZE > space:
        space = 1 << cfg.address_space_bits
    return (space - cfg.arena_capacity - PAGE_SIZE) // PAGE_SIZE


_BOOL_WORDS = {
    "true": True, "false": False, "on": True, "off": False,
    "yes": True, "no": False, "1": True, "0": False,
}


@dataclass(frozen=True)
class ArenaConfig:
    """Arena construction parameters.

    The same fields, with the same names, form the flat ``key=value``
    config file format accepted by :meth:`from_file`.
    """

    # read-only geometry, not fields: no constructor or config file sets them
    cache_line = CACHE_LINE
    page_size = PAGE_SIZE
    pointer_width: int = 8
    randomize: bool = True
    filter_bsi: bool = False
    address_space_bits: int = 64
    rng_seed: int = 1
    arena_capacity: int = 1 << 26

    def validate(self) -> None:
        if self.pointer_width not in (4, 8):
            raise ConfigError(f"pointer_width must be 4 or 8, got {self.pointer_width}")
        if self.address_space_bits not in (32, 64):
            raise ConfigError(
                f"address_space_bits must be 32 or 64, got {self.address_space_bits}"
            )
        try:
            check_seed(self.rng_seed)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if self.arena_capacity <= 0:
            raise ConfigError("arena_capacity must be positive")
        # Room is needed for a page-aligned base strictly inside the space.
        if self.arena_capacity + 2 * PAGE_SIZE > 1 << self.address_space_bits:
            raise ConfigError(
                f"arena_capacity {self.arena_capacity} does not fit a "
                f"{self.address_space_bits}-bit address space"
            )

    @classmethod
    def from_text(cls, text: str) -> "ArenaConfig":
        """Parse the flat key=value config format ('#' starts a comment)."""
        bool_keys = {"randomize", "filter_bsi"}
        known = {f for f in cls.__dataclass_fields__}
        values = {}
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, val = line.partition("=")
            if not sep:
                raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
            key, val = key.strip(), val.strip()
            if key not in known:
                raise ConfigError(f"line {lineno}: unknown key {key!r}")
            if key in values:
                raise ConfigError(f"line {lineno}: duplicate key {key!r}")
            if key in bool_keys:
                try:
                    values[key] = _BOOL_WORDS[val.lower()]
                except KeyError:
                    raise ConfigError(f"line {lineno}: bad boolean {val!r}") from None
            else:
                try:
                    values[key] = int(val, 0)
                except ValueError:
                    raise ConfigError(f"line {lineno}: bad integer {val!r}") from None
        return cls(**values)

    @classmethod
    def from_file(cls, path) -> "ArenaConfig":
        return cls.from_text(Path(path).read_text(encoding="utf-8"))


@dataclass(frozen=True)
class SizeClass:
    max_size: int  # largest request served by this class
    stride: int  # slot spacing inside a run; a power of two
    slots_per_run: int  # runs are one page


_LARGEST_CLASS = PAGE_SIZE // 2


def _ladder() -> list:
    """Class maxima 16, 24, 32, 48, ... up to PAGE_SIZE/2."""
    maxes = []
    base = 16
    while base <= _LARGEST_CLASS:
        maxes.append(base)
        if base + base // 2 <= _LARGEST_CLASS:
            maxes.append(base + base // 2)
        base *= 2
    return maxes


_CLASS_MAXES = _ladder()
# _CLASS_OF[size] is the class serving a request of 0.._LARGEST_CLASS bytes:
# the first class whose max_size covers it
_CLASS_OF = [
    i
    for i, (below, top) in enumerate(zip([-1, *_CLASS_MAXES], _CLASS_MAXES))
    for _ in range(below + 1, top + 1)
]


def _large_pages(size: int, pointer_width: int) -> int:
    """Pages a large chunk takes. The pad is always counted, so that
    randomize on and off keep identical geometry."""
    return (size + pointer_width - 1) // PAGE_SIZE + 1


def build_class_table(pointer_width: int):
    """Build the geometric class ladder 16, 24, 32, 48, ... up to PAGE_SIZE/2.

    Each stride is the smallest power of two covering max_size plus the
    randomization pad, so it divides the cache line for small classes and
    the page for medium classes. Runs are page-aligned, which makes every
    slot border-free for its class by construction.
    """
    table = []
    for m in _CLASS_MAXES:
        stride = _next_pow2(m + pointer_width)
        table.append(SizeClass(m, stride, PAGE_SIZE // stride))
    return table


@dataclass(slots=True)
class Allocation:
    """One live chunk. ``start`` is the address handed to the caller."""

    id: int
    start: int
    requested: int
    reserved: int
    offset: int
    size_class_index: int


@dataclass
class ArenaCounters:
    """Cumulative event counters, kept since arena creation."""

    total_allocs: int = 0  # also the id of the last allocation
    aligned_allocs: int = 0
    promotions: int = 0
    # spans actually passed to the BSI range test, and the values it tested
    bsi_span_checks: int = 0
    bsi_candidates: int = 0
    # candidates the filter refused: class slots it withheld, and large
    # slots it moved below the BSI address they would cover
    bsi_quarantined: int = 0
    # Chunks whose size made a border guarantee apply but that straddled
    # anyway. Placement is structural, so these must stay at zero.
    line_rule_violations: int = 0
    page_rule_violations: int = 0


@dataclass
class ReplayStats:
    """Structured measurement output of :meth:`Arena.stats` and trace replay.

    ``offset_histogram`` counts the start offsets of every allocation ever
    made (length ``pointer_width``); straddle counts cover live chunks
    only. ``peak_reserved`` and ``histogram`` are filled by trace
    replay and omitted from the JSON dict otherwise.
    """

    live_bytes: int
    reserved_bytes: int
    overhead_ratio: float
    offset_histogram: list
    line_straddles: int
    page_straddles: int
    per_class: list
    promotions: int
    aligned_allocs: int
    peak_reserved: int | None = None
    histogram: list | None = None

    def as_dict(self) -> dict:
        return {k: v for k, v in asdict(self).items() if v is not None}


class Arena:
    """Pooled allocator over one contiguous address range.

    Identical (config, seed, operation sequence) produce an identical
    address sequence; all randomness flows from one counter-based PRNG
    stream seeded with ``config.rng_seed``, numpy's Philox stream for that
    seed (:mod:`ruma.philox`): first the base, then one offset per
    randomized allocation.
    """

    def __init__(self, config: ArenaConfig):
        config.validate()
        self._cfg = config
        self._table = build_class_table(config.pointer_width)
        self._pad = config.pointer_width if config.randomize else 0
        self._class_reserve = [c.max_size + self._pad for c in self._table]
        # The base is drawn before any offset so that randomize on/off runs
        # of the same seed share the exact same slot layout.
        pages, tops = integers_then_tops(config.rng_seed, _base_pages(config))
        self._base = PAGE_SIZE * (1 + pages)
        # top byte -> offset
        table = bytes(b >> (9 - config.pointer_width.bit_length()) for b in range(256))
        batches = (batch.translate(table) for batch in tops)
        self._next_offset = chain.from_iterable(batches).__next__
        usable = (config.arena_capacity // PAGE_SIZE) * PAGE_SIZE
        # free pages, as sorted spans [_starts[i], _ends[i]) that never touch
        self._starts = [self._base] if usable else []
        self._ends = [self._base + usable] if usable else []
        self._free = [[] for _ in self._table]  # free slots per class
        self._quarantine = [[] for _ in self._table]  # withheld slots per class
        self._filter = config.filter_bsi and config.address_space_bits == 32
        self._live = {}

        self.counters = ArenaCounters()
        self._reserved_bytes = 0  # running, for the peak
        self._peak_reserved = 0
        self._offset_hist = [0] * config.pointer_width
        self._class_capacity = [0] * len(self._table)

    # -- class/placement machinery --------------------------------------

    @property
    def config(self) -> ArenaConfig:
        return self._cfg

    @property
    def size_class_table(self):
        return list(self._table)

    @property
    def peak_reserved(self) -> int:
        return self._peak_reserved

    def _filter_span(self, start: int, size: int) -> bool:
        """True when the span must be withheld from the caller."""
        hit, checked = range_contains_bsi_counted(start, size)
        self.counters.bsi_span_checks += 1
        self.counters.bsi_candidates += checked
        return hit

    def _carve_run(self, ci: int) -> int:
        """A fresh run for class ``ci`` on the lowest free page; its other
        slots go to the class's free list."""
        starts, ends = self._starts, self._ends
        cls = self._table[ci]
        if not starts:
            raise CapacityError(f"arena exhausted carving a run for class {cls.max_size}")
        run = starts[0]
        if run + PAGE_SIZE < ends[0]:
            starts[0] = run + PAGE_SIZE
        else:
            del starts[0], ends[0]
        self._class_capacity[ci] += cls.slots_per_run
        last = run + (cls.slots_per_run - 1) * cls.stride
        self._free[ci].extend(range(last, run, -cls.stride))
        return run

    def _carve_pages(self, pages: int, offset: int, size: int) -> int:
        """Slot for a large ``size``-byte chunk at ``offset``: the top
        ``pages`` pages of the highest free span that fits them. Under the
        filter, a candidate whose chunk would cover a BSI address ``b``
        moves down to the highest slot whose chunk ends at or below ``b``,
        in its span and then in the lower ones; the pages above a slot so
        carved stay free. A candidate with no BSI address in its first
        ``size + pad`` bytes is taken untested."""
        starts, ends = self._starts, self._ends
        length = pages * PAGE_SIZE
        # every slot is taken untested where no filter applies
        reserved = size + self._pad if self._filter and size < BSI_PERIOD else 0
        for i in range(len(ends) - 1, -1, -1):
            slot = ends[i] - length
            while slot >= starts[i]:
                if -slot % BSI_PERIOD >= reserved or not self._filter_span(
                    slot + offset, size
                ):
                    end = slot + length
                    if slot > starts[i]:
                        if end < ends[i]:  # the pages above stay free
                            starts.insert(i + 1, end)
                            ends.insert(i + 1, ends[i])
                        ends[i] = slot
                    elif end < ends[i]:
                        starts[i] = end
                    else:
                        del starts[i], ends[i]
                    return slot
                self.counters.bsi_quarantined += 1
                bsi = slot + offset + -(slot + offset) % BSI_PERIOD
                slot = (bsi - offset - size) // PAGE_SIZE * PAGE_SIZE
        raise CapacityError(f"arena exhausted carving {pages} pages")

    def _place(self, ci: int, offset: int, size: int, reserved: int) -> int:
        """Filtered slot of class ``ci`` for a ``size``-byte chunk at
        ``offset``: a withheld slot the filter now passes, else the class's
        last freed slot, else a fresh one. ``offset + size <=
        reserved`` always holds, so a slot with no BSI address in its first
        ``reserved`` bytes goes out untested, and a withheld slot whose BSI
        address, ``-slot % BSI_PERIOD`` bytes in, lies inside the span is
        passed over untested: the test would fail."""
        quarantined, free = self._quarantine[ci], self._free[ci]
        for i, slot in enumerate(quarantined):
            if offset <= -slot % BSI_PERIOD < offset + size:
                continue
            if not self._filter_span(slot + offset, size):
                return quarantined.pop(i)
        while True:
            slot = free.pop() if free else self._carve_run(ci)
            if -slot % BSI_PERIOD >= reserved or not self._filter_span(
                slot + offset, size
            ):
                return slot
            quarantined.append(slot)
            self.counters.bsi_quarantined += 1

    # -- operations ------------------------------------------------------

    def alloc(self, size: int, *, align: int | None = None) -> Allocation:
        """Allocate ``size`` bytes and return the live chunk record.

        ``align`` requests an explicitly aligned start; such chunks are
        exempt from randomization and flagged in the counters.
        """
        if not isinstance(size, int) or isinstance(size, bool) or size < 0:
            raise ValueError(f"allocation size must be a non-negative int, got {size!r}")
        cfg = self._cfg
        ci = natural = _CLASS_OF[size] if size <= _LARGEST_CLASS else LARGE_CLASS
        offset = 0
        if align is not None:
            if not _is_pow2(align):
                raise ValueError(f"alignment must be a power of two, got {align}")
            if align > PAGE_SIZE:
                raise ValueError(
                    f"alignment {align} beyond the page size is not supported"
                )
            if ci != LARGE_CLASS:
                # Strides and align are powers of two and the last stride is
                # the page, so the first stride >= align ends this inside the
                # table.
                while self._table[ci].stride % align:
                    ci += 1
        elif cfg.randomize:
            offset = self._next_offset()

        if ci == LARGE_CLASS:
            reserved = size + self._pad
            pages = _large_pages(size, cfg.pointer_width)
            start = self._carve_pages(pages, offset, size) + offset
        else:
            reserved = self._class_reserve[ci]
            if self._filter:
                start = self._place(ci, offset, size, reserved) + offset
            else:
                free = self._free[ci]
                start = (free.pop() if free else self._carve_run(ci)) + offset
        counters = self.counters
        if align is not None:
            counters.aligned_allocs += 1
            if ci != natural:
                counters.promotions += 1

        counters.total_allocs += 1
        rec = Allocation(counters.total_allocs, start, size, reserved, offset, ci)
        self._live[rec.id] = rec

        self._reserved_bytes += reserved
        if self._reserved_bytes > self._peak_reserved:
            self._peak_reserved = self._reserved_bytes
        self._offset_hist[offset] += 1
        # _spans_border, inline on the hot path
        guarded = size + cfg.pointer_width
        if guarded <= CACHE_LINE:
            if start % CACHE_LINE + size > CACHE_LINE:
                counters.line_rule_violations += 1
        elif guarded <= PAGE_SIZE and start % PAGE_SIZE + size > PAGE_SIZE:
            counters.page_rule_violations += 1
        return rec

    def free(self, alloc_id: int) -> None:
        rec = self._live.pop(alloc_id, None)
        if rec is None:
            raise HandleError(f"unknown or already freed allocation id {alloc_id}")
        self._reserved_bytes -= rec.reserved
        slot = rec.start - rec.offset
        if rec.size_class_index != LARGE_CLASS:
            self._free[rec.size_class_index].append(slot)
            return
        # its pages rejoin the free spans, merged with the spans they touch
        end = slot + _large_pages(rec.requested, self._cfg.pointer_width) * PAGE_SIZE
        starts, ends = self._starts, self._ends
        i = bisect_left(starts, slot)
        if i < len(starts) and starts[i] == end:  # joins the span above
            del starts[i]
            end = ends.pop(i)
        if i and ends[i - 1] == slot:  # joins the span below
            ends[i - 1] = end
        else:
            starts.insert(i, slot)
            ends.insert(i, end)

    def realloc(self, alloc_id: int, new_size: int) -> Allocation:
        """Move ``alloc_id`` to a fresh placement of ``new_size`` bytes.

        The old handle is consumed. The new chunk is an ordinary randomized
        one: an explicit alignment of the old chunk is not carried over, as
        with C ``realloc`` of ``memalign``'d memory.
        """
        if alloc_id not in self._live:
            raise HandleError(f"unknown or already freed allocation id {alloc_id}")
        new = self.alloc(new_size)
        self.free(alloc_id)
        return new

    # -- inspection -------------------------------------------------------

    def live_allocations(self):
        """Current live chunks, in allocation order."""
        return list(self._live.values())

    def stats(self) -> ReplayStats:
        live_bytes = line_straddles = page_straddles = 0
        class_live = [0] * (len(self._table) + 1)  # the last counts LARGE_CLASS
        for a in self._live.values():
            live_bytes += a.requested
            class_live[a.size_class_index] += 1
            line_straddles += _spans_border(a.start, a.requested, CACHE_LINE)
            page_straddles += _spans_border(a.start, a.requested, PAGE_SIZE)
        per_class = [
            {
                "max_size": cls.max_size,
                "live": class_live[i],
                "capacity": self._class_capacity[i],
            }
            for i, cls in enumerate(self._table)
        ]
        reserved = self._reserved_bytes
        return ReplayStats(
            live_bytes=live_bytes,
            reserved_bytes=reserved,
            overhead_ratio=reserved / live_bytes if live_bytes > 0 else 1.0,
            offset_histogram=list(self._offset_hist),
            line_straddles=line_straddles,
            page_straddles=page_straddles,
            per_class=per_class,
            promotions=self.counters.promotions,
            aligned_allocs=self.counters.aligned_allocs,
        )
