"""Independent verification routes used by the tests.

Everything here is deliberately written from definitions, not by calling
the implementations under test: repeated-byte addresses are enumerated by
constructing their byte strings, range membership is a scan or a lookup in
that enumeration, and rotations are integer arithmetic.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

# Every 32-bit value made of four equal bytes, built from bytes, sorted.
BSI_TABLE = sorted(
    int.from_bytes(bytes([b]) * 4, "little") for b in range(256)
)
# Every repeated-halfword value, likewise from first principles.
HALF_TABLE = sorted(
    int.from_bytes(bytes([lo, hi]) * 2, "little")
    for lo in range(256)
    for hi in range(256)
)


def scan_contains_bsi(start: int, length: int) -> bool:
    """Literal per-address scan: check byte equality of every address in
    the range. Only usable for modest lengths."""
    if length <= 0:
        return False
    addrs = np.arange(start, start + length, dtype=np.int64)
    lo = addrs & 0xFF
    repeated = lo | (lo << 8) | (lo << 16) | (lo << 24)
    return bool((addrs == repeated).any())


def table_contains(start: int, length: int, table=BSI_TABLE) -> bool:
    """Exhaustive-lookup oracle: does any enumerated value fall in range?"""
    if length <= 0:
        return False
    i = bisect_left(table, start)
    return i < len(table) and table[i] < start + length


def rotate_right_bytes(value: int, width: int, shift: int) -> int:
    """Arithmetic route for a byte rotation of a little-endian word."""
    bits = 8 * width
    s = (8 * shift) % bits
    mask = (1 << bits) - 1
    return ((value >> s) | (value << (bits - s))) & mask


def spans_border(start: int, size: int, border: int) -> bool:
    if size <= 1:
        return False
    return start // border != (start + size - 1) // border


def assert_live_disjoint(allocations) -> None:
    """Pairwise disjointness of live byte ranges, by sorting."""
    spans = sorted(
        (a.start, a.start + a.requested) for a in allocations if a.requested > 0
    )
    for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
        assert e1 <= s2, f"overlapping live ranges [{s1:#x},{e1:#x}) and [{s2:#x},{e2:#x})"


def reference_trace(
    events, seed, *, median=32.0, sigma=1.0, min_size=1, max_size=4096
):
    """The trace generator written with numpy's public draws: one
    ``random()`` per step, ``integers(0, n)`` per pick, ``lognormal`` per
    size. Returns ``(kind, id, size)`` tuples."""
    rng = np.random.Generator(np.random.Philox(seed))
    mean = np.log(median)
    out, live, next_id = [], [], 1

    def size():
        drawn = float(rng.lognormal(mean, sigma))
        return int(round(max(min_size, min(max_size, drawn))))

    for _ in range(events):
        roll = float(rng.random())
        if not live or roll < 0.55:
            live.append(str(next_id))
            next_id += 1
            out.append(("alloc", live[-1], size()))
        elif roll < 0.55 + 0.10:
            ident = live[int(rng.integers(0, len(live)))]
            out.append(("realloc", ident, size()))
        else:
            pick = int(rng.integers(0, len(live)))
            live[pick], live[-1] = live[-1], live[pick]
            out.append(("free", live.pop(), None))
    return out


_M64 = (1 << 64) - 1


def philox_block(key, counter: int) -> list:
    """One Philox4x64-10 block for a 256-bit counter, word by word as
    Random123's ``philox4x64_R`` computes it."""
    x = [counter >> 64 * i & _M64 for i in range(4)]
    k0, k1 = key
    for _ in range(10):
        p0 = x[0] * 0xD2E7470EE14C6C93
        p1 = x[2] * 0xCA5A826395121157
        x = [(p1 >> 64) ^ x[1] ^ k0, p1 & _M64, (p0 >> 64) ^ x[3] ^ k1, p0 & _M64]
        k0 = (k0 + 0x9E3779B97F4A7C15) & _M64
        k1 = (k1 + 0xBB67AE8584CAA73B) & _M64
    return x


def reference_arena_draws(config, count: int):
    """An arena's base and its first ``count`` offsets, drawn with numpy's
    public calls on ``Generator(Philox(rng_seed))``, and that generator."""
    page = 4096
    rng = np.random.Generator(np.random.Philox(config.rng_seed))
    # below 2**47 when it fits there, like user space, else anywhere
    space = 1 << min(config.address_space_bits, 47)
    if config.arena_capacity + 2 * page > space:
        space = 1 << config.address_space_bits
    top = space - config.arena_capacity - page
    base = page * (1 + int(rng.integers(0, top // page)))
    state = rng.bit_generator.state
    offsets = rng.integers(0, config.pointer_width, size=count).tolist()
    return base, offsets, state


def reference_monte_carlo(scenario, trials: int, seed: int) -> int:
    """Chains whose stages all read the pattern back, counted in Python
    over one numpy draw of the whole ``(trials, k)`` shift-index stream.
    A shift reads the value back when that window of the doubled pattern
    bytes equals the pattern."""
    data = scenario.pattern.data
    table = [(data * 2)[s : s + len(data)] == data for s in scenario.shifts]
    rng = np.random.Generator(np.random.Philox(seed))
    draws = rng.integers(0, len(table), size=(trials, scenario.chain_length))
    return sum(all(map(table.__getitem__, chain)) for chain in draws.tolist())
