"""numpy's ``Generator(Philox(seed))`` stream, computed without numpy.

The arena draws only bounded integers, so it needs neither numpy's
import nor its distributions, just the same numbers. This module
reproduces them:

- the key is numpy's ``SeedSequence(seed).generate_state(2, uint64)``;
- the words are Philox4x64-10 blocks (Salmon et al., "Parallel Random
  Numbers: As Easy as 1, 2, 3", SC 2011) for counters 1, 2, 3, ...
  under that key, four 64-bit words per block;
- a 32-bit draw serves a word's low half first and keeps its high half
  for the next 32-bit draw, as numpy's ``next_uint32`` buffer does;
- ``integers(0, n)`` reduces a 32-bit half (``n <= 2**32``) or a whole
  word by Lemire's multiply-and-reject (ACM TOMACS 2019), as numpy does.

For ``n = 2**bits`` (``bits <= 32``) Lemire never rejects: the product
``half * n`` is never below its threshold ``(2**32 - n) % n = 0``, so
``integers(0, n)`` is just the top ``bits`` bits of the next half, and
for ``bits <= 8`` those of its top byte, byte 3 or 7 of its little-endian
word. ``Philox.tops`` yields every half's top byte; the arena maps them
to offsets, and ``ruma.spray.monte_carlo`` to verdicts for a short run,
each through its own 256-entry table.

A Philox block computed word by word costs about 10 us in CPython on a
2-vCPU Xeon, so blocks are made 1024 at a time, about 1 us each, as
lane-packed ints: lane ``j`` of a packed int is bits ``128 * j`` up,
each 64-bit word sits in the low half of its lane, and a 64 x 64-bit
product fills the lane without reaching the next one. A round is then a
few whole-int multiplies, shifts, masks and XORs. Packing and unpacking
use explicit little-endian byte order.
"""

from __future__ import annotations

__all__ = ["Philox", "pick", "seed_key"]

_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1

# SeedSequence's hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4

# Philox4x64 round multipliers and key increments (Random123)
_M0, _M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
_W0, _W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B
_ROUNDS = 10

_LANES = 1024  # blocks per batch
_LANE_BYTES = 16
_BATCH_BYTES = 32 * _LANES  # four 8-byte words per block
_ONES = int.from_bytes(b"\x01".ljust(_LANE_BYTES, b"\x00") * _LANES, "little")
_LOW = _ONES * _MASK64  # the low 64 bits of every lane
_IOTA = int.from_bytes(
    b"".join(j.to_bytes(_LANE_BYTES, "little") for j in range(_LANES)), "little"
)


def _hashmix(value: int, const: int, mult: int) -> tuple:
    """SeedSequence's hashmix: the hashed value and the next constant."""
    value ^= const
    const = const * mult & _MASK32
    value = value * const & _MASK32
    return value ^ value >> 16, const


def _mix(x: int, y: int) -> int:
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ result >> 16


def seed_key(seed: int) -> tuple:
    """The Philox key numpy derives from a seed ``0 <= seed < 2**64``: the
    two words of ``SeedSequence(seed).generate_state(2, np.uint64)``."""
    const = _INIT_A
    pool = []
    # the seed's little-endian 32-bit words, padded with zeros to the pool
    for word in (seed & _MASK32, seed >> 32, 0, 0):
        value, const = _hashmix(word, const, _MULT_A)
        pool.append(value)
    for src in range(_POOL_SIZE):  # every pool word into every other
        for dst in range(_POOL_SIZE):
            if src != dst:
                value, const = _hashmix(pool[src], const, _MULT_A)
                pool[dst] = _mix(pool[dst], value)
    const = _INIT_B
    words = []
    for word in pool:  # generate_state: two uint64 are four uint32
        value, const = _hashmix(word, const, _MULT_B)
        words.append(value)
    return words[0] | words[1] << 32, words[2] | words[3] << 32


def _packed_keys(key: tuple) -> list:
    """Each round's key pair, replicated into every lane."""
    k0, k1 = key
    return [
        (((k0 + r * _W0) & _MASK64) * _ONES, ((k1 + r * _W1) & _MASK64) * _ONES)
        for r in range(_ROUNDS)
    ]


def _blocks(keys: list, first: int) -> bytes:
    """The ``_LANES`` blocks with counters ``first``, ``first + 1``, ...,
    as little-endian words in stream order. Counter words 1 to 3 are 0: a
    stream would need 2**64 blocks to carry into them."""
    x0, x1, x2, x3 = first * _ONES + _IOTA, 0, 0, 0
    for k0, k1 in keys:
        p0 = x0 * _M0
        p1 = x2 * _M1
        x0, x1, x2, x3 = (
            (p1 >> 64 & _LOW) ^ x1 ^ k0,
            p1 & _LOW,
            (p0 >> 64 & _LOW) ^ x3 ^ k1,
            p0 & _LOW,
        )
    # word i of block j is the low half of lane j of x_i; the copies move
    # whole 8-byte units, so the bytes keep to_bytes' little-endian order
    out = bytearray(_BATCH_BYTES)
    words = memoryview(out).cast("Q")
    for i, x in enumerate((x0, x1, x2, x3)):
        lanes = memoryview(x.to_bytes(_LANES * _LANE_BYTES, "little")).cast("Q")
        words[i::4] = lanes[::2]
    return bytes(out)


def pick(raw, n: int, spare: int) -> tuple:
    """``Generator.integers(0, n)`` for ``1 <= n <= 2**32``, computed from
    ``raw()``, the Philox generator's raw 64-bit words.

    Like numpy, it draws nothing for ``n == 1`` and otherwise maps 32-bit
    halves to ``[0, n)`` by Lemire's multiply-and-reject. A word serves
    its low half first and its high half is kept for the next half asked
    for, as Philox's ``next_uint32`` buffer keeps it. ``spare`` is that
    kept half, or -1 for none; returns the pick and the new ``spare``.
    """
    if n == 1:
        return 0, spare
    while True:
        if spare < 0:
            word = raw()
            half, spare = word & _MASK32, word >> 32
        else:
            half, spare = spare, -1
        m = half * n
        # (2**32 - n) % n < n, so the modulo is needed only below n
        if m & _MASK32 >= n or m & _MASK32 >= (0x100000000 - n) % n:
            return m >> 32, spare


class Philox:
    """The stream of ``numpy.random.Generator(numpy.random.Philox(seed))``
    for the draws the arena makes: ``integers(0, n)`` and the top bytes of
    32-bit halves. Words are made ``_LANES`` blocks at a time."""

    def __init__(self, seed: int):
        self._keys = _packed_keys(seed_key(seed))
        self._made = 0  # blocks made so far
        self._buf = b""  # the last batch's words
        self._pos = _BATCH_BYTES  # byte offset of the next unread word
        self._spare = -1  # the kept high half of a word, or -1

    def _refill(self) -> None:
        self._buf = _blocks(self._keys, self._made + 1)
        self._made += _LANES
        self._pos = 0

    def raw(self) -> int:
        """The next 64-bit word, as ``bit_generator.random_raw()``."""
        if self._pos == _BATCH_BYTES:
            self._refill()
        pos = self._pos
        self._pos = pos + 8
        return int.from_bytes(self._buf[pos : pos + 8], "little")

    def integers(self, n: int) -> int:
        """``integers(0, n)`` for ``1 <= n <= 2**64``: Lemire on a 32-bit
        half up to ``2**32``, on a whole word above it."""
        if n <= 1 << 32:
            value, self._spare = pick(self.raw, n, self._spare)
            return value
        while True:
            m = self.raw() * n
            if m & _MASK64 >= n or m & _MASK64 >= ((1 << 64) - n) % n:
                return m >> 64

    def tops(self):
        """Endless: the top byte of every next 32-bit half (``next_uint32()
        >> 24``), the kept half first, as one ``bytes`` per batch of words,
        taken from the stream as it is yielded. ``b >> (8 - bits)`` of each
        byte is the next draw of ``integers(0, 2**bits)``, ``bits <= 8``."""
        while True:
            if self._pos == _BATCH_BYTES:
                self._refill()
            # a half is 4 little-endian bytes, so its top byte is the 4th
            batch = self._buf[self._pos + 3 :: 4]
            self._pos = _BATCH_BYTES
            if self._spare >= 0:
                batch = bytes((self._spare >> 24,)) + batch
                self._spare = -1
            yield batch
