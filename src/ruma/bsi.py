"""Byte-shift-independent (BSI) address detection.

A 32-bit value whose four bytes are all equal (for example 0x35353535)
reads back identically at any byte shift of a sprayed buffer, so a
filtering arena refuses to hand out chunks that cover such an address.
The repeated-byte values are exactly the 256 multiples of 0x01010101, so
a range covers one when the first multiple at or after its start lies
before its end: one ceiling division, whatever the length.

All functions here are pure and safe for unrestricted parallel use.
"""

from __future__ import annotations

BSI_PERIOD = 0x01010101  # distance between consecutive repeated-byte values
HALFWORD_PERIOD = 0x00010001  # distance between repeated-halfword values
ADDRESS_SPACE = 1 << 32

__all__ = [
    "ADDRESS_SPACE",
    "BSI_PERIOD",
    "HALFWORD_PERIOD",
    "is_bsi_address",
    "range_contains_bsi",
    "range_contains_bsi_counted",
]


def is_bsi_address(addr: int, *, strict: bool = False) -> bool:
    """True when all four bytes of ``addr`` are equal.

    With ``strict=True`` repeated-halfword values such as 0x35343534 are
    reported as well. Those defeat byte randomization only half of the
    time, so they are excluded by default.
    """
    if not 0 <= addr < ADDRESS_SPACE:
        raise ValueError(f"not a 32-bit address: {addr:#x}")
    if addr % BSI_PERIOD == 0:
        return True
    return strict and addr % HALFWORD_PERIOD == 0


def _checked_range(start: int, length: int) -> int:
    if length < 0:
        raise ValueError("negative range length")
    if not 0 <= start < ADDRESS_SPACE:
        raise ValueError(f"not a 32-bit address: {start:#x}")
    end = start + length
    if end > ADDRESS_SPACE:
        raise ValueError(
            f"address range [{start:#x}, {start:#x}+{length}) wraps past 2**32"
        )
    return end


def range_contains_bsi_counted(start: int, length: int, *, strict: bool = False):
    """Like :func:`range_contains_bsi`, also returning the number of
    candidate values tested: one per non-empty range.

    Every repeated-byte value is also a repeated halfword
    (0x01010101 = 257 * 0x00010001), so strict mode tests only the finer
    period.
    """
    end = _checked_range(start, length)
    if length == 0:
        return False, 0
    period = HALFWORD_PERIOD if strict else BSI_PERIOD
    return -(-start // period) * period < end, 1


def range_contains_bsi(start: int, length: int, *, strict: bool = False) -> bool:
    """True when [start, start+length) covers a byte-shift-independent
    address. Any non-wrapping range of length >= 0x01010101 does."""
    return range_contains_bsi_counted(start, length, strict=strict)[0]
