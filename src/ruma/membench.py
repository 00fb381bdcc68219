"""Alignment microbenchmark harness.

Times vectorized memory access at offsets realizing four classes: A
(aligned), U (unaligned inside one cache line), BC (straddling a cache
line border), BP (straddling a page border). Each timed sweep touches one
element per page at the class offset, so every single access in a sweep
has the stated alignment. Absolute penalties are hardware dependent;
expected orderings are flagged pass/warn in the report, never enforced.

Timing is single-threaded wall time from a monotonic clock; the harness
pins no CPU and says so in the report notes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .arena import _spans_border
from .errors import BenchError

__all__ = [
    "AccessClass",
    "BenchCell",
    "BenchReport",
    "BenchSpec",
    "CSV_HEADER",
    "OP_KINDS",
    "full_report",
    "plan_offsets",
    "run_bench",
    "run_copy_bench",
    "validate_offset",
]

OP_KINDS = ("load", "store", "load-store")
CSV_HEADER = "class,width,op,seconds,ratio"

_SUPPORTED_WIDTHS = {2: np.uint16, 4: np.uint32, 8: np.uint64}
_MIN_TIMED = 50  # timed cell must exceed this many clock ticks


class AccessClass(str, Enum):
    A = "A"  # aligned
    U = "U"  # unaligned, inside one cache line
    BC = "BC"  # crosses a cache line border
    BP = "BP"  # crosses a page border

    def __str__(self):
        return self.value


@dataclass(frozen=True)
class BenchSpec:
    width: int = 8
    iterations: int = 134_217_728
    op: str = "load"

    def validate(self, cache_line: int) -> None:
        if self.width > cache_line:
            raise BenchError(
                f"access width {self.width} exceeds the cache line ({cache_line})"
            )
        if self.width not in _SUPPORTED_WIDTHS:
            raise BenchError(f"access width must be one of 2, 4, 8, got {self.width}")
        if self.op not in OP_KINDS:
            raise BenchError(f"op must be one of {OP_KINDS}, got {self.op!r}")
        if self.iterations < 1:
            raise BenchError(f"iterations must be at least 1, got {self.iterations}")
        if self.width == cache_line:
            raise BenchError(
                "unaligned access of width == cache_line always crosses a border"
            )


def validate_offset(
    access_class: AccessClass, offset: int, width: int, cache_line: int, page_size: int
) -> None:
    """Hard check that ``offset`` realizes its class; raises otherwise."""
    line_x = _spans_border(offset, width, cache_line)
    page_x = _spans_border(offset, width, page_size)
    ok = {
        AccessClass.A: offset % width == 0 and not line_x and not page_x,
        AccessClass.U: offset % width != 0 and not line_x and not page_x,
        AccessClass.BC: line_x and not page_x,
        AccessClass.BP: page_x,
    }[AccessClass(access_class)]
    if not ok:
        raise BenchError(
            f"offset {offset} does not realize access class {access_class} "
            f"(width {width}, line {cache_line}, page {page_size})"
        )


def plan_offsets(spec: BenchSpec, cache_line: int = 64, page_size: int = 4096):
    """Derive one offset per access class and validate each against the
    border predicates before anything is timed."""
    spec.validate(cache_line)
    w = spec.width
    offsets = {
        AccessClass.A: 0,
        AccessClass.U: w // 2,
        AccessClass.BC: cache_line - w // 2,
        AccessClass.BP: page_size - w // 2,
    }
    for cls, off in offsets.items():
        validate_offset(cls, off, w, cache_line, page_size)
    return offsets


@dataclass
class BenchCell:
    access_class: str
    width: int
    op: str
    seconds: float
    ratio: float | None = None  # vs the A cell of the same (width, op)
    penalty_pct: float | None = None

    def as_dict(self):
        return {
            "class": self.access_class,
            "width": self.width,
            "op": self.op,
            "seconds": self.seconds,
            "ratio": self.ratio,
            "penalty_pct": self.penalty_pct,
        }


@dataclass
class BenchReport:
    cache_line: int
    page_size: int
    cells: list = field(default_factory=list)
    orderings: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def as_dict(self):
        return {
            "environment": {
                "cache_line": self.cache_line,
                "page_size": self.page_size,
            },
            "cells": [c.as_dict() for c in self.cells],
            "orderings": list(self.orderings),
            "notes": list(self.notes),
        }

    def csv_rows(self):
        rows = [CSV_HEADER]
        for c in self.cells:
            ratio = "" if c.ratio is None else f"{c.ratio:.6f}"
            rows.append(f"{c.access_class},{c.width},{c.op},{c.seconds:.9f},{ratio}")
        return rows


def _op_function(op: str):
    if op == "load":
        return lambda view: view.sum()
    if op == "store":
        return lambda view: view.__setitem__(slice(None), 1)
    return lambda view: np.add(view, 1, out=view)


def _time_cell(view, op_fn, sweeps: int) -> float:
    op_fn(view)  # populate pages and warm caches before timing
    t0 = time.perf_counter()
    for _ in range(sweeps):
        op_fn(view)
    elapsed = time.perf_counter() - t0
    resolution = time.get_clock_info("perf_counter").resolution
    if elapsed <= _MIN_TIMED * resolution:
        raise BenchError(
            f"timer resolution {resolution} too coarse for the configured iterations"
        )
    return elapsed


def run_bench(
    spec: BenchSpec,
    cache_line: int = 64,
    page_size: int = 4096,
    pages: int = 2048,
) -> BenchReport:
    """Time all four access classes for one op kind.

    The backing buffer holds ``pages`` pages plus slack; each sweep reads
    or writes one element per page at the class offset, and sweeps repeat
    until at least ``spec.iterations`` element accesses ran per class.
    """
    offsets = plan_offsets(spec, cache_line, page_size)
    dtype = _SUPPORTED_WIDTHS[spec.width]
    buf = np.zeros(pages * page_size + page_size, dtype=np.uint8)
    sweeps = -(-spec.iterations // pages)
    op_fn = _op_function(spec.op)

    report = BenchReport(cache_line=cache_line, page_size=page_size)
    seconds = {}
    for cls, off in offsets.items():
        view = np.ndarray(
            shape=(pages,), dtype=dtype, buffer=buf, offset=off, strides=(page_size,)
        )
        seconds[cls] = _time_cell(view, op_fn, sweeps)
    base = seconds[AccessClass.A]
    for cls in AccessClass:
        ratio = seconds[cls] / base
        report.cells.append(
            BenchCell(
                access_class=cls.value,
                width=spec.width,
                op=spec.op,
                seconds=seconds[cls],
                ratio=ratio,
                penalty_pct=(ratio - 1.0) * 100.0,
            )
        )
    report.orderings.extend(_ordering_checks(spec, seconds))
    report.notes.append("single-threaded, no CPU pinning")
    report.notes.append(
        f"{sweeps * pages} accesses per class ({sweeps} sweeps x {pages} targets)"
    )
    return report


def _ordering_checks(spec: BenchSpec, seconds) -> list:
    a, u = seconds[AccessClass.A], seconds[AccessClass.U]
    bc, bp = seconds[AccessClass.BC], seconds[AccessClass.BP]
    checks = [
        ("U/A near 1.0: no penalty inside a cache line", u / a <= 1.15,
         f"U/A = {u / a:.3f}"),
        ("BC at or above U: line border costs extra", bc >= u * 0.95,
         f"BC/U = {bc / u:.3f}"),
        ("BP at or above BC: page border costs most", bp >= bc * 0.95,
         f"BP/BC = {bp / bc:.3f}"),
    ]
    return [
        {
            "expectation": name,
            "status": "pass" if ok else "warn",
            "detail": f"{detail} [{spec.op}, width {spec.width}]",
        }
        for name, ok, detail in checks
    ]


def run_copy_bench(
    copy_bytes: int = 1 << 20, iterations: int = 100_000, scale: float = 1.0
):
    """Bulk-copy cells: one aligned and one byte-misaligned source and
    destination copy of ``copy_bytes``, repeated ``iterations * scale``
    times."""
    if copy_bytes < 1:
        raise BenchError("copy size must be positive")
    iters = max(1, round(iterations * scale))
    src = np.zeros(copy_bytes + 16, dtype=np.uint8)
    dst = np.zeros(copy_bytes + 16, dtype=np.uint8)
    src_mv, dst_mv = memoryview(src), memoryview(dst)

    def timed(s_off: int, d_off: int) -> float:
        dst_mv[d_off : d_off + copy_bytes] = src_mv[s_off : s_off + copy_bytes]
        t0 = time.perf_counter()
        for _ in range(iters):
            dst_mv[d_off : d_off + copy_bytes] = src_mv[s_off : s_off + copy_bytes]
        return time.perf_counter() - t0

    aligned = timed(0, 0)
    misaligned = timed(1, 1)
    return [
        BenchCell("A", copy_bytes, "copy", aligned, 1.0, 0.0),
        BenchCell(
            "U", copy_bytes, "copy", misaligned,
            misaligned / aligned, (misaligned / aligned - 1.0) * 100.0,
        ),
    ]


def full_report(
    width: int = 8, iterations: int = 1 << 20, scale: float = 0.01
) -> BenchReport:
    """All op kinds at one width in ``run_bench``'s default geometry, plus
    the bulk-copy pair."""
    parts = [
        run_bench(BenchSpec(width=width, iterations=iterations, op=op))
        for op in OP_KINDS
    ]
    merged = BenchReport(cache_line=parts[0].cache_line, page_size=parts[0].page_size)
    for part in parts:
        merged.cells.extend(part.cells)
        merged.orderings.extend(part.orderings)
        for note in part.notes:
            if note not in merged.notes:
                merged.notes.append(note)
    merged.cells.extend(run_copy_bench(scale=scale))
    return merged
