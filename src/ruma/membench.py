"""Alignment microbenchmark harness.

Times vectorized memory access at offsets realizing four classes: A
(aligned), U (unaligned inside one cache line), BC (straddling a cache
line border), BP (straddling a page border). Each timed sweep touches one
element per page of a page-aligned buffer at the class offset, so every
single access in a sweep has the stated alignment. The geometry is fixed:
the arena's 64-byte cache line and 4 KiB page, 2048 pages per sweep, and a
1 MiB bulk copy.
Absolute penalties are hardware dependent; expected orderings are flagged
pass/warn in the report, never enforced.

Timing is single-threaded wall time from a monotonic clock, through one
routine for every cell; the harness pins no CPU and says so in the report
notes.

Limitation: a view whose offset is not a multiple of its element width is
not aligned for numpy (``flags.aligned`` is False), so numpy runs its
slower unaligned loop over it. For the store and load-store ops that loop
costs U, BC and BP alike, so their ratios to A add numpy's unaligned path
to the CPU's penalty (see the README for timings). Loads are barely
affected.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum

from .arena import CACHE_LINE, PAGE_SIZE, _spans_border
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

_SUPPORTED_WIDTHS = {2: "uint16", 4: "uint32", 8: "uint64"}  # numpy dtype names
_MIN_TIMED = 50  # timed cell must exceed this many clock ticks
_TARGETS = 2048  # pages a sweep touches, one element each
_MAX_ITERATIONS = 1 << 27  # the full-size run, and the default
_COPY_BYTES = 1 << 20
_COPY_ITERATIONS = 100_000


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
    iterations: int = _MAX_ITERATIONS
    op: str = "load"

    def validate(self) -> None:
        if self.width not in _SUPPORTED_WIDTHS:
            raise BenchError(f"access width must be one of 2, 4, 8, got {self.width}")
        if self.op not in OP_KINDS:
            raise BenchError(f"op must be one of {OP_KINDS}, got {self.op!r}")
        if not 1 <= self.iterations <= _MAX_ITERATIONS:
            raise BenchError(
                f"iterations must be in [1, {_MAX_ITERATIONS}], got {self.iterations}"
            )


def validate_offset(access_class: AccessClass, offset: int, width: int) -> None:
    """Hard check that ``offset``, from a page start or from address 0,
    realizes its class; raises otherwise."""
    line_x = _spans_border(offset, width, CACHE_LINE)
    page_x = _spans_border(offset, width, PAGE_SIZE)
    ok = {
        AccessClass.A: offset % width == 0 and not line_x and not page_x,
        AccessClass.U: offset % width != 0 and not line_x and not page_x,
        AccessClass.BC: line_x and not page_x,
        AccessClass.BP: page_x,
    }[AccessClass(access_class)]
    if not ok:
        raise BenchError(
            f"offset {offset} does not realize access class {access_class} "
            f"(width {width}, line {CACHE_LINE}, page {PAGE_SIZE})"
        )


def plan_offsets(spec: BenchSpec):
    """Validate ``spec`` and derive one offset per access class; ``run_bench``
    checks each timed view's real address against its class."""
    spec.validate()
    w = spec.width
    return {
        AccessClass.A: 0,
        AccessClass.U: w // 2,
        AccessClass.BC: CACHE_LINE - w // 2,
        AccessClass.BP: PAGE_SIZE - w // 2,
    }


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
    cells: list = field(default_factory=list)
    orderings: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def as_dict(self):
        return {
            "environment": {"cache_line": CACHE_LINE, "page_size": PAGE_SIZE},
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


def _page_aligned(nbytes: int):
    """A zeroed ``nbytes`` numpy buffer whose first byte starts a page, so
    that offsets into it are also addresses modulo the page."""
    import numpy as np

    raw = np.zeros(nbytes + PAGE_SIZE, dtype=np.uint8)
    skip = -raw.ctypes.data % PAGE_SIZE
    return raw[skip : skip + nbytes]


def _check_scale(scale: float) -> None:
    if not 0 < scale <= 1:
        raise BenchError(f"scale must be in (0, 1], got {scale}")


def _op_function(op: str):
    if op == "load":
        return lambda view: view.sum()
    if op == "store":
        return lambda view: view.__setitem__(slice(None), 1)
    import numpy as np

    return lambda view: np.add(view, 1, out=view)


def _time_cell(op_fn, target, repeats: int) -> float:
    """Wall time of ``repeats`` calls of ``op_fn(target)`` after one
    untimed call."""
    op_fn(target)  # populate pages and warm caches before timing
    t0 = time.perf_counter()
    for _ in range(repeats):
        op_fn(target)
    elapsed = time.perf_counter() - t0
    resolution = time.get_clock_info("perf_counter").resolution
    if elapsed <= _MIN_TIMED * resolution:
        raise BenchError(
            f"timer resolution {resolution} too coarse for the configured iterations"
        )
    return elapsed


def _cells(seconds: dict, width: int, op: str) -> list:
    """One cell per timed class, each with its ratio to the A cell."""
    base = seconds[AccessClass.A]
    return [
        BenchCell(cls.value, width, op, s, s / base, (s / base - 1.0) * 100.0)
        for cls, s in seconds.items()
    ]


def run_bench(spec: BenchSpec) -> BenchReport:
    """Time all four access classes for one op kind.

    Each sweep reads or writes one element in each of 2048 pages at the
    class offset, and sweeps repeat until at least ``spec.iterations``
    element accesses ran per class.
    """
    import numpy as np

    offsets = plan_offsets(spec)
    dtype = _SUPPORTED_WIDTHS[spec.width]
    buf = _page_aligned((_TARGETS + 1) * PAGE_SIZE)
    sweeps = -(-spec.iterations // _TARGETS)
    op_fn = _op_function(spec.op)
    seconds = {}
    for cls, off in offsets.items():
        view = np.ndarray(
            shape=(_TARGETS,), dtype=dtype, buffer=buf, offset=off, strides=(PAGE_SIZE,)
        )
        validate_offset(cls, view.ctypes.data, spec.width)
        seconds[cls] = _time_cell(op_fn, view, sweeps)
    return BenchReport(
        cells=_cells(seconds, spec.width, spec.op),
        orderings=_ordering_checks(spec, seconds),
        notes=[
            "single-threaded, no CPU pinning",
            f"{sweeps * _TARGETS} accesses per class "
            f"({sweeps} sweeps x {_TARGETS} targets)",
        ],
    )


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


def run_copy_bench(scale: float = 1.0) -> list:
    """Bulk-copy cells: 1 MiB copied from a page-aligned source into a
    destination that starts a page (A) or one byte past it (U), so in the
    U cell the two sides are misaligned relative to each other. Each cell
    repeats ``round(100_000 * scale)`` times (at least once). ``scale``
    must be in (0, 1]; 1 is the full-size run."""
    _check_scale(scale)
    iters = max(1, round(_COPY_ITERATIONS * scale))
    src = memoryview(_page_aligned(_COPY_BYTES))
    dst = memoryview(_page_aligned(_COPY_BYTES + 1))

    def copy(views) -> None:
        to, frm = views
        to[:] = frm

    seconds = {
        AccessClass.A: _time_cell(copy, (dst[:_COPY_BYTES], src), iters),
        AccessClass.U: _time_cell(copy, (dst[1:], src), iters),
    }
    return _cells(seconds, _COPY_BYTES, "copy")


def full_report(
    width: int = 8, iterations: int = 1 << 20, scale: float = 0.01
) -> BenchReport:
    """All op kinds at one width, plus the bulk-copy pair."""
    _check_scale(scale)  # before anything is timed
    parts = [
        run_bench(BenchSpec(width=width, iterations=iterations, op=op))
        for op in OP_KINDS
    ]
    return BenchReport(
        cells=[c for part in parts for c in part.cells] + run_copy_bench(scale=scale),
        orderings=[o for part in parts for o in part.orderings],
        notes=parts[0].notes,  # every op kind runs the same sweeps
    )
