"""Output checks that trust nothing the program reports about itself.

Expected replay results are recomputed from the trace text alone, spray
results from the binomial model, and live chunk placement from the
documented border and filter rules. Each check returns a list of error
strings; an empty list means the output passed.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from statistics import NormalDist

BSI_PERIOD = 0x01010101  # consecutive 32-bit values made of four equal bytes
SPRAY_EXACT = 1 / 64  # (1/8)**2: width 8, byte granularity, chain of 2
_SIGMAS = 6.0  # estimate-vs-exact band; a correct sampler leaves it about 2e-9 of the time


class Ledger:
    """Counts checked commands and the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, what: str, errors) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            for err in errors:
                print(f"check failed: {what}: {err}", file=sys.stderr)

    def merge(self, other: "Ledger") -> None:
        self.attempted += other.attempted
        self.failed += other.failed


@dataclass
class TraceSummary:
    events: int
    allocs: int
    reallocs: int
    live: dict  # id -> requested size of every id still live at the end
    histogram: list  # [{"bucket_max": b, "count": n}] over alloc and realloc sizes

    @property
    def live_bytes(self) -> int:
        return sum(self.live.values())


def _pow2_ceiling(size: int) -> int:
    bucket = 1
    while bucket < size:
        bucket *= 2
    return bucket


def summarize_trace(text: str) -> TraceSummary:
    """Replay the trace on a dict; raises ValueError on a broken trace."""
    live, counts, buckets = {}, {"a": 0, "f": 0, "r": 0}, {}
    for lineno, line in enumerate(text.splitlines(), 1):
        tokens = line.split()
        kind = tokens[0] if tokens else ""
        if kind not in counts or len(tokens) != (2 if kind == "f" else 3):
            raise ValueError(f"line {lineno}: malformed event {line!r}")
        ident = tokens[1]
        if (ident in live) != (kind != "a"):
            raise ValueError(f"line {lineno}: {kind} of id {ident!r} breaks liveness")
        counts[kind] += 1
        if kind == "f":
            del live[ident]
            continue
        size = int(tokens[2])
        live[ident] = size
        bucket = buckets.get(size)
        if bucket is None:
            bucket = buckets[size] = [_pow2_ceiling(size), 0]
        bucket[1] += 1
    histogram = {}
    for bucket_max, count in buckets.values():
        histogram[bucket_max] = histogram.get(bucket_max, 0) + count
    return TraceSummary(
        events=sum(counts.values()),
        allocs=counts["a"],
        reallocs=counts["r"],
        live=live,
        histogram=[{"bucket_max": b, "count": histogram[b]} for b in sorted(histogram)],
    )


def _json(text: str):
    try:
        return json.loads(text), []
    except ValueError as exc:
        return None, [f"stdout is not JSON: {exc}"]


def check_exit(code: int, expected: int, stderr: str) -> list:
    if code == expected:
        return []
    return [f"exit code {code}, expected {expected}; stderr: {stderr.strip()[-300:]}"]


def check_gen_trace(stdout: str, out_path, events: int, trace_text: str):
    """Check ``gen-trace --out``; returns (errors, summary or None)."""
    payload, errors = _json(stdout)
    if payload is not None and payload != {"events": events, "path": str(out_path)}:
        errors.append(f"unexpected report {payload}")
    try:
        summary = summarize_trace(trace_text)
    except ValueError as exc:
        return errors + [f"trace file: {exc}"], None
    if summary.events != events:
        errors.append(f"trace has {summary.events} events, expected {events}")
    return errors, summary


def check_replay(stdout: str, summary: TraceSummary, pointer_width: int) -> list:
    """Check replay stats against what the trace alone implies."""
    stats, errors = _json(stdout)
    if stats is None:
        return errors
    try:
        if stats["live_bytes"] != summary.live_bytes:
            errors.append(f"live_bytes {stats['live_bytes']} != {summary.live_bytes}")
        if stats["histogram"] != summary.histogram:
            errors.append("size histogram differs from the trace")
        offsets = stats["offset_histogram"]
        if len(offsets) != pointer_width:
            errors.append(f"offset histogram has {len(offsets)} bins")
        if sum(offsets) != summary.allocs + summary.reallocs:
            errors.append(
                f"offset histogram total {sum(offsets)} != "
                f"alloc + realloc events {summary.allocs + summary.reallocs}"
            )
        largest_class = max(c["max_size"] for c in stats["per_class"])
        class_live = sum(1 for size in summary.live.values() if size <= largest_class)
        if sum(c["live"] for c in stats["per_class"]) != class_live:
            errors.append(f"per-class live total != {class_live} live class-sized ids")
        if summary.live_bytes and not math.isclose(
            stats["overhead_ratio"], stats["reserved_bytes"] / summary.live_bytes,
            rel_tol=1e-12,
        ):
            errors.append("overhead_ratio != reserved_bytes / live_bytes")
        if stats["peak_reserved"] < stats["reserved_bytes"]:
            errors.append("peak_reserved below reserved_bytes")
    except (KeyError, TypeError, ValueError) as exc:
        errors.append(f"malformed stats: {exc!r}")
    return errors


def _wilson(successes: int, trials: int, confidence: float = 0.99):
    z = NormalDist().inv_cdf(0.5 + confidence / 2)
    p = successes / trials
    denom = 1 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    return center - half, center + half


def check_spray(stdout: str, trials: int, *, exact_in_ci: bool = False) -> list:
    """Check spray-sim against the exact odds and an independent Wilson
    interval. ``exact_in_ci`` also requires ci_low <= exact <= ci_high,
    which a correct sampler misses for 1 seed in 100, so only the fixed
    reference seed asks for it."""
    out, errors = _json(stdout)
    if out is None:
        return errors
    try:
        if out["exact"] != SPRAY_EXACT:
            errors.append(f"exact {out['exact']} != 1/64")
        if out["trials"] != trials:
            errors.append(f"trials {out['trials']} != {trials}")
        successes = round(out["estimate"] * trials)
        sigma = math.sqrt(trials * SPRAY_EXACT * (1 - SPRAY_EXACT))
        if abs(successes - trials * SPRAY_EXACT) > _SIGMAS * sigma:
            errors.append(f"estimate {out['estimate']} is over {_SIGMAS} sigma from 1/64")
        low, high = _wilson(successes, trials)
        if abs(out["ci_low"] - low) > 1e-9 or abs(out["ci_high"] - high) > 1e-9:
            errors.append(f"interval {out['ci_low']}..{out['ci_high']} is not Wilson 99%")
        if exact_in_ci and not out["ci_low"] <= out["exact"] <= out["ci_high"]:
            errors.append("exact odds outside the reported interval")
    except (KeyError, TypeError, ValueError) as exc:
        errors.append(f"malformed spray report: {exc!r}")
    return errors


def check_filter(stdout: str) -> list:
    out, errors = _json(stdout)
    expected = {"contains": True, "length": 8, "start": "0x12121210", "strict": False}
    if out is not None and out != expected:
        errors.append(f"filter-check reported {out}")
    return errors


def _straddles(start: int, size: int, border: int) -> bool:
    return size > 1 and start // border != (start + size - 1) // border


def check_live_chunks(chunks, config) -> list:
    """Border rules, disjointness and the BSI filter over live chunks, each
    checked from the chunk addresses alone."""
    errors = []
    pw, line, page = config.pointer_width, config.cache_line, config.page_size
    filtered = config.filter_bsi and config.address_space_bits == 32
    line_bad = page_bad = bsi_bad = 0
    for c in chunks:
        guarded = c.requested + pw
        if guarded <= line and _straddles(c.start, c.requested, line):
            line_bad += 1
        elif line < guarded <= page and _straddles(c.start, c.requested, page):
            page_bad += 1
        if filtered and 0 < c.requested < BSI_PERIOD:
            first = -(-c.start // BSI_PERIOD) * BSI_PERIOD
            bsi_bad += first < c.start + c.requested
    if line_bad or page_bad:
        errors.append(f"{line_bad} line and {page_bad} page border-rule breaks")
    if bsi_bad:
        errors.append(f"{bsi_bad} live chunks cover a byte-shift-independent address")
    ordered = sorted(chunks, key=lambda c: c.start)
    overlaps = sum(
        1 for a, b in zip(ordered, ordered[1:]) if a.start + a.requested > b.start
    )
    if overlaps:
        errors.append(f"{overlaps} overlapping live chunks")
    return errors
