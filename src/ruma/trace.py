"""Allocation trace parsing, replay, and synthetic trace generation.

Trace files are UTF-8 text, one event per line, ``#`` to end of line is a
comment, tokens separated by whitespace:

    a ID SIZE     allocate SIZE bytes under the token ID
    f ID          free the allocation known as ID
    r ID SIZE     reallocate ID to SIZE bytes (ID stays live)

SIZE is one or more ASCII digits.
IDs are opaque tokens, unique among live allocations. Parsing validates
referential integrity, so replay never sees a free or realloc of a dead
id. Replay is sequential by definition; parsing is pure.
"""

from __future__ import annotations

import io
import math
from collections import Counter
from dataclasses import dataclass, field

from .arena import Arena, ArenaConfig, ReplayStats, _next_pow2
from .errors import CapacityError, TraceError

__all__ = [
    "TraceEvent",
    "generate_trace",
    "parse_trace",
    "replay",
    "replay_into",
    "serialize_trace",
]

_KIND_BY_TOKEN = {"a": "alloc", "f": "free", "r": "realloc"}
_TOKEN_BY_KIND = {v: k for k, v in _KIND_BY_TOKEN.items()}
# the generator's event mix while anything is live; frees take the rest
_ALLOC_PROB = 0.55
_REALLOC_PROB = 0.10


@dataclass(slots=True)
class TraceEvent:
    kind: str  # "alloc" | "free" | "realloc"
    id: str
    size: int | None = None
    line: int = field(default=0, compare=False)


def _column(raw_line: str, tokens, index: int) -> int:
    """1-based column of ``tokens[index]``; each token is searched for from
    the end of the one before, so a repeated text finds its own place."""
    end = 0
    for token in tokens[: index + 1]:
        pos = raw_line.index(token, end)
        end = pos + len(token)
    return pos + 1


def parse_trace(source) -> list:
    r"""Parse a trace from a string or an iterable of lines.

    A string is read as a text-mode file reads it: lines end at ``\n``,
    ``\r\n`` or ``\r``. Raises :class:`TraceError` with line and column
    on malformed input, duplicate live ids, or references to ids that are
    not live. A line that breaks several rules reports the first of: event
    token, token count, size, liveness.
    """
    lines = io.StringIO(source, newline=None) if isinstance(source, str) else source
    events = []
    live = set()
    append, make = events.append, TraceEvent
    for lineno, raw in enumerate(lines, 1):
        tokens = (raw.split("#", 1)[0] if "#" in raw else raw).split()
        if not tokens:
            continue
        kind = _KIND_BY_TOKEN.get(tokens[0])
        if kind is None:
            raise TraceError(
                f"unknown event {tokens[0]!r}",
                line=lineno,
                column=_column(raw, tokens, 0),
            )
        expected = 2 if kind == "free" else 3
        if len(tokens) != expected:
            raise TraceError(
                f"{kind} expects {expected} tokens, got {len(tokens)}", line=lineno
            )
        ident = tokens[1]
        size = None
        if kind != "free":
            text = tokens[2]
            if not (text.isdigit() and text.isascii()):
                digits = text[1:] if text[:1] == "-" else ""
                if digits.isdigit() and digits.isascii() and int(digits):
                    raise TraceError(f"negative size {int(text)}", line=lineno)
                raise TraceError(
                    f"bad size {text!r}",
                    line=lineno,
                    column=_column(raw, tokens, 2),
                )
            size = int(text)
        if kind == "alloc":
            if ident in live:
                raise TraceError(
                    f"id {ident!r} is already live",
                    line=lineno,
                    column=_column(raw, tokens, 1),
                )
            live.add(ident)
        elif ident not in live:
            raise TraceError(
                f"{kind} of unknown id {ident!r}",
                line=lineno,
                column=_column(raw, tokens, 1),
            )
        elif kind == "free":
            live.remove(ident)
        append(make(kind, ident, size, lineno))
    return events


def serialize_trace(events) -> str:
    """Canonical text for an event list; inverse of :func:`parse_trace`."""
    out = []
    for ev in events:
        token = _TOKEN_BY_KIND[ev.kind]
        if ev.kind == "free":
            out.append(f"{token} {ev.id}")
        else:
            out.append(f"{token} {ev.id} {ev.size}")
    return "\n".join(out) + ("\n" if out else "")


def replay_into(arena: Arena, events) -> ReplayStats:
    """Run the events through ``arena`` and return the final stats,
    extended with peak reserved bytes and the power-of-two histogram of
    requested sizes (alloc and realloc events both count)."""
    handles = {}
    sizes = []
    alloc, free, realloc = arena.alloc, arena.free, arena.realloc
    try:
        for index, ev in enumerate(events):
            kind = ev.kind
            if kind == "alloc":
                if ev.id in handles:
                    raise TraceError(f"id {ev.id!r} is already live", line=ev.line)
                handles[ev.id] = alloc(ev.size).id
                sizes.append(ev.size)
            elif kind == "free":
                handle = handles.pop(ev.id, None)
                if handle is None:
                    raise TraceError(f"free of unknown id {ev.id!r}", line=ev.line)
                free(handle)
            elif kind == "realloc":
                handle = handles.get(ev.id)
                if handle is None:
                    raise TraceError(f"realloc of unknown id {ev.id!r}", line=ev.line)
                handles[ev.id] = realloc(handle, ev.size).id
                sizes.append(ev.size)
            else:
                raise TraceError(f"unknown event kind {ev.kind!r}", line=ev.line)
    except CapacityError as exc:
        raise CapacityError(
            f"replay aborted at event {index + 1} (line {ev.line}): {exc}"
        ) from exc
    histogram = Counter()
    for size, count in Counter(sizes).items():
        histogram[_next_pow2(size)] += count
    stats = arena.stats()
    stats.peak_reserved = arena.peak_reserved
    stats.histogram = [
        {"bucket_max": b, "count": histogram[b]} for b in sorted(histogram)
    ]
    return stats


def replay(events, config: ArenaConfig) -> ReplayStats:
    return replay_into(Arena(config), events)


def generate_trace(
    events: int,
    seed: int,
    *,
    median: float = 32.0,
    sigma: float = 1.0,
    min_size: int = 1,
    max_size: int = 4096,
) -> list:
    """Emit a synthetic allocation trace with small-object mass.

    Sizes are log-normal with the given median and shape ``sigma``,
    clamped to [min_size, max_size]; the defaults put roughly 92% of
    requests below 128 bytes. While anything is live, each step allocates
    with probability 0.55, reallocates a random live id with 0.10, and
    frees a random live id otherwise. Ids are decimal tokens in allocation
    order. Deterministic for a fixed seed.
    """
    if events < 0:
        raise ValueError("events must be non-negative")
    if min_size < 0 or max_size < min_size:
        raise ValueError("bad size bounds")
    if not 0 < median < math.inf:
        raise ValueError(f"median must be positive and finite, got {median}")
    if not 0 <= sigma < math.inf:
        raise ValueError(f"sigma must be non-negative and finite, got {sigma}")
    import numpy as np

    rng = np.random.Generator(np.random.Philox(seed))
    # np.log, not math.log: the two may differ in the last bit, which would
    # change every seeded trace
    mean = np.log(median)
    out = []
    live = []
    next_id = 1

    def draw_size() -> int:
        # clamped before rounding, so a draw that overflows to inf is max_size
        size = float(rng.lognormal(mean, sigma))
        return int(round(max(min_size, min(max_size, size))))

    for _ in range(events):
        roll = float(rng.random())
        if not live or roll < _ALLOC_PROB:
            ident = str(next_id)
            next_id += 1
            live.append(ident)
            out.append(TraceEvent("alloc", ident, draw_size()))
        elif roll < _ALLOC_PROB + _REALLOC_PROB:
            ident = live[int(rng.integers(0, len(live)))]
            out.append(TraceEvent("realloc", ident, draw_size()))
        else:
            pick = int(rng.integers(0, len(live)))
            live[pick], live[-1] = live[-1], live[pick]
            out.append(TraceEvent("free", live.pop()))
    return out
