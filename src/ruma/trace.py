"""Allocation trace parsing, replay, and synthetic trace generation.

Trace files are UTF-8 text, one event per line, ``#`` to end of line is a
comment, tokens separated by whitespace:

    a ID SIZE     allocate SIZE bytes under the token ID
    f ID          free the allocation known as ID
    r ID SIZE     reallocate ID to SIZE bytes (ID stays live)

SIZE is one or more ASCII digits.
IDs are opaque tokens, unique among live allocations. Parsing validates
referential integrity, so replay never sees a free or realloc of a dead
id. Replay is sequential by definition, and it only replays: it hands
each event to the arena, checks liveness again for hand-built events,
and returns the arena's own report, :meth:`~ruma.arena.Arena.stats`,
peak reserve and request sizes included. Parsing holds no state of
its own: a caller that parses a trace in batches passes the live-id dict
and the first line number from one batch to the next, so ``ruma replay``
feeds each batch's events to the arena as it parses, and the file's
event list never exists in full.

A list of lines, or a string split into one, is parsed in two steps.
The extension module ``ruma.native.kernels`` (``ruma/native/kernels.c``,
which :func:`ruma.native.compiled` builds and loads) takes the canonical
lines at the head of the list (``a ID SIZE``, ``r ID SIZE`` or ``f ID``
in ASCII, single spaces, at most 18 digits of size, live ids as the
rules ask), and the Python loop parses every line from the first one it
leaves. That loop alone reports errors, and alone reads comments, blank
lines, other whitespace and non-ASCII ids, so the events and errors are
the same where the module cannot be built (no ``cc`` or no ``Python.h``)
and only the loop runs.

An event is a tuple ``(kind, id, size, line)``; ``size`` is None for a
free and ``line`` is the source line, or 0 for a generated event.

The generator reads one Philox stream's raw 64-bit words,
:func:`ruma.philox.words`, and imports no numpy. Each step's roll, each
live-id pick (:func:`ruma.philox.pick`) and each size's normal deviate
(:func:`ruma.philox.standard_normal`, numpy's ziggurat with numpy's
tables) are computed from those words, as numpy's ``random()``,
``integers(0, n)`` and ``lognormal`` compute them, so seeded traces
match numpy's calls.

The same module generates the whole trace when it loads, with the same
words, picks and expressions, over ``ruma.philox``'s tables, and
serializes the events at the head of a list that are plain tuples of
the parser's kinds, ids of printable ASCII other than ``#`` and sizes
below 2**64. The Python generator and serializer stay as the reference
and as the only path without the module; the generator alone makes a
trace whose size bounds or ``sigma`` a double cannot hold (2**53 and
above), and the serializer writes, or names as unwritable, every event
from the first one the module leaves.
"""

from __future__ import annotations

import io
import math
from itertools import chain, islice
from typing import TYPE_CHECKING

from . import native
from .errors import CapacityError, TraceError, check_seed
from .philox import _FI, _INV_R, _KI, _R, _WI, seed_key, standard_normal, words
from .philox import pick as _pick

if TYPE_CHECKING:
    from .arena import Arena, ArenaConfig, ReplayStats

__all__ = [
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


def _column(raw_line: str, tokens, index: int) -> int:
    """1-based column of ``tokens[index]``; each token is searched for from
    the end of the one before, so a repeated text finds its own place."""
    end = 0
    for token in tokens[: index + 1]:
        pos = raw_line.index(token, end)
        end = pos + len(token)
    return pos + 1


def parse_trace(source, live=None, first_line: int = 1) -> list:
    r"""Parse a trace from a string or an iterable of lines.

    A string is read as a text-mode file reads it: lines end at ``\n``,
    ``\r\n`` or ``\r``. Raises :class:`TraceError` with line and column
    on malformed input, duplicate live ids, or references to ids that are
    not live. A line that breaks several rules reports the first of: event
    token, token count, size, liveness.

    To parse a trace one batch of lines at a time, pass every batch the
    same ``live`` dict, which maps each live id to itself and is updated
    in place, and the number of its first line as ``first_line``. The
    batches then yield the events, errors and line numbers that parsing
    the whole trace at once would.
    """
    if isinstance(source, str):
        lines = io.StringIO(source, newline=None).readlines()
    else:
        lines = source
    events = []
    if live is None:
        live = {}
    # the kernel takes what it can from the head; the loop parses the rest
    if isinstance(lines, list) and (kernel := native.compiled()) is not None:
        taken = kernel.parse(lines, live, first_line, events)
        if taken == len(lines):
            return events
        lines = islice(lines, taken, None)
        first_line += taken
    append = events.append
    for lineno, raw in enumerate(lines, first_line):
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
            live[ident] = ident
        elif ident not in live:
            raise TraceError(
                f"{kind} of unknown id {ident!r}",
                line=lineno,
                column=_column(raw, tokens, 1),
            )
        else:
            # the alloc's own str: one object per id however often it recurs
            ident = live.pop(ident) if kind == "free" else live[ident]
        append((kind, ident, size, lineno))
    return events


def serialize_trace(events) -> str:
    """Canonical text for an event list, which :func:`parse_trace` reads
    back as the same kinds, ids and sizes. Raises ``ValueError``, naming
    the event's index in ``events``, for an event it cannot write so: an
    id whose ``str`` is not one token (empty, or holding whitespace or
    ``#``), or an alloc's or realloc's size that is not a non-negative
    int (``None`` and ``True`` among them). A free's size is not written,
    so it is not checked. The lines go into one buffer as they are made,
    so no list of a string per event is held beside the text."""
    out = io.StringIO()
    write = out.write
    taken = 0
    # the kernel writes what it can from the head; the loop writes the rest
    if isinstance(events, list) and (kernel := native.compiled()) is not None:
        head, taken = kernel.serialize(events)
        if taken == len(events):
            return head
        write(head)
        events = islice(events, taken, None)
    for index, (kind, ident, size, _) in enumerate(events, taken):
        token = _TOKEN_BY_KIND[kind]
        ident = str(ident)
        if "#" in ident or ident.split() != [ident]:
            raise ValueError(f"event {index}: id {ident!r} is not one token")
        if kind == "free":
            write(f"{token} {ident}\n")
        elif isinstance(size, int) and not isinstance(size, bool) and size >= 0:
            write(f"{token} {ident} {size}\n")
        else:
            raise ValueError(f"event {index}: size {size!r} is not a non-negative int")
    return out.getvalue()


def replay_into(arena: Arena, events) -> ReplayStats:
    """Run the events through ``arena`` and return its final
    :meth:`~ruma.arena.Arena.stats`."""
    handles = {}
    alloc, free, realloc = arena.alloc, arena.free, arena.realloc
    try:
        for index, (kind, ident, size, line) in enumerate(events):
            if kind == "alloc":
                if ident in handles:
                    raise TraceError(f"id {ident!r} is already live", line=line)
                handles[ident] = alloc(size).id
            elif kind == "free":
                handle = handles.pop(ident, None)
                if handle is None:
                    raise TraceError(f"free of unknown id {ident!r}", line=line)
                free(handle)
            elif kind == "realloc":
                handle = handles.get(ident)
                if handle is None:
                    raise TraceError(f"realloc of unknown id {ident!r}", line=line)
                handles[ident] = realloc(handle, size).id
            else:
                raise TraceError(f"unknown event kind {kind!r}", line=line)
    except CapacityError as exc:
        raise CapacityError(
            f"replay aborted at event {index + 1} (line {line}): {exc}"
        ) from exc
    return arena.stats()


def replay(events, config: ArenaConfig) -> ReplayStats:
    from .arena import Arena

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

    All draws come from one Philox stream, without numpy: each step's
    roll, each live-id pick and each size are computed from the stream's
    raw 64-bit words exactly as ``Generator.random()``,
    ``Generator.integers(0, n)`` and ``Generator.lognormal(mean, sigma)``
    compute them, so every seeded trace is the one numpy's calls give.
    """
    if events < 0:
        raise ValueError("events must be non-negative")
    check_seed(seed)
    if min_size < 0 or max_size < min_size:
        raise ValueError("bad size bounds")
    if not 0 < median < math.inf:
        raise ValueError(f"median must be positive and finite, got {median}")
    if not 0 <= sigma < math.inf:
        raise ValueError(f"sigma must be non-negative and finite, got {sigma}")
    # numpy's lognormal is exp(mean + sigma * z). math.log and np.log differ
    # in the last bit for about 1 median in 10,000; a 1-ulp change in the
    # mean moves a size by about 2 ulps, which changes the rounded size only
    # at a .5 boundary. That no seeded trace changes rests on measurement
    # (test_trace.py searches such medians), not on proof.
    mean = math.log(median)
    exp = math.exp
    # a roll is Philox's next_double, (word >> 11) / 2**53, and for an
    # integer w, w / 2**53 < p exactly when w < ceil(p * 2**53): so a roll
    # below p is a word below that bound shifted left by 11
    alloc_below = math.ceil(_ALLOC_PROB * 2.0**53) << 11
    realloc_below = math.ceil((_ALLOC_PROB + _REALLOC_PROB) * 2.0**53) << 11
    if (kernel := native.compiled()) is not None:
        out = kernel.generate(
            events, seed_key(seed), alloc_below, realloc_below, mean, sigma,
            min_size, max_size, (_KI, _WI, _FI, _R, _INV_R),
        )
        if out is not None:
            return out
    raw = chain.from_iterable(words(seed)).__next__
    spare = -1
    out = []
    append = out.append
    live = []
    next_id = 1
    for _ in range(events):
        word = raw()
        if word < alloc_below or not live:
            ident = str(next_id)
            next_id += 1
            live.append(ident)
            kind = "alloc"
        else:
            pick, spare = _pick(raw, len(live), spare)
            if word >= realloc_below:
                live[pick], live[-1] = live[-1], live[pick]
                append(("free", live.pop(), None, 0))
                continue
            ident = live[pick]
            kind = "realloc"
        try:
            size = exp(mean + sigma * standard_normal(raw))
        except OverflowError:  # where C's exp, and so numpy's, gives inf
            size = math.inf
        # clamped before rounding, so a draw that overflows to inf is max_size
        append((kind, ident, round(
            min_size if size < min_size else max_size if size > max_size else size
        ), 0))
    return out
