"""Trace parsing, round trips, replay accounting, and the generator."""

import io
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ruma import ArenaConfig, CapacityError, cli
from ruma.arena import Arena
from ruma.errors import TraceError
from ruma.trace import (
    TraceEvent,
    generate_trace,
    parse_trace,
    replay,
    replay_into,
    serialize_trace,
)


def test_parse_basic():
    events = parse_trace("a 1 32\nf 1\n")
    assert events == [TraceEvent("alloc", "1", 32), TraceEvent("free", "1")]
    assert events[0].line == 1 and events[1].line == 2


def test_parse_comments_blank_lines_and_tokens():
    text = "# header\n\n  a x7 16   # inline\nr x7 64\nf x7\n"
    events = parse_trace(text)
    assert [e.kind for e in events] == ["alloc", "realloc", "free"]
    assert events[0].id == "x7"


def test_parse_accepts_line_iterables(tmp_path):
    path = tmp_path / "t.trace"
    path.write_text("a 1 8\nf 1\n", encoding="utf-8")
    with open(path, "r", encoding="utf-8") as handle:
        events = parse_trace(handle)
    assert len(events) == 2


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("z 1 2\n", "unknown event"),
        ("a 1\n", "expects 3 tokens"),
        ("f 1 2\n", "expects 2 tokens"),
        ("a 1 many\n", "bad size"),
        ("a 1 -4\n", "negative size"),
        ("a 1 8\na 1 8\n", "already live"),
        ("r 1 64\n", "unknown id"),
        ("f 1\n", "unknown id"),
        ("a 1 8\nf 1\nf 1\n", "unknown id"),
        # a line that breaks several rules reports the first it breaks
        ("r 9 -1\n", "negative size"),
        ("f 9 2\n", "expects 2 tokens"),
        ("a 1 8\na 1 x\n", "bad size"),
        # SIZE is ASCII digits only; int() would take all of these
        ("a 1 1_0\n", "bad size"),
        ("a 2 +8\n", "bad size"),
        ("a 3 \u0663\n", "bad size"),  # ARABIC-INDIC DIGIT THREE
        ("a 4 \uff18\n", "bad size"),  # FULLWIDTH DIGIT EIGHT
        ("a 5 -0\n", "bad size"),
    ],
)
def test_parse_errors_carry_position(text, fragment):
    with pytest.raises(TraceError) as err:
        parse_trace(text)
    assert fragment in str(err.value)
    assert err.value.line is not None


@pytest.mark.parametrize(
    "text, line, column",
    [
        ("a a 8\na a 8\n", 2, 3),  # the duplicate id repeats the event token
        ("a f f\n", 1, 5),  # the bad size repeats the id
        ("  z 1 2\n", 1, 3),
        ("a 1 8\nf  9\n", 2, 4),
        ("r 1 1\n", 1, 3),
        ("a 1 8\nr 1 +8\n", 2, 5),
    ],
)
def test_parse_error_columns_point_at_the_token(text, line, column):
    # a file handle yields its lines with the newline still on
    for source in (text, io.StringIO(text)):
        with pytest.raises(TraceError) as err:
            parse_trace(source)
        assert (err.value.line, err.value.column) == (line, column)


@pytest.mark.parametrize(
    "text",
    [
        "# header\n\n  a x7 16   # inline\nr x7 64\n#a 9 9\nf x7#done\n\n",
        "a 1 8\r\n\r\na 2 16 # two\r\nr 2 32\r\nf 1\r\nf 2",
        serialize_trace(generate_trace(3000, seed=21)),
    ],
    ids=["comments", "crlf", "generated"],
)
def test_parse_sources_agree(text):
    # str, file handle and kept line ends: same events on the same lines
    expected = parse_trace(text)
    assert expected
    for source in (io.StringIO(text), text.splitlines(keepends=True)):
        events = parse_trace(source)
        assert events == expected
        assert [e.line for e in events] == [e.line for e in expected]


@pytest.mark.parametrize(
    "text",
    [
        "a 1 8\f\nf 1\n",
        "a 1 8\ff 1\n",
        "a 1 8\rf 1\n",
        # str.splitlines breaks lines at these too; a text-mode file does not
        "a 1 8\vf 1\n",
        "a 1 8\x1cf 1\n",
        "a 1 8\x85f 1\n",
        "a 1 8\u2028f 1\n",
    ],
    ids=["ff-newline", "ff", "cr", "vt", "fs", "nel", "ls"],
)
def test_str_file_and_replay_read_the_same_lines(text, tmp_path, monkeypatch):
    path = tmp_path / "t.trace"
    path.write_bytes(text.encode("utf-8"))
    replayed = []
    real_replay = cli.replay

    def recording_replay(events, config):
        replayed.append(events)
        return real_replay(events, config)

    monkeypatch.setattr(cli, "replay", recording_replay)

    def outcome(read):
        """The events with their lines, or the error text the CLI prints."""
        try:
            events = read()
        except TraceError as exc:
            return str(exc)
        return [(e.kind, e.id, e.size, e.line) for e in events]

    def via_replay():
        cli.dispatch(["replay", "--trace", str(path)])
        return replayed.pop()

    with open(path, "r", encoding="utf-8") as handle:
        from_file = outcome(lambda: parse_trace(handle))
    assert outcome(lambda: parse_trace(text)) == from_file
    assert outcome(via_replay) == from_file


def test_id_reusable_after_free():
    events = parse_trace("a 1 8\nf 1\na 1 16\n")
    assert events[2].size == 16


def test_serialize_parse_round_trip_is_canonical_text():
    text = "# top\na 1 32\n\nf   1  # done\na 2 8\n"
    assert serialize_trace(parse_trace(text)) == "a 1 32\nf 1\na 2 8\n"


def _valid_events(choices):
    """Turn arbitrary drawn (op, id, size) triples into a valid trace."""
    live = set()
    out = []
    for op, ident, size in choices:
        name = str(ident)
        if op == "a" or not live:
            if name in live:
                continue
            live.add(name)
            out.append(TraceEvent("alloc", name, size))
        elif op == "r":
            if name not in live:
                name = sorted(live)[0]
            out.append(TraceEvent("realloc", name, size))
        else:
            if name not in live:
                name = sorted(live)[0]
            live.discard(name)
            out.append(TraceEvent("free", name))
    return out


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from("afr"),
            st.integers(0, 30),
            st.integers(0, 500),
        ),
        max_size=60,
    )
)
def test_round_trip_property(choices):
    events = _valid_events(choices)
    assert parse_trace(serialize_trace(events)) == events


def test_replay_conservation_and_histogram():
    events = parse_trace("a 1 10\na 2 300\nr 2 20\na 3 5000\nf 1\n")
    stats = replay(events, ArenaConfig(rng_seed=3))
    assert stats.live_bytes == 20 + 5000
    hist = {b["bucket_max"]: b["count"] for b in stats.histogram}
    assert sum(hist.values()) == 4  # three allocs plus one realloc
    assert hist[16] == 1 and hist[512] == 1 and hist[32] == 1 and hist[8192] == 1
    assert stats.peak_reserved >= stats.reserved_bytes


def test_replay_all_freed_ends_empty():
    events = parse_trace("a 1 40\na 2 40\nf 2\nf 1\n")
    stats = replay(events, ArenaConfig(rng_seed=4))
    assert stats.live_bytes == 0
    assert stats.reserved_bytes == 0
    assert stats.peak_reserved > 0


def test_replay_baseline_is_strict():
    events = generate_trace(5000, seed=8, min_size=16, max_size=128)
    on = replay(events, ArenaConfig(randomize=True, rng_seed=9))
    off = replay(events, ArenaConfig(randomize=False, rng_seed=9))
    assert off.offset_histogram[0] == sum(off.offset_histogram)
    assert on.overhead_ratio >= off.overhead_ratio
    assert [c["max_size"] for c in on.per_class] == [
        c["max_size"] for c in off.per_class
    ]
    assert [c["live"] for c in on.per_class] == [c["live"] for c in off.per_class]


def test_replay_capacity_abort_reports_position():
    events = parse_trace("a 1 4096\na 2 4096\na 3 4096\n")
    with pytest.raises(CapacityError) as err:
        replay(events, ArenaConfig(arena_capacity=8192, rng_seed=5))
    assert "event" in str(err.value) and "line" in str(err.value)


def test_replay_into_exposes_arena():
    arena = Arena(ArenaConfig(rng_seed=6))
    stats = replay_into(arena, parse_trace("a 1 24\n"))
    assert len(arena.live_allocations()) == 1
    assert stats.live_bytes == 24


def test_generator_is_seed_deterministic_and_small_heavy():
    a = generate_trace(20_000, seed=12)
    b = generate_trace(20_000, seed=12)
    c = generate_trace(20_000, seed=13)
    assert a == b and a != c
    sized = [e.size for e in a if e.size is not None]
    below = sum(1 for s in sized if s < 128) / len(sized)
    assert below > 0.85  # documented small-object mass
    assert parse_trace(serialize_trace(a)) == a  # generator emits valid traces


def test_generator_respects_bounds():
    events = generate_trace(2000, seed=14, min_size=16, max_size=128)
    for ev in events:
        if ev.size is not None:
            assert 16 <= ev.size <= 128
    with pytest.raises(ValueError):
        generate_trace(-1, seed=0)


def test_generator_event_mix():
    events = generate_trace(20_000, seed=12)
    kinds = Counter(e.kind for e in events)
    for kind, share in (("alloc", 0.55), ("realloc", 0.10), ("free", 0.35)):
        assert abs(kinds[kind] / len(events) - share) <= 0.02, kind
