"""Trace parsing, round trips, replay accounting, and the generator."""

import io
import math
from collections import Counter, OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ruma import ArenaConfig, CapacityError, cli, native
from ruma import trace as trace_module
from ruma.arena import Arena
from ruma.errors import TraceError
from ruma.trace import (
    _pick,
    generate_trace,
    parse_trace,
    replay,
    replay_into,
    serialize_trace,
)

import oracles
from conftest import needs_cc, on_each_parse_path


@on_each_parse_path
def test_parse_basic():
    events = parse_trace("a 1 32\nf 1\n")
    assert events == [("alloc", "1", 32, 1), ("free", "1", None, 2)]


@on_each_parse_path
def test_parse_comments_blank_lines_and_tokens():
    text = "# header\n\n  a x7 16   # inline\nr x7 64\nf x7\n"
    events = parse_trace(text)
    assert [e[0] for e in events] == ["alloc", "realloc", "free"]
    assert events[0][1] == "x7"


@on_each_parse_path
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
@on_each_parse_path
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
@on_each_parse_path
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
        None,  # a generated trace, made in the test: collection builds no kernel
    ],
    ids=["comments", "crlf", "generated"],
)
@on_each_parse_path
def test_parse_sources_agree(text):
    if text is None:
        text = serialize_trace(generate_trace(3000, seed=21))
    # str, file handle and kept line ends: same events on the same lines
    expected = parse_trace(text)
    assert expected
    for source in (io.StringIO(text), text.splitlines(keepends=True)):
        events = parse_trace(source)
        assert events == expected
        assert [e[3] for e in events] == [e[3] for e in expected]


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
@on_each_parse_path
def test_str_file_and_replay_read_the_same_lines(text, tmp_path, monkeypatch):
    path = tmp_path / "t.trace"
    path.write_bytes(text.encode("utf-8"))
    replayed = []
    real_replay = cli.replay

    def recording_replay(events, config):
        # the CLI hands replay a one-shot iterable that parses as it goes
        events = list(events)
        replayed.append(events)
        return real_replay(events, config)

    monkeypatch.setattr(cli, "replay", recording_replay)

    def outcome(read):
        """The events with their lines, or the error text the CLI prints."""
        try:
            events = read()
        except TraceError as exc:
            return str(exc)
        return events

    def via_replay():
        cli.dispatch(["replay", "--trace", str(path)])
        return replayed.pop()

    with open(path, "r", encoding="utf-8") as handle:
        from_file = outcome(lambda: parse_trace(handle))
    assert outcome(lambda: parse_trace(text)) == from_file
    assert outcome(via_replay) == from_file


@on_each_parse_path
def test_parse_in_batches_matches_the_whole_trace():
    # the live ids and the line count carry over, so a batch boundary
    # anywhere, even between an alloc and its free, changes nothing
    text = "# head\n" + serialize_trace(generate_trace(300, seed=5))
    lines = text.splitlines(keepends=True)
    expected = parse_trace(text)
    for cut in (1, 2, 77, 150, len(lines) - 1, len(lines)):
        live = {}
        first = parse_trace(lines[:cut], live)
        assert first + parse_trace(lines[cut:], live, cut + 1) == expected


@on_each_parse_path
def test_id_reusable_after_free():
    events = parse_trace("a 1 8\nf 1\na 1 16\n")
    assert events[2][2] == 16


@on_each_parse_path
def test_parse_keeps_one_str_per_id():
    # a free or realloc holds its alloc's id object, not split()'s equal copy
    alloc, realloc, free = parse_trace("a x17 8\nr x17 16\nf x17\n")
    assert realloc[1] is alloc[1] and free[1] is alloc[1]


class Lines(list):
    """A list whose iteration yields another line than it holds."""

    def __iter__(self):
        yield "a 9 9\n"


@on_each_parse_path
def test_a_list_subclass_is_parsed_as_it_iterates():
    # the kernel reads a list's storage, so it takes nothing from a
    # subclass, whose own __iter__ the Python loop follows
    assert parse_trace(Lines(["a 1 8\n"])) == [("alloc", "9", 9, 1)]


@on_each_parse_path
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
            out.append(("alloc", name, size, len(out) + 1))
        elif op == "r":
            if name not in live:
                name = sorted(live)[0]
            out.append(("realloc", name, size, len(out) + 1))
        else:
            if name not in live:
                name = sorted(live)[0]
            live.discard(name)
            out.append(("free", name, None, len(out) + 1))
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
@on_each_parse_path
def test_round_trip_property(choices):
    events = _valid_events(choices)
    assert parse_trace(serialize_trace(events)) == events


# -- the compiled kernel and the Python loop -------------------------------

KERNEL = native.compiled


@needs_cc
def test_the_parse_kernel_builds_where_there_is_a_compiler():
    # otherwise on_each_parse_path would run the Python loops twice
    module = KERNEL()
    assert module is not None
    for name in ("parse", "generate", "serialize"):
        assert callable(getattr(module, name)), name


@pytest.fixture(scope="module")
def kernel():
    """The compiled module; the test skips where it does not build."""
    found = KERNEL()
    if found is None:
        pytest.skip("the compiled kernels do not build here")
    return found


def _outcome(call, *args, **kwargs):
    """What ``call(*args, **kwargs)`` returns, or the type and text of
    what it raises."""
    try:
        return call(*args, **kwargs)
    except Exception as exc:
        return type(exc), str(exc)


def _by_the_loops(call, *args, **kwargs):
    """``call(*args, **kwargs)`` with ``ruma.trace``'s Python loops alone."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(native, "compiled", lambda: None)
        return call(*args, **kwargs)


def test_the_kernel_takes_the_canonical_head(kernel):
    lines = [
        "a 1 8\n", "a ~!$x 0\n", "r 1 123456789012345678\n", "a 2 007", "f ~!$x\n",
        "a 1 8\n",  # 1 is still live: the kernel stops here
        "f 2\n",
    ]
    live, events = {}, []
    assert kernel.parse(lines, live, 7, events) == 5
    assert events == [
        ("alloc", "1", 8, 7),
        ("alloc", "~!$x", 0, 8),
        ("realloc", "1", 123456789012345678, 9),
        ("alloc", "2", 7, 10),
        ("free", "~!$x", None, 11),
    ]
    assert events[2][1] is events[0][1] and events[4][1] is events[1][1]
    assert live == {"1": "1", "2": "2"} and live["1"] is events[0][1]


@pytest.mark.parametrize(
    "line",
    [
        "", "\n", "# a 1 8\n", "a 1 8 # c\n", "a 1 8#c\n", "a x#y 8\n", "a #\n",
        " a 1 8\n", "a  1 8\n", "a 1  8\n", "a 1 8 \n", "a\t1 8\n", "a 1 8\r\n",
        "a 1 8\r", "a 1 8\n\n", "a 1\x0b8\n", "a 1 8\x85", "a \u00e9 8\n",
        "a 1 \u0663\n", "a 1 1234567890123456789\n", "a 1 -8\n", "a 1 +8\n",
        "a 1 8x\n", "a 1\n", "a 1 8 9\n", "f 1 8\n", "A 1 8\n", "x 1 8\n",
        "r 1 8\n", "f 1\n", "f 1", "f\n",
    ],
)
def test_the_kernel_leaves_every_other_line_to_the_loop(kernel, line):
    live, events = {}, []
    assert kernel.parse([line, "a 2 8\n"], live, 1, events) == 0
    assert (live, events) == ({}, [])


def test_the_kernel_takes_nothing_but_str_lines_in_a_list_with_a_dict(kernel):
    events = []
    for lines, live in [
        ([b"a 1 8\n"], {}),
        ([None], {}),
        (("a 1 8\n",), {}),
        (["a 1 8\n"], OrderedDict()),
        ([type("Line", (str,), {})("a 1 8\n")], {}),
        (type("Lines", (list,), {})(["a 1 8\n"]), {}),
    ]:
        assert kernel.parse(lines, live, 1, events) == 0
        assert (live, events) == (type(live)(), [])


_IDS = st.sampled_from(["1", "2", "3", "10", "x#y", "#", "\u00e9", "~!$"])
_SIZES = st.one_of(
    st.integers(0, 300).map(str),
    st.integers(10**17, 10**19 - 1).map(str),  # 18 and 19 digits
    st.sampled_from(["007", "-4", "-0", "+8", "1_0", "x", "\u0663"]),
)


@st.composite
def _trace_lines(draw):
    """A trace line over a few ids, so that an id is often already live or
    not live: three in four spelt canonically, the others spelt in any of
    the ways the loop alone reads or rejects."""
    kind = draw(st.sampled_from("aaarrf"))
    parts = [kind, draw(_IDS)]
    if draw(st.integers(0, 3)):
        if kind != "f":
            parts.append(str(draw(st.integers(0, 300))))
        return " ".join(parts) + draw(st.sampled_from(["\n", ""]))
    parts[0] = draw(st.sampled_from(["a", "r", "f", "x", "A", ""]))
    if parts[0] != "f" or draw(st.booleans()):
        parts.append(draw(_SIZES))
    line = draw(st.sampled_from([" ", " ", "  ", "\t"])).join(parts) + draw(
        st.sampled_from(["\n", "", "\r\n", " \n", " # c\n", "#c\n", "\r"])
    )
    return draw(st.sampled_from([line, line, "\n", "# note\n", "\t\n"]))


def _parsed_in_batches(lines, cuts, kernel):
    """The events and final live ids of ``lines`` parsed in batches split at
    ``cuts``, with ``kernel`` as parse_trace's kernel; or the error's text,
    line and column."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(native, "compiled", lambda: kernel)
        live, events, first = {}, [], 0
        try:
            for end in [*sorted(cuts), len(lines)]:
                events += parse_trace(lines[first:end], live, first + 1)
                first = max(first, end)
        except TraceError as exc:
            return str(exc), exc.line, exc.column
        return events, live


@settings(max_examples=300, deadline=None)
@given(
    st.lists(_trace_lines(), max_size=40),
    st.lists(st.integers(0, 40), max_size=3),
)
def test_the_kernel_then_the_loop_parse_as_the_loop_alone(kernel, lines, cuts):
    expected = _parsed_in_batches(lines, cuts, None)
    assert _parsed_in_batches(lines, cuts, kernel) == expected


_HEAD = [("alloc", "1", 8, 0), ("alloc", "x~", 0, 3), ("realloc", "1", 2**64 - 1, 0)]


class _Size(int):
    pass


@pytest.mark.parametrize(
    "tail",
    [
        [("alloc", "\u00e9", 8, 0)],
        [("alloc", "2", 2**64, 0)],
        [("alloc", "2", -1, 0)],
        [("alloc", "2", True, 0)],
        [("alloc", "2", _Size(8), 0)],
        [("alloc", "2", None, 0)],
        [["alloc", "2", 8, 0]],
        [("alloc", "2", 8)],
        [("".join(["al", "loc"]), "2", 8, 0)],  # equal to "alloc", not the same
        [("alloc", type("Id", (str,), {})("2"), 8, 0)],
        [("alloc", 2, 8, 0)],
    ],
    ids=[
        "non-ascii-id", "size-2**64", "negative-size", "bool-size", "int-subclass-size",
        "no-size", "list-event", "3-tuple", "equal-kind", "str-subclass-id", "int-id",
    ],
)
def test_the_serialize_kernel_leaves_every_other_event_to_the_loop(kernel, tail):
    events = [*_HEAD, *tail, ("free", "1", None, 0)]
    text, taken = kernel.serialize(events)
    assert taken == len(_HEAD)
    assert text == _by_the_loops(serialize_trace, _HEAD)
    # the text, or the error (a 3-tuple does not unpack)
    assert _outcome(serialize_trace, events) == _outcome(
        _by_the_loops, serialize_trace, events
    )


def test_the_serialize_kernel_writes_what_the_loop_writes(kernel):
    # a free's size is never written, so the kernel takes a free that
    # carries one; it takes nothing from a list subclass or another iterable
    events = [*_HEAD, ("free", "x~", 12, 0), ("alloc", "a b", 5, 0)]
    text = _by_the_loops(serialize_trace, events)
    assert text == "a 1 8\na x~ 0\nr 1 18446744073709551615\nf x~\na a b 5\n"
    assert kernel.serialize(events) == (text, len(events))
    assert serialize_trace(events) == text
    for other in (tuple(events), iter(events), type("Events", (list,), {})(events)):
        assert kernel.serialize(other) == ("", 0)
    assert serialize_trace(iter(events)) == text
    assert kernel.serialize([]) == ("", 0) and serialize_trace([]) == ""
    with pytest.raises(KeyError):
        serialize_trace([*_HEAD, ("bogus", "1", None, 0)])


@pytest.mark.parametrize(
    "bounds",
    [
        {"max_size": 2**53},
        {"min_size": 2**53, "max_size": 2**53},
        {"max_size": 2.0**60},
        {"max_size": True},
        {"min_size": math.nan},
        {"max_size": math.inf},
    ],
    ids=["2**53", "min-2**53", "float-2**60", "bool", "nan", "inf"],
)
def test_the_generate_kernel_declines_what_a_double_cannot_hold(kernel, bounds):
    params = {"median": 1e15, "sigma": 3.0, "min_size": 1, "max_size": 4096, **bounds}
    ziggurat = (
        trace_module._KI, trace_module._WI, trace_module._FI, trace_module._R,
        trace_module._INV_R,
    )
    # generate_trace's roll bounds do not matter: the kernel declines first
    assert kernel.generate(
        300, trace_module.seed_key(5), 0, 0, math.log(params["median"]),
        params["sigma"], params["min_size"], params["max_size"], ziggurat,
    ) is None
    # the events, or the error (the loop rounds an inf size)
    assert _outcome(generate_trace, 300, 5, **params) == _outcome(
        _by_the_loops, generate_trace, 300, 5, **params
    )


def test_the_generate_kernel_takes_bounds_just_below_2_to_the_53(kernel):
    params = {"median": 2.0**26, "sigma": 9.0, "min_size": 2.5, "max_size": 2**53 - 1}
    events = generate_trace(3000, 5, **params)
    assert events == _by_the_loops(generate_trace, 3000, 5, **params)
    sizes = {e[2] for e in events if e[2] is not None}
    assert {2, 2**53 - 1} <= sizes  # both bounds clamp some draws


@on_each_parse_path
def test_replay_conservation_and_histogram():
    events = parse_trace("a 1 10\na 2 300\nr 2 20\na 3 5000\nf 1\n")
    stats = replay(events, ArenaConfig(rng_seed=3))
    assert stats.live_bytes == 20 + 5000
    hist = {b["bucket_max"]: b["count"] for b in stats.histogram}
    assert sum(hist.values()) == 4  # three allocs plus one realloc
    assert hist[16] == 1 and hist[512] == 1 and hist[32] == 1 and hist[8192] == 1
    assert stats.peak_reserved >= stats.reserved_bytes


@on_each_parse_path
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


@on_each_parse_path
def test_replay_capacity_abort_reports_position():
    events = parse_trace("a 1 4096\na 2 4096\na 3 4096\n")
    with pytest.raises(CapacityError) as err:
        replay(events, ArenaConfig(arena_capacity=8192, rng_seed=5))
    assert "event" in str(err.value) and "line" in str(err.value)
    # a comment and a blank line set the event index and the line apart
    events = parse_trace("# c\na 1 4096\n\na 2 4096\na 3 4096\n")
    with pytest.raises(CapacityError) as err:
        replay(events, ArenaConfig(arena_capacity=8192, rng_seed=5))
    assert str(err.value) == (
        "replay aborted at event 2 (line 4): arena exhausted carving 2 pages"
    )


@pytest.mark.parametrize(
    "events, message",
    [
        ([("alloc", "1", 8, 3), ("alloc", "1", 8, 7)], "line 7: id '1' is already live"),
        ([("alloc", "1", 8, 1), ("free", "9", None, 3)], "line 3: free of unknown id '9'"),
        ([("realloc", "9", 8, 2)], "line 2: realloc of unknown id '9'"),
        ([("alloc", "1", 8, 1), ("bogus", "1", 8, 6)], "line 6: unknown event kind 'bogus'"),
    ],
    ids=["double-alloc", "free-unknown", "realloc-unknown", "bad-kind"],
)
def test_replay_into_checks_liveness_of_hand_built_events(events, message):
    # parse_trace never emits these, so only hand-built events reach the checks
    with pytest.raises(TraceError) as err:
        replay_into(Arena(ArenaConfig(rng_seed=6)), events)
    assert str(err.value) == message


@on_each_parse_path
def test_replay_into_exposes_arena():
    arena = Arena(ArenaConfig(rng_seed=6))
    stats = replay_into(arena, parse_trace("a 1 24\n"))
    assert len(arena.live_allocations()) == 1
    assert stats.live_bytes == 24


@on_each_parse_path
def test_generator_is_seed_deterministic_and_small_heavy():
    a = generate_trace(20_000, seed=12)
    b = generate_trace(20_000, seed=12)
    c = generate_trace(20_000, seed=13)
    assert a == b and a != c
    sized = [e[2] for e in a if e[2] is not None]
    below = sum(1 for s in sized if s < 128) / len(sized)
    assert below > 0.85  # documented small-object mass
    # generator emits valid traces; its events carry line 0
    parsed = parse_trace(serialize_trace(a))
    assert [e[:3] for e in parsed] == [e[:3] for e in a]
    assert {e[3] for e in a} == {0}


@on_each_parse_path
def test_generator_respects_bounds():
    events = generate_trace(2000, seed=14, min_size=16, max_size=128)
    for _, _, size, _ in events:
        if size is not None:
            assert 16 <= size <= 128
    with pytest.raises(ValueError):
        generate_trace(-1, seed=0)
    with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
        generate_trace(10, seed=-1)


def test_generator_rejects_inverted_size_bounds():
    with pytest.raises(ValueError, match="^bad size bounds$"):
        generate_trace(1, 1, min_size=5, max_size=4)


def test_generator_event_mix():
    events = generate_trace(20_000, seed=12)
    kinds = Counter(e[0] for e in events)
    for kind, share in (("alloc", 0.55), ("realloc", 0.10), ("free", 0.35)):
        assert abs(kinds[kind] / len(events) - share) <= 0.02, kind


@pytest.mark.parametrize("events", [0, 1, 2, 7, 20_000])
@pytest.mark.parametrize(
    "params",
    [
        {},
        {"median": 512, "sigma": 1.5, "max_size": 65536},
        {"sigma": 0.0},
        {"min_size": 24, "max_size": 24},
        {"median": 1e308, "sigma": 5.0, "max_size": 512},  # draws overflow to inf
        {"median": 2.5, "sigma": 0.0},  # every size is 2.5, which rounds to 2
    ],
    ids=["default", "mixed", "sigma0", "one-size", "overflow", "half"],
)
@pytest.mark.parametrize("seed", [1, 3, 12])
@on_each_parse_path
def test_generator_matches_numpys_public_draws(seed, params, events):
    # the short traces keep returning to a single live id, where a pick
    # draws nothing
    got = [e[:3] for e in generate_trace(events, seed, **params)]
    assert got == oracles.reference_trace(events, seed, **params)


def _medians_where_the_logs_differ(count):
    """Up to ``count`` medians in [1, 4096) whose np.log and math.log
    differ, from a seeded sample: about 1 in 10**4 does with numpy 2.4
    on x86-64."""
    sample = np.random.default_rng(0).uniform(1.0, 4096.0, 300_000).tolist()
    # np.log of one Python float, as reference_trace computes its mean
    return [m for m in sample if np.log(m) != math.log(m)][:count]


@on_each_parse_path
def test_math_log_for_the_mean_keeps_the_traces_of_numpys_log():
    # generate_trace takes math.log of the median, reference_trace numpy's
    # np.log. Where the two differ by an ulp, the sizes move by about two
    # ulps, which changes a rounded size only at a .5 boundary. That no
    # trace changes rests on these medians and seeds, not on proof.
    medians = _medians_where_the_logs_differ(6)
    if not medians:
        pytest.skip("np.log and math.log agree on every sampled median")
    for median in medians:
        for seed in (1, 3, 12):
            got = [e[:3] for e in generate_trace(3000, seed, median=median)]
            assert got == oracles.reference_trace(3000, seed, median=median), (
                median, seed
            )


@pytest.mark.parametrize("n", [1, 2, 3, 1000, 2**31 + 1, 3 * 2**30])
def test_pick_draws_what_numpys_integers_draws(n):
    # twin generators on one seed; rolls and sizes between the picks take
    # whole words and must leave a kept half alone. The two large n make
    # Lemire's method reject about a half and a quarter of the halves.
    ours = np.random.Generator(np.random.Philox(7))
    theirs = np.random.Generator(np.random.Philox(7))
    raw = ours.bit_generator.random_raw
    spare = -1
    for step in range(2000):
        pick, spare = _pick(raw, n, spare)
        assert pick == theirs.integers(0, n), step
        if step % 3 == 0:
            assert (raw() >> 11) * (1.0 / 2**53) == theirs.random(), step
        if step % 5 == 0:
            assert ours.lognormal(1.0, 2.0) == theirs.lognormal(1.0, 2.0), step
