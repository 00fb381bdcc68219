"""Seeded CLI output and arena placements, pinned by their SHA-256 digests.

Each case runs one command with a fixed seed and compares the digest of
its stdout with the one recorded before the code under it last changed.
A change that keeps seeded output byte-identical keeps these green; the
digests are never re-recorded to make such a change pass.

No field of ``ruma replay``'s output depends on the arena's base or on
which slot a chunk gets, so the placement cases replay a trace through
``Arena`` in-process and hash where every chunk lands instead.
"""

import functools
import hashlib

import pytest

from ruma import Arena, ArenaConfig, native
from ruma.cli import dispatch
from ruma.trace import generate_trace

EVENTS = "20000"  # 13005 allocations: past one batch of offsets (8192 halves)
MIXED = "--median 512 --sigma 1.5 --max-size 65536"
FILTERED32 = (
    "address_space_bits = 32\npointer_width = 4\nfilter_bsi = on\n"
    "arena_capacity = 1073741824\n"
)
# capacities whose base draw Lemire rejects for these seeds (see
# test_philox.py's _REJECT32 and _REJECT64): in 32 bits the draw takes
# both halves of the first word, in 64 bits two whole words
REJECT32 = "address_space_bits = 32\narena_capacity = 1040384\n"
CONFIGS = {
    "filtered32": FILTERED32,
    "reject32": REJECT32,
    "reject32-w4": REJECT32 + "pointer_width = 4\n",
    "reject64": "address_space_bits = 64\narena_capacity = 4502500384108544\n",
}

CASES = {
    "gen-trace-small64": (
        f"gen-trace --events {EVENTS} --seed 1",
        0,
        "fafb7d5e733efeceda2eec382dd2e073c961b5cf7109be29680cbcde7e4cd303",
    ),
    "gen-trace-mixed": (
        f"gen-trace --events {EVENTS} --seed 1 {MIXED}",
        0,
        "cbe04647fc6a3298fb5d8b9a92ff556bde79b192071957c798530f7c210a0833",
    ),
    "replay-small64": (
        "replay --trace {files}/small64.trace --seed 1",
        0,
        "a0bf73ac205cf0eb810e23199ec17ffea4bae5e25728590d9194b464f96d2c40",
    ),
    "replay-small64-randomize-off": (
        "replay --trace {files}/small64.trace --seed 1 --randomize off",
        0,
        "734186b054d8587bcfa4d8b5de2466b0d03ee04bf17ec1cdf8799972413afabe",
    ),
    "replay-mixed32-bsi": (
        "replay --trace {files}/mixed.trace --config {files}/filtered32.conf --seed 1",
        0,
        "5292898db65cf9828e66c509d5b5b09714b4fea5d977c9a06ad1fffaa7a396c6",
    ),
    "replay-small-reject32": (
        "replay --trace {files}/small64.trace --config {files}/reject32.conf --seed 8301",
        0,
        "64848b3d5cb52e9a0323b6b37bb1145e97760970b1df32df9c73dd8c302bac16",
    ),
    "replay-small-reject32-w4": (
        "replay --trace {files}/small64.trace --config {files}/reject32-w4.conf "
        "--seed 8301",
        0,
        "c0152aa12216dc672f3d95a0e9da092f4295c1cd5f8fa55f1ebd7789594fa63d",
    ),
    "replay-small-reject64": (
        "replay --trace {files}/small64.trace --config {files}/reject64.conf --seed 5418",
        0,
        "aef9c8f978036261212b351c663ca99ec9cdebf4afff66c14bd9b49ce1c45479",
    ),
    # the same 32-bit arena at a seed whose base draw keeps a high half,
    # which the first offset takes
    "replay-small32-kept": (
        "replay --trace {files}/small64.trace --config {files}/reject32.conf --seed 1",
        0,
        "5040a4f0a0cd79913ba353677aeafd6cad2ed0f188c20fcdb68fdcc447f39500",
    ),
    # one side of spray._PYTHON_HALVES each: ruma.philox, then the compiled
    # kernel (numpy's words where it cannot be built; see the test below)
    "spray-sim-philox": (
        "spray-sim --chain 2 --pattern deadbeefcafebabe --trials 1000 --seed 1",
        0,
        "d26c2138e146a44c7b98d1a0aaecc9e9749dae99b68778a31d6b072b423e4492",
    ),
    "spray-sim-numpy": (
        "spray-sim --chain 1 --pattern deadbeefcafebabe --trials 1048577 --seed 1",
        0,
        "bd9657c56922ec645ede9168d906f79ad588a9a4d0a9956f92b1fae386466ac3",
    ),
    # above the threshold, a chain of two halves each
    "spray-sim-numpy-even-chain": (
        "spray-sim --chain 2 --pattern deadbeefcafebabe --trials 1048577 --seed 1",
        0,
        "303c0b6802387a560f7fbf3c0198c6339e614255319f38fb775fa51844338ace",
    ),
    # numpy's batches of 131067 halves, so a kept high half starts every
    # other batch; a period of 4 bytes reads back at one of two 2-byte shifts
    "spray-sim-numpy-odd-chain": (
        "spray-sim --chain 9 --pattern 1234567812345678 --granularity 2 "
        "--trials 200000 --seed 2",
        0,
        "04cf12c1f6888675309485c6a4d0a2cb2bc811d23171bd7d15840f82e1276ffb",
    ),
    # one repeated byte reads back at every shift
    "spray-sim-repeated-byte": (
        "spray-sim --pattern 9797979797979797 --trials 1048577 --seed 1",
        0,
        "ea48c02aea26f1fe86154b72f08ab62f29acd436905ff00c38a91d6ec2a80351",
    ),
    "filter-check": (
        "filter-check --start 12121210 --len 8",
        1,
        "32dc955c666197054a7ff59cf030f156bc90e86df301701922cb434a265cbbb6",
    ),
}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """The two workloads' traces and the arena configs."""
    root = tmp_path_factory.mktemp("seeded")
    for name, extra in (("small64", ""), ("mixed", MIXED)):
        argv = f"gen-trace --events {EVENTS} --seed 1 {extra} --out"
        code, _ = dispatch([*argv.split(), str(root / f"{name}.trace")])
        assert code == 0
    for name, text in CONFIGS.items():
        (root / f"{name}.conf").write_text(text, encoding="utf-8")
    return root


@pytest.mark.parametrize("case", CASES)
def test_seeded_output_digest_is_unchanged(case, files):
    command, exit_code, digest = CASES[case]
    code, out = dispatch(command.format(files=files).split())
    assert code == exit_code
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize("case", [case for case in CASES if "numpy" in case])
def test_seeded_spray_digest_is_unchanged_without_the_kernel(case, monkeypatch):
    # the runs above spray._PYTHON_HALVES, from numpy's raw words, as on a
    # host with no C compiler
    monkeypatch.setattr(native, "compiled", lambda: None)
    command, exit_code, digest = CASES[case]
    code, out = dispatch(command.split())
    assert code == exit_code
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# (events, seed, generate_trace keywords, ArenaConfig keywords, digest)
PLACEMENTS = {
    "small64": (
        20_000, 1, {}, {"rng_seed": 1},
        "57a7d74aaf07bbbc6ae42f355ba812d3715b0dc61f3bf7fedac1bcbf431d0019",
    ),
    "small-reject64": (
        20_000, 1, {},
        {"address_space_bits": 64, "arena_capacity": 4502500384108544,
         "rng_seed": 5418},
        "de97b0e27a8ce886989a5fddd61dfe425aa9bc74b64caf649777292ee0610587",
    ),
    # 200k events: the 20k mixed trace moves only 4 large candidates below
    # a BSI address and withholds no class slot
    "mixed200k-filtered32": (
        200_000, 1, {"median": 512, "sigma": 1.5, "max_size": 65536},
        {"address_space_bits": 32, "pointer_width": 4, "filter_bsi": True,
         "arena_capacity": 1 << 30, "rng_seed": 1},
        "aa4038d6232b98c67836ed0675aecabe37f98a7ce69d31d45e8fe4cd6fef0c78",
    ),
}


@functools.cache
def _replay_placements(case):
    """Replay ``case``'s trace through a fresh arena; return the arena and
    the SHA-256 of the absolute start and the offset of every chunk an
    alloc or realloc event placed, in event order."""
    events, seed, shape, config, _ = PLACEMENTS[case]
    arena = Arena(ArenaConfig(**config))
    digest = hashlib.sha256()
    handles = {}
    for kind, ident, size, _ in generate_trace(events, seed, **shape):
        if kind == "free":
            arena.free(handles.pop(ident))
            continue
        if kind == "alloc":
            rec = arena.alloc(size)
        else:
            rec = arena.realloc(handles[ident], size)
        handles[ident] = rec.id
        digest.update(f"{rec.start} {rec.offset}\n".encode())
    return arena, digest.hexdigest()


@pytest.mark.parametrize("case", PLACEMENTS)
def test_seeded_placement_digest_is_unchanged(case):
    assert _replay_placements(case)[1] == PLACEMENTS[case][-1]


def test_the_filter_tests_only_the_class_slots_it_withholds():
    # the mixed trace moves 6,806 large candidates below a BSI address and
    # withholds 2 class slots: the BSI address decides every large one, so
    # the counted range test runs only for the 2 slots, and fails for both
    counters = _replay_placements("mixed200k-filtered32")[0].counters
    assert counters.bsi_quarantined == 6808
    assert counters.bsi_span_checks == 2
