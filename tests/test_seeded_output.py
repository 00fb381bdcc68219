"""Seeded CLI output, pinned by its SHA-256 digest.

Each case runs one command with a fixed seed and compares the digest of
its stdout with the one recorded before the code under it last changed.
A change that keeps seeded output byte-identical keeps these green; the
digests are never re-recorded to make such a change pass.
"""

import hashlib

import pytest

from ruma.cli import dispatch

EVENTS = "20000"  # 13005 allocations: past one batch of offsets (8192 halves)
MIXED = "--median 512 --sigma 1.5 --max-size 65536"
FILTERED32 = (
    "address_space_bits = 32\npointer_width = 4\nfilter_bsi = on\n"
    "arena_capacity = 1073741824\n"
)

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
    # one side of spray._PYTHON_HALVES each: ruma.philox, then numpy
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
    "filter-check": (
        "filter-check --start 12121210 --len 8",
        1,
        "32dc955c666197054a7ff59cf030f156bc90e86df301701922cb434a265cbbb6",
    ),
}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """The two workloads' traces and the 32-bit filtered config."""
    root = tmp_path_factory.mktemp("seeded")
    for name, extra in (("small64", ""), ("mixed", MIXED)):
        argv = f"gen-trace --events {EVENTS} --seed 1 {extra} --out"
        code, _ = dispatch([*argv.split(), str(root / f"{name}.trace")])
        assert code == 0
    (root / "filtered32.conf").write_text(FILTERED32, encoding="utf-8")
    return root


@pytest.mark.parametrize("case", CASES)
def test_seeded_output_digest_is_unchanged(case, files):
    command, exit_code, digest = CASES[case]
    code, out = dispatch(command.format(files=files).split())
    assert code == exit_code
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
