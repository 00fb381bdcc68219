"""Byte-identity of seeded output against digests recorded in golden.json.

Each workload replays a small fixed-seed reference case through the
``ruma`` command line and compares the SHA-256 of every stdout with the
recorded one. The digests were recorded from the program as committed
when the benchmark was defined; re-record them only when a change is
meant to alter seeded output:

    python3 perfbench/golden.py
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from checks import Ledger, check_exit, check_spray
from workloads import (
    ROOT,
    STARTUP_ARGS,
    STARTUP_EXIT,
    WORKLOADS,
    Workload,
    gen_trace_args,
    replay_args,
    run_ruma,
    spray_args,
)

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"
REFERENCE_SEED = 1
REFERENCE_EVENTS = 20_000
REFERENCE_TRIALS = 100_000


def _reference_runs(wl: Workload, work: Path):
    """Yield (label, stdout, errors) for the workload's reference case."""
    if wl.spray:
        res = run_ruma(spray_args(REFERENCE_SEED, REFERENCE_TRIALS), work)
        errors = check_exit(res.code, 0, res.stderr)
        yield "spray-sim", res.stdout, errors + check_spray(
            res.stdout, REFERENCE_TRIALS, exact_in_ci=True
        )
        res = run_ruma(STARTUP_ARGS, work)
        yield "filter-check", res.stdout, check_exit(res.code, STARTUP_EXIT, res.stderr)
        return
    res = run_ruma(gen_trace_args(wl, REFERENCE_SEED, REFERENCE_EVENTS), work)
    yield "gen-trace", res.stdout, check_exit(res.code, 0, res.stderr)
    trace_path = work / "reference.trace"
    trace_path.write_text(res.stdout, encoding="utf-8")
    config_path = wl.write_config(work / "reference.conf")
    res = run_ruma(replay_args(REFERENCE_SEED, trace_path, config_path), work)
    yield "replay", res.stdout, check_exit(res.code, 0, res.stderr)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_golden(wl: Workload, work: Path, ledger: Ledger) -> None:
    recorded = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))[wl.name]
    for label, stdout, errors in _reference_runs(wl, work):
        if _digest(stdout) != recorded.get(label):
            errors = errors + ["seeded stdout differs from the recorded digest"]
        ledger.record(f"reference {label}", errors)


def record() -> int:
    digests, ledger = {}, Ledger()
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-work-") as tmp:
        for wl in WORKLOADS.values():
            digests[wl.name] = {}
            for label, stdout, errors in _reference_runs(wl, Path(tmp)):
                ledger.record(f"{wl.name} reference {label}", errors)
                digests[wl.name][label] = _digest(stdout)
    if ledger.failed:
        return 1
    GOLDEN_PATH.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(record())
