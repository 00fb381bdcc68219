"""The ruma benchmark: one workload per call, or all of them.

    python3 perfbench/run.py --workload replay-small64 --seed 1 --seconds 10 --trace 0

With ``--trace 0`` the workload's ``ruma`` commands run as separate
processes in a closed loop for ``--seconds`` seconds and the end-to-end
metrics are reported. With ``--trace 1`` the same work runs in-process
with spans around the program's public functions and the per-layer
metrics are reported. ``--workload all`` runs every workload both ways.
Every output is checked; the last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. Metric names and
units are those declared in BENCHMARK.json at the checkout root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import tempfile
import time
from importlib.metadata import PackageNotFoundError, version
from pathlib import Path

from checks import (
    Ledger,
    check_exit,
    check_filter,
    check_gen_trace,
    check_replay,
    check_spray,
)
from golden import check_golden
from traced import UNREACHED_LAYERS, traced_replay, traced_spray
from workloads import (
    REPLAY_EVENTS,
    ROOT,
    SPRAY_TRIALS,
    SRC,
    STARTUP_ARGS,
    STARTUP_EXIT,
    WORKLOADS,
    Workload,
    gen_trace_args,
    replay_args,
    run_ruma,
    spray_args,
)

SETUP_REPEATS = 3
SETUP_SPRAY_TRIALS = 1000  # enough for the estimate check, too few to cost time
MIN_SAMPLES = 3
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

# The workload-specific name each generic end-to-end metric stands for.
ALIASES = {
    False: {"setup_s": "gen_trace_s", "main_s": "replay_s", "main_per_s": "replay_events_per_s"},
    True: {"setup_s": "spray_setup_s", "main_s": "spray_s", "main_per_s": "spray_trials_per_s"},
}


def _spread(samples) -> str:
    return f"n={len(samples)} min={min(samples):.4f} max={max(samples):.4f}"


def measure(wl: Workload, seed: int, seconds: float, work: Path, ledger: Ledger) -> dict:
    """End-to-end metrics: medians over a closed loop of ruma processes."""
    setup_s, summary, first_trace = [], None, None
    trace_path, config_path = work / "workload.trace", wl.write_config(work / "arena.conf")
    for _ in range(SETUP_REPEATS):
        if wl.spray:
            res = run_ruma(spray_args(seed, SETUP_SPRAY_TRIALS), work)
            errors = check_spray(res.stdout, SETUP_SPRAY_TRIALS)
        else:
            res = run_ruma(gen_trace_args(wl, seed, REPLAY_EVENTS, trace_path), work)
            text = trace_path.read_text(encoding="utf-8")
            if first_trace is None:
                first_trace = text
                errors, summary = check_gen_trace(res.stdout, trace_path, REPLAY_EVENTS, text)
            else:
                errors = [] if text == first_trace else ["trace differs for the same seed"]
        ledger.record("set-up", check_exit(res.code, 0, res.stderr) + errors)
        setup_s.append(res.seconds)
    if not wl.spray and summary is None:
        raise RuntimeError("gen-trace produced an unusable trace; nothing to replay")

    if wl.spray:
        main_args, units = spray_args(seed, SPRAY_TRIALS), SPRAY_TRIALS
    else:
        main_args, units = replay_args(seed, trace_path, config_path), REPLAY_EVENTS
    main_s, rss_mb, startup_s, first_out = [], [], [], None
    deadline = time.perf_counter() + seconds
    while len(main_s) < MIN_SAMPLES or time.perf_counter() < deadline:
        res = run_ruma(main_args, work)
        errors = check_exit(res.code, 0, res.stderr)
        if wl.spray:
            errors += check_spray(res.stdout, SPRAY_TRIALS)
        else:
            errors += check_replay(res.stdout, summary, wl.pointer_width)
        first_out = res.stdout if first_out is None else first_out
        if res.stdout != first_out:
            errors.append("seeded stdout changed between runs")
        ledger.record(main_args[0], errors)
        main_s.append(res.seconds)
        rss_mb.append(res.rss_mb)

        res = run_ruma(STARTUP_ARGS, work)
        ledger.record(
            "filter-check",
            check_exit(res.code, STARTUP_EXIT, res.stderr) + check_filter(res.stdout),
        )
        startup_s.append(res.seconds)

    aliases = ALIASES[wl.spray]
    for name, samples in (("setup_s", setup_s), ("main_s", main_s), ("startup_s", startup_s)):
        print(f"samples {name} {aliases.get(name, '')}: {_spread(samples)}")
    return {
        "setup_s": statistics.median(setup_s),
        "main_s": statistics.median(main_s),
        "main_per_s": units / statistics.median(main_s),
        "startup_s": statistics.median(startup_s),
        "peak_rss_mb": statistics.median(rss_mb),
    }


def environment(seed: int) -> dict:
    def pkg(name):
        try:
            return version(name)
        except PackageNotFoundError:
            return None

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in handle if ln.startswith("model name")),
                None,
            )
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": pkg("numpy"),
        "scipy": pkg("scipy"),
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "perf_counter_resolution_s": time.get_clock_info("perf_counter").resolution,
        "seed": seed,
    }


def run_one(wl: Workload, seed: int, seconds: float, traced: bool, work: Path, declared):
    ledger = Ledger()
    check_golden(wl, work, ledger)
    units = {m["name"]: m["unit"] for m in declared["per_layer" if traced else "end_to_end"]}
    if traced:
        values = (traced_spray if wl.spray else traced_replay)(wl, seed, work, ledger)
        for name in units:
            if name.split(".", 1)[0] in UNREACHED_LAYERS[wl.spray]:
                values.setdefault(name, 0)
    else:
        values = measure(wl, seed, seconds, work, ledger)
    if set(values) != set(units):
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json: extra {sorted(set(values) - set(units))}, "
            f"missing {sorted(set(units) - set(values))}"
        )
    aliases = {} if traced else ALIASES[wl.spray]
    for name in units:
        label = f"{name} ({aliases[name]})" if name in aliases else name
        print(f"{wl.name:<19} {label:<42} {values[name]:.6g} {units[name]}")
    print(f"{wl.name:<19} check_failures {ledger.failed}/{ledger.attempted}")
    return ledger, {name: {"value": values[name], "unit": units[name]} for name in units}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or (args.seconds is not None and args.seconds <= 0):
        parser.error("--seed must be non-negative and --seconds positive")
    if not (SRC / "ruma" / "cli.py").is_file() or not BENCHMARK_JSON.is_file():
        print(f"perfbench: no ruma sources or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    declared = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    seconds = args.seconds or declared["run_seconds"]

    every = args.workload == "all"
    names = list(WORKLOADS) if every else [args.workload]
    modes = (False, True) if every else (bool(args.trace),)
    print(json.dumps({"environment": environment(args.seed)}, sort_keys=True))
    total, metrics = Ledger(), {}
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-work-") as tmp:
        for name in names:
            for traced in modes:
                ledger, values = run_one(
                    WORKLOADS[name], args.seed, seconds, traced, Path(tmp), declared
                )
                total.merge(ledger)
                for metric, value in values.items():
                    metrics[f"{name}:{metric}" if every else metric] = value
    result = {
        "correct": total.failed == 0,
        "attempted": total.attempted,
        "failed": total.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
