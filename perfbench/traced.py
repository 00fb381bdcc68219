"""The traced run: per-layer metrics for one workload.

The program is imported in-process from the checkout's ``src`` and its
public functions are wrapped in spans (see :mod:`tracer`). Each workload
first runs its command untraced through ``ruma.cli.dispatch`` and then
traced, so the difference is the tracing overhead.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path

from checks import (
    Ledger,
    check_exit,
    check_gen_trace,
    check_live_chunks,
    check_replay,
    check_spray,
)
from tracer import Tracer, empty_layer
from workloads import (
    REPLAY_EVENTS,
    SPRAY_TRIALS,
    SRC,
    Workload,
    gen_trace_args,
    replay_args,
    spray_args,
    timed_import,
)

ARENA_OPS = ("alloc", "free", "realloc")
MEMBENCH_OPS = ("load", "store", "load-store")
MEMBENCH_CLASSES = ("U", "BC", "BP")
MEMBENCH_REPEATS = 11
MEMBENCH_ITERATIONS = 1 << 20  # the ``ruma bench`` default
IMPORT_REPEATS = 5
PRNG_PAIRS = 3
WARMUP_TRIALS = 1000

# Layers each kind of workload never reaches; their metrics read 0 there.
UNREACHED_LAYERS = {False: ("spray", "membench"), True: ("trace", "arena", "bsi")}


def _ruma():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import ruma.arena
    import ruma.cli
    import ruma.membench
    import ruma.trace

    return ruma.cli, ruma.arena, ruma.trace, ruma.membench


def _nesting(overfull: int) -> list:
    return [f"{overfull} spans whose children outlast them"] if overfull else []


def _dispatch(cli, argv):
    t0 = time.perf_counter()
    code, out = cli.dispatch(argv)
    return code, out, time.perf_counter() - t0


def _print_layers(phase: str, layers) -> None:
    for name, lt in layers.items():
        print(
            f"span {phase:<13} {name:<24} calls {lt.calls:>8} "
            f"total {lt.total_s:.6f} s  self {lt.self_s:.6f} s"
        )


def _fresh_import_s(before: str, module: str, work: Path, ledger: Ledger) -> float:
    samples = []
    for _ in range(IMPORT_REPEATS):
        res = timed_import(before, module, work)
        errors = check_exit(res.code, 0, res.stderr)
        try:
            samples.append(float(res.stdout))
        except ValueError:
            errors.append(f"import timer printed {res.stdout!r}")
        ledger.record(f"fresh import of {module}", errors)
    return statistics.median(samples) if samples else 0.0


def _get(layers, name):
    return layers.get(name) or empty_layer()


def _overhead(traced_s: float, untraced_s: float) -> dict:
    return {
        "tracing.overhead_s": traced_s - untraced_s,
        "tracing.overhead_share": (traced_s - untraced_s) / untraced_s,
    }


def _cli_metrics(import_s: float, layers, dumped: str) -> dict:
    return {
        "cli.import_s": import_s,
        "cli.dump_s": _get(layers, "cli.dump").total_s,
        "cli.dump_bytes": len(dumped.encode("utf-8")),
    }


def _trace_metrics(gen: dict, replay: dict, events: int) -> dict:
    parse_s = _get(replay, "trace.parse_trace").total_s
    return {
        "trace.generate_trace.s": _get(gen, "trace.generate_trace").total_s,
        "trace.serialize_trace.s": _get(gen, "trace.serialize_trace").total_s,
        "trace.parse_trace.s": parse_s,
        "trace.parse_trace.events_per_s": events / parse_s,
        "trace.replay_into.self_s": _get(replay, "trace.replay_into").self_s,
    }


def _arena_metrics(layers: dict, prng_share: float, arena, large_class) -> dict:
    out = {}
    for op in ARENA_OPS:
        lt = _get(layers, f"arena.{op}")
        out[f"arena.{op}.calls"] = lt.calls
        out[f"arena.{op}.self_s"] = lt.self_s
        out[f"arena.{op}.p50_us"] = lt.percentile_us(50)
        out[f"arena.{op}.p99_us"] = lt.percentile_us(99)
    out["arena.ctor.s"] = _get(layers, "arena.ctor").total_s
    out["arena.stats.s"] = _get(layers, "arena.stats").total_s
    out["arena.prng_share"] = prng_share
    c = arena.counters
    stats = arena.stats()
    capacity = sum(pc["capacity"] for pc in stats.per_class)
    class_live = sum(pc["live"] for pc in stats.per_class)
    out.update({
        "arena.bsi_span_checks": c.bsi_span_checks,
        "arena.bsi_candidates": c.bsi_candidates,
        "arena.bsi_candidates_per_check": (
            c.bsi_candidates / c.bsi_span_checks if c.bsi_span_checks else 0.0
        ),
        "arena.bsi_quarantined": c.bsi_quarantined,
        "arena.quarantine_per_alloc": (
            c.bsi_quarantined / c.total_allocs if c.total_allocs else 0.0
        ),
        "arena.runs_carved": sum(
            pc["capacity"] // cls.slots_per_run
            for pc, cls in zip(stats.per_class, arena.size_class_table)
        ),
        "arena.class_occupancy": class_live / capacity,
        "arena.large_live": sum(
            1 for a in arena.live_allocations() if a.size_class_index == large_class
        ),
        "arena.overhead_ratio": stats.overhead_ratio,
        "arena.peak_reserved_bytes": arena.peak_reserved,
        "arena.line_rule_violations": c.line_rule_violations,
        "arena.page_rule_violations": c.page_rule_violations,
    })
    return out


def _bsi_metrics(walk, spans) -> dict:
    t0 = time.perf_counter()
    for start, length in spans:
        walk(start, length)
    elapsed = time.perf_counter() - t0
    return {
        "bsi.walk.calls": len(spans),
        "bsi.walk.us_per_call": elapsed / len(spans) * 1e6 if spans else 0.0,
    }


def _spray_metrics(scipy_import_s: float, layers: dict) -> dict:
    mc_s = _get(layers, "spray.monte_carlo").total_s
    return {
        "spray.scipy_import_s": scipy_import_s,
        "spray.monte_carlo.s": mc_s,
        "spray.chained_success.s": _get(layers, "spray.chained_success").total_s,
        "spray.trials_per_s": SPRAY_TRIALS / mc_s,
    }


def _membench_metrics(ratios: dict) -> dict:
    out = {}
    keys = [(op, cls) for op in MEMBENCH_OPS for cls in MEMBENCH_CLASSES] + [("copy", "U")]
    for op, cls in keys:
        samples = ratios[(op, cls)]
        median = statistics.median(samples)
        q1, _, q3 = statistics.quantiles(samples, n=4)
        iqr = q3 - q1
        if iqr > abs(median - 1.0):
            print(
                f"warning: membench {op} {cls}/A spread {iqr:.3f} exceeds its "
                f"effect {abs(median - 1.0):.3f}; the ratio is not resolved",
                file=sys.stderr,
            )
        out[f"membench.ratio.{op}.{cls}.median"] = median
        out[f"membench.ratio.{op}.{cls}.iqr"] = iqr
    return out


def _prng_share(trace_mod, arena_mod, events, config, summary, ledger) -> float:
    """Share of ``alloc`` self time that randomization costs: the same
    events replayed with randomize on and off, in alternating pairs so
    that drift in machine speed hits both sides alike."""
    shares = []
    for _ in range(PRNG_PAIRS):
        alloc_s = {}
        for randomize in (True, False):
            with Tracer() as tr:
                tr.wrap(arena_mod.Arena, "alloc", "arena.alloc")
                stats = trace_mod.replay(events, replace(config, randomize=randomize))
                alloc_s[randomize] = _get(tr.layers()[0], "arena.alloc").self_s
            ledger.record(
                f"traced replay, randomize {'on' if randomize else 'off'}",
                check_replay(json.dumps(stats.as_dict()), summary, config.pointer_width),
            )
        shares.append(1.0 - alloc_s[False] / alloc_s[True])
    print(f"arena.prng_share per pair: {' '.join(f'{x:.4f}' for x in shares)}")
    return statistics.median(shares)


def traced_replay(wl: Workload, seed: int, work: Path, ledger: Ledger) -> dict:
    cli, arena_mod, trace_mod, _ = _ruma()
    trace_path, config_path = work / "traced.trace", wl.write_config(work / "arena.conf")

    with Tracer() as tr:
        tr.wrap(cli, "dispatch", "cli.dispatch")
        tr.wrap(cli, "_dump", "cli.dump")
        tr.wrap(cli, "generate_trace", "trace.generate_trace")
        tr.wrap(cli, "serialize_trace", "trace.serialize_trace")
        code, out = cli.dispatch(gen_trace_args(wl, seed, REPLAY_EVENTS, trace_path))
        gen_layers, overfull = tr.layers()
    _print_layers("gen-trace", gen_layers)
    errors, summary = check_gen_trace(
        out, trace_path, REPLAY_EVENTS, trace_path.read_text(encoding="utf-8")
    )
    ledger.record("traced gen-trace", check_exit(code, 0, "") + errors + _nesting(overfull))
    if summary is None:
        raise RuntimeError("gen-trace produced an unusable trace; nothing to replay")

    argv = replay_args(seed, trace_path, config_path)
    code, plain, untraced_s = _dispatch(cli, argv)
    ledger.record(
        "untraced in-process replay",
        check_exit(code, 0, "") + check_replay(plain, summary, wl.pointer_width),
    )

    arenas, walks = [], []
    with Tracer() as tr:
        tr.wrap(cli, "dispatch", "cli.dispatch")
        tr.wrap(cli, "_dump", "cli.dump")
        tr.wrap(cli, "parse_trace", "trace.parse_trace")
        tr.wrap(cli, "replay", "trace.replay")
        tr.wrap(trace_mod, "replay_into", "trace.replay_into")
        tr.observe(arena_mod.Arena, "__init__", lambda arena, *_: arenas.append(arena))
        tr.wrap(arena_mod.Arena, "__init__", "arena.ctor")
        for op in (*ARENA_OPS, "stats"):
            tr.wrap(arena_mod.Arena, op, f"arena.{op}")
        tr.observe(arena_mod, "range_contains_bsi_counted", lambda *span: walks.append(span))
        code, traced_out, traced_s = _dispatch(cli, argv)
        layers, overfull = tr.layers()
    _print_layers("replay", layers)
    arena = arenas[-1]
    c = arena.counters
    errors = check_exit(code, 0, "") + _nesting(overfull)
    if traced_out != plain:
        errors.append("traced replay printed other stats than the untraced one")
    errors += check_live_chunks(arena.live_allocations(), arena.config)
    if c.line_rule_violations or c.page_rule_violations:
        errors.append("the arena counted border-rule violations")
    if len(walks) != c.bsi_span_checks:
        errors.append(f"{len(walks)} BSI walks seen, arena counted {c.bsi_span_checks}")
    ledger.record("traced replay", errors)

    events = trace_mod.parse_trace(trace_path.read_text(encoding="utf-8"))
    prng_share = _prng_share(trace_mod, arena_mod, events, arena.config, summary, ledger)
    import_s = _fresh_import_s("", "ruma.cli", work, ledger)
    return {
        **_trace_metrics(gen_layers, layers, summary.events),
        **_arena_metrics(layers, prng_share, arena, arena_mod.LARGE_CLASS),
        **_bsi_metrics(arena_mod.range_contains_bsi_counted, walks),
        **_cli_metrics(import_s, layers, traced_out),
        **_overhead(traced_s, untraced_s),
    }


def traced_spray(wl: Workload, seed: int, work: Path, ledger: Ledger) -> dict:
    cli, _, _, membench = _ruma()
    # pays the lazy scipy import and first-call costs before anything is timed
    cli.dispatch(spray_args(seed, WARMUP_TRIALS))
    argv = spray_args(seed, SPRAY_TRIALS)
    code, plain, untraced_s = _dispatch(cli, argv)
    ledger.record(
        "untraced in-process spray-sim",
        check_exit(code, 0, "") + check_spray(plain, SPRAY_TRIALS),
    )
    with Tracer() as tr:
        tr.wrap(cli, "dispatch", "cli.dispatch")
        tr.wrap(cli, "_dump", "cli.dump")
        tr.wrap(cli, "monte_carlo", "spray.monte_carlo")
        tr.wrap(cli, "chained_success", "spray.chained_success")
        code, traced_out, traced_s = _dispatch(cli, argv)
        layers, overfull = tr.layers()
    _print_layers("spray-sim", layers)
    errors = check_exit(code, 0, "") + _nesting(overfull)
    if traced_out != plain:
        errors.append("traced spray-sim printed another report than the untraced one")
    ledger.record("traced spray-sim", errors)

    ratios = {}
    with Tracer() as tr:
        tr.wrap(membench, "run_bench", "membench.run_bench")
        tr.wrap(membench, "run_copy_bench", "membench.run_copy_bench")
        for _ in range(MEMBENCH_REPEATS):
            for op in MEMBENCH_OPS:
                spec = membench.BenchSpec(width=8, iterations=MEMBENCH_ITERATIONS, op=op)
                for cell in membench.run_bench(spec).cells:
                    ratios.setdefault((op, cell.access_class), []).append(cell.ratio)
            copy_cells = membench.run_copy_bench(scale=0.01)
            ratios.setdefault(("copy", "U"), []).append(copy_cells[1].ratio)
        mb_layers, overfull = tr.layers()
    _print_layers("membench", mb_layers)
    ledger.record("traced membench", _nesting(overfull))

    import_s = _fresh_import_s("", "ruma.cli", work, ledger)
    scipy_s = _fresh_import_s("import numpy, ruma.cli", "scipy.stats", work, ledger)
    return {
        **_cli_metrics(import_s, layers, traced_out),
        **_spray_metrics(scipy_s, layers),
        **_membench_metrics(ratios),
        **_overhead(traced_s, untraced_s),
    }
