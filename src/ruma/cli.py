"""Command line interface.

One executable, five subcommands: replay, spray-sim, bench, filter-check,
gen-trace. Output is JSON on stdout (gen-trace emits trace text; bench can
also write CSV). Runs with --seed are bit-identical apart from timing
fields. Exit codes: 0 success, 1 domain verdict (filter-check found a
byte-shift-independent address), 2 usage errors, 141 when the reader
closes stdout early.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import sys

from . import __version__
from .arena import ArenaConfig
from .bsi import range_contains_bsi
from .errors import RumaError
from .membench import CSV_HEADER, full_report
from .spray import AttackScenario, SprayPattern, chained_success, monte_carlo
from .trace import generate_trace, parse_trace, replay, serialize_trace

SEED_ENV = "RUMA_SEED"
_DEFAULT_SEED = 1


class _Formatter(argparse.ArgumentDefaultsHelpFormatter):
    # pinned width keeps --help byte-identical across terminals
    def __init__(self, prog):
        super().__init__(prog, width=96, max_help_position=30)


def _hex_int(text: str) -> int:
    return int(text, 16)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ruma",
        formatter_class=_Formatter,
        description="Byte-granularity randomized arena allocator toolkit.",
    )
    parser.add_argument("--version", action="version", version=f"ruma {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--seed", type=int, default=None,
        help=f"PRNG seed; falls back to ${SEED_ENV}, then {_DEFAULT_SEED}",
    )
    common.add_argument(
        "--json", action="store_true",
        help="emit machine-readable JSON (the default; kept for scripting)",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser(
        "replay", parents=[common], formatter_class=_Formatter,
        help="replay an allocation trace through the arena and print stats",
    )
    p.add_argument("--trace", required=True, help="trace file path")
    p.add_argument("--config", default=None,
                   help="flat key=value arena config file; its rng_seed is the seed "
                   f"when neither --seed nor ${SEED_ENV} is given")
    p.add_argument(
        "--randomize", choices=("on", "off"), default=None,
        help="override byte-granularity randomization",
    )
    p.add_argument(
        "--filter-bsi", choices=("on", "off"), default=None,
        help="override byte-shift-independent address filtering (32-bit arenas)",
    )

    p = sub.add_parser(
        "spray-sim", parents=[common], formatter_class=_Formatter,
        help="compute pointer-spray attack success exactly and by sampling",
    )
    p.add_argument("--width", type=int, choices=(4, 8), default=8,
                   help="pointer width in bytes")
    p.add_argument("--granularity", type=int, default=1,
                   help="allocation granularity of the defense in bytes")
    p.add_argument("--chain", type=int, default=1,
                   help="number of independent crafted-pointer dereferences")
    p.add_argument("--pattern", type=_hex_int, required=True, metavar="HEX",
                   help="sprayed value, hex")
    p.add_argument("--trials", type=int, default=100_000,
                   help="Monte Carlo sample count")

    p = sub.add_parser(
        "bench", parents=[common], formatter_class=_Formatter,
        help="run the alignment microbenchmark and report per-class timing",
    )
    p.add_argument("--width", type=int, choices=(2, 4, 8), default=8,
                   help="access width in bytes")
    p.add_argument("--iters", type=int, default=1 << 20,
                   help="element accesses per class")
    p.add_argument("--scale", type=float, default=0.01,
                   help="factor applied to the 100000 bulk-copy iterations")
    p.add_argument("--csv", default=None, metavar="PATH",
                   help=f"also write CSV ({CSV_HEADER})")

    p = sub.add_parser(
        "filter-check", parents=[common], formatter_class=_Formatter,
        help="test a 32-bit range for byte-shift-independent addresses",
    )
    p.add_argument("--start", type=_hex_int, required=True, metavar="HEX",
                   help="range start address, hex")
    p.add_argument("--len", type=int, required=True, dest="length",
                   help="range length in bytes")
    p.add_argument("--strict", action="store_true",
                   help="also flag repeated-halfword addresses such as 0x35343534")

    p = sub.add_parser(
        "gen-trace", parents=[common], formatter_class=_Formatter,
        help="emit a synthetic small-object allocation trace",
    )
    p.add_argument("--events", type=int, default=10_000, help="number of events")
    p.add_argument("--min-size", type=int, default=1, help="smallest request")
    p.add_argument("--max-size", type=int, default=4096, help="largest request")
    p.add_argument("--median", type=float, default=32.0,
                   help="log-normal size median in bytes")
    p.add_argument("--sigma", type=float, default=1.0, help="log-normal shape")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="write the trace here instead of stdout")
    return parser


def _resolve_seed(args, default: int = _DEFAULT_SEED) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get(SEED_ENV)
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise RumaError(f"${SEED_ENV} is not an integer: {env!r}") from exc
    return default


def _dump(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True)


def _cmd_replay(args) -> tuple[int, str]:
    config = (
        ArenaConfig.from_file(args.config) if args.config else ArenaConfig()
    )
    # without --seed or $RUMA_SEED, the config file's rng_seed stands
    overrides = {"rng_seed": _resolve_seed(args, config.rng_seed)}
    if args.randomize is not None:
        overrides["randomize"] = args.randomize == "on"
    if args.filter_bsi is not None:
        overrides["filter_bsi"] = args.filter_bsi == "on"
    config = dataclasses.replace(config, **overrides)
    with open(args.trace, "r", encoding="utf-8") as handle:
        events = parse_trace(handle.read())
    stats = replay(events, config)
    return 0, _dump(stats.as_dict())


def _cmd_spray_sim(args) -> tuple[int, str]:
    scenario = AttackScenario(
        pointer_width=args.width,
        granularity=args.granularity,
        chain_length=args.chain,
        pattern=SprayPattern(args.pattern, args.width),
    )
    seed = _resolve_seed(args)
    sampled = monte_carlo(scenario, args.trials, seed)
    payload = {
        "width": args.width,
        "granularity": args.granularity,
        "chain": args.chain,
        "pattern": f"{args.pattern:#x}",
        "exact": chained_success(scenario),
        "estimate": sampled.estimate,
        "ci_low": sampled.ci_low,
        "ci_high": sampled.ci_high,
        "trials": args.trials,
        "seed": seed,
    }
    return 0, _dump(payload)


def _cmd_bench(args) -> tuple[int, str]:
    report = full_report(width=args.width, iterations=args.iters, scale=args.scale)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as handle:
            handle.write("\n".join(report.csv_rows()) + "\n")
    return 0, _dump(report.as_dict())


def _cmd_filter_check(args) -> tuple[int, str]:
    contains = range_contains_bsi(args.start, args.length, strict=args.strict)
    payload = {
        "start": f"{args.start:#x}",
        "length": args.length,
        "contains": contains,
        "strict": args.strict,
    }
    return (1 if contains else 0), _dump(payload)


def _cmd_gen_trace(args) -> tuple[int, str]:
    events = generate_trace(
        args.events,
        _resolve_seed(args),
        median=args.median,
        sigma=args.sigma,
        min_size=args.min_size,
        max_size=args.max_size,
    )
    text = serialize_trace(events)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        return 0, _dump({"events": len(events), "path": args.out})
    return 0, text.rstrip("\n")


_HANDLERS = {
    "replay": _cmd_replay,
    "spray-sim": _cmd_spray_sim,
    "bench": _cmd_bench,
    "filter-check": _cmd_filter_check,
    "gen-trace": _cmd_gen_trace,
}


def dispatch(argv) -> tuple[int, str]:
    """Parse ``argv`` and run the subcommand; returns (exit code, stdout
    payload). Usage errors propagate as argparse's SystemExit(2)."""
    args = build_parser().parse_args(argv)
    return _HANDLERS[args.command](args)


def main() -> None:
    # A replay builds hundreds of thousands of small objects and no cycles,
    # so the cyclic collector would only rescan them; it is paused while the
    # command runs.
    collecting = gc.isenabled()
    gc.disable()
    try:
        code, output = dispatch(sys.argv[1:])
    except (RumaError, ValueError, OSError) as exc:
        # bad flag values, unreadable files, invalid configs: usage errors
        print(f"ruma: error: {exc}", file=sys.stderr)
        raise SystemExit(2) from exc
    finally:
        if collecting:
            gc.enable()
    if output:
        try:
            print(output)
            sys.stdout.flush()
        except BrokenPipeError:
            # The reader left (``| head``). Point stdout at devnull so the
            # flush at interpreter exit stays quiet, and exit 128 + SIGPIPE
            # as a shell reports a killed writer, not 1, filter-check's verdict.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            raise SystemExit(141) from None
    raise SystemExit(code)


if __name__ == "__main__":
    main()
