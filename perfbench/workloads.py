"""Workload definitions and the timed runner for ``ruma`` processes.

Every workload drives the ``ruma`` command line as a closed loop: one
client, one ``ruma`` process at a time, the next started only after the
previous one exited. The program receives nothing but the generated
inputs; everything is derived from the benchmark seed.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

REPLAY_EVENTS = 200_000
SPRAY_TRIALS = 10_000_000
SPRAY_ARGS = ("spray-sim", "--width", "8", "--chain", "2", "--pattern", "deadbeefcafebabe")
# 0x12121210..0x12121217 covers 0x12121212, so the expected exit code is 1.
STARTUP_ARGS = ("filter-check", "--start", "12121210", "--len", "8")
STARTUP_EXIT = 1

_CHILD_TIMEOUT_S = 150


@dataclass(frozen=True)
class Workload:
    name: str
    spray: bool = False
    gen_args: tuple = ()
    # ArenaConfig fields written to a flat key=value file; empty = defaults
    config: dict = field(default_factory=dict)

    @property
    def pointer_width(self) -> int:
        return self.config.get("pointer_width", 8)

    def write_config(self, path: Path):
        """Write the flat key=value arena config; None when defaults apply."""
        if not self.config:
            return None
        text = "".join(f"{key} = {value}\n" for key, value in self.config.items())
        path.write_text(text, encoding="utf-8")
        return path


WORKLOADS = {
    w.name: w
    for w in (
        Workload("replay-small64"),
        Workload(
            "replay-mixed32-bsi",
            gen_args=("--median", "512", "--sigma", "1.5", "--max-size", "65536"),
            config={
                "address_space_bits": 32,
                "pointer_width": 4,
                "filter_bsi": "on",
                "arena_capacity": 1 << 30,
            },
        ),
        Workload("tradeoff", spray=True),
    )
}


def gen_trace_args(wl: Workload, seed: int, events: int, out=None) -> list:
    args = ["gen-trace", "--events", str(events), "--seed", str(seed), *wl.gen_args]
    return args + ["--out", str(out)] if out is not None else args


def replay_args(seed: int, trace_path, config_path=None, randomize=None) -> list:
    args = ["replay", "--trace", str(trace_path), "--seed", str(seed)]
    if config_path is not None:
        args += ["--config", str(config_path)]
    if randomize is not None:
        args += ["--randomize", randomize]
    return args


def spray_args(seed: int, trials: int) -> list:
    return [*SPRAY_ARGS, "--trials", str(trials), "--seed", str(seed)]


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "RUMA_SEED"}
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass
class RunResult:
    code: int
    stdout: str
    stderr: str
    seconds: float  # wall time from spawn to reaped exit
    rss_mb: float  # peak RSS of this process alone


def run_python(argv, workdir: Path) -> RunResult:
    """Run ``python argv`` from ``workdir`` and wait for it to end.

    Output goes to files rather than pipes, so a chatty child never blocks
    and the wait itself can collect the child's own resource usage.
    """
    out_path, err_path = workdir / "child.stdout", workdir / "child.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *argv], stdout=out, stderr=err, cwd=workdir, env=child_env()
        )
        watchdog = threading.Timer(_CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return RunResult(
        code=proc.returncode,
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
        seconds=seconds,
        rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports kilobytes
    )


def run_ruma(args, workdir: Path) -> RunResult:
    return run_python(["-m", "ruma.cli", *args], workdir)


def timed_import(statement_before: str, module: str, workdir: Path) -> RunResult:
    """Time ``import module`` inside a fresh interpreter, after running
    ``statement_before`` untimed; the child prints the seconds."""
    code = (
        f"import time\n{statement_before}\n"
        f"t0 = time.perf_counter()\nimport {module}\n"
        "print(repr(time.perf_counter() - t0))\n"
    )
    return run_python(["-c", code], workdir)
