"""CLI behavior: output shapes, schema validation, exit codes, help."""

import ast
import gc
import json
import subprocess
import sys
import tracemalloc
from pathlib import Path

import jsonschema
import pytest

import ruma
import ruma.trace as trace_mod
from conftest import child_env, needs_cc, on_each_parse_path, run_cli, run_python
from ruma import ArenaConfig, cli, membench, native
from ruma import spray as spray_module
from ruma.cli import build_parser, dispatch, main
from ruma.errors import TraceError

DATA = Path(__file__).parent / "data"


# -- dispatch-level behavior --------------------------------------------------


def test_spray_sim_exact_output(schemas):
    code, out = dispatch(
        "spray-sim --width 8 --granularity 1 --chain 1 "
        "--pattern deadbeefcafebabe --trials 10000 --seed 7".split()
    )
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, schemas["spray_sim"])
    assert payload["exact"] == 0.125
    assert payload["ci_low"] <= payload["estimate"] <= payload["ci_high"]


@pytest.mark.parametrize("argv", [
    "spray-sim --chain 2 --pattern deadbeefcafebabe --trials 1000 --seed 1",
    "spray-sim --width 4 --granularity 1 --chain 3 --pattern 35343534 "
    "--trials 100000 --seed 18446744073709551615",
])
def test_spray_sim_prints_the_same_from_either_source(monkeypatch, argv):
    # ruma.philox below the threshold, and above it the compiled kernel or,
    # without one, numpy's raw words, read the same halves, so the report
    # cannot tell them apart
    kernel = native.compiled
    outputs = []
    for limit, compiled in ((1 << 30, kernel), (0, kernel), (0, lambda: None)):
        monkeypatch.setattr(spray_module, "_PYTHON_HALVES", limit)
        monkeypatch.setattr(native, "compiled", compiled)
        outputs.append(dispatch(argv.split()))
    assert outputs[0] == outputs[1] == outputs[2]
    assert outputs[0][0] == 0


def test_spray_sim_32bit(schemas):
    code, out = dispatch(
        "spray-sim --width 4 --pattern cafebabe --trials 1000 --seed 3".split()
    )
    payload = json.loads(out)
    jsonschema.validate(payload, schemas["spray_sim"])
    assert payload["exact"] == 0.25


def test_filter_check_verdicts(schemas):
    code, out = dispatch("filter-check --start 12121210 --len 8".split())
    payload = json.loads(out)
    jsonschema.validate(payload, schemas["filter_check"])
    assert code == 1 and payload["contains"] is True

    code, out = dispatch("filter-check --start 12121213 --len 4".split())
    payload = json.loads(out)
    assert code == 0 and payload["contains"] is False

    code, out = dispatch("filter-check --start 35343530 --len 8 --strict".split())
    assert code == 1 and json.loads(out)["contains"] is True


def test_replay_modes(tmp_path, schemas):
    trace = tmp_path / "t.trace"
    _, text = dispatch("gen-trace --events 2000 --seed 5".split())
    trace.write_text(text + "\n", encoding="utf-8")

    _, out_on = dispatch(
        ["replay", "--trace", str(trace), "--randomize", "on", "--seed", "5"]
    )
    _, out_off = dispatch(
        ["replay", "--trace", str(trace), "--randomize", "off", "--seed", "5"]
    )
    stats_on = json.loads(out_on)
    stats_off = json.loads(out_off)
    jsonschema.validate(stats_on, schemas["replay_stats"])
    jsonschema.validate(stats_off, schemas["replay_stats"])
    hist = stats_off["offset_histogram"]
    assert hist[0] == sum(hist), "baseline replay yields only zero offsets"
    assert stats_on["overhead_ratio"] >= stats_off["overhead_ratio"]


def test_replay_reads_config_file(tmp_path, schemas):
    trace = tmp_path / "t.trace"
    trace.write_text("a 1 100\n", encoding="utf-8")
    cfg = tmp_path / "arena.cfg"
    cfg.write_text("pointer_width = 4\nrandomize = off\n", encoding="utf-8")
    _, out = dispatch(["replay", "--trace", str(trace), "--config", str(cfg)])
    payload = json.loads(out)
    jsonschema.validate(payload, schemas["replay_stats"])
    assert len(payload["offset_histogram"]) == 4


def test_replay_seed_falls_back_to_config_file(tmp_path, monkeypatch):
    monkeypatch.delenv("RUMA_SEED", raising=False)
    trace = tmp_path / "t.trace"
    _, text = dispatch("gen-trace --events 200 --seed 5".split())
    trace.write_text(text + "\n", encoding="utf-8")
    cfg = tmp_path / "arena.cfg"
    cfg.write_text("rng_seed = 99\n", encoding="utf-8")

    def replay(*extra):
        return dispatch(["replay", "--trace", str(trace), *extra])[1]

    assert replay("--config", str(cfg)) == replay("--seed", "99")
    assert replay("--config", str(cfg), "--seed", "7") == replay("--seed", "7")
    assert replay("--seed", "7") != replay("--seed", "99")


def test_bench_json_and_csv(tmp_path, schemas):
    csv_path = tmp_path / "bench.csv"
    code, out = dispatch(
        ["bench", "--width", "8", "--iters", "20000", "--scale", "0.0002",
         "--csv", str(csv_path)]
    )
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, schemas["bench_report"])
    lines = csv_path.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "class,width,op,seconds,ratio"
    assert len(lines) == 1 + 3 * 4 + 2  # three ops x four classes, plus copy pair


def test_gen_trace_to_file(tmp_path):
    out_path = tmp_path / "gen.trace"
    code, out = dispatch(
        ["gen-trace", "--events", "100", "--seed", "2", "--out", str(out_path)]
    )
    assert code == 0
    assert json.loads(out)["events"] == 100
    from ruma.trace import parse_trace

    assert len(parse_trace(out_path.read_text(encoding="utf-8"))) == 100


def test_seed_env_fallback(tmp_path):
    env_run = run_cli(
        "gen-trace", "--events", "50", env={"RUMA_SEED": "99"}
    )
    flag_run = run_cli("gen-trace", "--events", "50", "--seed", "99")
    other_run = run_cli("gen-trace", "--events", "50", "--seed", "100")
    for proc in (env_run, flag_run, other_run):
        assert proc.returncode == 0 and proc.stdout, proc.stderr
    assert env_run.stdout == flag_run.stdout
    assert env_run.stdout != other_run.stdout


def test_handlers_call_the_layers_through_module_names(tmp_path, monkeypatch):
    # perfbench times each layer by wrapping these names on ruma.cli; a
    # handler that reached the functions another way would empty its spans.
    calls = []

    def recording(name):
        inner = getattr(cli, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return inner(*args, **kwargs)

        return wrapper

    trace = str(tmp_path / "t.trace")
    expected = {
        ("gen-trace", "--events", "100", "--out", trace):
            ["generate_trace", "serialize_trace"],
        # replay parses the file batch by batch as it consumes the events
        ("replay", "--trace", trace): ["replay", "parse_trace"],
        ("spray-sim", "--pattern", "ff", "--trials", "10"):
            ["monte_carlo", "chained_success"],
    }
    for names in expected.values():
        for name in names:
            monkeypatch.setattr(cli, name, recording(name))
    for argv, names in expected.items():
        calls.clear()
        assert dispatch(list(argv))[0] == 0
        assert calls == names


@pytest.mark.parametrize("word, filter_bsi", [("on", True), ("off", False)])
def test_replay_filter_flag_reaches_the_config(word, filter_bsi, tmp_path, monkeypatch):
    # the flag overrides a config file that says the opposite
    trace = tmp_path / "t.trace"
    trace.write_text("a 1 8\n", encoding="utf-8")
    config = tmp_path / "arena.cfg"
    config.write_text(f"filter_bsi = {not filter_bsi}\n", encoding="utf-8")
    configs = []
    inner = cli.replay

    def recording(events, config):
        configs.append(config)
        return inner(events, config)

    monkeypatch.setattr(cli, "replay", recording)
    argv = ["replay", "--trace", str(trace), "--config", str(config), "--filter-bsi", word]
    assert dispatch(argv)[0] == 0
    assert [c.filter_bsi for c in configs] == [filter_bsi]


def test_wrappers_set_before_the_first_command_run_in_a_fresh_process(tmp_path):
    # perfbench wraps the layer names on ruma.cli before any command has
    # imported them; a handler must then call the wrapper, not rebind the name.
    probe = """
import sys
from ruma import cli

calls = []

def recording(name):
    inner = getattr(cli, name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return inner(*args, **kwargs)

    return wrapper

for name in cli._LAYERS:
    setattr(cli, name, recording(name))
for command in sys.argv[1:]:
    code, _ = cli.dispatch(command.split())
    print(code, *calls)
    calls.clear()
"""
    expected = {
        "gen-trace --events 100 --out t.trace": "generate_trace serialize_trace",
        "replay --trace t.trace": "ArenaConfig replay parse_trace",
        "spray-sim --pattern ff --trials 10":
            "SprayPattern AttackScenario monte_carlo chained_success",
        "bench --iters 1 --scale 0.0001": "full_report",
    }
    proc = run_python("-c", probe, *expected, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [f"0 {names}" for names in expected.values()]
    called = " ".join(expected.values()).split()
    assert sorted(called) == sorted(cli._LAYERS)


def test_unknown_names_still_raise_attribute_error():
    for module in (ruma, cli):
        with pytest.raises(AttributeError, match="no_such_name"):
            module.no_such_name


# -- exit codes ----------------------------------------------------------------


def test_unknown_flag_is_usage_error():
    proc = run_cli("spray-sim", "--pattern", "ff", "--bogus")
    assert proc.returncode == 2
    assert "usage" in proc.stderr.lower()


def test_missing_subcommand_is_usage_error():
    proc = run_cli()
    assert proc.returncode == 2


def test_bad_domain_input_is_usage_error(tmp_path):
    proc = run_cli("replay", "--trace", str(tmp_path / "missing.trace"))
    assert proc.returncode == 2
    assert "error" in proc.stderr.lower()

    proc = run_cli("spray-sim", "--width", "4", "--pattern", "ffffffffff")
    assert proc.returncode == 2


@pytest.mark.parametrize(
    "argv",
    [
        "gen-trace --median inf",
        "gen-trace --sigma inf",
        "gen-trace --median 0",
        "gen-trace --median -5",
        "gen-trace --seed -1",
        "spray-sim --seed -1 --pattern ff --trials 1",
        "spray-sim --pattern ff --chain 1000001 --trials 1",
        "filter-check --start 0 --len -1",
        "bench --iters 0",
        "bench --iters 10 --scale inf",
        "bench --iters 10 --scale nan",
        "bench --iters 10 --scale 0",
        "bench --iters 10 --scale -1",
        "bench --iters 134217729",
        "bench --iters 10 --scale 2",
    ],
)
def test_out_of_domain_values_exit_2_without_traceback(argv, monkeypatch, capsys):
    monkeypatch.setattr("sys.argv", ["ruma", *argv.split()])
    with pytest.raises(SystemExit) as exc:
        main()
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert err.startswith("ruma: error:") and "Traceback" not in err
    if "--seed" in argv:
        assert err == "ruma: error: seed must be non-negative, got -1\n"


def test_replay_of_a_trace_that_is_not_utf8_exits_2(tmp_path, monkeypatch, capsys):
    # the bad byte lies past the first batch of lines, so replay is under
    # way when the file's decoder meets it
    trace = tmp_path / "bad.trace"
    trace.write_bytes(b"a 1 24\nf 1\n" * 10_000 + b"a 2 \xff\n")
    assert len(trace.read_bytes()) > cli._TRACE_BATCH
    monkeypatch.setattr("sys.argv", ["ruma", "replay", "--trace", str(trace)])
    with pytest.raises(SystemExit) as exc:
        main()
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert err.startswith("ruma: error: 'utf-8' codec can't decode byte 0xff"), err
    assert "Traceback" not in err


def _long_trace(tmp_path, tail: str, head: str = ""):
    """``head``, 20,000 allocs making several batches of text, ``tail``."""
    text = head + "".join(f"a {i} 8\n" for i in range(1, 20_001)) + tail
    assert len(text) > 2 * cli._TRACE_BATCH
    path = tmp_path / "long.trace"
    path.write_text(text, encoding="utf-8")
    return path, text


@on_each_parse_path
def test_replay_frees_across_batches_and_parses_every_event_once(tmp_path, monkeypatch):
    # ids allocated in the first batch are freed and resized in the last;
    # perfbench divides the event count by cli.parse_trace's summed time,
    # so every event must come through that name
    path, text = _long_trace(tmp_path, "f 5\nr 6 16\nf 6\nr 20000 64\n")
    batches = []
    inner = cli.parse_trace

    def recording(*args):
        events = inner(*args)
        batches.append(len(events))
        return events

    monkeypatch.setattr(cli, "parse_trace", recording)
    code, out = dispatch(["replay", "--trace", str(path), "--seed", "1"])
    assert code == 0
    assert len(batches) > 2 and sum(batches) == 20_004
    expected = trace_mod.replay(trace_mod.parse_trace(text), ArenaConfig(rng_seed=1))
    assert out == cli._dump(expected.as_dict())


@pytest.mark.parametrize(
    "tail, message",
    [
        ("f 5\na 7 8\n", "line 20002, column 3: id '7' is already live"),
        ("f 5\nf 5\n", "line 20002, column 3: free of unknown id '5'"),
        ("f 5\na 9\n", "line 20002: alloc expects 3 tokens, got 2"),
        ("f 5\n\n# note\nr 8 x\n", "line 20004, column 5: bad size 'x'"),
    ],
    ids=["duplicate", "dead-id", "token-count", "bad-size"],
)
@on_each_parse_path
def test_replay_reports_a_late_error_as_the_whole_parse_does(tmp_path, tail, message):
    path, text = _long_trace(tmp_path, tail)
    with pytest.raises(TraceError) as whole:
        trace_mod.parse_trace(text)
    with pytest.raises(TraceError) as streamed:
        dispatch(["replay", "--trace", str(path)])
    assert str(streamed.value) == str(whole.value) == message


@on_each_parse_path
def test_a_capacity_abort_wins_over_a_malformed_later_line(tmp_path, monkeypatch, capsys):
    # replay parses each batch when it reaches it: the first event exhausts
    # the arena before the malformed last line is read
    path, _ = _long_trace(tmp_path, "not an event\n", head="a big 2000000\n")
    config = tmp_path / "small.cfg"
    config.write_text("arena_capacity = 1048576\n", encoding="utf-8")
    monkeypatch.setattr(
        "sys.argv", ["ruma", "replay", "--trace", str(path), "--config", str(config)]
    )
    with pytest.raises(SystemExit) as exc:
        main()
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert err.startswith("ruma: error: replay aborted at event 1 (line 1): "), err


def test_replay_holds_less_than_the_parsed_event_list(tmp_path):
    # the events are replayed batch by batch, so the whole replay, arena
    # included, peaks below the list that parsing the file at once builds
    path = tmp_path / "t.trace"
    argv = ["gen-trace", "--events", "50000", "--seed", "1", "--out", str(path)]
    assert dispatch(argv)[0] == 0
    import ruma.arena  # noqa: F401  its import is not the replay's

    def peak(run) -> int:
        gc.collect()
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def parse_alone():
        with open(path, "r", encoding="utf-8") as handle:
            trace_mod.parse_trace(handle)

    list_peak = peak(parse_alone)
    replay_peak = peak(lambda: dispatch(["replay", "--trace", str(path), "--seed", "1"]))
    assert replay_peak < list_peak


@pytest.mark.parametrize(
    "argv",
    ["gen-trace --events 5", "spray-sim --pattern ff --trials 1", "replay --trace {trace}"],
)
def test_negative_seed_from_the_environment_is_named(argv, tmp_path, monkeypatch, capsys):
    trace = tmp_path / "t.trace"
    trace.write_text("a 1 8\n", encoding="utf-8")
    monkeypatch.setenv("RUMA_SEED", "-1")
    monkeypatch.setattr("sys.argv", ["ruma", *argv.format(trace=trace).split()])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 2
    assert capsys.readouterr().err == "ruma: error: seed must be non-negative, got -1\n"


def test_non_integer_seed_in_the_environment_is_named(monkeypatch, capsys):
    monkeypatch.setenv("RUMA_SEED", "abc")
    monkeypatch.setattr("sys.argv", ["ruma", "gen-trace", "--events", "1"])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 2
    assert capsys.readouterr().err == (
        "ruma: error: $RUMA_SEED is not an integer: 'abc'\n"
    )


@pytest.mark.parametrize("via", ["flag", "env"])
@pytest.mark.parametrize(
    "argv",
    ["gen-trace --events 3", "spray-sim --pattern ff --trials 1", "replay --trace {trace}"],
    ids=["gen-trace", "spray-sim", "replay"],
)
def test_seeds_beyond_64_bits_exit_2_by_name(argv, via, tmp_path, monkeypatch, capsys):
    # every seeded command takes the seeds ArenaConfig.rng_seed takes
    trace = tmp_path / "t.trace"
    trace.write_text("a 1 8\n", encoding="utf-8")
    argv = argv.format(trace=trace).split()
    seed = str(2**64)
    if via == "flag":
        argv += ["--seed", seed]
    else:
        monkeypatch.setenv("RUMA_SEED", seed)
    monkeypatch.setattr("sys.argv", ["ruma", *argv])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 2
    assert capsys.readouterr().err == (
        f"ruma: error: seed must fit in an unsigned 64-bit integer, got {seed}\n"
    )


def test_the_largest_64_bit_seed_is_accepted():
    code, out = dispatch(["gen-trace", "--events", "3", "--seed", str(2**64 - 1)])
    assert code == 0 and len(out.splitlines()) == 3


@pytest.mark.parametrize("collecting", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize(
    "argv, code",
    [
        ("filter-check --start 12121213 --len 4", 0),
        ("bench --iters 0", 2),  # a domain error
        ("replay --no-such-flag", 2),  # argparse's own exit
    ],
)
def test_main_leaves_the_collector_as_it_found_it(
    collecting, argv, code, monkeypatch, capsys
):
    monkeypatch.setattr("sys.argv", ["ruma", *argv.split()])
    before = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        with pytest.raises(SystemExit) as exc:
            main()
        assert exc.value.code == code
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if before else gc.disable)()


def test_overflowing_size_draw_is_max_size(monkeypatch, capsys):
    # at seed 1, some of these draws overflow a float to inf
    argv = "ruma gen-trace --events 10 --seed 1 --median 1e308 --sigma 5 --max-size 512"
    monkeypatch.setattr("sys.argv", argv.split())
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 0
    events = [line.split() for line in capsys.readouterr().out.splitlines()]
    sizes = {int(tokens[2]) for tokens in events if len(tokens) == 3}
    assert len(events) == 10 and sizes == {512}


def test_closed_stdout_exits_141_without_traceback():
    # as in `ruma gen-trace --events 100000 | head -1`
    proc = subprocess.Popen(
        [sys.executable, "-m", "ruma.cli", "gen-trace", "--events", "100000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=child_env(),
    )
    assert proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == 141
    assert "Traceback" not in err, err


def test_filter_check_positive_exit_via_process():
    proc = run_cli("filter-check", "--start", "12121210", "--len", "8")
    assert proc.returncode == 1
    proc = run_cli("filter-check", "--start", "12121213", "--len", "4")
    assert proc.returncode == 0


def _run_cli_listing(package, *argv, cwd=None, env=None):
    """Run ``ruma *argv`` in a fresh child process with ``env`` on top of
    ``child_env``. Its last stderr line lists the modules of ``package``
    loaded by the time the CLI returned."""
    probe = f"""
import runpy, sys
try:
    runpy.run_module("ruma.cli", run_name="__main__")
finally:
    print(sorted(m for m in sys.modules if m.partition(".")[0] == {package!r}),
          file=sys.stderr)
"""
    proc = run_python("-c", probe, *argv, cwd=cwd, env=env)
    return proc, ast.literal_eval(proc.stderr.splitlines()[-1])


def test_spray_sim_runs_without_scipy():
    proc, loaded = _run_cli_listing(
        "scipy", "spray-sim", "--pattern", "deadbeefcafebabe",
        "--trials", "1000", "--seed", "1",
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["trials"] == 1000
    assert loaded == []


LIGHT_COMMANDS = pytest.mark.parametrize(
    ("argv", "code"),
    [
        (["filter-check", "--start", "12121213", "--len", "4"], 0),
        (["--version"], 0),
        (["--help"], 0),
        (["replay"], 2),  # argparse usage error: --trace is required
    ],
    ids=["filter-check", "version", "help", "usage-error"],
)


@LIGHT_COMMANDS
def test_light_commands_load_no_numpy(argv, code):
    proc, loaded = _run_cli_listing("numpy", *argv)
    assert proc.returncode == code, proc.stderr
    assert loaded == []


@LIGHT_COMMANDS
def test_light_commands_load_only_bsi_and_errors(argv, code):
    proc, loaded = _run_cli_listing("ruma", *argv)
    assert proc.returncode == code, proc.stderr
    assert loaded == ["ruma", "ruma.bsi", "ruma.errors"]
    proc, loaded = _run_cli_listing("dataclasses", *argv)
    assert proc.returncode == code, proc.stderr
    assert loaded == []


@pytest.mark.parametrize(
    ("argv", "unloaded", "unloaded_stdlib"),
    [
        (["spray-sim", "--pattern", "ff", "--trials", "10"],
         {"ruma.arena", "ruma.trace", "ruma.membench", "ruma.native"},
         ["dataclasses", "fractions"]),
        (["gen-trace", "--events", "10", "--out", "t.trace"],
         {"ruma.arena", "ruma.spray", "ruma.membench"}, ["dataclasses", "fractions"]),
        (["replay", "--trace", "t.trace"], {"ruma.spray", "ruma.membench"},
         ["fractions"]),
    ],
    ids=["spray-sim", "gen-trace", "replay"],
)
def test_numpy_commands_load_only_their_own_layers(
    argv, unloaded, unloaded_stdlib, tmp_path
):
    (tmp_path / "t.trace").write_text("a 1 8\nf 1\n", encoding="utf-8")
    proc, loaded = _run_cli_listing("ruma", *argv, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert not unloaded & set(loaded), loaded
    for package in unloaded_stdlib:
        proc, loaded = _run_cli_listing(package, *argv, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert loaded == [], package


@needs_cc
def test_replay_and_gen_trace_load_the_trace_kernel(tmp_path):
    # replay parses, and gen-trace generates and serializes, in
    # ruma.native.kernels
    (tmp_path / "t.trace").write_text("a 1 8\nf 1\n", encoding="utf-8")
    kernels = {"ruma.native", "ruma.native.kernels"}
    for argv in [
        ["replay", "--trace", "t.trace"],
        ["gen-trace", "--events", "10", "--out", "g.trace"],
    ]:
        proc, loaded = _run_cli_listing("ruma", *argv, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert kernels <= set(loaded), argv


def test_importing_ruma_loads_only_its_errors():
    proc = run_python(
        "-c",
        "import sys, ruma\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'ruma'))",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['ruma', 'ruma.errors']"


def test_every_api_name_imports_from_a_fresh_process():
    names = ", ".join(ruma.__all__)
    proc = run_python(
        "-c",
        f"import ruma\nfrom ruma import {names}\n"
        "print(sorted(set(ruma.__all__) - set(dir(ruma))))",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_importing_the_api_loads_no_numpy():
    proc = run_python(
        "-c",
        "import sys, ruma, ruma.cli\n"
        "for name in ruma.__all__: getattr(ruma, name)\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'numpy'))",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_numpy_commands_run_in_a_fresh_process(tmp_path):
    # numpy is imported where numbers are drawn or buffers built; each of
    # these commands must reach such an import from a cold start.
    (tmp_path / "bin").mkdir()
    no_compiler = {
        "PATH": str(tmp_path / "bin"), "XDG_CACHE_HOME": str(tmp_path / "cache")
    }
    runs = [
        # one half more than ruma.spray draws from ruma.philox, on a host
        # with no cc and nothing built: numpy's words, not the kernel
        (["spray-sim", "--chain", "1", "--pattern", "deadbeefcafebabe",
          "--trials", "1048577"], no_compiler),
        (["bench", "--iters", "1", "--scale", "0.0001"], None),
    ]
    for argv, env in runs:
        proc, loaded = _run_cli_listing("numpy", *argv, cwd=tmp_path, env=env)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)
        assert loaded
    assert not (tmp_path / "cache").exists()


@needs_cc
def test_a_long_spray_sim_with_a_compiler_loads_no_numpy():
    # above 2**20 halves the compiled kernel draws them; once it is built,
    # the run starts no process, so it loads neither numpy nor subprocess,
    # and the kernel is an extension module, so no ctypes either
    native.build("kernels")
    argv = ["spray-sim", "--width", "8", "--chain", "2",
            "--pattern", "deadbeefcafebabe", "--trials", "10000000", "--seed", "1"]
    for package in ("numpy", "subprocess", "ctypes"):
        proc, loaded = _run_cli_listing(package, *argv)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["estimate"] == 0.0156786
        assert loaded == [], package


def test_spray_sim_below_the_threshold_loads_no_numpy():
    # up to ruma.spray._PYTHON_HALVES halves come from ruma.philox; the
    # second run is the default 100000 trials
    for trials, flags in ((100, ["--trials", "100"]), (100_000, [])):
        argv = ["spray-sim", "--pattern", "deadbeefcafebabe", *flags]
        proc, loaded = _run_cli_listing("numpy", *argv)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["trials"] == trials
        assert loaded == []


def test_gen_trace_and_the_trace_module_load_no_numpy(tmp_path):
    # every draw, the log-normal sizes among them, comes from ruma.philox;
    # the second run's sizes overflow to inf and clamp to --max-size
    for flags in ([], ["--median", "1e308", "--sigma", "5", "--max-size", "512"]):
        argv = ["gen-trace", "--events", "500", "--seed", "2", "--out", "t.trace"]
        proc, loaded = _run_cli_listing("numpy", *argv, *flags, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["events"] == 500
        assert loaded == []
    proc = run_python(
        "-c",
        "import sys\nfrom ruma.trace import generate_trace\n"
        "generate_trace(20000, seed=3, median=512, sigma=1.5, max_size=65536)\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'numpy'))",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_replay_and_the_arena_load_no_numpy(tmp_path):
    # the arena draws from ruma.philox, numpy's Philox stream in pure Python
    trace = "a 1 8\nr 1 5000\na 2 24\nf 1\n"
    (tmp_path / "t.trace").write_text(trace, encoding="utf-8")
    (tmp_path / "32.conf").write_text(
        "address_space_bits = 32\npointer_width = 4\nfilter_bsi = on\n",
        encoding="utf-8",
    )
    for config in ([], ["--config", "32.conf"]):
        argv = ["replay", "--trace", "t.trace", "--seed", "2", *config]
        proc, loaded = _run_cli_listing("numpy", *argv, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert sum(json.loads(proc.stdout)["offset_histogram"]) == 3
        assert loaded == []
    # enough offsets to refill the batch the base was drawn from
    proc = run_python(
        "-c",
        "import sys\nfrom ruma import Arena, ArenaConfig\n"
        "arena = Arena(ArenaConfig(rng_seed=2))\n"
        "for _ in range(20000): arena.alloc(24)\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'numpy'))",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# -- help text -----------------------------------------------------------------


def _golden(name):
    return (DATA / name).read_text(encoding="utf-8")


def test_bench_csv_help_quotes_the_csv_header():
    # the parser spells the header out so --help need not import membench
    assert f"also write CSV ({membench.CSV_HEADER})" in _golden("help_bench.txt")


def test_main_help_matches_golden():
    assert build_parser().format_help() == _golden("help_main.txt")


@pytest.mark.parametrize(
    "command", ["replay", "spray-sim", "bench", "filter-check", "gen-trace"]
)
def test_subcommand_help_matches_golden_and_lists_every_flag(command):
    parser = build_parser()
    sub = next(
        a for a in parser._actions
        if hasattr(a, "choices") and a.choices and command in a.choices
    )
    subparser = sub.choices[command]
    text = subparser.format_help()
    assert text == _golden(f"help_{command.replace('-', '_')}.txt")
    for action in subparser._actions:
        for option in action.option_strings:
            assert option in text, f"{option} missing from {command} help"
