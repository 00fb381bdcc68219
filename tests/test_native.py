"""The native build helper: cache hits, rebuilds and the named errors."""

import os
import platform
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import child_env, needs_cc, run_python
from ruma import native
from ruma.native import NativeError, build

# Builds ruma.native's ``kernels`` in a child process and prints the path,
# the process starts it saw and whether subprocess or numpy got loaded.
# Given a folder and a name as arguments, it builds that folder's source.
CHILD_BUILD = """
import sys
starts = []
sys.addaudithook(
    lambda event, args: event.startswith(("subprocess.", "os.exec", "os.posix_spawn",
                                          "os.spawn", "os.fork", "os.system"))
    and starts.append(event)
)
from ruma import native
from ruma.native import NativeError, build
name = "kernels"
if sys.argv[1:]:
    native._SOURCES, name = sys.argv[1:]
try:
    print(build(name))
except NativeError as exc:
    print("NativeError:", exc)
print(starts)
print(sorted(m for m in ("subprocess", "numpy") if m in sys.modules))
"""


def probe_c(value):
    """A minimal extension module ``probe`` whose ``value`` is the C
    expression ``value``; an empty one does not compile."""
    return f"""#include <Python.h>
static struct PyModuleDef module = {{PyModuleDef_HEAD_INIT, "probe", NULL, -1, NULL}};
PyMODINIT_FUNC PyInit_probe(void)
{{
    PyObject *m = PyModule_Create(&module);
    if (m != NULL && PyModule_AddIntConstant(m, "value", {value}) < 0)
        Py_CLEAR(m);
    return m;
}}
"""


def probe_source(tmp_path, monkeypatch, value):
    """Point ruma.native at ``tmp_path``, holding ``probe.c`` made by
    ``probe_c(value)``."""
    monkeypatch.setattr(native, "_SOURCES", str(tmp_path))
    (tmp_path / "probe.c").write_text(probe_c(value), encoding="utf-8")


def wrapped_cc(folder):
    """``folder``, holding a ``cc`` script that execs the real one: the
    same compiler under another real path."""
    folder.mkdir()
    script = folder / "cc"
    script.write_text(
        f'#!/bin/sh\nexec {shlex.quote(shutil.which("cc"))} "$@"\n', encoding="utf-8"
    )
    script.chmod(0o755)
    return folder


@needs_cc
def test_a_second_build_is_a_cache_hit(tmp_path, monkeypatch):
    # once built, the library is found with cc on PATH, with no PATH at
    # all and with only another cc on it, since its name holds the source
    # and the flags alone; no lookup starts a process or imports subprocess
    probe_source(tmp_path, monkeypatch, 1)
    library = build("probe")
    args = ("-c", CHILD_BUILD, str(tmp_path), "probe")
    for path in ("", str(tmp_path), str(wrapped_cc(tmp_path / "bin"))):
        proc = run_python(*args, env={"PATH": path})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [library, "[]", "[]"]
    proc = run_python(*args)
    assert proc.stdout.splitlines() == [library, "[]", "[]"]


@needs_cc
def test_a_recorded_failure_is_retried_once_the_compiler_changes(
    tmp_path, monkeypatch
):
    probe_source(tmp_path, monkeypatch, "")
    with pytest.raises(NativeError, match="failed to build"):
        build("probe")
    wrapper = wrapped_cc(tmp_path / "bin") / "cc"
    env = {"PATH": f"{wrapper.parent}{os.pathsep}{os.environ['PATH']}"}
    args = ("-c", CHILD_BUILD, str(tmp_path), "probe")
    outputs = []
    for _ in range(2):
        proc = run_python(*args, env=env)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout.splitlines())
    failed = f"NativeError: probe.c failed to build with {wrapper}"
    # the new compiler compiles again and records its own failure ...
    assert outputs[0][0].startswith(f"{failed} (exit ")
    assert outputs[0][-2:] == ["['subprocess.Popen']", "['subprocess']"]
    # ... which the next call raises at once
    assert outputs[1][0].startswith(f"{failed} (recorded in ")
    assert outputs[1][-2:] == ["[]", "[]"]


@needs_cc
def test_a_changed_source_rebuilds(tmp_path, monkeypatch):
    libraries = []
    for value in (1, 2, 1):
        probe_source(tmp_path, monkeypatch, value)
        libraries.append(build("probe"))
        assert native.load("probe").value == value
    assert libraries[0] != libraries[1]
    assert libraries[2] == libraries[0]


def test_no_cc_and_an_empty_cache_is_the_no_compiler_error(tmp_path):
    (tmp_path / "bin").mkdir()
    env = {"PATH": str(tmp_path / "bin"), "XDG_CACHE_HOME": str(tmp_path / "cache")}
    proc = run_python("-c", CHILD_BUILD, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "NativeError: no C compiler: no cc on PATH to build kernels.c", "[]", "[]"
    ]


@needs_cc
def test_a_failed_build_raises_the_compiler_stderr_and_is_not_retried(
    tmp_path, monkeypatch
):
    probe_source(tmp_path, monkeypatch, "")
    with pytest.raises(NativeError) as first:
        build("probe")
    message = str(first.value)
    assert "probe.c failed to build with" in message
    assert "error: expected expression before" in message

    def compile_again(*args):
        raise AssertionError("compiled a recorded failure again")

    monkeypatch.setattr(native, "_compile", compile_again)
    with pytest.raises(NativeError, match="error: expected expression before"):
        build("probe")


@needs_cc
def test_an_unwritable_cache_is_named(tmp_path, monkeypatch):
    probe_source(tmp_path, monkeypatch, 3)
    (tmp_path / "file").write_text("", encoding="utf-8")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "file"))
    with pytest.raises(NativeError, match="is not writable"):
        build("probe")


def test_the_cache_defaults_to_the_home_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("HOME", str(tmp_path))
    for value in (None, "", "relative/cache"):
        if value is None:
            monkeypatch.delenv("XDG_CACHE_HOME")
        else:
            monkeypatch.setenv("XDG_CACHE_HOME", value)
        assert native._cache_dir() == str(tmp_path / ".cache" / "ruma")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    assert native._cache_dir() == str(tmp_path / "xdg" / "ruma")


@needs_cc
def test_two_processes_building_at_once_agree(tmp_path):
    (tmp_path / "probe.c").write_text(probe_c(5), encoding="utf-8")
    script = (
        "from ruma import native\n"
        f"native._SOURCES = {str(tmp_path)!r}\n"
        "module = native.load('probe')\n"
        "print(module.__file__, module.value)\n"
    )
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", script], stdout=subprocess.PIPE, text=True,
            env=child_env({"XDG_CACHE_HOME": str(tmp_path / "cache")}),
        )
        for _ in range(2)
    ]
    outputs = [proc.communicate()[0] for proc in procs]
    assert [proc.returncode for proc in procs] == [0, 0]
    assert outputs[0] == outputs[1] and outputs[0].endswith(" 5\n")
    # the partial builds were all moved into place
    assert [p.suffix for p in (tmp_path / "cache" / "ruma").iterdir()] == [".so"]


@needs_cc
@pytest.mark.parametrize(
    "name", sorted(path.stem for path in Path(native._SOURCES).glob("*.c"))
)
def test_the_c_sources_compile_without_a_warning(name, tmp_path):
    include = native._include_dir()
    if not os.path.exists(os.path.join(include, "Python.h")):
        pytest.skip(f"no Python.h in {include}")
    command = [
        shutil.which("cc"), *native.FLAGS, "-Wall", "-Wextra", "-Werror", f"-I{include}"
    ]
    source = os.path.join(native._SOURCES, f"{name}.c")
    built = subprocess.run(
        [*command, source, "-o", str(tmp_path / f"{name}.so")],
        capture_output=True, text=True,
    )
    assert (built.returncode, built.stderr) == (0, "")


# Loads ruma.native's ``kernels`` extension module in a child process and
# prints its file, the process starts it saw and whether subprocess or
# sysconfig got loaded; a first argument is the extension suffix to key on.
CHILD_LOAD = """
import sys
starts = []
sys.addaudithook(
    lambda event, args: event.startswith(("subprocess.", "os.exec", "os.posix_spawn",
                                          "os.spawn", "os.fork", "os.system"))
    and starts.append(event)
)
from ruma import native
from ruma.native import NativeError, load
if sys.argv[1:]:
    native._EXTENSION_SUFFIX = sys.argv[1]
try:
    print(load("kernels").__file__)
except NativeError as exc:
    print("NativeError:", exc)
print(starts)
print(sorted(m for m in ("subprocess", "sysconfig") if m in sys.modules))
"""


@needs_cc
def test_an_extension_module_hit_starts_nothing_and_needs_no_compiler():
    module = native.load("kernels")
    assert module.__name__ == "ruma.native.kernels"
    assert module.__file__ == build("kernels")
    assert module.__file__.endswith(native._EXTENSION_SUFFIX)
    for path in ("", os.environ["PATH"]):
        proc = run_python("-c", CHILD_LOAD, env={"PATH": path})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [module.__file__, "[]", "[]"]


@needs_cc
def test_an_extension_module_keyed_for_another_interpreter_is_not_loaded():
    # the same source and flags, built for this interpreter, are in the
    # cache; a Python with another suffix must not take them
    mine = native.load("kernels").__file__
    other = ".cpython-399-x86_64-linux-gnu.so"
    proc = run_python("-c", CHILD_LOAD, other, env={"PATH": ""})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "NativeError: no C compiler: no cc on PATH to build kernels.c", "[]", "[]"
    ]
    proc = run_python("-c", CHILD_LOAD, native._EXTENSION_SUFFIX, env={"PATH": ""})
    assert proc.stdout.splitlines()[0] == mine


@needs_cc
def test_an_include_directory_without_python_h_is_a_recorded_failure(
    tmp_path, monkeypatch
):
    monkeypatch.setattr(native, "_include_dir", lambda: str(tmp_path))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    with pytest.raises(NativeError, match="Python.h") as first:
        native.load("kernels")
    assert "(exit " in str(first.value)
    with pytest.raises(NativeError, match=r"(?s)\(recorded in .*Python\.h: No such file"):
        native.load("kernels")
    # the record names the header it lacked: once the header is there, it
    # is a new build
    (tmp_path / "Python.h").write_text("#error a header, but not Python's\n")
    with pytest.raises(NativeError, match=r"(?s)\(exit .*not Python's"):
        native.load("kernels")


@needs_cc
@pytest.mark.skipif(shutil.which("nm") is None, reason="no nm on PATH")
def test_the_parse_kernel_links_to_the_interpreter_alone():
    # the module of every kernel, the spray sampler's loops among them:
    # -fno-builtin keeps loops from becoming libc calls, and -DNDEBUG
    # keeps Python.h's inline asserts from calling __assert_fail; what nm
    # lists beside Py* and _Py* symbols are at most the weak hooks of the
    # C runtime's start files, which resolve to nothing when absent
    listing = subprocess.run(
        ["nm", "-D", "--undefined-only", build("kernels")],
        capture_output=True, text=True, check=True,
    ).stdout.split("\n")
    fields = [line.split() for line in listing if line]
    assert fields and all(kind in ("U", "w") for kind, _ in fields)
    strong = [name for kind, name in fields if kind != "w"]
    assert strong and all(name.startswith(("Py", "_Py")) for name in strong)


@needs_cc
@pytest.mark.skipif(
    None in (shutil.which("nm"), shutil.which("readelf")), reason="no nm or readelf on PATH"
)
def test_the_sampler_calls_no_outside_function(tmp_path):
    # spray_successes runs count_successes with the GIL released, so the
    # sampler may call neither the interpreter nor libc. Built as an
    # object with a section per function and nothing inlined, the
    # relocations of each section are the calls of that function: from
    # count_successes they may reach only functions of kernels.c, and
    # none of Python.h's inline ones. On x86-64 they reach the AVX-512
    # path too, so that it is held to the same rule (a popcount built
    # without the popcnt target would call libgcc's __popcountdi2) and
    # cannot be compiled out unseen
    include = native._include_dir()
    if not os.path.exists(os.path.join(include, "Python.h")):
        pytest.skip(f"no Python.h in {include}")
    obj = str(tmp_path / "kernels.o")
    subprocess.run(
        [
            shutil.which("cc"), *(flag for flag in native.FLAGS if flag != "-shared"),
            "-c", "-ffunction-sections", "-fno-inline", f"-I{include}",
            os.path.join(native._SOURCES, "kernels.c"), "-o", obj,
        ],
        capture_output=True, text=True, check=True,
    )
    undefined = set(
        subprocess.run(
            ["nm", "--undefined-only", "--format=just-symbols", obj],
            capture_output=True, text=True, check=True,
        ).stdout.split()
    )
    calls = {}  # function -> the symbols its section relocates against
    section = None
    for line in subprocess.run(
        ["readelf", "-rW", obj], capture_output=True, text=True, check=True
    ).stdout.splitlines():
        if line.startswith("Relocation section"):
            name = line.split("'")[1]
            section = None
            if name.startswith(".rela.text."):
                section = calls.setdefault(name[len(".rela.text."):], [])
        elif section is not None and len(line.split()) >= 5:
            section.append(line.split()[4])
    reached, outside = set(), []
    todo = [name for name in calls if name.split(".")[0] == "count_successes"]
    while todo:
        function = todo.pop()
        if function in reached:
            continue
        reached.add(function)
        for target in calls.get(function, ()):
            if target.startswith(".text."):
                todo.append(target[len(".text."):])
            elif target in undefined:
                outside.append(target)
            elif not target.startswith("."):
                todo.append(target)
    assert any(name.split(".")[0] == "philox" for name in reached), reached
    if platform.machine() == "x86_64":
        assert any(name.split(".")[0] == "count_vector" for name in reached), reached
    assert outside == []
    assert not any(name.startswith(("Py", "_Py")) for name in reached), reached


# Replays the trace file named by its first argument as ``ruma replay``
# does; a second argument is an include directory to build against.
CHILD_REPLAY = """
import sys
from ruma import cli, native
if sys.argv[2:]:
    native._include_dir = lambda: sys.argv[2]
sys.argv = ["ruma", "replay", "--trace", sys.argv[1], "--seed", "3"]
cli.main()
"""


@needs_cc
def test_replay_prints_the_same_bytes_where_the_kernel_does_not_build(tmp_path):
    from ruma.trace import generate_trace, serialize_trace

    trace = tmp_path / "t.trace"
    lines = serialize_trace(generate_trace(5000, seed=3)).splitlines(keepends=True)
    # a comment hands the rest of its batch to the Python loop
    lines.insert(2000, "# note\n")
    trace.write_text("".join(lines), encoding="utf-8")
    (tmp_path / "bin").mkdir()
    (tmp_path / "empty").mkdir()
    outputs = {}
    for name, args, env in [
        ("kernel", [], {}),
        ("no cc", [], {"PATH": str(tmp_path / "bin")}),
        ("no Python.h", [str(tmp_path / "empty")], {}),
    ]:
        cache = tmp_path / name / "cache"
        env["XDG_CACHE_HOME"] = str(cache)
        proc = run_python("-c", CHILD_REPLAY, str(trace), *args, env=env)
        assert proc.returncode == 0, proc.stderr
        outputs[name] = proc.stdout
        built = sorted(p.suffix for p in cache.glob("ruma/*"))
        assert built == {"kernel": [".so"], "no cc": [], "no Python.h": [".err"]}[name]
    assert outputs["kernel"].startswith("{")
    assert outputs["no cc"] == outputs["no Python.h"] == outputs["kernel"]
