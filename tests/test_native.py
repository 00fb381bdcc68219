"""The native build helper: cache hits, rebuilds and the named errors."""

import ctypes
import shutil
import subprocess
import sys

import pytest

from conftest import child_env, needs_cc, run_python
from ruma import native
from ruma.native import NativeError, build

# Builds ruma.native's ``spray`` in a child process and prints the path,
# the process starts it saw and whether subprocess or numpy got loaded.
CHILD_BUILD = """
import sys
starts = []
sys.addaudithook(
    lambda event, args: event.startswith(("subprocess.", "os.exec", "os.posix_spawn",
                                          "os.spawn", "os.fork", "os.system"))
    and starts.append(event)
)
from ruma.native import NativeError, build
try:
    print(build("spray"))
except NativeError as exc:
    print("NativeError:", exc)
print(starts)
print(sorted(m for m in ("subprocess", "numpy") if m in sys.modules))
"""


def probe_source(tmp_path, monkeypatch, body):
    """Point ruma.native at ``tmp_path``, holding ``probe.c`` with ``body``."""
    monkeypatch.setattr(native, "_SOURCES", str(tmp_path))
    (tmp_path / "probe.c").write_text(body, encoding="utf-8")


@needs_cc
def test_a_second_build_is_a_cache_hit(tmp_path):
    # once built, the library is found with cc on PATH and with no PATH
    # at all, and neither lookup starts a process or imports subprocess
    library = build("spray")
    for path in ("", str(tmp_path)):
        proc = run_python("-c", CHILD_BUILD, env={"PATH": path})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [library, "[]", "[]"]
    proc = run_python("-c", CHILD_BUILD)
    assert proc.stdout.splitlines() == [library, "[]", "[]"]


@needs_cc
def test_a_changed_source_rebuilds(tmp_path, monkeypatch):
    libraries = []
    for value in (1, 2, 1):
        probe_source(tmp_path, monkeypatch, f"int probe(void) {{ return {value}; }}\n")
        libraries.append(build("probe"))
        assert ctypes.CDLL(libraries[-1]).probe() == value
    assert libraries[0] != libraries[1]
    assert libraries[2] == libraries[0]


def test_no_cc_and_an_empty_cache_is_the_no_compiler_error(tmp_path):
    (tmp_path / "bin").mkdir()
    env = {"PATH": str(tmp_path / "bin"), "XDG_CACHE_HOME": str(tmp_path / "cache")}
    proc = run_python("-c", CHILD_BUILD, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "NativeError: no C compiler: no cc on PATH to build spray.c", "[]", "[]"
    ]


@needs_cc
def test_a_failed_build_raises_the_compiler_stderr_and_is_not_retried(
    tmp_path, monkeypatch
):
    probe_source(tmp_path, monkeypatch, "int probe(void) { return }\n")
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
    probe_source(tmp_path, monkeypatch, "int probe(void) { return 3; }\n")
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
    source = "int probe(void) { return 5; }\n"
    (tmp_path / "probe.c").write_text(source, encoding="utf-8")
    script = (
        "import ctypes, sys\nfrom ruma import native\n"
        f"native._SOURCES = {str(tmp_path)!r}\n"
        "library = native.build('probe')\n"
        "print(library, ctypes.CDLL(library).probe())\n"
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
@pytest.mark.skipif(shutil.which("nm") is None, reason="no nm on PATH")
def test_the_sampler_calls_no_outside_function():
    # -fno-builtin keeps loops from becoming libc calls; what nm lists
    # are at most the weak hooks of the C runtime's start files, which
    # resolve to nothing when absent
    listing = subprocess.run(
        ["nm", "-D", "--undefined-only", build("spray")],
        capture_output=True, text=True, check=True,
    ).stdout.split("\n")
    strong = [line for line in listing if line and line.split()[-2] != "w"]
    assert strong == []
