import functools
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import settings

# CI searches harder than a local run: pass --hypothesis-profile=ci
settings.register_profile("ci", max_examples=1000)

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"

# The tests that compile C skip only where the host has no compiler (or,
# for the symbol check, no nm).
needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no cc on PATH")


def on_each_parse_path(test):
    """Run ``test`` twice: with the compiled kernels of
    ``ruma.native.compiled()`` (where they build, else this run is the
    second one again), which parse the canonical lines, generate the
    trace and serialize the events they take, then with the Python loops
    alone, as on a host without a compiler. The test keeps its name; a
    failure notes its path."""
    from ruma import native

    paths = {"kernel": native.compiled, "Python loop": lambda: None}

    @functools.wraps(test)
    def run(*args, **kwargs):
        for name, kernel in paths.items():
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(native, "compiled", kernel)
                try:
                    test(*args, **kwargs)
                except Exception as exc:
                    if hasattr(exc, "add_note"):  # Python 3.11 and later
                        exc.add_note(f"on the {name} parse path")
                    raise

    return run


@pytest.fixture(scope="session", autouse=True)
def native_cache(tmp_path_factory):
    """The session's ``XDG_CACHE_HOME``, a fresh directory, so native
    builds never touch the user's cache: set in this process, it reaches
    every child through ``child_env``."""
    cache = tmp_path_factory.mktemp("xdg-cache")
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("XDG_CACHE_HOME", str(cache))
        yield cache


def child_env(env=None):
    """Environment for a child Python process.

    The absolute ``src`` path goes in front of any inherited ``PYTHONPATH``,
    so the child imports this checkout's ``ruma`` from any working directory,
    installed or not. ``COLUMNS=80`` pins argparse's help wrapping; ``env``
    entries override both.
    """
    pythonpath = filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    full_env = dict(os.environ, COLUMNS="80", PYTHONPATH=os.pathsep.join(pythonpath))
    full_env.update(env or {})
    return full_env


def run_python(*args, env=None, cwd=None):
    """Run ``python *args`` in a child process whose environment is
    ``child_env(env)``."""
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=child_env(env),
        cwd=cwd,
    )


def run_cli(*argv, env=None, cwd=None):
    """Run ``python -m ruma.cli *argv`` in a child process, as ``run_python``."""
    return run_python("-m", "ruma.cli", *argv, env=env, cwd=cwd)


@pytest.fixture(scope="session")
def schemas():
    """Published JSON schemas, keyed by file stem."""
    out = {}
    for path in (REPO_ROOT / "schemas").glob("*.schema.json"):
        out[path.name.replace(".schema.json", "")] = json.loads(
            path.read_text(encoding="utf-8")
        )
    return out
