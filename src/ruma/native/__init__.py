"""Build the C sources shipped in this package into shared libraries.

``build(name)`` compiles ``ruma/native/<name>.c`` with the ``cc`` found
on ``PATH`` and the flags in ``FLAGS``, and returns the path of the
library. ``-fno-builtin`` keeps the compiler from turning loops and
buffer set-up into library calls (at ``-O2`` GCC can make ``malloc``
plus ``memset`` a ``calloc``), so a source that calls nothing links to
nothing.

Libraries are cached in ``$XDG_CACHE_HOME/ruma`` (``~/.cache/ruma`` when
the variable is unset or not absolute), named for the hash of the source
bytes and flags and for the hash of the compiler's real path, size and
modification time. A cache hit opens no process, not even
``cc --version``, and imports neither ``subprocess`` nor numpy. When no
``cc`` is on ``PATH``, a library built earlier from the same source and
flags by any compiler is used: the compiler decides when to rebuild, not
whether a built library may load.

A build writes to a temporary file in the cache and moves it into place
with ``os.replace``, so two processes building at once cannot clash. A
failed build is recorded in the cache with the compiler's messages, and
later calls raise the same error at once instead of compiling again.
"""

from __future__ import annotations

import hashlib
import os

__all__ = ["FLAGS", "NativeError", "build"]

FLAGS = ("-O2", "-fno-builtin", "-shared", "-fPIC")

# where the sources live; a module attribute so that a test can point it
# at sources of its own
_SOURCES = os.path.dirname(os.path.abspath(__file__))


class NativeError(RuntimeError):
    """A library cannot be had: no compiler, no writable cache, or the
    build failed."""


def _digest(*parts: bytes) -> str:
    return hashlib.sha256(b"\0".join(parts)).hexdigest()[:16]


def _find_cc():
    """The first executable ``cc`` on ``PATH``, or None."""
    for folder in os.environ.get("PATH", os.defpath).split(os.pathsep):
        path = os.path.join(folder, "cc")
        if folder and os.path.isfile(path) and os.access(path, os.X_OK):
            return path
    return None


def _cache_dir() -> str:
    root = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(root):
        root = os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(root, "ruma")


def build(name: str) -> str:
    """The path of ``<name>.c`` built into a shared library, from the
    cache or compiled now; raises :class:`NativeError` when there is none."""
    source = os.path.join(_SOURCES, f"{name}.c")
    with open(source, "rb") as handle:
        code = handle.read()
    cache = _cache_dir()
    stem = f"{name}-{_digest(code, *map(str.encode, FLAGS))}-"
    cc = _find_cc()
    if cc is None:
        try:
            built = sorted(
                entry for entry in os.listdir(cache)
                if entry.startswith(stem) and entry.endswith(".so")
            )
        except OSError:
            built = []
        if built:
            return os.path.join(cache, built[0])
        raise NativeError(f"no C compiler: no cc on PATH to build {name}.c")
    real = os.path.realpath(cc)
    info = os.stat(real)
    stem += _digest(os.fsencode(real), b"%d %d" % (info.st_size, info.st_mtime_ns))
    library = os.path.join(cache, stem + ".so")
    failure = os.path.join(cache, stem + ".err")
    if os.path.exists(library):
        return library
    if not os.path.exists(failure):
        return _compile(cc, source, cache, library, failure)
    with open(failure, encoding="utf-8", errors="replace") as handle:
        recorded = handle.read()
    raise NativeError(
        f"{name}.c failed to build with {cc} (recorded in {failure}):\n{recorded}"
    )


def _compile(cc: str, source: str, cache: str, library: str, failure: str) -> str:
    import subprocess
    import tempfile

    try:
        os.makedirs(cache, exist_ok=True)
        fd, partial = tempfile.mkstemp(dir=cache, prefix=".build-", suffix=".so")
    except OSError as exc:
        raise NativeError(f"cache {cache} is not writable: {exc}") from None
    os.close(fd)
    try:
        proc = subprocess.run(
            [cc, *FLAGS, "-o", partial, source], capture_output=True, text=True
        )
    except OSError as exc:
        proc = subprocess.CompletedProcess([cc], 127, "", f"{exc}\n")
    if proc.returncode == 0:
        os.replace(partial, library)
        return library
    # the partial file is still this process's own: it becomes the record
    with open(partial, "w", encoding="utf-8") as handle:
        handle.write(proc.stderr)
    os.replace(partial, failure)
    raise NativeError(
        f"{os.path.basename(source)} failed to build with {cc} "
        f"(exit {proc.returncode}):\n{proc.stderr}"
    )
