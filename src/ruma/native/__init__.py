"""Build the C sources shipped in this package into extension modules.

``build(name)`` compiles ``ruma/native/<name>.c`` as a CPython extension
module with the ``cc`` found on ``PATH``, the flags in ``FLAGS`` and the
interpreter's include directory, so it needs ``Python.h``, and returns
the path of the library. ``load(name)`` builds it and imports it as
``ruma.native.<name>``. ``compiled()`` returns the one module that ruma
ships, built from ``kernels.c`` and loaded once, or None where it cannot
be had.

The module links to the interpreter alone. ``-fno-builtin`` keeps the
compiler from turning loops and buffer set-up into library calls (at
``-O2`` GCC can make ``malloc`` plus ``memset`` a ``calloc``), and
without ``-DNDEBUG``, ``Python.h``'s inline asserts would call
``__assert_fail``. ``-ffp-contract=off`` keeps every double operation
rounded on its own, as CPython rounds it: where the target has a fused
multiply-add (aarch64, say), GCC would otherwise fuse ``a * b + c`` into
one rounding, and the trace kernel's sizes could differ from the Python
generator's in the last bit.

Libraries are cached in ``$XDG_CACHE_HOME/ruma`` (``~/.cache/ruma`` when
the variable is unset or not absolute), named for the hash of the source
bytes and flags alone, and ending in the interpreter's extension suffix,
so another Python never loads them. A library that exists is used,
whatever ``PATH`` holds: the lookup opens no process, not even ``cc
--version``, and imports neither ``subprocess``, ``sysconfig`` nor numpy.
Only a miss looks for ``cc``.

A build writes to a temporary file in the cache and moves it into place
with ``os.replace``, so two processes building at once cannot clash. A
failed build is recorded in the cache with the compiler's messages,
under a name that also hashes the real path, size and modification time
of the compiler and of ``Python.h``: later calls raise the same error at
once instead of compiling again, until the compiler or the header
changes.
"""

from __future__ import annotations

import functools
import os
from importlib.machinery import EXTENSION_SUFFIXES

try:
    # CPython's built-in BLAKE2: hashlib's import loads OpenSSL, which
    # costs every process that loads a library about 3 ms and 3.6 MiB of
    # peak RSS (Python 3.11, x86-64)
    from _blake2 import blake2b
except ImportError:
    from hashlib import blake2b

__all__ = ["FLAGS", "NativeError", "build", "compiled", "load"]

# -fno-builtin, -DNDEBUG and -ffp-contract=off: see the module docstring
FLAGS = ("-O2", "-fno-builtin", "-shared", "-fPIC", "-DNDEBUG", "-ffp-contract=off")

# where the sources live, and the ending of a library's name; module
# attributes so that a test can point them elsewhere
_SOURCES = os.path.dirname(os.path.abspath(__file__))
_EXTENSION_SUFFIX = EXTENSION_SUFFIXES[0]


class NativeError(RuntimeError):
    """A library cannot be had: no compiler, no ``Python.h``, no writable
    cache, or the build failed."""


def _digest(*parts: bytes) -> str:
    return blake2b(b"\0".join(parts), digest_size=8).hexdigest()


def _stamp(path: str) -> bytes:
    """The real path, size and modification time of ``path``, or the
    path alone when it does not exist."""
    real = os.path.realpath(path)
    try:
        info = os.stat(real)
    except OSError:
        return os.fsencode(real)
    return os.fsencode(real) + b"\0%d %d" % (info.st_size, info.st_mtime_ns)


def _cache_dir() -> str:
    root = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(root):
        root = os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(root, "ruma")


def _include_dir() -> str:
    """The interpreter's C header directory, which holds ``Python.h``."""
    import sysconfig

    return sysconfig.get_path("include")


def build(name: str) -> str:
    """The path of ``<name>.c`` built into an extension module for this
    interpreter, from the cache or compiled now; raises
    :class:`NativeError` when there is none."""
    source = os.path.join(_SOURCES, f"{name}.c")
    with open(source, "rb") as handle:
        code = handle.read()
    cache = _cache_dir()
    stem = f"{name}-{_digest(code, *map(str.encode, FLAGS))}"
    library = os.path.join(cache, stem + _EXTENSION_SUFFIX)
    if os.path.exists(library):
        return library
    import shutil

    cc = shutil.which("cc")
    if cc is None:
        raise NativeError(f"no C compiler: no cc on PATH to build {name}.c")
    include = _include_dir()
    tools = (_stamp(cc), _stamp(os.path.join(include, "Python.h")))
    failure = os.path.join(cache, f"{stem}-{_digest(*tools)}.err")
    if not os.path.exists(failure):
        return _compile([cc, *FLAGS, f"-I{include}"], source, cache, library, failure)
    with open(failure, encoding="utf-8", errors="replace") as handle:
        recorded = handle.read()
    raise NativeError(
        f"{name}.c failed to build with {cc} (recorded in {failure}):\n{recorded}"
    )


def load(name: str):
    """``<name>.c`` built (see :func:`build`) and imported as
    ``ruma.native.<name>``; raises :class:`NativeError` when it cannot be
    built, and ``ImportError`` when it cannot be loaded."""
    from importlib.util import module_from_spec, spec_from_file_location

    spec = spec_from_file_location(f"{__name__}.{name}", build(name))
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@functools.cache
def compiled():
    """The extension module ``ruma.native.kernels``, with the kernels of
    :mod:`ruma.trace` and :mod:`ruma.spray`, or None when it cannot be
    built or loaded. Callers look it up here at each call, so that a test
    can replace it."""
    try:
        return load("kernels")
    except (NativeError, ImportError, OSError):
        return None


def _compile(command: list, source: str, cache: str, library: str, failure: str) -> str:
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
            [*command, "-o", partial, source], capture_output=True, text=True
        )
    except OSError as exc:
        proc = subprocess.CompletedProcess(command, 127, "", f"{exc}\n")
    if proc.returncode == 0:
        os.replace(partial, library)
        return library
    # the partial file is still this process's own: it becomes the record
    with open(partial, "w", encoding="utf-8") as handle:
        handle.write(proc.stderr)
    os.replace(partial, failure)
    raise NativeError(
        f"{os.path.basename(source)} failed to build with {command[0]} "
        f"(exit {proc.returncode}):\n{proc.stderr}"
    )
