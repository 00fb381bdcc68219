"""ruma: byte-granularity randomized arena allocation, modeled and measured.

Four pieces share this package: a size-class arena allocator whose chunk
addresses carry a uniform random byte offset while respecting cache-line
and page borders (:mod:`ruma.arena`), a 32-bit byte-shift-independent
address filter (:mod:`ruma.bsi`), a pointer-spray attack probability model
(:mod:`ruma.spray`), and measurement harnesses for alignment penalties and
allocation traces (:mod:`ruma.membench`, :mod:`ruma.trace`). The ``ruma``
executable exposes all of it for scripted runs.

Each layer is imported when a command or caller first needs it, so a
process compiles only the modules it runs. ``import ruma`` loads
:mod:`ruma.errors` alone; the other names in ``__all__`` are imported from
their submodules on first access (PEP 562). The ``ruma`` commands load:

- ``filter-check``, ``--help``, ``--version`` and usage errors: ``ruma``,
  ``ruma.bsi`` and ``ruma.errors``, and neither numpy nor ``dataclasses``;
- ``spray-sim``: those, ``ruma.philox`` and ``ruma.spray``, and still not
  ``dataclasses``; above 2**20 shift draws also ``ruma.native``, and
  its extension module ``ruma.native.kernels`` for the compiled sampler;
- ``gen-trace``: those, ``ruma.philox``, ``ruma.trace`` and
  ``ruma.native``, and still not ``dataclasses``; where a C compiler and
  ``Python.h`` are at hand, also ``ruma.native.kernels``, which
  generates and serializes the trace;
- ``replay``: those, ``ruma.arena``, ``ruma.philox``, ``ruma.trace`` and
  ``ruma.native``, and where a C compiler and ``Python.h`` are at hand,
  ``ruma.native.kernels``, which parses the canonical trace lines;
- ``bench``: those, ``ruma.arena``, ``ruma.philox`` and ``ruma.membench``.

numpy is imported inside the functions that draw numbers or build buffers
(``monte_carlo`` above 2**20 shift draws when its C sampler cannot be
built, the ``membench`` timers), not at module top. ``Arena`` draws
numpy's Philox stream from :mod:`ruma.philox`, computed in pure Python,
so ``replay`` loads no numpy; ``generate_trace`` draws every roll, pick
and log-normal size from it, the normals through numpy's ziggurat with
numpy's own tables copied into :mod:`ruma.philox`, so ``gen-trace``
loads none; and ``monte_carlo`` draws a shorter run from it too, so
``spray-sim`` at its default 100000 trials of up to 10 stages loads none
either. A longer run is counted by ``ruma.native.kernels``, the one
extension module, compiled once from ``ruma/native/kernels.c`` with the
``cc`` on ``PATH`` and cached (:func:`ruma.native.compiled`), so it
loads numpy only on a host where that build fails; there the trace
kernels are missing too, and :mod:`ruma.trace` parses, generates and
serializes every trace in Python. On a 2-vCPU Xeon, ``ruma
filter-check`` takes 92 ms without a bytecode cache and 71 ms with one,
against 140 and 97 ms when every command loaded every module (medians of
25 alternating pairs).
"""

__version__ = "0.1.0"

from .errors import (
    BenchError,
    CapacityError,
    ConfigError,
    HandleError,
    RumaError,
    TraceError,
)

__all__ = [
    "Arena",
    "ArenaConfig",
    "AttackScenario",
    "BenchError",
    "CapacityError",
    "ConfigError",
    "HandleError",
    "RumaError",
    "SprayPattern",
    "TraceError",
    "chained_success",
    "monte_carlo",
]

# name -> the submodule that defines it, imported on first access
_LAZY = {
    "Arena": "arena",
    "ArenaConfig": "arena",
    "AttackScenario": "spray",
    "SprayPattern": "spray",
    "chained_success": "spray",
    "monte_carlo": "spray",
}


def _lazy_getattr(namespace: dict, table: dict):
    """A module ``__getattr__`` that resolves each name of ``table`` from
    the ``ruma`` submodule it maps to and stores it in ``namespace``, the
    module's globals, so later lookups no longer reach it."""

    def __getattr__(name):
        try:
            module = table[name]
        except KeyError:
            raise AttributeError(
                f"module {namespace['__name__']!r} has no attribute {name!r}"
            ) from None
        # __import__, unlike importlib.import_module, takes the import
        # statement's path, so ``python -X importtime`` lists the submodule
        value = namespace[name] = getattr(
            __import__(f"ruma.{module}", fromlist=[name]), name
        )
        return value

    return __getattr__


__getattr__ = _lazy_getattr(globals(), _LAZY)


def __dir__():
    return sorted({*globals(), *_LAZY})
