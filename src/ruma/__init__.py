"""ruma: byte-granularity randomized arena allocation, modeled and measured.

Four pieces share this package: a size-class arena allocator whose chunk
addresses carry a uniform random byte offset while respecting cache-line
and page borders (:mod:`ruma.arena`), a 32-bit byte-shift-independent
address filter (:mod:`ruma.bsi`), a pointer-spray attack probability model
(:mod:`ruma.spray`), and measurement harnesses for alignment penalties and
allocation traces (:mod:`ruma.membench`, :mod:`ruma.trace`). The ``ruma``
executable exposes all of it for scripted runs.

numpy is imported inside the functions that draw numbers or build buffers
(``Arena()``, ``generate_trace``, ``monte_carlo``, the ``membench`` timers),
not at module top, so importing the package and commands such as
``ruma filter-check`` do not pay for loading it.
"""

__version__ = "0.1.0"

from .arena import Arena, ArenaConfig
from .errors import (
    BenchError,
    CapacityError,
    ConfigError,
    HandleError,
    RumaError,
    TraceError,
)
from .spray import AttackScenario, SprayPattern, chained_success, monte_carlo

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
