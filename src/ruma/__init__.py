"""ruma: byte-granularity randomized arena allocation, modeled and measured.

Four pieces share this package: a size-class arena allocator whose chunk
addresses carry a uniform random byte offset while respecting cache-line
and page borders (:mod:`ruma.arena`), a 32-bit byte-shift-independent
address filter (:mod:`ruma.bsi`), a pointer-spray attack probability model
(:mod:`ruma.spray`), and measurement harnesses for alignment penalties and
allocation traces (:mod:`ruma.membench`, :mod:`ruma.trace`). The ``ruma``
executable exposes all of it for scripted runs.
"""

__version__ = "0.1.0"

from .arena import Arena, ArenaConfig
from .errors import (
    AccessError,
    BenchError,
    CapacityError,
    ConfigError,
    HandleError,
    RumaError,
    TraceError,
)
from .spray import AttackScenario, SprayPattern, chained_success, monte_carlo

__all__ = [
    "AccessError",
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
