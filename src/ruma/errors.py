"""Exception types, and the seed check, shared across the package."""


class RumaError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(RumaError):
    """Invalid arena configuration value or violated config invariant."""


class CapacityError(RumaError):
    """The arena cannot satisfy an allocation request."""


class HandleError(RumaError):
    """Operation referenced an unknown, freed, or consumed allocation."""


class TraceError(RumaError):
    """Malformed or referentially invalid trace input."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f"line {line}"
            if column is not None:
                where += f", column {column}"
            where += ": "
        super().__init__(where + message)


class BenchError(RumaError):
    """Benchmark parameters cannot be planned or executed."""


def check_seed(seed: int) -> None:
    """Reject a seed outside [0, 2**64), the domain of ``ArenaConfig.rng_seed``,
    so every seeded command accepts the same seeds. Raises ``ValueError``."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    if seed >= 1 << 64:
        raise ValueError(f"seed must fit in an unsigned 64-bit integer, got {seed}")
