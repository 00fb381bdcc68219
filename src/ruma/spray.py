"""Pointer-spray attack model against randomized heap layouts.

An attacker sprays a repeated pointer-width value over a heap region and
relies on a stale or out-of-bounds dereference landing on it. When chunk
addresses keep their word alignment, the read always lands on a repetition
boundary and succeeds. Byte-granularity randomization makes the byte shift
between spray and dereference uniform over the pointer width, so a generic
pattern survives only 1 shift out of pointer_width. Values made of one
repeated byte survive every shift, which is the bypass the 32-bit address
filter exists for.

Success probabilities are computed two independent ways: exact shift
enumeration and seeded Monte Carlo sampling with a Wilson interval.
Everything is pure given (scenario, seed); trial batches could be split
across workers as long as per-worker seeds derive from the root seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

__all__ = [
    "AttackScenario",
    "MonteCarloResult",
    "OTHER",
    "POINTER_LIKE",
    "SprayPattern",
    "chained_success",
    "classify_leaked_words",
    "monte_carlo",
    "read_at_shift",
    "single_deref_success",
    "words_at_shift",
]

_Z99 = 0.99

POINTER_LIKE = "pointer-like"
OTHER = "other"


@dataclass(frozen=True)
class SprayPattern:
    """The repeated payload: ``width`` bytes encoding ``value`` little-endian."""

    value: int
    width: int

    def __post_init__(self):
        if self.width not in (4, 8):
            raise ValueError(f"pattern width must be 4 or 8 bytes, got {self.width}")
        if not 0 <= self.value < 1 << (8 * self.width):
            raise ValueError(
                f"pattern value {self.value:#x} does not fit {self.width} bytes"
            )

    @property
    def data(self) -> bytes:
        return self.value.to_bytes(self.width, "little")

    def is_byte_shift_independent(self) -> bool:
        return len(set(self.data)) == 1


@dataclass(frozen=True)
class AttackScenario:
    """One spray campaign: k independent crafted-pointer dereferences.

    ``granularity`` is the allocation granularity of the defense under
    attack: ``pointer_width`` models a conventional word-aligned heap,
    1 models byte-granularity randomization.
    """

    pointer_width: int
    granularity: int
    chain_length: int
    pattern: SprayPattern
    predicate: str = "exact"  # or "rotation" for shift-insensitive analysis

    def __post_init__(self):
        if self.pointer_width not in (4, 8):
            raise ValueError(f"pointer_width must be 4 or 8, got {self.pointer_width}")
        if self.granularity < 1 or self.pointer_width % self.granularity:
            raise ValueError(
                f"granularity {self.granularity} must divide pointer width "
                f"{self.pointer_width}"
            )
        if self.chain_length < 1:
            raise ValueError("chain_length must be at least 1")
        if self.pattern.width != self.pointer_width:
            raise ValueError("pattern width must equal the scenario pointer width")
        if self.predicate not in ("exact", "rotation"):
            raise ValueError(f"unknown predicate {self.predicate!r}")

    @property
    def shifts(self) -> range:
        return range(0, self.pointer_width, self.granularity)


def read_at_shift(pattern: SprayPattern, shift: int) -> int:
    """Value read ``shift`` bytes into the infinite repetition of the pattern."""
    if not 0 <= shift < pattern.width:
        raise ValueError(f"shift must be in [0, {pattern.width}), got {shift}")
    window = (pattern.data * 2)[shift : shift + pattern.width]
    return int.from_bytes(window, "little")


def _match_table(scenario: AttackScenario):
    if scenario.predicate == "rotation":
        targets = {read_at_shift(scenario.pattern, s) for s in range(scenario.pointer_width)}
    else:
        targets = {scenario.pattern.value}
    return [
        read_at_shift(scenario.pattern, s) in targets for s in scenario.shifts
    ]


def single_deref_success(scenario: AttackScenario) -> float:
    """Exact attack success probability of one dereference, by enumerating
    every shift the defense granularity allows."""
    matches = _match_table(scenario)
    return float(Fraction(sum(matches), len(matches)))


def chained_success(scenario: AttackScenario) -> float:
    """Exact success probability of ``chain_length`` independent stages:
    the single-stage odds raised to the chain length."""
    matches = _match_table(scenario)
    return float(Fraction(sum(matches), len(matches)) ** scenario.chain_length)


@dataclass(frozen=True)
class MonteCarloResult:
    estimate: float
    ci_low: float
    ci_high: float
    trials: int
    successes: int


def monte_carlo(scenario: AttackScenario, trials: int, seed: int) -> MonteCarloResult:
    """Sample the attack ``trials`` times and report the empirical success
    rate with a 99% Wilson interval."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    # scipy is imported lazily so CLI paths that never sample stay light
    from scipy.stats import binomtest

    matches = np.array(_match_table(scenario), dtype=bool)
    states = len(matches)
    k = scenario.chain_length
    rng = np.random.Generator(np.random.Philox(seed))
    successes = 0
    remaining = trials
    batch = max(1, min(trials, 1_000_000 // k))
    while remaining:
        n = min(batch, remaining)
        draws = rng.integers(0, states, size=(n, k))
        successes += int(matches[draws].all(axis=1).sum())
        remaining -= n
    ci = binomtest(successes, trials).proportion_ci(
        confidence_level=_Z99, method="wilson"
    )
    return MonteCarloResult(
        estimate=successes / trials,
        ci_low=float(ci.low),
        ci_high=float(ci.high),
        trials=trials,
        successes=successes,
    )


def words_at_shift(data: bytes, shift: int, word_width: int = 8):
    """Reinterpret a leaked buffer as ``word_width``-byte little-endian words
    starting ``shift`` bytes in, the way a leak-analysis script would."""
    if shift < 0:
        raise ValueError("shift must be non-negative")
    out = []
    for i in range(shift, len(data) - word_width + 1, word_width):
        out.append(int.from_bytes(data[i : i + word_width], "little"))
    return out


def classify_leaked_words(words):
    """Tag each leaked word the way pointer-tagging runtimes invite: words
    with the least significant bit set look like pointers."""
    return [POINTER_LIKE if w & 1 else OTHER for w in words]
