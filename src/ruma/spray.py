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
Everything is pure given (scenario, seed).

The sampler reads one Philox stream as numpy's
``Generator(Philox(seed)).integers(0, states, size=(trials, k))`` would:
chain after chain, stage after stage, each shift index the top
``log2(states)`` bits of the next 32-bit half, a word's low half first
(see :mod:`ruma.philox`). It takes the halves in batches of whole chains,
about ``_BATCH_HALVES`` halves each, so the working set stays in cache; a
batch that ends on a word's low half keeps the high half for the next
batch, as numpy's ``next_uint32`` buffer does. Splitting the batches
across workers keeps the seeded output only if each worker reproduces its
stretch of that single stream (for example by advancing a copy of it);
per-worker seeds, even ones derived from the root seed, draw different
shifts and change the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import check_seed

__all__ = [
    "AttackScenario",
    "MonteCarloResult",
    "SprayPattern",
    "chained_success",
    "monte_carlo",
    "read_at_shift",
]

# Two-sided 99% normal quantile as Cephes' ndtri(0.995) returns it, the value
# the reference Wilson implementation uses. The stdlib NormalDist().inv_cdf(0.995)
# is one ulp lower (2.5758293035489), and the interval then changes in its
# last bit.
_Z = 2.5758293035489004
# The longest chain a scenario may have. monte_carlo draws at least one
# whole chain per batch, so this also bounds a batch's arrays.
_MAX_CHAIN = 1_000_000
# 32-bit halves monte_carlo draws per batch, as whole chains: 2**17 keeps
# the raw words (512 KiB) and the byte arrays in cache.
_BATCH_HALVES = 1 << 17


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

    def __post_init__(self):
        if self.pointer_width not in (4, 8):
            raise ValueError(f"pointer_width must be 4 or 8, got {self.pointer_width}")
        if self.granularity < 1 or self.pointer_width % self.granularity:
            raise ValueError(
                f"granularity {self.granularity} must divide pointer width "
                f"{self.pointer_width}"
            )
        if not 1 <= self.chain_length <= _MAX_CHAIN:
            raise ValueError(
                f"chain_length must be in [1, {_MAX_CHAIN}], got {self.chain_length}"
            )
        if self.pattern.width != self.pointer_width:
            raise ValueError("pattern width must equal the scenario pointer width")

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
    pattern = scenario.pattern
    return [read_at_shift(pattern, s) == pattern.value for s in scenario.shifts]


def chained_success(scenario: AttackScenario) -> float:
    """Exact success probability of ``chain_length`` independent stages: the
    share of allowed shifts that read the sprayed value back, raised to the
    chain length (a chain of 1 is a single dereference). Python's int/int
    division rounds correctly, so this is the exact ratio, rounded once."""
    matches = _match_table(scenario)
    k = scenario.chain_length
    return sum(matches) ** k / len(matches) ** k


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
    check_seed(seed)
    import numpy as np

    matches = _match_table(scenario)
    states = len(matches)  # 1, 2, 4 or 8
    k = scenario.chain_length
    if states == 1:  # integers(0, 1) draws nothing
        successes = trials if matches[0] else 0
    else:
        # bit s of mask says whether shift index s reads the value back
        mask = np.uint8(sum(m << s for s, m in enumerate(matches)))
        drop = np.uint8(8 - (states.bit_length() - 1))  # 8 - log2(states)
        raw = np.random.Philox(seed).random_raw
        kept = None  # top byte of a high half left over by the last batch
        successes = 0
        remaining = trials
        chains = max(1, _BATCH_HALVES // k)
        while remaining:
            n = min(chains, remaining)
            need = n * k
            fresh = need - (kept is not None)
            # each 32-bit half's top byte, a word's low half first
            tops = raw((fresh + 1) // 2).astype("<u8", copy=False).view(np.uint8)[3::4]
            if kept is not None:
                tops = np.concatenate(([kept], tops))
            kept = tops[need] if len(tops) > need else None
            verdicts = (mask >> (tops[:need] >> drop)) & 1
            # One row per stage, so the AND runs down k contiguous rows of
            # n chains instead of starting a reduction per chain.
            stages = np.ascontiguousarray(verdicts.reshape(n, k).T)
            successes += int(np.count_nonzero(stages.all(axis=0)))
            remaining -= n
    ci_low, ci_high = _wilson(successes, trials)
    return MonteCarloResult(
        estimate=successes / trials,
        ci_low=ci_low,
        ci_high=ci_high,
        trials=trials,
        successes=successes,
    )


def _wilson(k: int, n: int) -> tuple[float, float]:
    """Two-sided 99% Wilson interval for ``k`` successes in ``n`` trials:
    Newcombe's (1998) formula without continuity correction, in the common
    reference operation order so the bounds match it to the bit. The bounds
    are exactly 0 at ``k == 0`` and exactly 1 at ``k == n``."""
    p = k / n
    denom = 2 * (n + _Z**2)
    center = (2 * n * p + _Z**2) / denom
    delta = _Z / denom * math.sqrt(4 * n * p * (1 - p) + _Z**2)
    return (0.0 if k == 0 else center - delta, 1.0 if k == n else center + delta)
