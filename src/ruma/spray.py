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
(see :mod:`ruma.philox`), so a half's top byte alone decides whether its
stage reads the value back. It takes the halves in batches of whole chains,
about ``_BATCH_HALVES`` halves each, so the working set stays in cache; a
batch that ends on a word's low half keeps the high half for the next
batch, as numpy's ``next_uint32`` buffer does.

The stream has two sources that read the same halves in the same order,
so a seeded result does not depend on which one runs. A run of at most
``_PYTHON_HALVES`` halves (``trials * chain_length``) draws them from
:class:`ruma.philox.Philox` in pure Python and never imports numpy; a
longer one takes numpy's raw Philox words. numpy's import costs about
0.15 s, and ruma.philox makes 2**20 halves in about 0.1 s, so 2**20 is
the measured crossover: at 2**21 halves the two were even.

Splitting the batches across workers keeps the seeded output only if
each worker reproduces its stretch of that single stream (for example by
advancing a copy of it); per-worker seeds, even ones derived from the
root seed, draw different shifts and change the result.
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
# The most halves (trials * chain_length) monte_carlo draws from
# ruma.philox; a longer run pays numpy's import for its faster words.
# 2**20 is the measured crossover, not a setting.
_PYTHON_HALVES = 1 << 20


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
    matches = _match_table(scenario)
    k = scenario.chain_length
    if len(matches) == 1:  # integers(0, 1) draws nothing
        successes = trials if matches[0] else 0
    elif trials * k <= _PYTHON_HALVES:
        successes = _python_successes(matches, k, trials, seed)
    else:
        successes = _numpy_successes(matches, k, trials, seed)
    ci_low, ci_high = _wilson(successes, trials)
    return MonteCarloResult(
        estimate=successes / trials,
        ci_low=ci_low,
        ci_high=ci_high,
        trials=trials,
        successes=successes,
    )


def _python_successes(matches: list, k: int, trials: int, seed: int) -> int:
    """The chains of ``trials`` whose ``k`` stages all read the value back,
    drawn from :mod:`ruma.philox`: the halves and batches of
    ``_numpy_successes``, computed without numpy."""
    from .philox import Philox

    # a half's top byte -> 1 if its shift index (top log2(states) bits) reads back
    verdict = bytes(matches[b * len(matches) >> 8] for b in range(256))
    batches = Philox(seed).tops()
    pool = bytearray()  # verdicts of drawn halves no batch has taken yet
    successes = 0
    remaining = trials
    chains = max(1, _BATCH_HALVES // k)
    while remaining:
        n = min(chains, remaining)
        need = n * k
        while len(pool) < need:
            pool += next(batches).translate(verdict)
        verdicts = pool[:need]
        del pool[:need]
        if k <= n:
            # one int per stage, a byte per chain, ANDed down the k stages
            alive = int.from_bytes(verdicts[::k], "little")
            for s in range(1, k):
                alive &= int.from_bytes(verdicts[s::k], "little")
            successes += alive.bit_count()
        else:  # fewer chains than stages: look for a failed stage in each
            successes += sum(verdicts.find(0, i, i + k) < 0 for i in range(0, need, k))
        remaining -= n
    return successes


def _numpy_successes(matches: list, k: int, trials: int, seed: int) -> int:
    """The chains of ``trials`` whose ``k`` stages all read the value back,
    from numpy's raw Philox words."""
    import numpy as np

    # bit s of mask says whether shift index s reads the value back
    mask = np.uint8(sum(m << s for s, m in enumerate(matches)))
    drop = np.uint8(8 - (len(matches).bit_length() - 1))  # 8 - log2(states)
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
    return successes


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
