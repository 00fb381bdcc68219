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
(see :mod:`ruma.philox`). It takes the halves in batches of whole
chains, about ``_BATCH_HALVES`` halves each, so the working set stays in
cache; a batch that ends on a word's low half keeps the high half for the
next batch, as numpy's ``next_uint32`` buffer does.

A stage's verdict is one bit field, not a lookup of the match table. The
shift indices that read the value back form a subgroup of the cyclic
group of the ``states`` indices: reading ``a`` and then ``b`` further
steps into the repetition reads at ``a + b`` modulo the width, so the
sum of two matching indices matches too. The subgroups of a cyclic group
are the multiples of a divisor, here ``q = states / matches``, and
``states`` is a power of two, so ``q`` is one as well (for a byte period
``p``, ``q = max(1, p / granularity)``). A stage therefore reads the
value back exactly when the low ``log2(q)`` bits of its index are clear,
that is when its half ANDed with ``(q - 1) << (32 - log2(states))`` is
zero. When ``q`` is 1, as for one repeated byte, every stage passes and
nothing is drawn. numpy tests a chain of even length as ``k/2`` whole
64-bit words against that field in both halves; an odd one, as ``k``
32-bit halves.

The stream has three sources that read the same halves in the same
order, so a seeded result does not depend on which one runs:

- a run of at most ``_PYTHON_HALVES`` halves (``trials * chain_length``)
  draws them from :func:`ruma.philox.tops` in pure Python. numpy's
  import costs about 0.15 s, and ruma.philox makes 2**20 halves in about
  0.1 s, so 2**20 is the measured crossover: at 2**21 halves the two
  were even;
- a longer run is counted by ``spray_successes`` of the extension module
  :func:`ruma.native.compiled` returns, built from
  ``ruma/native/kernels.c``. It computes the Philox blocks itself from
  :func:`ruma.philox.seed_key` and stops each chain at its first failed
  stage; where the CPU has AVX-512F, it computes the blocks of chains of
  at most 8 stages 16 at a time in vector lanes instead, and judges each
  chain by the same halves. Python calls it ``_NATIVE_CHAINS`` chains at
  a time. 10**7 chains of two stages take about 0.05 s on the scalar
  loop and 0.02 s on the vector path, on a 2-vCPU Xeon;
- where that module cannot be had (no ``cc``, no ``Python.h``, no
  writable cache, or a failed build), or the halves do not fit in 63
  bits, the longer run takes numpy's raw Philox words, and only this
  source imports numpy.

Splitting the batches across workers keeps the seeded output only if
each worker reproduces its stretch of that single stream (for example by
advancing a copy of it); per-worker seeds, even ones derived from the
root seed, draw different shifts and change the result.
"""

from __future__ import annotations

import math
from collections import namedtuple

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
# ruma.philox. 2**20 is the measured crossover against numpy's import,
# the path of a host without a compiler, not a setting. Where the
# compiled kernel builds, runs of about 2**16 to 2**20 halves would be
# faster on it; one constant serves both kinds of host, so it stays.
_PYTHON_HALVES = 1 << 20
# Chains per call of the compiled kernel: short enough calls for Ctrl-C
# to get through between them. Odd, so that at an odd chain length every
# other call starts on a word's high half.
_NATIVE_CHAINS = (1 << 22) - 1


class SprayPattern(namedtuple("SprayPattern", "value width")):
    """The repeated payload: ``width`` bytes encoding ``value`` little-endian."""

    __slots__ = ()

    def __new__(cls, value: int, width: int):
        if width not in (4, 8):
            raise ValueError(f"pattern width must be 4 or 8 bytes, got {width}")
        if not 0 <= value < 1 << (8 * width):
            raise ValueError(f"pattern value {value:#x} does not fit {width} bytes")
        return super().__new__(cls, value, width)

    @property
    def data(self) -> bytes:
        return self.value.to_bytes(self.width, "little")


class AttackScenario(
    namedtuple("AttackScenario", "pointer_width granularity chain_length pattern")
):
    """One spray campaign: k independent crafted-pointer dereferences.

    ``granularity`` is the allocation granularity of the defense under
    attack: ``pointer_width`` models a conventional word-aligned heap,
    1 models byte-granularity randomization.
    """

    __slots__ = ()

    def __new__(
        cls, pointer_width: int, granularity: int, chain_length: int,
        pattern: SprayPattern,
    ):
        if pointer_width not in (4, 8):
            raise ValueError(f"pointer_width must be 4 or 8, got {pointer_width}")
        if granularity < 1 or pointer_width % granularity:
            raise ValueError(
                f"granularity {granularity} must divide pointer width "
                f"{pointer_width}"
            )
        if not 1 <= chain_length <= _MAX_CHAIN:
            raise ValueError(
                f"chain_length must be in [1, {_MAX_CHAIN}], got {chain_length}"
            )
        if pattern.width != pointer_width:
            raise ValueError("pattern width must equal the scenario pointer width")
        return super().__new__(cls, pointer_width, granularity, chain_length, pattern)

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


MonteCarloResult = namedtuple(
    "MonteCarloResult", "estimate ci_low ci_high trials successes"
)


def monte_carlo(scenario: AttackScenario, trials: int, seed: int) -> MonteCarloResult:
    """Sample the attack ``trials`` times and report the empirical success
    rate with a 99% Wilson interval."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    check_seed(seed)
    matches = _match_table(scenario)
    states = len(matches)
    q = states // sum(matches)  # the matching indices are the multiples of q
    # a stage reads the value back when the low log2(q) bits of its shift
    # index, the top log2(states) bits of its half, are clear
    field = (q - 1) << (32 - (states.bit_length() - 1))
    k = scenario.chain_length
    if q == 1:  # every shift reads the value back: nothing to draw
        successes = trials
    elif trials * k <= _PYTHON_HALVES:
        successes = _python_successes(field, k, trials, seed)
    else:
        from . import native

        # the kernel counts halves in 64-bit ints, and its arguments are
        # not checked for overflow
        kernel = native.compiled() if trials * k < 1 << 63 else None
        if kernel is None:
            successes = _numpy_successes(field, k, trials, seed)
        else:
            successes = _native_successes(kernel, field, k, trials, seed)
    ci_low, ci_high = _wilson(successes, trials)
    return MonteCarloResult(
        estimate=successes / trials,
        ci_low=ci_low,
        ci_high=ci_high,
        trials=trials,
        successes=successes,
    )


def _python_successes(field: int, k: int, trials: int, seed: int) -> int:
    """The chains of ``trials`` whose ``k`` stages all read the value back,
    drawn from :mod:`ruma.philox`: the halves and batches of
    ``_numpy_successes``, computed without numpy."""
    from .philox import tops

    # a half's top byte -> 1 if it leaves the field clear (the field lies
    # in the top byte, since states <= 8)
    verdict = bytes((b << 24) & field == 0 for b in range(256))
    batches = tops(seed)
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


def _native_successes(kernel, field: int, k: int, trials: int, seed: int) -> int:
    """The chains of ``trials`` whose ``k`` stages all read the value back,
    counted by the compiled module ``kernel`` over the same halves, in
    calls of ``_NATIVE_CHAINS`` chains."""
    from .philox import seed_key

    k0, k1 = seed_key(seed)
    count = kernel.spray_successes
    successes = 0
    for first in range(0, trials, _NATIVE_CHAINS):
        chains = min(_NATIVE_CHAINS, trials - first)
        successes += count(k0, k1, first * k, chains, k, field)
    return successes


def _numpy_successes(field: int, k: int, trials: int, seed: int) -> int:
    """The chains of ``trials`` whose ``k`` stages all read the value back,
    from numpy's raw Philox words: a chain passes when each of its halves
    ANDed with ``field`` is zero."""
    import numpy as np

    raw = np.random.Philox(seed).random_raw
    # An even chain is k/2 whole words, tested against the field in both
    # halves at once, and no half is ever left over. An odd chain is k
    # halves, a word's low half first.
    words = k % 2 == 0
    units = k // 2 if words else k  # per chain
    mask = np.uint64(field << 32 | field) if words else np.uint32(field)
    kept = None  # a high half left over by the last batch
    successes = 0
    remaining = trials
    chains = max(1, _BATCH_HALVES // k)
    while remaining:
        n = min(chains, remaining)
        need = n * units
        # the chains drawn whole from this batch, and whether the one begun
        # on the last batch's kept half failed
        rest, failed = n, 0
        if words:
            drawn = raw(need)
            drawn &= mask  # nonzero where a stage misses
        else:
            head = kept
            fresh = need - (head is not None)
            drawn = raw((fresh + 1) // 2).astype("<u8", copy=False).view("<u4")
            kept = int(drawn[fresh]) if len(drawn) > fresh else None
            drawn = drawn[:fresh]
            drawn &= mask
            if head is not None:
                # the first chain is the kept half and k - 1 fresh ones,
                # tested apart, so the batch is not copied to prepend it
                failed = bool(head & field or drawn[: k - 1].any())
                drawn = drawn[k - 1 :]
                rest -= 1
        if units > 1:
            # One row per unit, so the OR runs down contiguous rows of
            # chains instead of starting a reduction per chain.
            drawn = np.ascontiguousarray(drawn.reshape(rest, units).T).any(axis=0)
        successes += n - failed - int(np.count_nonzero(drawn))
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
