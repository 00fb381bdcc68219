"""In-memory spans around calls into the program's public functions.

A :class:`Tracer` patches named attributes (module functions or class
methods) with wrappers that record one span per call: a name, a start, an
end and the index of the enclosing span. The patches are undone when the
``with`` block ends. A layer's self time is its span's duration minus the
durations of its direct child spans.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from time import perf_counter

import numpy as np

_NO_PARENT = -1
_NESTING_SLACK_S = 1e-9  # float rounding of summed child durations


@dataclass
class LayerTimes:
    calls: int
    total_s: float  # summed span durations
    self_s: float  # summed durations minus time covered by child spans
    self_us: np.ndarray  # self time of each call, microseconds

    def percentile_us(self, q: float) -> float:
        return float(np.percentile(self.self_us, q)) if self.calls else 0.0


class Tracer:
    def __init__(self):
        self.names: list = []
        self.parents: list = []
        self.starts: list = []
        self.ends: list = []
        self._stack = [_NO_PARENT]
        self._patches = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def wrap(self, owner, attr: str, name: str) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``."""
        original = getattr(owner, attr)
        names, parents, starts, ends, stack = (
            self.names, self.parents, self.starts, self.ends, self._stack
        )

        @functools.wraps(original)
        def spanned(*args, **kwargs):
            index = len(starts)
            names.append(name)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            t0 = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[index] = t0
                ends[index] = t1

        self._patches.append((owner, attr, original))
        setattr(owner, attr, spanned)

    def observe(self, owner, attr: str, observe) -> None:
        """Pass the arguments of every call of ``owner.attr`` to
        ``observe`` without recording a span."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def observed(*args, **kwargs):
            observe(*args)
            return original(*args, **kwargs)

        self._patches.append((owner, attr, original))
        setattr(owner, attr, observed)

    def layers(self):
        """Per span name times, and the number of spans whose direct
        children cover more than the span's own duration (always 0 for
        properly nested spans)."""
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        parents = np.asarray(self.parents, dtype=np.int64)
        covered = np.zeros(len(dur))
        nested = parents != _NO_PARENT
        np.add.at(covered, parents[nested], dur[nested])
        overfull = int(np.count_nonzero(covered > dur + _NESTING_SLACK_S))
        own = dur - covered
        names = np.asarray(self.names, dtype=object)
        out = {}
        for name in dict.fromkeys(self.names):
            mask = names == name
            out[name] = LayerTimes(
                calls=int(mask.sum()),
                total_s=float(dur[mask].sum()),
                self_s=float(own[mask].sum()),
                self_us=own[mask] * 1e6,
            )
        return out, overfull


def empty_layer() -> LayerTimes:
    return LayerTimes(0, 0.0, 0.0, np.zeros(0))
