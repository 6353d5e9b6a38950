"""The memo of one solve's data stages.

The inference engine retries each problem across a dropout / seed /
fractional-interval schedule (paper §6), but the data stages —
interpreting the program over the training inputs and evaluating the
candidate-term matrix — depend only on the fractional interval, not on
the attempt's training knobs.  Each solve owns one :class:`TraceCache`,
so its retries pay for the state dataset once per interval and for the
term matrix once per (interval, loop).

The problem and config are fixed for the life of a solve, so keys are
just the interval (and the loop), and nothing outlives the solve.
Cached values are returned *by reference*; callers must treat them as
immutable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable


@dataclass
class CacheStats:
    """Hit/miss counters, split by cached stage."""

    trace_hits: int = 0
    trace_misses: int = 0
    matrix_hits: int = 0
    matrix_misses: int = 0

    def to_dict(self) -> dict[str, int]:
        return {
            "trace_hits": self.trace_hits,
            "trace_misses": self.trace_misses,
            "matrix_hits": self.matrix_hits,
            "matrix_misses": self.matrix_misses,
        }


class TraceCache:
    """One solve's memo for state datasets and term matrices."""

    def __init__(self) -> None:
        self.stats = CacheStats()
        self._entries: dict[tuple, object] = {}

    def memoize(
        self,
        kind: str,
        key: tuple,
        compute: Callable[[], object],
    ) -> object:
        """Memoize ``compute()`` under ``(kind, *key)``.

        ``kind`` must be ``"trace"`` (a state dataset) or ``"matrix"``
        (a term matrix); it selects which stat counters are bumped and
        namespaces the key.
        """
        full_key = (kind, *key)
        hit = full_key in self._entries
        if kind == "trace":
            self.stats.trace_hits += hit
            self.stats.trace_misses += not hit
        else:
            self.stats.matrix_hits += hit
            self.stats.matrix_misses += not hit
        if not hit:
            self._entries[full_key] = compute()
        return self._entries[full_key]
