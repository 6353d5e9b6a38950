"""Memoization for interpreter traces and evaluated term matrices.

The inference engine retries each problem across a dropout / seed /
fractional-interval schedule (paper §6), but the expensive data stages
— interpreting the program over the input space and evaluating the
candidate-term matrix — depend only on (program, inputs, interval),
not on the attempt's training knobs.  :class:`TraceCache` memoizes
both stages so that repeated attempts, the invariant checker, and
batch reruns of the same problem share one computation.

Keys are content fingerprints (program pretty-print digest + input
digest), so two structurally identical programs share entries even
when parsed separately.  Cached values are returned *by reference*;
callers must treat them as immutable.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from repro.lang.ast import Program
from repro.lang.interp import ExecutionTrace
from repro.sampling.tracegen import TRAIN_FUEL, collect_traces
from repro.utils.fingerprint import fingerprint_inputs, fingerprint_program


@dataclass
class CacheStats:
    """Hit/miss counters, split by cached stage, plus LRU evictions.

    ``evictions`` counts entries dropped by the LRU bound — the signal
    that a long-lived service process is cycling its cache rather than
    growing without bound (and, if it climbs fast, that ``max_entries``
    is too small for the working set).
    """

    trace_hits: int = 0
    trace_misses: int = 0
    matrix_hits: int = 0
    matrix_misses: int = 0
    evictions: int = 0

    @property
    def hits(self) -> int:
        return self.trace_hits + self.matrix_hits

    @property
    def misses(self) -> int:
        return self.trace_misses + self.matrix_misses

    def to_dict(self) -> dict[str, int]:
        return {
            "trace_hits": self.trace_hits,
            "trace_misses": self.trace_misses,
            "matrix_hits": self.matrix_hits,
            "matrix_misses": self.matrix_misses,
            "evictions": self.evictions,
        }


class TraceCache:
    """LRU memo for traces and term matrices, shared across attempts.

    One instance is owned by each :class:`~repro.infer.pipeline.
    InferenceEngine` (or injected, to share across engines / with the
    checker).  Entries are evicted least-recently-used once
    ``max_entries`` is exceeded, bounding memory during batch runs.
    The cache is memory-only: every process (pool worker, queue worker,
    serving front end) owns its own.
    """

    def __init__(self, max_entries: int = 128):
        self.max_entries = max_entries
        self.stats = CacheStats()
        self._entries: OrderedDict[tuple, object] = OrderedDict()
        # Guards the LRU bookkeeping only: the serving front end solves
        # on a thread pool sharing one cache, and OrderedDict reordering
        # is not safe under concurrent mutation.  compute() runs outside
        # the lock — two threads may race to compute the same entry
        # (one result wins, both are correct), but never block each
        # other's unrelated work.
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    # -- generic memoization ---------------------------------------------------

    def _lookup(self, key: tuple) -> tuple[bool, object]:
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                return True, self._entries[key]
            return False, None

    def _store(self, key: tuple, value: object) -> None:
        with self._lock:
            self._entries[key] = value
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def memoize(
        self,
        kind: str,
        key: tuple,
        compute: Callable[[], object],
    ) -> object:
        """Memoize ``compute()`` under ``(kind, *key)``.

        ``kind`` must be ``"trace"`` or ``"matrix"``; it selects which
        stat counters are bumped and namespaces the key.
        """
        full_key = (kind, *key)
        hit, value = self._lookup(full_key)
        if hit:
            if kind == "trace":
                self.stats.trace_hits += 1
            else:
                self.stats.matrix_hits += 1
            return value
        if kind == "trace":
            self.stats.trace_misses += 1
        else:
            self.stats.matrix_misses += 1
        value = compute()
        self._store(full_key, value)
        return value

    # -- trace collection ------------------------------------------------------

    def traces(
        self,
        program: Program,
        inputs: Sequence[Mapping[str, object]],
        fuel: int = TRAIN_FUEL,
    ) -> list[ExecutionTrace]:
        """Memoized :func:`~repro.sampling.tracegen.collect_traces`."""
        key = (
            "collect",
            fingerprint_program(program),
            fingerprint_inputs(inputs),
            fuel,
        )
        return self.memoize(
            "trace",
            key,
            lambda: collect_traces(program, inputs, fuel=fuel),
        )

    def checker_traces(
        self,
        program: Program,
        inputs: Sequence[Mapping[str, object]],
        fuel: int,
        run: Callable[[], list[ExecutionTrace]],
    ) -> list[ExecutionTrace]:
        """Memoized checker-side trace collection.

        The checker tolerates interpreter errors that the sampler
        propagates, so its traces are cached under a separate key even
        for identical (program, inputs).
        """
        key = (
            "checker",
            fingerprint_program(program),
            fingerprint_inputs(inputs),
            fuel,
        )
        return self.memoize("trace", key, run)
