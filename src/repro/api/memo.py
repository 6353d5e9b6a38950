"""Bounded, thread-safe memo of finished solve results.

Distinct from the :class:`~repro.sampling.cache.TraceCache`, which
memoizes one solve's *intermediate* artifacts (state datasets, term
matrices) across its retries and ends with the solve: a
:class:`ResultMemo` holds *finished* results across requests, so a
repeated request skips everything.  The HTTP front end (:mod:`repro.serve`) keeps its
response memo and its ``/v1/results`` store in it; it lives here so
the serving layer depends on the API, never the reverse.

Keys are :func:`repro.utils.fingerprint.problem_fingerprint` strings
(or their result-id prefixes) — they cover the problem, the solver
name, and the effective config, so a config change can never replay a
stale result.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Generic, TypeVar

T = TypeVar("T")


class ResultMemo(Generic[T]):
    """A bounded LRU map from fingerprint to finished value.

    Thread-safe: the serving front end hits it from executor threads
    while the event loop reads stats.  ``max_entries <= 0`` disables
    storage entirely (``get`` always misses), which lets callers keep
    one unconditional code path.
    """

    def __init__(self, max_entries: int = 128):
        self.max_entries = max_entries
        self._entries: OrderedDict[str, T] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: str) -> T | None:
        """The memoized value for ``key``, or ``None`` (marks it fresh)."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self.hits += 1
                return self._entries[key]
            self.misses += 1
            return None

    def put(self, key: str, value: T) -> None:
        """Store ``value``; evicts the least-recently-used overflow."""
        if self.max_entries <= 0:
            return
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1

    def stats(self) -> dict[str, int]:
        """Counter snapshot (hits/misses/evictions/entries)."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "entries": len(self._entries),
            }
