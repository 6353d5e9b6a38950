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

import hashlib
import os
import pickle
import tempfile
import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Sequence

from repro.lang.ast import Program
from repro.lang.interp import ExecutionTrace
from repro.sampling.tracegen import TRAIN_FUEL, collect_traces

# The fingerprint helpers moved to repro.utils.fingerprint (one
# canonical keying scheme shared with the serving dedup/memo and the
# distributed queue's item ids); re-exported here for existing callers.
from repro.utils.fingerprint import (  # noqa: F401 — re-export
    fingerprint_inputs,
    fingerprint_program,
)


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
    # Entries recovered from the on-disk spill (``cache_dir``) instead
    # of being recomputed — the signal that benchmark reruns are
    # skipping interpretation entirely.
    disk_hits: int = 0

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
            "disk_hits": self.disk_hits,
        }


# Bump when cached value layouts change; baked into every disk key so
# stale spills from older code are ignored rather than unpickled.
# v2: Monomial no longer serializes its cached (per-process) hash.
# v3: state-dataset keys carry the observation-source kind (trace-only
#     vs program-backed problems must never share entries).
_DISK_FORMAT_VERSION = 3


class TraceCache:
    """LRU memo for traces and term matrices, shared across attempts.

    One instance is owned by each :class:`~repro.infer.pipeline.
    InferenceEngine` (or injected, to share across engines / with the
    checker).  Entries are evicted least-recently-used once
    ``max_entries`` is exceeded, bounding memory during batch runs.

    With ``cache_dir`` set, every computed entry is also spilled to
    disk under a digest of its content key (program/input fingerprints
    and stage knobs), and misses consult the spill before recomputing —
    so a benchmark rerun, or a fresh process pointed at the same
    directory, skips interpretation and term evaluation entirely.
    Disk recoveries are counted in ``stats.disk_hits``; unreadable or
    stale spill files are treated as misses, never as errors.
    """

    def __init__(
        self,
        max_entries: int = 128,
        cache_dir: str | os.PathLike | None = None,
    ):
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
        self.cache_dir: Path | None = Path(cache_dir) if cache_dir else None
        if self.cache_dir is not None:
            self.cache_dir.mkdir(parents=True, exist_ok=True)

    # -- disk spill ------------------------------------------------------------

    def _disk_path(self, full_key: tuple) -> Path:
        digest = hashlib.sha1(
            repr((_DISK_FORMAT_VERSION, *full_key)).encode()
        ).hexdigest()
        return self.cache_dir / f"{digest}.pkl"  # type: ignore[operator]

    def _disk_load(self, full_key: tuple) -> tuple[bool, object]:
        if self.cache_dir is None:
            return False, None
        path = self._disk_path(full_key)
        try:
            with open(path, "rb") as handle:
                return True, pickle.load(handle)
        except Exception:  # noqa: BLE001 — any unreadable spill is a miss
            # Corrupt bytes, renamed classes, truncated writes: the
            # spill is an optimization, so recompute rather than fail.
            return False, None

    def _disk_store(self, full_key: tuple, value: object) -> None:
        if self.cache_dir is None:
            return
        path = self._disk_path(full_key)
        try:
            fd, tmp = tempfile.mkstemp(
                dir=self.cache_dir, prefix=path.stem, suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    pickle.dump(value, handle, protocol=pickle.HIGHEST_PROTOCOL)
                os.replace(tmp, path)
            except BaseException:
                os.unlink(tmp)
                raise
        except (OSError, pickle.PicklingError, TypeError):
            # Unpicklable or unwritable: stay memory-only.
            return

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
        disk_hit, value = self._disk_load(full_key)
        if disk_hit:
            self.stats.disk_hits += 1
            self._store(full_key, value)
            return value
        if kind == "trace":
            self.stats.trace_misses += 1
        else:
            self.stats.matrix_misses += 1
        value = compute()
        self._store(full_key, value)
        self._disk_store(full_key, value)
        return value

    # -- trace collection ------------------------------------------------------

    def traces(
        self,
        program: Program,
        inputs: Sequence[Mapping[str, object]],
        fuel: int = TRAIN_FUEL,
        max_traces: int | None = None,
    ) -> list[ExecutionTrace]:
        """Memoized :func:`~repro.sampling.tracegen.collect_traces`."""
        key = (
            "collect",
            fingerprint_program(program),
            fingerprint_inputs(inputs),
            fuel,
            max_traces,
        )
        return self.memoize(
            "trace",
            key,
            lambda: collect_traces(program, inputs, fuel=fuel, max_traces=max_traces),
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
