"""Pluggable solving backends for the HTTP front end.

The server turns an admitted, deduplicated request into a
:class:`~repro.infer.runner.ProblemRecord` through one of two
executors, both exposing the same async surface
(``await executor.solve(request, fingerprint)``):

* :class:`InProcessExecutor` — the default: solves on a bounded thread
  pool inside the server process through the shared
  :class:`~repro.api.service.InvariantService` (``service.solve``, with
  the request's own config when it sends one), so every request
  emits the live event feed SSE clients stream.  It enforces no per-problem budget.
* :class:`QueueExecutor` — ``--queue-dir`` mode: enqueues the problem
  onto the :mod:`repro.dist` work queue (item id = fingerprint,
  so identical requests and server restarts re-use journaled results
  for free) and tails the journal until a worker acks it.  The server
  process never solves; any fleet of ``python -m repro worker``
  processes sharing the directory does.

Executor failures are *data*, not exceptions: a solve that raises
comes back as a ``status="error"`` record, because an HTTP 200 with a
structured error beats a 500 for a batch client correlating results.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING

from repro.dist.coordinator import JournalTail, build_meta
from repro.dist.queue import WorkQueue
from repro.dist.wire import config_to_dict, problem_to_dict
from repro.infer.runner import (
    STATUS_ERROR,
    STATUS_OK,
    ProblemRecord,
)
from repro.serve.protocol import ProtocolError

if TYPE_CHECKING:  # pragma: no cover
    from repro.api.service import InvariantService
    from repro.infer.config import InferenceConfig
    from repro.serve.protocol import SolveRequest

DEFAULT_SOLVE_THREADS = 2
DEFAULT_POLL_SECONDS = 0.2


class InProcessExecutor:
    """Solve on a thread pool inside the server process."""

    mode = "in-process"

    def __init__(
        self,
        service: "InvariantService",
        *,
        threads: int = DEFAULT_SOLVE_THREADS,
    ):
        if threads < 1:
            raise ValueError(f"threads must be >= 1, got {threads}")
        self.service = service
        self.threads = threads
        self._pool = ThreadPoolExecutor(
            max_workers=threads, thread_name_prefix="repro-solve"
        )

    async def solve(
        self, request: "SolveRequest", fingerprint: str
    ) -> ProblemRecord:
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            self._pool, self._solve_sync, request
        )

    def _solve_sync(self, request: "SolveRequest") -> ProblemRecord:
        start = time.perf_counter()
        try:
            result = self.service.solve(
                request.problem, request.solver, config=request.config
            )
        except Exception as exc:  # noqa: BLE001 — surface as a record, not a 500
            return ProblemRecord(
                name=request.problem.name,
                status=STATUS_ERROR,
                runtime_seconds=time.perf_counter() - start,
                error=f"{type(exc).__name__}: {exc}",
            )
        return ProblemRecord(
            name=request.problem.name,
            status=STATUS_OK,
            runtime_seconds=result.runtime_seconds,
            result=result,
        )

    def describe(self) -> dict:
        return {"mode": self.mode, "threads": self.threads}

    def close(self) -> None:
        self._pool.shutdown(wait=False, cancel_futures=True)


class QueueExecutor:
    """Enqueue onto a :mod:`repro.dist` work queue; tail the journal.

    The queue's ``meta.json`` is authoritative for *how* items are
    solved (the worker contract), so one queue serves one
    (solver, config) pair — requests that ask for anything else are
    rejected up front with a :class:`ProtocolError` rather than
    silently solved under different settings.

    Item ids are the full canonical fingerprint, which buys idempotence
    everywhere: re-submitting an already-queued problem is a no-op
    (enqueue skips known ids), and an already-journaled fingerprint is
    answered straight from the journal without touching the queue.
    """

    mode = "queue"

    def __init__(
        self,
        queue_dir: str,
        *,
        solver: str = "gcln",
        config: "InferenceConfig | None" = None,
        timeout_seconds: float | None = None,
        poll_seconds: float = DEFAULT_POLL_SECONDS,
        wait_seconds: float | None = None,
    ):
        self.solver = solver
        self.config = config
        self.poll_seconds = poll_seconds
        # How long to wait for a worker before giving up on a request
        # (None = wait forever; the client can always disconnect).
        self.wait_seconds = wait_seconds
        self.queue = WorkQueue.create(
            queue_dir,
            meta=build_meta(
                solver=solver,
                config=config,
                timeout_seconds=timeout_seconds,
                suite=None,
            ),
        )
        self._config_blob = (
            config_to_dict(config) if config is not None else None
        )
        self._journal = JournalTail(self.queue)

    async def solve(
        self, request: "SolveRequest", fingerprint: str
    ) -> ProblemRecord:
        if request.solver != self.solver:
            raise ProtocolError(
                f"this server solves with {self.solver!r} (queue-backed); "
                f"got solver {request.solver!r}"
            )
        if (
            request.config is not None
            and config_to_dict(request.config) != self._config_blob
        ):
            raise ProtocolError(
                "queue-backed serving uses the queue's config for every "
                "request; omit \"config\" or match the server's"
            )
        record = self._tail(fingerprint)
        if record is not None:
            return record
        item = {
            "id": fingerprint,
            "index": None,
            "name": request.problem.name,
            "fingerprint": fingerprint,
            "problem": {"kind": "inline", **problem_to_dict(request.problem)},
        }
        self.queue.enqueue([item])
        deadline = (
            None
            if self.wait_seconds is None
            else time.monotonic() + self.wait_seconds
        )
        while True:
            record = self._tail(fingerprint)
            if record is not None:
                return record
            if deadline is not None and time.monotonic() > deadline:
                return ProblemRecord(
                    name=request.problem.name,
                    status=STATUS_ERROR,
                    runtime_seconds=0.0,
                    error=(
                        f"no worker finished the item within "
                        f"{self.wait_seconds:g}s (is a 'python -m repro "
                        f"worker' fleet draining {self.queue.root}?)"
                    ),
                )
            await asyncio.sleep(self.poll_seconds)

    def _tail(self, fingerprint: str) -> ProblemRecord | None:
        """Advance over new journal entries; return the wanted record."""
        if fingerprint not in self._journal.records:
            self._journal.advance()
        return self._journal.records.get(fingerprint)

    def describe(self) -> dict:
        counts = self.queue.counts()
        return {
            "mode": self.mode,
            "queue_dir": str(self.queue.root),
            "solver": self.solver,
            **counts,
            # Per-worker heartbeats (pid, host, items done, last-ack
            # age, live/stale/exited), so GET /v1/stats shows fleet
            # health next to the queue depth it explains.
            "workers": self.queue.worker_health(),
        }

    def close(self) -> None:
        pass
