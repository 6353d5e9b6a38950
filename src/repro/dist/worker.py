"""The distributed worker: claim → solve → ack, until the queue drains.

A worker owns one :class:`~repro.api.service.InvariantService` for its
whole life and solves each claimed item through its
:meth:`~repro.api.service.InvariantService.solve_many`; every solve
memoizes its own traces, and nothing is cached across items.

The queue's ``meta.json`` is authoritative for *how* to solve (solver,
config, per-problem timeout): every worker reads the same settings,
which is what makes a two-worker drain equivalent to a sequential run.
Workers only choose *scheduling* knobs: how many items to claim per
batch and how often to poll.

A worker exits when the queue is fully drained (nothing pending or
claimed).  While other workers still hold claims it waits — if one of
them crashed, the lease expires and the item comes back to pending,
so a surviving worker finishes the suite.

Shutdown is graceful: ``SIGTERM`` (the entry points install a handler;
embedders call :meth:`Worker.request_stop`) finishes and acks the item
being solved, voluntarily releases every still-unstarted claim back to
``pending``, and returns normally (exit 0).  A drain resumed after a
graceful stop therefore never waits out a lease — only a *crashed*
worker (SIGKILL, OOM) leaves claims behind for lease expiry to reap.
"""

from __future__ import annotations

import os
import signal
import socket
import time
import uuid
from typing import Callable

from repro.api.service import InvariantService
from repro.dist.queue import WorkItem, WorkQueue
from repro.dist.wire import config_from_dict, resolve_item_problem
from repro.infer.runner import STATUS_ERROR, ProblemRecord

DEFAULT_POLL_SECONDS = 0.5

#: How often a worker publishes its vitals to the queue's ``health/``
#: directory (best-effort; beats never block or fail the solve loop).
DEFAULT_HEARTBEAT_SECONDS = 5.0


def default_worker_id() -> str:
    """A human-traceable unique id: host, pid, and a random suffix."""
    return (
        f"{socket.gethostname()}-{os.getpid()}-{uuid.uuid4().hex[:6]}"
    )


class Worker:
    """One worker process draining one queue.

    Args:
        queue: the queue to drain (or a path to one).
        worker_id: identity recorded on claims and journal lines.
        batch_size: items claimed per round (default 1); items are
            always solved one at a time, each under its own timeout.
        poll_seconds: sleep between claim attempts while other workers
            still hold items.
        progress: called with each finished :class:`ProblemRecord`.
        heartbeat_seconds: cadence of the per-worker health file
            (``health/<worker>.json``: pid, host, items done, last-ack
            age); ``0`` disables heartbeats entirely.
    """

    def __init__(
        self,
        queue: WorkQueue | str,
        *,
        worker_id: str | None = None,
        batch_size: int = 1,
        poll_seconds: float = DEFAULT_POLL_SECONDS,
        progress: Callable[[ProblemRecord], None] | None = None,
        heartbeat_seconds: float = DEFAULT_HEARTBEAT_SECONDS,
    ):
        self.queue = queue if isinstance(queue, WorkQueue) else WorkQueue.open(queue)
        self.worker_id = worker_id or default_worker_id()
        self.poll_seconds = poll_seconds
        self.progress = progress
        self.heartbeat_seconds = heartbeat_seconds
        self._items_done = 0
        self._last_ack_at: float | None = None
        self._started_at = time.time()
        self._last_beat = float("-inf")
        self._stop_requested = False
        meta = self.queue.meta
        self.solver = meta.get("solver", "gcln")
        self.timeout_seconds = meta.get("timeout_seconds")
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.batch_size = batch_size
        config_data = meta.get("config")
        config = (
            config_from_dict(config_data) if config_data is not None else None
        )
        self.service = InvariantService(config)

    def request_stop(self) -> None:
        """Ask the worker to stop gracefully (signal-handler safe).

        The item currently being solved is finished and acked; every
        other claim this worker still holds is released back to
        ``pending``; :meth:`run` then returns normally.
        """
        self._stop_requested = True

    @property
    def stop_requested(self) -> bool:
        return self._stop_requested

    def beat(self, *, force: bool = False, exited: bool = False) -> None:
        """Publish this worker's vitals to the queue (best-effort).

        Throttled to :attr:`heartbeat_seconds`; never raises — a queue
        that cannot take heartbeats (transport blip) must not stop the
        solve loop, and liveness just degrades to lease expiry.
        """
        if self.heartbeat_seconds <= 0:
            return
        now = time.monotonic()
        if not force and now - self._last_beat < self.heartbeat_seconds:
            return
        self._last_beat = now
        wall = time.time()
        try:
            self.queue.heartbeat(
                self.worker_id,
                {
                    "pid": os.getpid(),
                    "host": socket.gethostname(),
                    "started_at": self._started_at,
                    "items_done": self._items_done,
                    "last_ack_age": (
                        wall - self._last_ack_at
                        if self._last_ack_at is not None
                        else None
                    ),
                    "exited": exited,
                },
            )
        except Exception:  # noqa: BLE001 — heartbeats are advisory
            pass

    def run(self, max_items: int | None = None) -> int:
        """Drain the queue; returns the number of items this worker acked.

        Stops when the queue is empty (pending *and* claimed), after
        ``max_items``, or when :meth:`request_stop` was called.  While
        other workers hold claims, waits for them to finish or for
        their leases to expire.
        """
        processed = 0
        self.beat(force=True)
        try:
            while max_items is None or processed < max_items:
                if self._stop_requested:
                    break
                self.beat()
                limit = self.batch_size
                if max_items is not None:
                    limit = min(limit, max_items - processed)
                batch = self.queue.claim(self.worker_id, limit=limit)
                if not batch:
                    if self.queue.unfinished() == 0 or self._stop_requested:
                        break
                    time.sleep(self.poll_seconds)
                    continue
                processed += self._process(batch)
        finally:
            # The final beat marks a *clean* exit; a crashed worker
            # never reaches it and shows up as "stale" instead.
            self.beat(force=True, exited=True)
        return processed

    def _process(self, batch: list[WorkItem]) -> int:
        """Solve one claim batch; returns the number of items acked.

        Items that cannot even be resolved are acked as error records.
        Items are solved one at a time, so a stop request between
        items hands the rest of the claim straight back to ``pending``
        (no lease-expiry wait for whoever resumes the drain).
        """
        problems = []
        resolved: list[WorkItem] = []
        acked = 0
        for item in batch:
            try:
                problems.append(resolve_item_problem(item.data))
                resolved.append(item)
            except Exception as exc:  # noqa: BLE001 — a bad item must not wedge the queue
                self._ack(
                    item,
                    ProblemRecord(
                        name=item.data.get("name", item.id),
                        status=STATUS_ERROR,
                        error=f"cannot resolve queue item: {exc}",
                    ),
                )
                acked += 1
        if not resolved:
            return acked

        def renew_leases(_record: ProblemRecord) -> None:
            # A finished problem proves this worker is alive; stretch
            # the lease on everything still held for this batch.
            for item in resolved:
                self.queue.renew(item.id)

        for position, (item, problem) in enumerate(zip(resolved, problems)):
            if self._stop_requested:
                for leftover in resolved[position:]:
                    self.queue.release(leftover.id)
                return acked
            records = self.service.solve_many(
                [problem],
                solver=self.solver,
                timeout_seconds=self.timeout_seconds,
                progress=renew_leases,
            )
            self._ack(item, records[0])
            acked += 1
        return acked

    def _ack(self, item: WorkItem, record: ProblemRecord) -> None:
        self.queue.ack(
            item.id,
            {"index": item.data.get("index"), "record": record.to_dict()},
            worker=self.worker_id,
        )
        self._items_done += 1
        self._last_ack_at = time.time()
        self.beat()
        if self.progress is not None:
            self.progress(record)


def install_stop_handler(worker: Worker) -> bool:
    """Route ``SIGTERM`` to ``worker.request_stop()``.

    Returns False (and installs nothing) off the main thread, where
    CPython forbids ``signal.signal`` — embedders there call
    :meth:`Worker.request_stop` directly.
    """
    try:
        signal.signal(
            signal.SIGTERM, lambda _signum, _frame: worker.request_stop()
        )
        return True
    except ValueError:
        return False


def worker_main(
    queue_dir: str,
    worker_id: str | None = None,
    poll_seconds: float = DEFAULT_POLL_SECONDS,
) -> int:
    """Module-level worker entry point (the coordinator's process target).

    ``queue_dir`` may be a local directory or an ``http(s)://`` queue
    server URL — a remote follower is the same loop over a different
    transport.
    """
    worker = Worker(
        WorkQueue.open(queue_dir), worker_id=worker_id, poll_seconds=poll_seconds
    )
    install_stop_handler(worker)
    return worker.run()
