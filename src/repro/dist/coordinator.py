"""The coordinator: enqueue a suite, run workers, merge the journal.

:func:`run_distributed` is the whole lifecycle in one call — it is the
fan-out of ``InvariantService.solve_many(jobs=N)`` and ``run-all
--jobs N``:

1. create (or re-open) the queue and enqueue one item per problem —
   ids are stable, so items already journaled from an earlier run are
   skipped (**resume is free**: a re-run after a crash only solves
   what is missing);
2. spawn ``min(N, unfinished items)`` local worker processes over the
   queue, once (each is exactly the ``python -m repro worker`` loop),
   and read the journal once per poll tick for live progress while
   they drain;
3. if any worker died, return its claims to ``pending`` and drain the
   remainder inline, so the call always completes the suite;
4. merge the journal back into :class:`~repro.infer.runner.
   ProblemRecord`s in input order — the same list a sequential
   ``solve_many`` returns, and the same JSON payload ``run-all --json``
   emits (:func:`merge_payload`).

The queue can also be driven manually — ``python -m repro enqueue``
(:func:`enqueue_suite`) plus any number of ``python -m repro worker``
processes on other hosts sharing the queue directory — and merged
later by re-running the coordinator on the same queue.
"""

from __future__ import annotations

import json
import multiprocessing
import shutil
import tempfile
from multiprocessing.connection import wait as wait_for_exit
from typing import TYPE_CHECKING, Callable, Sequence

from repro.dist.queue import DEFAULT_LEASE_SECONDS, WorkQueue
from repro.dist.transport import TransportNotFound
from repro.dist.wire import config_to_dict, item_for_problem
from repro.dist.worker import Worker, worker_main
from repro.errors import ReproError
from repro.infer.runner import STATUS_ERROR, ProblemRecord, summarize

if TYPE_CHECKING:  # pragma: no cover
    from repro.infer.config import InferenceConfig
    from repro.infer.problem import Problem


def build_meta(
    *,
    solver: str = "gcln",
    config: "InferenceConfig | None" = None,
    timeout_seconds: float | None = None,
    suite: str | None = None,
    workers: int = 1,
) -> dict:
    """The run-wide settings every worker must agree on."""
    return {
        "solver": solver,
        "config": config_to_dict(config) if config is not None else None,
        "timeout_seconds": timeout_seconds,
        "suite": suite,
        "workers": workers,
    }


def enqueue_suite(
    queue_dir: str,
    suite: str,
    names: list[str] | None = None,
    *,
    solver: str = "gcln",
    config: "InferenceConfig | None" = None,
    timeout_seconds: float | None = None,
    lease_seconds: float = DEFAULT_LEASE_SECONDS,
) -> tuple[WorkQueue, int, int]:
    """Enqueue a benchmark suite as registry-reference items.

    Returns ``(queue, added, skipped)``; already-journaled (or still
    queued) items are skipped, so re-enqueueing a half-finished suite
    only adds the missing part.
    """
    from repro.bench import suite_problems

    problems = suite_problems(suite, names)
    if not problems:
        raise ReproError(f"no problems selected from suite {suite!r}")
    queue = WorkQueue.create(
        queue_dir,
        meta=build_meta(
            solver=solver,
            config=config,
            timeout_seconds=timeout_seconds,
            suite=suite,
        ),
        lease_seconds=lease_seconds,
    )
    items = [
        item_for_problem(problem, index, suite=suite, solver=solver, config=config)
        for index, problem in enumerate(problems)
    ]
    added, skipped = queue.enqueue(items)
    return queue, added, skipped


class JournalTail:
    """A queue journal's records, each decoded once.

    The journal is append-only, so :meth:`advance` reads it once and
    decodes only the entries past its cursor.  The first ack of an id
    wins (a later one is a duplicate after a lease-expiry re-claim), and
    entries without a record are skipped.  This is the one decoder: the
    coordinator's progress feed and merge, :func:`merge_payload` and the
    queue-backed serve executor all read the journal through it.
    """

    def __init__(self, queue: WorkQueue):
        self.queue = queue
        self.records: dict[str, ProblemRecord] = {}
        self._cursor = 0

    def advance(self) -> list[str]:
        """Read the journal once; return the newly decoded ids, in
        journal order."""
        entries = self.queue.journal_entries()
        new: list[str] = []
        for entry in entries[self._cursor:]:
            item_id = entry.get("id")
            data = (entry.get("payload") or {}).get("record")
            if data is not None and item_id not in self.records:
                self.records[item_id] = ProblemRecord.from_dict(data)
                new.append(item_id)
        self._cursor = len(entries)
        return new


def merge_payload(queue: WorkQueue) -> dict:
    """Merge the journal into the payload ``run-all --json`` emits.

    Records are ordered by the input index embedded in each item id, so
    re-merging a finished queue is deterministic no matter which worker
    finished what.
    """
    meta = queue.meta
    journal = JournalTail(queue)
    journal.advance()
    records = journal.records
    ordered = [records[item_id] for item_id in sorted(records)]
    return {
        "suite": meta.get("suite"),
        "solver": meta.get("solver", "gcln"),
        "jobs": meta.get("workers", 1),
        "timeout_seconds": meta.get("timeout_seconds"),
        "summary": summarize(ordered),
        "records": [record.to_dict() for record in ordered],
    }


def _reclaim_dead(queue: WorkQueue, worker_ids: set[str]) -> int:
    """Return items claimed by known-dead workers to pending."""
    reclaimed = 0
    for name in queue.transport.listdir("claimed"):
        try:
            data = json.loads(
                queue.transport.read(f"claimed/{name}").decode("utf-8")
            )
        except (TransportNotFound, json.JSONDecodeError, UnicodeDecodeError):
            continue
        if data.get("claimed_by") in worker_ids:
            if queue.transport.rename(f"claimed/{name}", f"pending/{name}"):
                reclaimed += 1
    return reclaimed


def run_distributed(
    problems: Sequence["Problem"],
    config: "InferenceConfig | None" = None,
    *,
    workers: int = 2,
    queue_dir: str | None = None,
    solver: str = "gcln",
    timeout_seconds: float | None = None,
    lease_seconds: float | None = None,
    suite: str | None = None,
    progress: Callable[[ProblemRecord], None] | None = None,
    poll_seconds: float = 0.5,
) -> list[ProblemRecord]:
    """Fan ``problems`` out over ``workers`` local worker processes.

    The pool has a fixed width: ``min(workers, unfinished items)``
    processes, spawned once, so a queue that is already fully journaled
    spawns none.  Each poll tick reads the journal once and forwards
    its new records to ``progress``; the tick also ends early when a
    worker exits.

    With ``queue_dir`` the queue is durable: a re-run on the same
    directory skips everything already journaled and only solves the
    rest (items are matched by stable ids, so the problem list must be
    the same).  Without it a temporary queue is used
    and removed.  ``queue_dir`` may also be an ``http(s)://`` queue
    server URL, in which case the spawned workers are remote followers
    of that server.

    Always returns one record per problem, in input order: if worker
    processes die (OOM, SIGKILL), their leases are reclaimed and the
    remainder is drained inline in this process.
    """
    if not isinstance(workers, int) or isinstance(workers, bool):
        raise ValueError(f"workers must be an integer, got {workers!r}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    temp_dir = None
    if queue_dir is None:
        temp_dir = tempfile.mkdtemp(prefix="repro-queue-")
        queue_dir = temp_dir
    try:
        queue = WorkQueue.create(
            queue_dir,
            meta=build_meta(
                solver=solver,
                config=config,
                timeout_seconds=timeout_seconds,
                suite=suite,
                workers=workers,
            ),
            lease_seconds=lease_seconds,
        )
        items = [
            item_for_problem(
                problem, index, suite=suite, solver=solver, config=config
            )
            for index, problem in enumerate(problems)
        ]
        queue.enqueue(items)
        expected = {item["id"] for item in items}
        journal = JournalTail(queue)

        def forward() -> None:
            for item_id in journal.advance():
                if progress is not None and item_id in expected:
                    progress(journal.records[item_id])

        context = multiprocessing.get_context()
        processes: dict[str, multiprocessing.process.BaseProcess] = {}
        for index in range(min(workers, queue.unfinished())):
            worker_id = f"local-{index}"
            processes[worker_id] = context.Process(
                target=worker_main,
                args=(str(queue.root), worker_id, poll_seconds),
                daemon=False,
            )
            processes[worker_id].start()
        try:
            while any(p.is_alive() for p in processes.values()):
                forward()
                # Wake early when a worker exits: the last one exits right
                # after journaling the last record, which then reaches
                # progress without waiting out the tick.
                wait_for_exit(
                    [p.sentinel for p in processes.values() if p.is_alive()],
                    timeout=poll_seconds,
                )
        finally:
            for process in processes.values():
                process.join()
        if queue.unfinished() > 0:
            # Some worker died (or third-party claims are stuck): take
            # back our dead workers' claims and finish here, inline.
            _reclaim_dead(queue, set(processes))
            Worker(
                queue,
                worker_id="coordinator-inline",
                poll_seconds=poll_seconds,
            ).run()
        forward()
        records: list[ProblemRecord] = []
        for item in items:
            record = journal.records.get(item["id"])
            if record is None:
                # Every returned record reaches progress exactly once,
                # including this synthetic one the journal never saw.
                record = ProblemRecord(
                    name=item["name"],
                    status=STATUS_ERROR,
                    error="item was never journaled (worker failure?)",
                )
                if progress is not None:
                    progress(record)
            records.append(record)
        return records
    finally:
        if temp_dir is not None:
            shutil.rmtree(temp_dir, ignore_errors=True)
