"""The coordinator: enqueue a suite, run workers, merge the journal.

:func:`run_distributed` is the whole lifecycle in one call — it backs
``InvariantService.solve_many(workers=N)`` and ``run-all --workers N``:

1. create (or re-open) the queue and enqueue one item per problem —
   ids are stable, so items already journaled from an earlier run are
   skipped (**resume is free**: a re-run after a crash only solves
   what is missing);
2. spawn N local worker processes over the queue (each is exactly the
   ``python -m repro worker`` loop), tailing the journal for live
   progress while they drain;
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
import os
import shutil
import tempfile
import time
from typing import TYPE_CHECKING, Callable, Sequence

from repro.dist.queue import DEFAULT_LEASE_SECONDS, WorkQueue
from repro.dist.transport import TransportNotFound
from repro.dist.wire import config_to_dict, item_for_problem
from repro.dist.worker import Worker, worker_main
from repro.errors import ReproError

#: Elastic mode never spawns more than this many extra processes after
#: retiring/replacing crashed ones — a crash-looping worker must not
#: fork-bomb the host.  The inline-drain safety net finishes the suite
#: regardless.
ELASTIC_RESPAWN_FACTOR = 4

if TYPE_CHECKING:  # pragma: no cover
    from repro.infer.config import InferenceConfig
    from repro.infer.problem import Problem
    from repro.infer.runner import ProblemRecord


def build_meta(
    *,
    solver: str = "gcln",
    config: "InferenceConfig | None" = None,
    timeout_seconds: float | None = None,
    suite: str | None = None,
    workers: "int | str" = 1,
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


def records_from_journal(queue: WorkQueue) -> dict[str, "ProblemRecord"]:
    """Journaled records keyed by item id (first ack of an id wins)."""
    from repro.infer.runner import ProblemRecord

    records: dict[str, "ProblemRecord"] = {}
    for entry in queue.journal_entries():
        item_id = entry["id"]
        if item_id in records:
            continue  # duplicate ack after a lease-expiry re-claim
        payload = entry.get("payload") or {}
        record = payload.get("record")
        if record is not None:
            records[item_id] = ProblemRecord.from_dict(record)
    return records


def merge_payload(queue: WorkQueue) -> dict:
    """Merge the journal into the payload ``run-all --json`` emits.

    Records are ordered by the input index embedded in each item id, so
    re-merging a finished queue is deterministic no matter which worker
    finished what.
    """
    from repro.infer.runner import summarize

    meta = queue.meta
    records = records_from_journal(queue)
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
    workers: "int | str" = 2,
    queue_dir: str | None = None,
    solver: str = "gcln",
    timeout_seconds: float | None = None,
    lease_seconds: float | None = None,
    suite: str | None = None,
    progress: Callable[["ProblemRecord"], None] | None = None,
    poll_seconds: float = 0.5,
    min_workers: int = 1,
    max_workers: int | None = None,
    fleet_status: Callable[[dict], None] | None = None,
) -> list["ProblemRecord"]:
    """Fan ``problems`` out over local worker processes.

    ``workers`` is a fixed process count, or ``"auto"`` for an elastic
    fleet: the coordinator sizes the pool to the queue depth every
    poll — spawning up to ``max_workers`` (default: CPU count, capped
    at 8) while items outnumber live workers, retiring workers (clean
    ``SIGTERM``, they finish their current item) as the queue drains
    below the pool size, and never dropping under ``min_workers``
    until the drain completes.  Dead workers are replaced within a
    bounded respawn budget.

    With ``queue_dir`` the queue is durable: a re-run on the same
    directory skips everything already journaled and only solves the
    rest (items are matched by stable ids, so the problem list must be
    the same).  Without it a temporary queue is used
    and removed.  ``queue_dir`` may also be an ``http(s)://`` queue
    server URL, in which case the spawned workers are remote followers
    of that server.

    ``fleet_status`` (if given) is called with a snapshot dict — live
    worker count, queue counts, per-worker health — every time the
    fleet or queue state changes; it is the coordinator's live tail.

    Always returns one record per problem, in input order: if worker
    processes die (OOM, SIGKILL), their leases are reclaimed and the
    remainder is drained inline in this process.
    """
    from repro.infer.runner import STATUS_ERROR, ProblemRecord

    elastic = workers == "auto"
    if elastic:
        if min_workers < 1:
            raise ValueError(f"min_workers must be >= 1, got {min_workers}")
        if max_workers is None:
            max_workers = max(2, min(os.cpu_count() or 2, 8))
        if max_workers < min_workers:
            raise ValueError(
                f"max_workers ({max_workers}) must be >= min_workers "
                f"({min_workers})"
            )
    elif not isinstance(workers, int):
        raise ValueError(
            f"workers must be an integer or 'auto', got {workers!r}"
        )
    elif workers < 1:
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
        expected = [item["id"] for item in items]

        emitted: set[str] = set()
        journal_cursor = 0

        def emit_new() -> None:
            """Forward newly journaled records to ``progress``.

            The journal is append-only, so a cursor over the parsed
            entries avoids rebuilding every record on every poll;
            records are only deserialized for ids not yet emitted.
            """
            nonlocal journal_cursor
            if progress is None:
                return
            entries = queue.journal_entries()
            for entry in entries[journal_cursor:]:
                item_id = entry.get("id")
                record = (entry.get("payload") or {}).get("record")
                if (
                    record is not None
                    and item_id in expected_set
                    and item_id not in emitted
                ):
                    emitted.add(item_id)
                    progress(ProblemRecord.from_dict(record))
            journal_cursor = len(entries)

        expected_set = set(expected)
        context = multiprocessing.get_context()
        processes: dict[str, multiprocessing.process.BaseProcess] = {}
        spawned = 0

        def spawn_worker() -> None:
            nonlocal spawned
            worker_id = f"local-{spawned}"
            spawned += 1
            process = context.Process(
                target=worker_main,
                args=(str(queue.root),),
                kwargs={
                    "worker_id": worker_id,
                    "poll_seconds": poll_seconds,
                },
                daemon=False,
            )
            process.start()
            processes[worker_id] = process

        def clamp_to_depth(unfinished: int) -> int:
            return min(max(unfinished, min_workers), max_workers)

        if elastic:
            spawn_budget = max_workers * ELASTIC_RESPAWN_FACTOR
            initial = clamp_to_depth(queue.unfinished()) if queue.unfinished() else 0
            for _ in range(initial):
                spawn_worker()
        else:
            spawn_budget = workers
            for _ in range(workers):
                spawn_worker()

        last_status: dict | None = None

        def emit_fleet() -> None:
            """The coordinator's live tail: one snapshot per state change."""
            nonlocal last_status
            if fleet_status is None:
                return
            counts = queue.counts()
            live = sum(1 for p in processes.values() if p.is_alive())
            snapshot = {"live_workers": live, "spawned_workers": spawned,
                        **counts}
            if snapshot == last_status:
                return
            last_status = dict(snapshot)
            snapshot["workers"] = queue.worker_health()
            fleet_status(snapshot)

        try:
            while any(p.is_alive() for p in processes.values()):
                emit_new()
                emit_fleet()
                if elastic:
                    unfinished = queue.unfinished()
                    target = clamp_to_depth(unfinished)
                    live = [
                        (wid, p) for wid, p in processes.items()
                        if p.is_alive()
                    ]
                    if (
                        unfinished > 0
                        and len(live) < target
                        and spawned < spawn_budget
                    ):
                        spawn_worker()  # one per tick: a gentle ramp
                    elif len(live) > target:
                        # Retire the newest worker.  terminate() is
                        # SIGTERM, which the worker handles gracefully:
                        # it finishes its current item, releases the
                        # rest of its claims, and exits 0.
                        live[-1][1].terminate()
                time.sleep(poll_seconds)
        finally:
            for process in processes.values():
                process.join()
        emit_fleet()
        worker_ids = set(processes)
        if queue.unfinished() > 0:
            # Some worker died (or third-party claims are stuck): take
            # back our dead workers' claims and finish here, inline.
            _reclaim_dead(queue, worker_ids)
            Worker(
                queue,
                worker_id="coordinator-inline",
                poll_seconds=poll_seconds,
            ).run()
        journaled = records_from_journal(queue)
        records: list["ProblemRecord"] = []
        for item in items:
            record = journaled.get(item["id"])
            if record is None:
                record = ProblemRecord(
                    name=item["name"],
                    status=STATUS_ERROR,
                    error="item was never journaled (worker failure?)",
                )
            records.append(record)
            # Every returned record reaches the progress callback
            # exactly once — including synthetic never-journaled error
            # records, which emit_new (journal-driven) cannot see.
            if progress is not None and item["id"] not in emitted:
                emitted.add(item["id"])
                progress(record)
        return records
    finally:
        if temp_dir is not None:
            shutil.rmtree(temp_dir, ignore_errors=True)
