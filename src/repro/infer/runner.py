"""Parallel batch execution of inference problems.

:func:`run_many` fans a list of problems out over a
``concurrent.futures`` process pool (``jobs`` workers; ``jobs=1`` runs
inline in-process), enforcing an optional per-problem wall-clock
timeout and collecting one structured :class:`ProblemRecord` per
problem, in input order.  Every solve goes through
:meth:`repro.api.service.InvariantService.solve`: inline runs through
the caller's service (its event bus and summed stats), and each pool item
through a fresh service of its own in the worker process.  Pass
``solver="guess_and_check"`` (or any registered name) to batch-run a
baseline under the exact same record schema as the G-CLN, so benchmark
tables, the ``python -m repro run-all`` CLI, and solver comparisons
share one result format (:class:`~repro.api.solver.SolveResult` inside
each record).

Timeouts are enforced *inside* the worker with ``SIGALRM`` (POSIX), so
a timed-out problem frees its pool slot immediately instead of
poisoning the pool.  On platforms without ``SIGALRM`` (or off the main
thread) the timeout **cannot** be enforced: the run proceeds without a
budget and every affected record carries ``timeout_enforced=False`` so
callers (e.g. the CLI) can surface the degradation instead of silently
pretending the budget was applied.

``workers > 1`` (or ``queue_dir``) switches to the distributed runner
(:mod:`repro.dist`): problems are enqueued on a journaled filesystem
work queue and drained by separate worker processes — the same queue
any number of ``python -m repro worker`` processes can share, across
hosts on a shared filesystem.  A durable ``queue_dir`` makes re-runs
resume instead of re-solving.
"""

from __future__ import annotations

import signal
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.api.service import InvariantService
from repro.api.solver import SolveResult, get_solver
from repro.infer.config import InferenceConfig
from repro.infer.problem import Problem

# Record statuses.
STATUS_OK = "ok"
STATUS_ERROR = "error"
STATUS_TIMEOUT = "timeout"


@dataclass
class ProblemRecord:
    """Outcome of one problem in a batch run.

    Attributes:
        name: problem name.
        status: ``"ok"``, ``"timeout"``, or ``"error"``.
        runtime_seconds: wall-clock time spent on the problem.
        result: the solver's result when ``status == "ok"``; the same
            :class:`~repro.api.solver.SolveResult` schema regardless
            of which registered solver ran.
        error: error description for ``"timeout"`` / ``"error"``.
        timeout_enforced: False when a timeout was requested but the
            platform could not enforce it (no ``SIGALRM``, or solving
            off the main thread) — the problem ran without a budget.
            True when the budget was applied or none was requested.
    """

    name: str
    status: str
    runtime_seconds: float = 0.0
    result: SolveResult | None = None
    error: str | None = None
    timeout_enforced: bool = True

    @property
    def solved(self) -> bool:
        return self.status == STATUS_OK and self.result is not None and self.result.solved

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "solved": self.solved,
            "runtime_seconds": self.runtime_seconds,
            "result": self.result.to_dict() if self.result is not None else None,
            "error": self.error,
            "timeout_enforced": self.timeout_enforced,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ProblemRecord":
        """Rebuild a record from :meth:`to_dict` output.

        ``to_dict`` is the wire format the distributed runner journals;
        this is the receiving end (the derived ``solved`` key is
        recomputed from the embedded result, not trusted).
        """
        result = data.get("result")
        return cls(
            name=data["name"],
            status=data["status"],
            runtime_seconds=data.get("runtime_seconds", 0.0),
            result=SolveResult.from_dict(result) if result is not None else None,
            error=data.get("error"),
            timeout_enforced=data.get("timeout_enforced", True),
        )


class _Timeout(Exception):
    """Internal: the per-problem alarm fired."""


def _run_one(
    problem: Problem,
    config: InferenceConfig | None,
    timeout_seconds: float | None,
    solver: str = "gcln",
    service: InvariantService | None = None,
) -> ProblemRecord:
    """Run one problem with an optional SIGALRM-enforced timeout.

    Solves through ``service``, or through a fresh
    :class:`InvariantService` when none is given.  This is the unit of
    work shipped to pool workers; it must stay a module-level function
    so it pickles (pool items never carry a service).
    """
    start = time.perf_counter()
    timeout_requested = timeout_seconds is not None
    use_alarm = timeout_requested and hasattr(signal, "SIGALRM")
    previous_handler = None
    previous_timer = (0.0, 0.0)
    if use_alarm:

        def _on_alarm(_signum, _frame):
            raise _Timeout()

        try:
            previous_handler = signal.signal(signal.SIGALRM, _on_alarm)
            previous_timer = signal.getitimer(signal.ITIMER_REAL)
            signal.setitimer(signal.ITIMER_REAL, timeout_seconds)
        except ValueError:
            # Not in the main thread; run without enforcement.
            use_alarm = False
    # A requested-but-unenforceable budget is a silent degradation
    # unless recorded: every record from this call says whether the
    # budget actually applied.
    enforced = use_alarm or not timeout_requested

    def _disarm() -> None:
        if use_alarm:
            signal.setitimer(signal.ITIMER_REAL, 0.0)

    try:
        # The outer except catches a late alarm that fires inside one
        # of the inner handlers, so _Timeout can never escape into the
        # caller's batch loop.
        try:
            if service is None:
                service = InvariantService(config)
            result = service.solve(problem, solver, config=config)
            _disarm()
            return ProblemRecord(
                name=problem.name,
                status=STATUS_OK,
                runtime_seconds=time.perf_counter() - start,
                result=result,
                timeout_enforced=enforced,
            )
        except _Timeout:
            raise
        except Exception as exc:  # noqa: BLE001 — batch runs must not die on one problem
            _disarm()
            return ProblemRecord(
                name=problem.name,
                status=STATUS_ERROR,
                runtime_seconds=time.perf_counter() - start,
                error=f"{type(exc).__name__}: {exc}\n{traceback.format_exc(limit=5)}",
                timeout_enforced=enforced,
            )
    except _Timeout:
        return ProblemRecord(
            name=problem.name,
            status=STATUS_TIMEOUT,
            runtime_seconds=time.perf_counter() - start,
            error=f"timed out after {timeout_seconds:.0f}s",
        )
    finally:
        if use_alarm:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            if previous_handler is not None:
                signal.signal(signal.SIGALRM, previous_handler)
            if previous_timer[0] > 0:
                # Re-arm the caller's pre-existing timer with what is
                # left of it after this solve; an already-passed
                # deadline still fires (setitimer(..., 0) would disarm).
                remaining = previous_timer[0] - (time.perf_counter() - start)
                signal.setitimer(
                    signal.ITIMER_REAL, max(remaining, 1e-6), previous_timer[1]
                )


def is_distributed(workers: int | str, queue_dir: str | None) -> bool:
    """Does this ``workers``/``queue_dir`` pair select the distributed
    runner?  True for ``"auto"``, for more than one worker, and for any
    value with a queue directory or URL."""
    return (
        workers == "auto" or queue_dir is not None
        or (isinstance(workers, int) and workers > 1)
    )


def run_many(
    problems: Sequence[Problem],
    config: InferenceConfig | None = None,
    jobs: int = 1,
    timeout_seconds: float | None = None,
    progress: Callable[[ProblemRecord], None] | None = None,
    solver: str = "gcln",
    service: InvariantService | None = None,
    workers: "int | str" = 1,
    queue_dir: str | None = None,
    min_workers: int = 1,
    max_workers: int | None = None,
    fleet_status: Callable[[dict], None] | None = None,
) -> list[ProblemRecord]:
    """Run a registered solver on every problem, optionally in parallel.

    Args:
        problems: the problems to run.
        config: shared inference config (``None`` = paper defaults).
        jobs: worker processes; ``1`` runs inline in this process.
        timeout_seconds: per-problem wall-clock budget, enforced with
            ``SIGALRM`` around each solve (inline, in every pool
            process, and in every queue worker).
        progress: called with each record as it completes (completion
            order, which differs from input order when ``jobs > 1``).
        solver: registry name of the strategy to run; unknown names
            raise :class:`~repro.api.solver.UnknownSolverError` up
            front, before any work starts.  With ``jobs > 1`` each
            worker rebuilds the registry from module imports, so a
            custom solver must be registered at import time of a module
            the workers import (e.g. in your package, not inline in a
            script) to be visible under spawn/forkserver start methods.
        service: the service inline runs (``jobs == 1``) solve
            through, sharing its event bus; ``None`` = a
            fresh service per problem.  Pool and queue workers always
            solve through services of their own.
        workers: > 1 (or any value with ``queue_dir``) switches to the
            distributed runner (:mod:`repro.dist`): the problems are
            enqueued on a journaled work queue and drained by this many
            local worker processes.  ``"auto"`` runs an *elastic* fleet
            sized to queue depth between ``min_workers`` and
            ``max_workers``.  Mutually exclusive with ``jobs``.
        queue_dir: durable queue directory for the ``workers`` path —
            or an ``http(s)://`` queue-server URL, making the spawned
            workers remote followers.  Re-running on a half-finished
            queue skips journaled items (resume); omitted = a private
            temporary queue.
        min_workers: elastic-fleet floor (``workers="auto"`` only).
        max_workers: elastic-fleet ceiling (``workers="auto"`` only);
            ``None`` = CPU count, capped at 8.
        fleet_status: distributed-run live tail — called with a fleet
            snapshot (live workers, queue counts, per-worker health)
            whenever the state changes.

    Returns:
        One record per problem, in input order, regardless of
        completion order or worker failures.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if timeout_seconds is not None and timeout_seconds <= 0:
        raise ValueError(
            f"timeout_seconds must be positive, got {timeout_seconds}"
        )
    if isinstance(workers, str):
        if workers != "auto":
            raise ValueError(
                f"workers must be an integer or 'auto', got {workers!r}"
            )
    elif workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    distributed = is_distributed(workers, queue_dir)
    if distributed and jobs != 1:
        raise ValueError(
            "workers/queue_dir and jobs are mutually exclusive: the "
            "distributed runner spawns its own worker processes"
        )
    get_solver(solver)  # fail fast on unknown names
    if not problems:
        return []

    if distributed:
        from repro.dist.coordinator import run_distributed

        return run_distributed(
            problems,
            config,
            workers=workers,
            queue_dir=queue_dir,
            solver=solver,
            timeout_seconds=timeout_seconds,
            progress=progress,
            min_workers=min_workers,
            max_workers=max_workers,
            fleet_status=fleet_status,
        )

    if jobs == 1:
        records = []
        for problem in problems:
            record = _run_one(problem, config, timeout_seconds, solver, service)
            if progress is not None:
                progress(record)
            records.append(record)
        return records

    records_by_index: dict[int, ProblemRecord] = {}
    with ProcessPoolExecutor(max_workers=min(jobs, len(problems))) as pool:
        futures = {
            pool.submit(
                _run_one, problem, config, timeout_seconds, solver
            ): index
            for index, problem in enumerate(problems)
        }
        pending = set(futures)
        while pending:
            done, pending = wait(pending, return_when=FIRST_COMPLETED)
            for future in done:
                index = futures[future]
                try:
                    record = future.result()
                except Exception as exc:  # worker died (e.g. OOM-kill)
                    record = ProblemRecord(
                        name=problems[index].name,
                        status=STATUS_ERROR,
                        error=f"worker failed: {type(exc).__name__}: {exc}",
                    )
                records_by_index[index] = record
                if progress is not None:
                    progress(record)
    return [records_by_index[i] for i in range(len(problems))]


def summarize(records: Sequence[ProblemRecord]) -> dict:
    """Aggregate counts and timing over a batch run's records."""
    total_time = sum(r.runtime_seconds for r in records)
    return {
        "problems": len(records),
        "solved": sum(1 for r in records if r.solved),
        "ok": sum(1 for r in records if r.status == STATUS_OK),
        "timeout": sum(1 for r in records if r.status == STATUS_TIMEOUT),
        "error": sum(1 for r in records if r.status == STATUS_ERROR),
        "total_runtime_seconds": total_time,
        "mean_runtime_seconds": total_time / len(records) if records else 0.0,
    }
