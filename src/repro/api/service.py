"""The long-lived invariant-inference service.

:class:`InvariantService` is the session object the public API is
built around, and :meth:`InvariantService.solve` is the one place a
solve is configured and run: the CLI, the batch runner
:meth:`InvariantService.solve_many` (inline and in every pool worker),
queue workers and the HTTP front end all call it.
The service holds one default config and an
:class:`~repro.api.events.EventBus` that streams typed lifecycle
events to subscribers.  It keeps no data between solves: each solve
memoizes its own traces and term matrices, and the service only sums
their hit/miss counters (:attr:`InvariantService.cache_stats`), also
for the records a batch solved in pool or queue workers.
Concurrent solves on one service (``serve``'s solve threads) are safe.

Usage::

    from repro.api import InvariantService, StageTimed
    from repro.infer import InferenceConfig

    service = InvariantService()
    service.subscribe(lambda e: print(e.to_dict()), kinds=(StageTimed,))
    result = service.solve(problem)                    # G-CLN
    baseline = service.solve(problem, solver="guess_and_check")
    quick = service.solve(problem, "gcln", config=InferenceConfig(max_epochs=400))
    assert set(result.to_dict()) == set(baseline.to_dict())  # same schema

Events are delivered synchronously on the solving thread.  With
``solve_many(jobs > 1)`` the solves happen in worker processes, so
per-stage timings travel back inside each ``SolveResult`` instead of
streaming live; only ``ProblemSolved`` completion events are emitted
(from the parent) in that mode.
"""

from __future__ import annotations

import signal
import threading
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from repro.api.events import Event, EventBus, ProblemSolved
from repro.api.solver import (
    SolveResult,
    available_solvers,
    get_solver,
    require_solver_supports,
)
from repro.sampling.cache import CacheStats

if TYPE_CHECKING:  # pragma: no cover
    from repro.infer.config import InferenceConfig
    from repro.infer.problem import Problem
    from repro.infer.runner import ProblemRecord


class InvariantService:
    """Long-lived session: default config + event bus + summed stats.

    Args:
        config: the :class:`~repro.infer.config.InferenceConfig` every
            solve runs under unless it passes its own (``None`` =
            paper defaults).
    """

    def __init__(self, config: "InferenceConfig | None" = None):
        self.config = config
        self.bus = EventBus()
        self._cache_stats = CacheStats().to_dict()
        self._stats_lock = threading.Lock()

    @property
    def cache_stats(self) -> dict[str, int]:
        """The trace/matrix hit and miss counters summed over every
        :meth:`solve` and every :meth:`solve_many` record so far, a
        snapshot."""
        with self._stats_lock:
            return dict(self._cache_stats)

    def _add_stats(self, stats: dict[str, int]) -> None:
        with self._stats_lock:
            for key in self._cache_stats:
                self._cache_stats[key] += stats.get(key, 0)

    # -- events ----------------------------------------------------------------

    def subscribe(
        self,
        callback: Callable[[Event], None],
        kinds: Iterable[type] | None = None,
    ) -> Callable[[], None]:
        """Stream lifecycle events to ``callback``; returns unsubscriber.

        ``kinds`` optionally filters to specific event classes, e.g.
        ``kinds=(StageTimed,)`` for a profiler.
        """
        return self.bus.subscribe(callback, kinds=kinds)

    # -- solving ---------------------------------------------------------------

    def solve(
        self,
        problem: "Problem",
        solver: str = "gcln",
        config: "InferenceConfig | None" = None,
    ) -> SolveResult:
        """Run one registered solver on one problem.

        ``config`` applies to this solve only; ``None`` means the
        service's :attr:`config`.  The solver emits events to the
        service bus, and its ``cache_stats`` are added to the service's;
        a ``ProblemSolved`` event is emitted on completion whether or
        not the problem was solved.

        Raises:
            UnknownSolverError: for unregistered solver names (the
                message lists :func:`available_solvers`).
            SolverCapabilityError: when the problem is trace-only and
                the solver's registration does not declare trace-only
                support.
        """
        require_solver_supports(solver, problem)
        result = get_solver(solver).solve(
            problem,
            config=config if config is not None else self.config,
            events=self.bus.emit,
        )
        self._add_stats(result.cache_stats)
        self.bus.emit(
            ProblemSolved(
                problem=problem.name,
                solver=solver,
                solved=result.solved,
                runtime_seconds=result.runtime_seconds,
                attempts=result.attempts,
            )
        )
        return result

    def solve_many(
        self,
        problems: Sequence["Problem"],
        solver: str = "gcln",
        *,
        jobs: int = 1,
        timeout_seconds: float | None = None,
        progress: Callable[["ProblemRecord"], None] | None = None,
        workers: "int | str" = 1,
        queue_dir: str | None = None,
        min_workers: int = 1,
        max_workers: int | None = None,
        fleet_status: Callable[[dict], None] | None = None,
    ) -> list["ProblemRecord"]:
        """Batch-solve a suite: one record per problem, in input order.

        This is the one batch runner.  ``jobs == 1`` solves inline
        through :meth:`solve`, streaming the full event feed.
        ``jobs > 1`` fans the problems out over a process pool of
        ``min(jobs, len(problems))`` workers; each item solves through
        a fresh service of its own under this service's
        :attr:`config`, and only completion events stream live.
        ``workers != 1`` (an integer, or ``"auto"`` for an elastic
        fleet sized to queue depth between ``min_workers`` and
        ``max_workers``) or a ``queue_dir`` runs the distributed runner
        (:mod:`repro.dist`): local worker processes drain a journaled
        work queue, ``fleet_status`` receives live fleet snapshots,
        and a durable ``queue_dir`` (or queue-server URL) makes a
        re-run resume.  ``workers``/``queue_dir`` and ``jobs`` are
        mutually exclusive.

        ``timeout_seconds`` is a per-problem wall-clock budget armed
        with ``SIGALRM`` in the solving process.  A budget that cannot
        be armed is refused before any solve: when the platform lacks
        ``SIGALRM``, and when the solves would run on this thread
        (inline, or the coordinator's inline drain) and it is not the
        main thread.

        ``progress`` and exactly one ``ProblemSolved`` event see each
        record in completion order, including timed-out and errored
        problems (``attempts`` is 0 when no result came back), and
        :attr:`cache_stats` sums every record's counters in every mode.

        Raises:
            ValueError: for a bad ``jobs``, ``timeout_seconds``,
                ``workers``, ``min_workers`` or ``max_workers``, for
                ``jobs`` with ``workers``/``queue_dir``, and for a
                budget that cannot be enforced.
            UnknownSolverError: for an unregistered ``solver``.
        """
        from repro.infer import runner

        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        distributed = workers != 1 or queue_dir is not None
        if distributed and jobs != 1:
            raise ValueError(
                "workers/queue_dir and jobs are mutually exclusive: the "
                "distributed runner spawns its own worker processes"
            )
        if timeout_seconds is not None:
            if timeout_seconds <= 0:
                raise ValueError(
                    f"timeout_seconds must be positive, got {timeout_seconds}"
                )
            if not hasattr(signal, "SIGALRM"):
                raise ValueError(
                    "timeout_seconds cannot be enforced: this platform has "
                    "no SIGALRM"
                )
            # Inline solves and the coordinator's inline drain arm the
            # alarm on this thread; pool items arm it in their own.
            main = threading.main_thread()
            if jobs == 1 and threading.current_thread() is not main:
                raise ValueError(
                    "timeout_seconds cannot be enforced off the main thread "
                    "(SIGALRM handlers run only there); call solve_many "
                    "from the main thread or with jobs > 1"
                )
        get_solver(solver)  # fail fast on unknown names
        if not problems:
            return []

        def complete(record: "ProblemRecord") -> None:
            # Every record self.solve did not produce (pool and queue
            # records, timeouts, errors) is counted and announced here.
            if record.result is not None:
                self._add_stats(record.result.cache_stats)
                attempts = record.result.attempts
            else:
                attempts = 0
            self.bus.emit(
                ProblemSolved(
                    problem=record.name,
                    solver=solver,
                    solved=record.solved,
                    runtime_seconds=record.runtime_seconds,
                    attempts=attempts,
                )
            )
            if progress is not None:
                progress(record)

        if distributed:
            from repro.dist.coordinator import run_distributed

            return run_distributed(
                problems,
                self.config,
                workers=workers,
                queue_dir=queue_dir,
                solver=solver,
                timeout_seconds=timeout_seconds,
                progress=complete,
                min_workers=min_workers,
                max_workers=max_workers,
                fleet_status=fleet_status,
            )

        if jobs == 1:
            records = []
            for problem in problems:
                record = runner._run_one(
                    problem, self.config, timeout_seconds, solver, self
                )
                if record.status != runner.STATUS_OK:
                    complete(record)
                elif progress is not None:
                    progress(record)
                records.append(record)
            return records

        records_by_index: dict[int, "ProblemRecord"] = {}
        with ProcessPoolExecutor(max_workers=min(jobs, len(problems))) as pool:
            futures = {
                pool.submit(
                    runner._run_one, problem, self.config, timeout_seconds, solver
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
                        record = runner.ProblemRecord(
                            name=problems[index].name,
                            status=runner.STATUS_ERROR,
                            error=f"worker failed: {type(exc).__name__}: {exc}",
                        )
                    records_by_index[index] = record
                    complete(record)
        return [records_by_index[i] for i in range(len(problems))]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"InvariantService(solvers={list(available_solvers())}, "
            f"subscribers={len(self.bus)})"
        )
