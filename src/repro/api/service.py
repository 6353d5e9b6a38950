"""The long-lived invariant-inference service.

:class:`InvariantService` is the session object the public API is
built around, and :meth:`InvariantService.solve` is the one place a
solve is configured and run: the CLI, the batch runner (inline and in
every pool worker), queue workers and the HTTP front end all call it.
The service holds one default config and an
:class:`~repro.api.events.EventBus` that streams typed lifecycle
events to subscribers.  It keeps no data between solves: each solve
memoizes its own traces and term matrices, and the service only sums
their hit/miss counters (:attr:`InvariantService.cache_stats`).
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

import threading
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
        :meth:`solve` so far, a snapshot."""
        with self._stats_lock:
            return dict(self._cache_stats)

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
        with self._stats_lock:
            for key in self._cache_stats:
                self._cache_stats[key] += result.cache_stats.get(key, 0)
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
        """Batch-solve a suite through the runner, one record per problem.

        Exactly one ``ProblemSolved`` event is emitted per record, in
        completion order, including timed-out and errored problems
        (``attempts`` is 0 when no result came back).  With
        ``jobs == 1`` every solve runs in-process through
        :meth:`solve`, streaming the full event feed.  With ``jobs > 1``
        the problems fan out over a process pool; each worker solves
        every item through a fresh service of its own under this
        service's :attr:`config`.  Per-stage timings come back inside each
        record's result, and only the completion events stream live.

        ``workers > 1`` (or any value with ``queue_dir``) fans the
        suite out over the distributed runner (:mod:`repro.dist`):
        local worker processes drain a journaled work queue, each
        running its own service.
        ``workers="auto"`` makes the fleet elastic (sized to queue
        depth between ``min_workers`` and ``max_workers``), and
        ``fleet_status`` receives live fleet/health snapshots.  With a
        durable ``queue_dir`` (or a queue-server URL) a re-run
        resumes: journaled problems are not re-solved.  Mutually
        exclusive with ``jobs``.
        """
        from repro.infer.runner import STATUS_OK, is_distributed, run_many

        inline = jobs == 1 and not is_distributed(workers, queue_dir)

        def on_record(record: "ProblemRecord") -> None:
            # Inline ok-records already emitted ProblemSolved via
            # self.solve; everything else (pool records, timeouts,
            # errors) completes here.
            if not (inline and record.status == STATUS_OK):
                self.bus.emit(
                    ProblemSolved(
                        problem=record.name,
                        solver=solver,
                        solved=record.solved,
                        runtime_seconds=record.runtime_seconds,
                        attempts=(
                            record.result.attempts
                            if record.result is not None
                            else 0
                        ),
                    )
                )
            if progress is not None:
                progress(record)

        return run_many(
            problems,
            self.config,
            jobs=jobs,
            timeout_seconds=timeout_seconds,
            progress=on_record,
            solver=solver,
            service=self,
            workers=workers,
            queue_dir=queue_dir,
            min_workers=min_workers,
            max_workers=max_workers,
            fleet_status=fleet_status,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"InvariantService(solvers={list(available_solvers())}, "
            f"subscribers={len(self.bus)})"
        )
