"""The long-lived invariant-inference service.

:class:`InvariantService` is the session object the public API is
built around, and :meth:`InvariantService.solve` is the one place a
solve is configured and run: the CLI, the batch runner
:meth:`InvariantService.solve_many`, queue workers and the HTTP front
end all call it.
The service holds one default config and an
:class:`~repro.api.events.EventBus` that streams typed lifecycle
events to subscribers.  It keeps no data between solves: each solve
memoizes its own traces and term matrices, and the service only sums
their hit/miss counters (:attr:`InvariantService.cache_stats`), also
for the records a batch solved in queue workers.
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
``solve_many(jobs > 1)`` the solves happen in queue worker processes,
so per-stage timings travel back inside each ``SolveResult`` instead
of streaming live; only ``ProblemSolved`` completion events are
emitted (from the parent) in that mode.
"""

from __future__ import annotations

import os
import signal
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
        jobs: "int | str" = 1,
        timeout_seconds: float | None = None,
        progress: Callable[["ProblemRecord"], None] | None = None,
        queue_dir: str | None = None,
    ) -> list["ProblemRecord"]:
        """Batch-solve a suite: one record per problem, in input order.

        This is the one batch runner.  ``jobs == 1`` solves inline
        through :meth:`solve`, streaming the full event feed.
        ``jobs > 1``, ``jobs="auto"`` or a ``queue_dir`` runs the
        distributed runner (:mod:`repro.dist`): ``min(jobs,
        len(problems))`` local worker processes drain a journaled work
        queue under this service's :attr:`config`, each through a
        service of its own, and only completion events stream live.
        ``"auto"`` is resolved here, once, to the CPU count clamped to
        2..8.  A durable ``queue_dir`` (or queue-server URL) makes a
        re-run resume, and without one the queue is private and
        temporary.

        ``timeout_seconds`` is a per-problem wall-clock budget armed
        with ``SIGALRM`` in the solving process.  A budget that cannot
        be armed is refused before any solve: when the platform lacks
        ``SIGALRM``, and when this is not the main thread (inline
        solves, and the coordinator's inline drain after a worker
        died, run on this thread).

        ``progress`` and exactly one ``ProblemSolved`` event see each
        record in completion order, including timed-out and errored
        problems (``attempts`` is 0 when no result came back), and
        :attr:`cache_stats` sums every record's counters in every mode.

        Raises:
            ValueError: for a bad ``jobs`` or ``timeout_seconds``,
                and for a budget that cannot be enforced.
            UnknownSolverError: for an unregistered ``solver``.
        """
        from repro.infer import runner

        if jobs != "auto":
            if not isinstance(jobs, int) or isinstance(jobs, bool):
                raise ValueError(
                    f"jobs must be an integer or 'auto', got {jobs!r}"
                )
            if jobs < 1:
                raise ValueError(f"jobs must be >= 1, got {jobs}")
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
            if threading.current_thread() is not threading.main_thread():
                raise ValueError(
                    "timeout_seconds cannot be enforced off the main thread "
                    "(SIGALRM handlers run only there); call solve_many "
                    "from the main thread"
                )
        get_solver(solver)  # fail fast on unknown names
        if not problems:
            return []

        def complete(record: "ProblemRecord") -> None:
            # Every record self.solve did not produce (queue records,
            # timeouts, errors) is counted and announced here.
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

        if jobs == 1 and queue_dir is None:
            records = []
            for problem in problems:
                record = runner._run_one(self, problem, solver, timeout_seconds)
                if record.status != runner.STATUS_OK:
                    complete(record)
                elif progress is not None:
                    progress(record)
                records.append(record)
            return records

        from repro.dist.coordinator import run_distributed

        if jobs == "auto":
            jobs = max(2, min(os.cpu_count() or 2, 8))
        return run_distributed(
            problems,
            self.config,
            workers=min(jobs, len(problems)),
            queue_dir=queue_dir,
            solver=solver,
            timeout_seconds=timeout_seconds,
            progress=complete,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"InvariantService(solvers={list(available_solvers())}, "
            f"subscribers={len(self.bus)})"
        )
