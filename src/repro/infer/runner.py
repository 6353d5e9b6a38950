"""Batch records: one :class:`ProblemRecord` per problem of a batch run.

:meth:`repro.api.service.InvariantService.solve_many` is the batch
runner; this module holds what it, the distributed runner
(:mod:`repro.dist`) and the HTTP front end share: the record and its
wire form, the status constants, :func:`summarize`, and
:func:`_run_one`, the unit of work of an inline run and of every pool
item.  Every record carries the same
:class:`~repro.api.solver.SolveResult` schema whichever registered
solver ran, so benchmark tables, ``python -m repro run-all`` and solver
comparisons share one result format.

Timeouts are enforced *inside* the solving process with ``SIGALRM``
(POSIX), so a timed-out problem frees its pool slot immediately
instead of poisoning the pool.  ``solve_many`` refuses a budget it
cannot arm (no ``SIGALRM``, or solving off the main thread) before any
solve starts.
"""

from __future__ import annotations

import signal
import time
import traceback
from dataclasses import dataclass
from typing import Sequence

from repro.api.service import InvariantService
from repro.api.solver import SolveResult
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
    """

    name: str
    status: str
    runtime_seconds: float = 0.0
    result: SolveResult | None = None
    error: str | None = None

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
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ProblemRecord":
        """Rebuild a record from :meth:`to_dict` output.

        ``to_dict`` is the wire format the distributed runner journals;
        this is the receiving end (the derived ``solved`` key is
        recomputed from the embedded result, not trusted, and unknown
        keys from older journals are ignored).
        """
        result = data.get("result")
        return cls(
            name=data["name"],
            status=data["status"],
            runtime_seconds=data.get("runtime_seconds", 0.0),
            result=SolveResult.from_dict(result) if result is not None else None,
            error=data.get("error"),
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
    so it pickles (pool items never carry a service).  A budget needs
    ``SIGALRM`` and the main thread, which the caller has checked.
    """
    start = time.perf_counter()
    use_alarm = timeout_seconds is not None
    previous_handler = None
    previous_timer = (0.0, 0.0)
    if use_alarm:

        def _on_alarm(_signum, _frame):
            raise _Timeout()

        previous_handler = signal.signal(signal.SIGALRM, _on_alarm)
        previous_timer = signal.getitimer(signal.ITIMER_REAL)
        signal.setitimer(signal.ITIMER_REAL, timeout_seconds)

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
