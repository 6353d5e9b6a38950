"""Attempt scheduling for the CEGIS retry loop (paper §6).

The paper retries each problem with an adjusted dropout rate, a fresh
seed, and — for fractional problems — a finer sampling interval.  This
module turns that policy into data: :func:`build_schedule` expands an
:class:`~repro.infer.config.InferenceConfig` into an ordered tuple of
typed :class:`AttemptPlan` entries, and :class:`AttemptScheduler`
owns iteration and the early-stop decision that used to be inlined in
``InferenceEngine.run()``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.infer.config import InferenceConfig


@dataclass(frozen=True)
class AttemptPlan:
    """One attempt's knobs: which dropout / seed / interval to use.

    Attributes:
        index: 0-based attempt number.
        dropout: term-dropout rate for this attempt.
        seed: base RNG seed (the engine derives per-loop seeds from it).
        fractional_interval: fractional-sampling interval, or ``None``
            when the problem does not use fractional sampling.
    """

    index: int
    dropout: float
    seed: int
    fractional_interval: float | None


def build_schedule(
    config: InferenceConfig, fractional: bool
) -> tuple[AttemptPlan, ...]:
    """Expand the config's retry policy into ordered attempt plans.

    One plan per dropout-schedule entry; seeds cycle when shorter than
    the dropout schedule; the fractional interval follows the config's
    interval schedule and stays at its finest value once exhausted
    (§5.4: 0.5, then 0.25, ...).

    Attempts are independent by construction (fresh seed + dropout per
    plan).
    """
    intervals: tuple[float | None, ...] = (
        tuple(config.fractional_intervals) if fractional else (None,)
    )
    if not intervals:
        intervals = (None,)
    plans = []
    for index, dropout in enumerate(config.dropout_schedule):
        plans.append(
            AttemptPlan(
                index=index,
                dropout=dropout,
                seed=config.seeds[index % len(config.seeds)],
                fractional_interval=intervals[min(index, len(intervals) - 1)],
            )
        )
    return tuple(plans)


class AttemptScheduler:
    """Yields attempt plans until the budget is exhausted or solved.

    Usage::

        scheduler = AttemptScheduler(config, fractional=problem.fractional)
        for plan in scheduler:
            ...  # one attempt
            if solved:
                scheduler.stop()
        result.attempts = scheduler.attempts_made
    """

    def __init__(self, config: InferenceConfig, fractional: bool = False):
        self.plans = build_schedule(config, fractional)
        self.attempts_made = 0
        self._stopped = False

    def stop(self) -> None:
        """Early-stop: no further plans are yielded."""
        self._stopped = True

    @property
    def stopped(self) -> bool:
        return self._stopped

    def __iter__(self) -> Iterator[AttemptPlan]:
        for plan in self.plans:
            if self._stopped:
                return
            self.attempts_made += 1
            yield plan

    def iter_batches(self, max_size: int = 1) -> Iterator[tuple[AttemptPlan, ...]]:
        """Yield plans grouped for batched multi-restart training.

        The first attempt always runs alone — most solvable problems
        succeed immediately, and batching retries with it would train
        extra restarts for nothing.  Subsequent consecutive plans with
        the same fractional interval (hence the same data matrices)
        group up to ``max_size``; a change of interval starts a new
        batch because the training data differs.

        ``attempts_made`` counts every plan yielded, so batched and
        sequential iteration report the same attempt totals when the
        whole schedule runs.
        """
        if max_size < 1:
            max_size = 1
        i = 0
        while i < len(self.plans) and not self._stopped:
            plan = self.plans[i]
            batch = [plan]
            i += 1
            if plan.index > 0:
                while (
                    i < len(self.plans)
                    and len(batch) < max_size
                    and self.plans[i].fractional_interval
                    == plan.fractional_interval
                ):
                    batch.append(self.plans[i])
                    i += 1
            self.attempts_made += len(batch)
            yield tuple(batch)
