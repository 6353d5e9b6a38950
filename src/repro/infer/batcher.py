"""Cross-problem training batches: suite-scale epoch amortization.

The ROADMAP "Cross-problem training batches" follow-on to the
vectorized training core: instead of entering the Python training loop
once per problem, :func:`run_cross_batched` drives every problem's
:meth:`~repro.infer.pipeline.InferenceEngine.run_stepwise` generator
concurrently, collects the :class:`~repro.infer.pipeline.TrainRequest`
each engine suspends on, buckets same-shape requests *from different
problems* together, and trains each bucket in a single models-stacked
call (:func:`~repro.cln.train.train_gcln_restarts` with per-model data
matrices).  Training outcomes are fed back into each problem's own
scheduler/checker loop, so every problem learns exactly the invariants
it would learn solved alone — the stacked trainer is bitwise-equal per
model — while the suite shares one taped graph per round.

Scheduling is round-based: each round takes at most one pending
request per live problem, groups by ``(data shape, stack signature)``,
chunks groups to at most ``cross_batch`` models per training call, and
advances every engine whose request was served.  Problems finish (and
report progress) as their generators return; errors and soft timeouts
retire a problem without disturbing the rest of the round.

Timeouts are *soft* here: a shared training call cannot be interrupted
on behalf of one problem, so the per-problem budget is checked between
rounds and on completion.  Each problem's clock starts when its engine
first runs (not at suite construction), but because rounds interleave
problems, elapsed time still includes other problems' share of the
shared rounds — per-problem ``runtime_seconds`` overlap, may sum to
more than the batch's wall-clock, and a tight budget retires more of a
large suite than the per-problem enforcement of ``jobs`` mode would.
Records carry ``status="timeout"`` with the wall-clock elapsed.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass
from typing import Callable, Generator, Sequence

from repro.cln.train import RestartOutcome, train_gcln_restarts
from repro.infer.config import InferenceConfig
from repro.infer.pipeline import (
    InferenceEngine,
    InferenceResult,
    TrainRequest,
    execute_train_request,
)
from repro.infer.problem import Problem
from repro.infer.runner import (
    STATUS_ERROR,
    STATUS_OK,
    STATUS_TIMEOUT,
    ProblemRecord,
)
from repro.sampling.cache import TraceCache

# One bucket per (matrix shape, model-stack signature): only models
# that agree on both can share a stacked training call.
GroupKey = tuple


@dataclass
class _ActiveProblem:
    """One problem's engine generator plus its batch bookkeeping."""

    index: int
    problem: Problem
    gen: Generator[TrainRequest, list[RestartOutcome], InferenceResult]
    start: float
    pending: TrainRequest | None = None
    record: ProblemRecord | None = None

    @property
    def live(self) -> bool:
        return self.record is None and self.pending is not None


def run_cross_batched(
    problems: Sequence[Problem],
    config: InferenceConfig | None = None,
    *,
    cross_batch: int = 4,
    timeout_seconds: float | None = None,
    progress: Callable[[ProblemRecord], None] | None = None,
    cache: TraceCache | None = None,
    cache_dir: str | None = None,
    events=None,
) -> list[ProblemRecord]:
    """Solve a suite with cross-problem training batches (one process).

    Args:
        problems: the suite to solve.
        config: shared inference config (``None`` = paper defaults).
        cross_batch: maximum models stacked into one training call; a
            single problem's attempt batch is never split, so one
            oversized request still trains whole.
        timeout_seconds: soft per-problem wall-clock budget, checked
            between training rounds (see module docstring).
        progress: called with each record as its problem finishes
            (completion order).
        cache: shared :class:`TraceCache`; by default one cache sized
            to the suite is created, so identical sub-programs across
            problems share traces.
        cache_dir: disk spill directory for the default cache (ignored
            when ``cache`` is injected).
        events: optional event sink passed to every engine (the
            service passes its bus).

    Returns:
        One record per problem, in input order.
    """
    if cross_batch < 1:
        raise ValueError(f"cross_batch must be >= 1, got {cross_batch}")
    shared_cache = (
        cache
        if cache is not None
        else TraceCache(
            max_entries=max(256, 8 * len(problems)), cache_dir=cache_dir
        )
    )
    active: list[_ActiveProblem] = []
    for index, problem in enumerate(problems):
        engine = InferenceEngine(
            problem, config, cache=shared_cache, events=events
        )
        active.append(
            _ActiveProblem(
                index=index,
                problem=problem,
                gen=engine.run_stepwise(),
                start=0.0,  # assigned when the engine first runs
            )
        )

    def finish(entry: _ActiveProblem, record: ProblemRecord) -> None:
        entry.record = record
        entry.pending = None
        if progress is not None:
            progress(record)

    def advance(entry: _ActiveProblem, outcomes: list[RestartOutcome] | None) -> None:
        """Resume one engine until its next request or completion."""
        if entry.record is not None:
            return
        entry.pending = None
        try:
            if outcomes is None:
                entry.pending = next(entry.gen)
            else:
                entry.pending = entry.gen.send(outcomes)
        except StopIteration as stop:
            from repro.api.adapters import solve_result_from_inference

            finish(
                entry,
                ProblemRecord(
                    name=entry.problem.name,
                    status=STATUS_OK,
                    runtime_seconds=time.perf_counter() - entry.start,
                    result=solve_result_from_inference(stop.value),
                ),
            )
        except Exception as exc:  # noqa: BLE001 — one problem must not kill the suite
            finish(
                entry,
                ProblemRecord(
                    name=entry.problem.name,
                    status=STATUS_ERROR,
                    runtime_seconds=time.perf_counter() - entry.start,
                    error=(
                        f"{type(exc).__name__}: {exc}\n"
                        f"{traceback.format_exc(limit=5)}"
                    ),
                ),
            )

    def train_and_advance(entry: _ActiveProblem) -> None:
        """Run one entry's training request inline, safely.

        The request executes in this frame, not inside the engine
        generator, so ``advance``'s catch cannot see its failures; a
        training crash (degenerate matrix, allocation failure, ...)
        must become *this* problem's error record — parity with the
        per-problem catch of ``_run_one`` — not abort the whole suite.
        """
        try:
            outcomes = execute_train_request(entry.pending)
        except Exception as exc:  # noqa: BLE001 — one problem must not kill the suite
            entry.gen.close()
            finish(
                entry,
                ProblemRecord(
                    name=entry.problem.name,
                    status=STATUS_ERROR,
                    runtime_seconds=time.perf_counter() - entry.start,
                    error=(
                        f"{type(exc).__name__}: {exc}\n"
                        f"{traceback.format_exc(limit=5)}"
                    ),
                ),
            )
            return
        advance(entry, outcomes)

    def check_timeout(entry: _ActiveProblem) -> None:
        if timeout_seconds is None or entry.record is not None:
            return
        elapsed = time.perf_counter() - entry.start
        if elapsed > timeout_seconds:
            entry.gen.close()
            finish(
                entry,
                ProblemRecord(
                    name=entry.problem.name,
                    status=STATUS_TIMEOUT,
                    runtime_seconds=elapsed,
                    error=(
                        f"timed out after {timeout_seconds:.0f}s "
                        "(soft enforcement between cross-batch rounds)"
                    ),
                ),
            )

    for entry in active:
        # The budget clock starts when this problem's engine first
        # runs, not when the suite was constructed — otherwise later
        # problems in a long suite would be charged for all earlier
        # priming work.
        entry.start = time.perf_counter()
        advance(entry, None)
        check_timeout(entry)

    while True:
        live = [entry for entry in active if entry.live]
        if not live:
            break
        singles: list[_ActiveProblem] = []
        groups: dict[GroupKey, list[_ActiveProblem]] = {}
        for entry in live:
            request = entry.pending
            signatures = {m.stack_signature() for m in request.models}
            if request.batchable and len(signatures) == 1:
                key = (request.data.shape, next(iter(signatures)))
                groups.setdefault(key, []).append(entry)
            else:
                singles.append(entry)
        for entry in singles:
            train_and_advance(entry)
        for members in groups.values():
            chunk: list[_ActiveProblem] = []
            total = 0
            for entry in members:
                size = len(entry.pending.models)
                if chunk and total + size > cross_batch:
                    _train_chunk(chunk, advance, train_and_advance)
                    chunk, total = [], 0
                chunk.append(entry)
                total += size
            if chunk:
                _train_chunk(chunk, advance, train_and_advance)
        for entry in active:
            check_timeout(entry)

    return [entry.record for entry in sorted(active, key=lambda e: e.index)]


def _train_chunk(
    members: list[_ActiveProblem],
    advance: Callable[[_ActiveProblem, list[RestartOutcome] | None], None],
    train_one: Callable[[_ActiveProblem], None],
) -> None:
    """Train one same-shape chunk and resume its engines.

    A one-member chunk runs through ``train_one``, the exact inline
    path — so ``cross_batch=1`` (or a lone problem) is
    indistinguishable from sequential solving.  Larger chunks stack
    every member's models into one :func:`train_gcln_restarts` call
    with per-model data matrices; outcomes are sliced back per member.
    """
    if len(members) == 1:
        train_one(members[0])
        return
    models = []
    matrices = []
    sizes = []
    for entry in members:
        request = entry.pending
        models.extend(request.models)
        matrices.extend([request.data] * len(request.models))
        sizes.append(len(request.models))
    try:
        flat = train_gcln_restarts(models, matrices)
    except Exception:  # noqa: BLE001 — a shared call must not sink the chunk
        # Defensive: a chunk that cannot train together (a model turned
        # out not stackable, or one member's data breaks the stacked
        # call) falls back to the per-member inline path, where an
        # individual failure becomes that problem's error record.
        for entry in members:
            train_one(entry)
        return
    offset = 0
    for entry, size in zip(members, sizes):
        advance(entry, flat[offset : offset + size])
        offset += size
