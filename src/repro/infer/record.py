"""Record a program-backed problem's observations for trace-first solving.

The seed-equivalence contract of the ObservationSource layer: recording
what the interpreter *would* feed training and checking, then solving
from the recording alone, must produce identical invariants.  That
requires state-for-state fidelity on both sides:

* **train** — the raw loop-head snapshot sequences of
  :func:`~repro.sampling.tracegen.collect_traces` over the training
  inputs, in execution order, *before* dedup/cap (the
  :class:`~repro.sampling.source.RecordedTraceSource` applies
  ``loop_dataset``'s dedup/cap itself at assembly time);
* **check** — the loop-head states of the checker's traces: the
  error-tolerant :meth:`~repro.checker.bounded.BoundedChecker.
  run_traces` over the checking inputs with the checker's fuel budget,
  exactly what :class:`~repro.checker.vc.InvariantChecker` reads its
  reachability states from.

``python -m repro record`` writes these recordings as JSON; CI's trace
smoke re-solves ps2 from its recording and asserts invariant equality.
"""

from __future__ import annotations

from repro.checker.bounded import BoundedChecker
from repro.infer.problem import Problem
from repro.sampling.source import LoopTrace, Observation, TraceData
from repro.sampling.tracegen import TRAIN_FUEL, collect_traces


def _loop_observations(traces, loop_index: int) -> list[Observation]:
    """Raw snapshot sequence for one loop: no dedup, exit states kept."""
    return [
        Observation(state=dict(s.state), guard=bool(s.guard_value))
        for trace in traces
        for s in trace.snapshots
        if s.loop_id == loop_index
    ]


def record_observations(problem: Problem) -> TraceData:
    """Record the train/check observation sequences of a program-backed
    problem, one :class:`LoopTrace` per loop.

    Raises:
        InferenceError: for trace-only problems (nothing to record).
    """
    program = problem.program
    train_traces = collect_traces(
        program, problem.train_inputs, fuel=TRAIN_FUEL
    )
    check_traces = BoundedChecker(
        program, externals=problem.externals
    ).run_traces(problem.effective_check_inputs)
    data: TraceData = {}
    for loop_index in range(len(program.loops)):
        data[loop_index] = LoopTrace(
            train=_loop_observations(train_traces, loop_index),
            check=_loop_observations(check_traces, loop_index),
        )
    return data


def record_problem(problem: Problem) -> Problem:
    """A trace-only clone of a program-backed problem.

    The clone embeds the recorded observations plus everything the
    pipeline needs that it would otherwise read off the program: the
    per-loop term variables and the problem's term/checking knobs.
    Fractional sampling is dropped (it relaxes program initializers, so
    it cannot run without one).
    """
    n_loops = len(problem.program.loops)
    return Problem(
        name=problem.name,
        source=None,
        max_degree=problem.max_degree,
        variables={
            i: list(problem.loop_variables(i)) for i in range(n_loops)
        },
        externals=list(problem.externals),
        learn_inequalities=problem.learn_inequalities,
        fractional=False,
        ground_truth={
            k: list(v) for k, v in problem.ground_truth.items()
        },
        max_states=problem.max_states,
        traces=record_observations(problem),
    )
