"""Program execution over an input space and per-loop dataset assembly."""

from __future__ import annotations

from itertools import product as iter_product
from typing import Iterable, Mapping, Sequence

from repro.errors import FuelExhausted, InterpError
from repro.lang.ast import Program
from repro.lang.interp import ExecutionTrace, Interpreter
from repro.sampling.source import gather_states


def enumerate_inputs(
    ranges: Mapping[str, Sequence[object]],
    limit: int | None = None,
) -> list[dict[str, object]]:
    """Cartesian product of per-variable value lists.

    Args:
        ranges: for each input variable, the values to try.
        limit: optional cap on the number of combinations (taken in
            iteration order, which is deterministic).
    """
    names = list(ranges)
    combos: list[dict[str, object]] = []
    for values in iter_product(*(ranges[n] for n in names)):
        combos.append(dict(zip(names, values)))
        if limit is not None and len(combos) >= limit:
            break
    return combos


# Interpreter step budget per training run: the default of
# collect_traces, and what record_observations
# replays on the training side.
TRAIN_FUEL = 100_000


def collect_traces(
    program: Program,
    inputs: Iterable[Mapping[str, object]],
    fuel: int = TRAIN_FUEL,
) -> list[ExecutionTrace]:
    """Run ``program`` on each input assignment, keeping valid traces.

    Runs violating an ``assume`` are dropped (their traces are empty by
    construction); runs that exhaust fuel are skipped with the partial
    trace discarded, matching how the paper bounds sampling.
    """
    interp = Interpreter(program, fuel=fuel)
    traces: list[ExecutionTrace] = []
    for assignment in inputs:
        try:
            trace = interp.run(assignment)
        except FuelExhausted:
            continue
        if trace.assume_violated:
            continue
        traces.append(trace)
    if not traces:
        raise InterpError(
            f"no valid traces for program {program.name!r}; "
            "check the input space against the assume clauses"
        )
    return traces


def loop_dataset(
    traces: Sequence[ExecutionTrace],
    loop_id: int,
    include_exit: bool = True,
    max_states: int | None = None,
    dedup: bool = True,
) -> list[dict[str, object]]:
    """Gather loop-head states for one loop across traces.

    Args:
        traces: execution traces from :func:`collect_traces`.
        loop_id: which loop's snapshots to keep.
        include_exit: include the state at the final (failing) guard
            test; the paper logs it too (Fig. 4a).
        max_states: optional cap (states are kept in execution order).
        dedup: drop exact duplicate states, which otherwise skew the
            loss toward heavily revisited states.

    Returns:
        A list of variable-environment dicts.
    """
    selected = (
        snapshot.state
        for trace in traces
        for snapshot in trace.snapshots
        if snapshot.loop_id == loop_id and (include_exit or snapshot.guard_value)
    )
    return gather_states(selected, max_states, dedup=dedup)
