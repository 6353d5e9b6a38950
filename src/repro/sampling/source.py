"""Observation sources: where the learner's program states come from.

The paper's method learns invariants from *observed loop-head states*;
nothing in training or checking actually requires the mini-language
interpreter — only the states it produces.  This module makes that
boundary first-class:

* :class:`InterpreterSource` — today's path: run ``lang/interp.py``
  over a training input space (via :func:`~repro.sampling.tracegen.
  collect_traces`) and read loop-head snapshots off the traces.
* :class:`RecordedTraceSource` — the trace-first path: raw per-loop
  state sequences recorded elsewhere (another language, a production
  log, a ``python -m repro record`` run) and loaded from JSON or CSV.

Both implement the :class:`ObservationSource` protocol the inference
stages consume (:mod:`repro.infer.stages`), so every layer above —
training, checking, the solver registry, the HTTP front end, the
distributed queue — is agnostic about whether a program exists.

Seed-equivalence contract: for a program-backed problem, recording its
interpreter observations (:func:`repro.infer.record.record_problem`)
and re-solving through :class:`RecordedTraceSource` must produce
byte-identical training states — the dedup/cap logic here mirrors
:func:`~repro.sampling.tracegen.loop_dataset` exactly.

Layering: this module sits with the rest of :mod:`repro.sampling`
(below ``checker``/``infer``) and must not reach upward.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Mapping, Protocol, Sequence, runtime_checkable

from repro.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover
    from repro.lang.ast import Program


@dataclass(frozen=True)
class Observation:
    """One recorded loop-head state.

    Attributes:
        state: variable environment at the loop head.
        guard: the loop-guard value at this state; ``False`` marks the
            exit observation (the paper logs it too, Fig. 4a).
    """

    state: Mapping[str, object]
    guard: bool = True


@dataclass
class LoopTrace:
    """Recorded observations for one loop.

    Attributes:
        train: observation sequence used for training, in recording
            order (duplicates allowed — dedup happens at dataset
            assembly, mirroring :func:`~repro.sampling.tracegen.
            loop_dataset`).
        check: held-out observations for the degraded (bounded)
            checker; ``None`` reuses ``train``.
    """

    train: list[Observation] = field(default_factory=list)
    check: list[Observation] | None = None

    @property
    def effective_check(self) -> list[Observation]:
        return self.check if self.check is not None else self.train


TraceData = dict[int, LoopTrace]


@runtime_checkable
class ObservationSource(Protocol):
    """Where training/checking states come from; what stages consume."""

    kind: str  # "program" or "trace"

    @property
    def n_loops(self) -> int: ...

    def train_states(self, max_states: int | None) -> dict[int, list[dict]]:
        """Deduplicated, capped training states for every loop."""
        ...

    def variables(self, loop_index: int) -> list[str] | None:
        """Term variables for one loop, or ``None`` if not derivable."""
        ...


def _dedup_cap(
    observations: Sequence[Observation], max_states: int | None
) -> list[dict]:
    """``loop_dataset``'s dedup/cap applied to a recorded sequence."""
    states: list[dict] = []
    seen: set[tuple] = set()
    for ob in observations:
        state = dict(ob.state)
        key = tuple(sorted(state.items()))
        if key in seen:
            continue
        seen.add(key)
        states.append(state)
        if max_states is not None and len(states) >= max_states:
            break
    return states


class InterpreterSource:
    """Observations produced by interpreting a program over inputs."""

    kind = "program"

    def __init__(
        self,
        program: "Program",
        train_inputs: Sequence[Mapping[str, object]],
    ):
        self.program = program
        self.train_inputs = list(train_inputs)

    @property
    def n_loops(self) -> int:
        return len(self.program.loops)

    def train_states(self, max_states: int | None) -> dict[int, list[dict]]:
        from repro.sampling.tracegen import collect_traces, loop_dataset

        traces = collect_traces(self.program, self.train_inputs)
        return {
            loop_index: loop_dataset(traces, loop_index, max_states=max_states)
            for loop_index in range(self.n_loops)
        }

    def variables(self, loop_index: int) -> list[str] | None:
        return None  # the Problem falls back to program_variables


class RecordedTraceSource:
    """Observations loaded from a recording instead of an interpreter."""

    kind = "trace"

    def __init__(self, data: Mapping[int, LoopTrace]):
        if not data:
            raise ReproError("recorded trace payload has no loops")
        expected = set(range(len(data)))
        if set(data) != expected:
            raise ReproError(
                f"recorded trace loop ids must be contiguous from 0; "
                f"got {sorted(data)}"
            )
        self.data: TraceData = dict(data)

    @property
    def n_loops(self) -> int:
        return len(self.data)

    def train_states(self, max_states: int | None) -> dict[int, list[dict]]:
        return {
            loop_index: _dedup_cap(self.data[loop_index].train, max_states)
            for loop_index in range(self.n_loops)
        }

    def check_observations(self, loop_index: int) -> list[Observation]:
        """Held-out observations for the degraded (bounded) checker."""
        return list(self.data[loop_index].effective_check)

    def variables(self, loop_index: int) -> list[str] | None:
        for ob in self.data[loop_index].train:
            return sorted(ob.state)
        return None


# -- JSON / CSV payloads -----------------------------------------------------
#
# One value encoding for recorded states and for repro.dist.wire's
# problem inputs: Fractions travel as "num/den" strings, everything else
# as native JSON scalars.  It lives here so dist/ imports downward.


def encode_value(value: object) -> object:
    """A state or input value as JSON: Fractions become ``"n/d"``."""
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, (bool, int, float)):
        return value
    raise ReproError(
        f"cannot encode value {value!r} ({type(value).__name__}) as JSON"
    )


def decode_value(value: object) -> object:
    """Inverse of :func:`encode_value`."""
    if isinstance(value, str):
        return Fraction(value)
    return value


def _encode_observation(ob: Observation) -> dict:
    return {
        "state": {k: encode_value(v) for k, v in ob.state.items()},
        "guard": bool(ob.guard),
    }


def _decode_observation(data: Mapping) -> Observation:
    return Observation(
        state={k: decode_value(v) for k, v in data["state"].items()},
        guard=bool(data.get("guard", True)),
    )


def traces_to_payload(data: Mapping[int, LoopTrace]) -> dict:
    """Serialize recorded traces to plain JSON types (string loop keys)."""
    payload: dict[str, dict] = {}
    for loop_index in sorted(data):
        trace = data[loop_index]
        payload[str(loop_index)] = {
            "train": [_encode_observation(ob) for ob in trace.train],
            "check": (
                None
                if trace.check is None
                else [_encode_observation(ob) for ob in trace.check]
            ),
        }
    return payload


def traces_from_payload(payload: Mapping) -> TraceData:
    """Rebuild recorded traces from :func:`traces_to_payload` output."""
    data: TraceData = {}
    for key, trace in payload.items():
        data[int(key)] = LoopTrace(
            train=[_decode_observation(ob) for ob in trace.get("train", [])],
            check=(
                None
                if trace.get("check") is None
                else [_decode_observation(ob) for ob in trace["check"]]
            ),
        )
    return data


def _parse_csv_value(text: str) -> object:
    text = text.strip()
    if text in ("true", "True"):
        return True
    if text in ("false", "False"):
        return False
    try:
        return int(text)
    except ValueError:
        pass
    if "/" in text:
        return Fraction(text)
    return float(text)


def traces_from_csv(rows: Iterable[str]) -> TraceData:
    """Parse recorded traces from CSV lines.

    Expected header: ``loop`` plus one column per variable; optional
    ``kind`` (``train``/``check``, default ``train``) and ``guard``
    (``1``/``0``/``true``/``false``, default true) columns.  Values are
    integers, ``num/den`` fractions, or floats.
    """
    reader = csv.DictReader(rows)
    if reader.fieldnames is None or "loop" not in reader.fieldnames:
        raise ReproError("trace CSV needs a header with a 'loop' column")
    reserved = {"loop", "kind", "guard"}
    data: TraceData = {}
    for row in reader:
        loop_index = int(row["loop"])
        kind = (row.get("kind") or "train").strip() or "train"
        if kind not in ("train", "check"):
            raise ReproError(
                f"trace CSV 'kind' must be 'train' or 'check', got {kind!r}"
            )
        guard_text = (row.get("guard") or "").strip()
        guard = guard_text not in ("0", "false", "False") if guard_text else True
        state = {
            name: _parse_csv_value(value)
            for name, value in row.items()
            if name not in reserved and value is not None and value.strip() != ""
        }
        trace = data.setdefault(loop_index, LoopTrace())
        observation = Observation(state=state, guard=guard)
        if kind == "check":
            if trace.check is None:
                trace.check = []
            trace.check.append(observation)
        else:
            trace.train.append(observation)
    if not data:
        raise ReproError("trace CSV contains no observations")
    return data
