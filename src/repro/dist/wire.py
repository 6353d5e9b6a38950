"""JSON wire formats for the distributed runner.

Queue items must be readable by a worker process that shares nothing
with the coordinator but the queue directory, so problems and configs
travel as plain JSON.  Two problem encodings exist:

* ``{"kind": "suite", "suite": "nla", "name": "ps2"}`` — a reference
  into the benchmark registry; the worker rebuilds the problem via
  :func:`repro.bench.suite_problems`.  This is what ``python -m repro
  enqueue`` writes: items stay tiny and always match the worker's
  registry.
* ``{"kind": "inline", ...}`` — the full problem definition
  (:func:`problem_to_dict`), used by ``solve_many(jobs=N)`` for
  ad-hoc problems that are not in any suite.

``Fraction`` input values are encoded as ``"num/den"`` strings by
:func:`repro.sampling.source.encode_value`, as recorded states are
(the convention the CLI's ``--inputs`` parser uses); JSON object keys
are strings, so integer-keyed maps (``variables``, ``ground_truth``)
are re-keyed on decode.  Trace-only problems inline their recorded
observations via :func:`repro.sampling.source.traces_to_payload`, so a
worker can solve them without any program or shared registry.
"""

from __future__ import annotations

from dataclasses import asdict, fields
from typing import Any

from repro.errors import ReproError
from repro.infer.config import InferenceConfig
from repro.infer.problem import Problem
from repro.sampling.source import (
    decode_value,
    encode_value,
    traces_from_payload,
    traces_to_payload,
)
from repro.sampling.termgen import ExternalTerm


def _encode_inputs(inputs: list[dict[str, object]]) -> list[dict[str, object]]:
    return [{k: encode_value(v) for k, v in row.items()} for row in inputs]


def _decode_inputs(inputs: list[dict[str, Any]]) -> list[dict[str, object]]:
    return [{k: decode_value(v) for k, v in row.items()} for row in inputs]


def problem_to_dict(problem: Problem) -> dict:
    """Serialize a :class:`Problem` to plain JSON types."""
    return {
        "name": problem.name,
        "source": problem.source,
        "train_inputs": _encode_inputs(problem.train_inputs),
        "check_inputs": _encode_inputs(problem.check_inputs),
        "max_degree": problem.max_degree,
        "variables": (
            {str(k): list(v) for k, v in problem.variables.items()}
            if problem.variables is not None
            else None
        ),
        "externals": [
            {"func": e.func, "args": list(e.args)} for e in problem.externals
        ],
        "learn_inequalities": problem.learn_inequalities,
        "fractional": problem.fractional,
        "fractional_vars": (
            list(problem.fractional_vars)
            if problem.fractional_vars is not None
            else None
        ),
        "ground_truth": {
            str(k): list(v) for k, v in problem.ground_truth.items()
        },
        "max_states": problem.max_states,
        "traces": (
            traces_to_payload(problem.traces)
            if problem.traces is not None
            else None
        ),
    }


def problem_from_dict(data: dict) -> Problem:
    """Rebuild a :class:`Problem` from :func:`problem_to_dict` output."""
    return Problem(
        name=data["name"],
        source=data.get("source"),
        train_inputs=_decode_inputs(data.get("train_inputs", [])),
        check_inputs=_decode_inputs(data.get("check_inputs", [])),
        max_degree=data.get("max_degree", 2),
        variables=(
            {int(k): list(v) for k, v in data["variables"].items()}
            if data.get("variables") is not None
            else None
        ),
        externals=[
            ExternalTerm(func=e["func"], args=tuple(e["args"]))
            for e in data.get("externals", [])
        ],
        learn_inequalities=data.get("learn_inequalities", False),
        fractional=data.get("fractional", False),
        fractional_vars=(
            list(data["fractional_vars"])
            if data.get("fractional_vars") is not None
            else None
        ),
        ground_truth={
            int(k): list(v) for k, v in data.get("ground_truth", {}).items()
        },
        max_states=data.get("max_states", 100),
        traces=(
            traces_from_payload(data["traces"])
            if data.get("traces") is not None
            else None
        ),
    )


def config_to_dict(config: InferenceConfig) -> dict:
    """Serialize an :class:`InferenceConfig` (tuples become lists)."""
    return asdict(config)


def config_from_dict(data: dict) -> InferenceConfig:
    """Rebuild an :class:`InferenceConfig` from :func:`config_to_dict`.

    Raises ``ValueError`` naming any key that is not a config field, so
    a typo or a removed option is refused instead of silently ignored.
    """
    unknown = sorted(set(data) - {f.name for f in fields(InferenceConfig)})
    if unknown:
        raise ValueError(f"unknown config key(s): {', '.join(unknown)}")
    # Every sequence field on the config is a tuple; JSON round-trips
    # them as lists.
    return InferenceConfig(
        **{
            name: tuple(value) if isinstance(value, list) else value
            for name, value in data.items()
        }
    )


def item_for_problem(
    problem: Problem,
    index: int,
    suite: str | None = None,
    *,
    solver: str = "gcln",
    config: InferenceConfig | None = None,
) -> dict:
    """Build one queue item for ``problem``.

    Item ids are ``NNNN-name-ffffffff``: the input ``index`` (so merge
    restores input order), the problem name (so humans can read the
    queue), and a prefix of the canonical :func:`~repro.utils.
    fingerprint.problem_fingerprint` over (problem, solver, config) —
    the same keying scheme the serving dedup and result memo use.
    Re-enqueueing the same suite with the same settings
    yields the same ids (resume dedups on them); changing the problem,
    solver, or config changes the ids, so a resumed queue never serves
    stale records solved under different settings.  With ``suite``
    given, the item is a registry reference; otherwise the full problem
    is inlined.
    """
    from repro.utils.fingerprint import problem_fingerprint

    spec: dict[str, Any]
    if suite is not None:
        spec = {"kind": "suite", "suite": suite, "name": problem.name}
    else:
        spec = {"kind": "inline", **problem_to_dict(problem)}
    fingerprint = problem_fingerprint(problem, solver, config)
    return {
        "id": f"{index:04d}-{problem.name}-{fingerprint[:8]}",
        "index": index,
        "name": problem.name,
        "fingerprint": fingerprint,
        "problem": spec,
    }


def resolve_item_problem(item: dict) -> Problem:
    """Rebuild the :class:`Problem` a queue item describes."""
    spec = item["problem"]
    kind = spec.get("kind")
    if kind == "inline":
        return problem_from_dict(spec)
    if kind == "suite":
        from repro.bench import suite_problems

        matches = suite_problems(spec["suite"], [spec["name"]])
        return matches[0]
    raise ReproError(f"unknown queue item problem kind {kind!r}")
