"""Wire schemas for the HTTP front end.

Requests and responses are plain JSON riding on the existing
:mod:`repro.dist.wire` round-trips, so anything the distributed queue
can express, the HTTP API can too (and vice versa: a queue worker can
solve an HTTP-submitted problem unmodified).

``POST /v1/solve`` accepts either encoding of a problem:

* suite reference — ``{"suite": "nla", "problem": "ps2"}``: resolved
  through the benchmark registry, identical to ``python -m repro run``;
* inline — ``{"problem": {...}}`` with the full
  :func:`~repro.dist.wire.problem_to_dict` payload.

Optional fields: ``"solver"`` (registry name, default: the server's
``--solver``) and ``"config"`` (:func:`~repro.dist.wire.config_to_dict`
payload, default: the server's config).

The solve response schema (shared by the plain JSON reply, the memo
replay, and the terminal SSE ``result`` event)::

    {
      "id": "<16-hex result id>",         # fingerprint prefix
      "fingerprint": "<40-hex>",          # full canonical fingerprint
      "problem": "ps2", "solver": "gcln",
      "status": "ok" | "timeout" | "error",
      "solved": true, "runtime_seconds": 1.2,
      "error": null | "...",
      "memo": false,                      # replayed from the memo?
      "dedup": false,                     # joined another request's solve?
      "result": { SolveResult.to_dict() } | null
    }
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.api.solver import (
    SolverCapabilityError,
    UnknownSolverError,
    get_solver,
    require_solver_supports,
    solver_entries,
)
from repro.dist.wire import config_from_dict, problem_from_dict
from repro.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover
    from repro.infer.config import InferenceConfig
    from repro.infer.problem import Problem
    from repro.infer.runner import ProblemRecord

# Result ids are a fingerprint prefix: long enough to never collide in
# a bounded result store, short enough to paste into a URL.
RESULT_ID_HEX = 16


class ProtocolError(ReproError):
    """A malformed request; maps to HTTP 400 with this message."""


@dataclass
class SolveRequest:
    """A parsed, validated ``POST /v1/solve`` body."""

    problem: "Problem"
    solver: str = "gcln"
    config: "InferenceConfig | None" = None


def result_id(fingerprint: str) -> str:
    """The public result id for a canonical fingerprint."""
    return fingerprint[:RESULT_ID_HEX]


def parse_solve_request(body: bytes, default_solver: str = "gcln") -> SolveRequest:
    """Parse and validate a solve request body.

    A request that names no solver gets ``default_solver``.

    Raises:
        ProtocolError: on malformed JSON, an unknown problem/solver, a
            body that is neither encoding, or a trace-only problem sent
            to a solver without trace-only support.
    """
    try:
        data = json.loads(body or b"null")
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"request body is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ProtocolError(
            "request body must be a JSON object with either "
            '{"suite": ..., "problem": ...} or {"problem": {...}}'
        )

    solver = data.get("solver", default_solver)
    if not isinstance(solver, str):
        raise ProtocolError(f"solver must be a string, got {solver!r}")
    try:
        get_solver(solver)
    except UnknownSolverError as exc:
        raise ProtocolError(str(exc)) from exc

    config = None
    if data.get("config") is not None:
        if not isinstance(data["config"], dict):
            raise ProtocolError("config must be a JSON object")
        try:
            config = config_from_dict(data["config"])
        except (TypeError, ValueError, KeyError) as exc:
            raise ProtocolError(f"bad config: {exc}") from exc

    suite = data.get("suite")
    spec = data.get("problem")
    if suite is not None:
        if not isinstance(spec, str):
            raise ProtocolError(
                'a suite reference needs a problem name: '
                '{"suite": "nla", "problem": "ps2"}'
            )
        from repro.bench import SUITES, suite_problems

        if suite not in SUITES:
            raise ProtocolError(
                f"unknown suite {suite!r}; available: {', '.join(SUITES)}"
            )
        matches = suite_problems(suite, [spec])
        if not matches:
            raise ProtocolError(f"no problem {spec!r} in suite {suite!r}")
        return SolveRequest(problem=matches[0], solver=solver, config=config)

    if isinstance(spec, dict):
        try:
            problem = problem_from_dict(spec)
        except (ReproError, TypeError, ValueError, KeyError) as exc:
            raise ProtocolError(f"bad inline problem: {exc}") from exc
        try:
            require_solver_supports(solver, problem)
        except SolverCapabilityError as exc:
            raise ProtocolError(str(exc)) from exc
        return SolveRequest(problem=problem, solver=solver, config=config)

    raise ProtocolError(
        'request must name a problem: {"suite": ..., "problem": "name"} '
        'or {"problem": {...inline definition...}}'
    )


def solve_response(
    fingerprint: str,
    record: "ProblemRecord",
    solver: str,
    *,
    memo: bool = False,
    dedup: bool = False,
) -> dict:
    """Build the canonical solve-response payload from a record."""
    return {
        "id": result_id(fingerprint),
        "fingerprint": fingerprint,
        "problem": record.name,
        "solver": solver,
        "status": record.status,
        "solved": record.solved,
        "runtime_seconds": record.runtime_seconds,
        "error": record.error,
        "memo": memo,
        "dedup": dedup,
        "result": record.result.to_dict() if record.result is not None else None,
    }


def replayed(response: dict, *, memo: bool = False, dedup: bool = False) -> dict:
    """A copy of a stored response re-flagged for how it was served."""
    copy = dict(response)
    copy["memo"] = memo
    copy["dedup"] = dedup
    return copy


def solvers_response() -> dict:
    """Payload for ``GET /v1/solvers``."""
    return {
        "solvers": [
            {
                "name": entry.name,
                "description": entry.description,
                "capabilities": entry.capabilities.to_dict(),
            }
            for entry in solver_entries()
        ]
    }


def error_response(message: str, **extra: object) -> dict:
    """Uniform error body: ``{"error": message, ...}``."""
    return {"error": message, **extra}
