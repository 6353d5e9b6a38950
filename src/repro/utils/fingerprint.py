"""Canonical content fingerprints for programs, traces, and problems.

One keying scheme for every layer that identifies work by content
rather than by object identity: the serving front end's request
dedup/memo (:mod:`repro.serve.dedup`) and the distributed queue's item
ids (:mod:`repro.dist.wire`).  Two structurally identical requests —
even built in different processes, or parsed from different source
strings that pretty-print the same — share a fingerprint, so dedup and
resume work across process and host boundaries.

Layering: this module may import :mod:`repro.lang` and the wire
helpers, but nothing above them (no api/, serve/, dist/ imports), so
every layer can use it.
"""

from __future__ import annotations

import hashlib
import json
from typing import TYPE_CHECKING, Mapping

from repro.lang.pretty import pretty_program

if TYPE_CHECKING:  # pragma: no cover
    from repro.infer.config import InferenceConfig
    from repro.infer.problem import Problem
    from repro.lang.ast import Program
    from repro.sampling.source import LoopTrace


def fingerprint_program(program: "Program") -> str:
    """Stable digest of a program's structure (via the pretty-printer).

    Computed fresh every call: memoizing it on the AST would survive
    ``copy.deepcopy`` (e.g. ``relax_initializers``) and hand a
    structurally different program the original's digest.
    """
    return hashlib.sha1(pretty_program(program).encode()).hexdigest()


def fingerprint_traces(traces: Mapping[int, "LoopTrace"]) -> str:
    """Stable digest of a recorded-trace payload.

    States are serialized with sorted keys and canonical value reprs,
    so two structurally identical recordings — built in different
    processes, loaded from JSON or CSV, or with differently-ordered
    state dicts — share a fingerprint.  Train and check sequences hash
    under distinct section markers (a state moved between them changes
    the digest), and a ``check=None`` (reuse train) hashes differently
    from an explicit copy of the train states.
    """
    hasher = hashlib.sha1()

    def _feed(observations) -> None:
        for ob in observations:
            for name, value in sorted(ob.state.items()):
                hasher.update(name.encode())
                hasher.update(b"=")
                hasher.update(repr(value).encode())
                hasher.update(b";")
            hasher.update(b"g" if ob.guard else b"G")
            hasher.update(b"|")

    for loop_index in sorted(traces):
        trace = traces[loop_index]
        hasher.update(f"loop:{loop_index}/train:".encode())
        _feed(trace.train)
        if trace.check is not None:
            hasher.update(f"loop:{loop_index}/check:".encode())
            _feed(trace.check)
    return hasher.hexdigest()


def problem_fingerprint(
    problem: "Problem",
    solver: str = "gcln",
    config: "InferenceConfig | None" = None,
) -> str:
    """Canonical digest of one solve request: (problem, solver, config).

    This is *the* dedup/memo key: two requests with the same fingerprint
    are guaranteed to produce the same :class:`~repro.api.solver.
    SolveResult` (modulo timing fields), so one solve can answer both.

    The problem travels through :func:`repro.dist.wire.problem_to_dict`
    — the same JSON encoding queue items use — except the program
    source, which is fingerprinted via the pretty-printer so formatting
    differences don't split the key.  The config travels through
    :func:`repro.dist.wire.config_to_dict`; ``None`` (paper defaults)
    hashes distinctly from an explicit default config only if their
    encodings differ, which they don't — ``None`` is normalized to the
    default config's encoding.
    """
    from repro.dist.wire import config_to_dict, problem_to_dict
    from repro.infer.config import InferenceConfig

    payload = problem_to_dict(problem)
    if problem.source is not None:
        # Key the program by structure, not by source bytes: comments
        # and whitespace must not defeat dedup.
        payload["source"] = fingerprint_program(problem.program)
    if problem.traces is not None:
        # Trace payloads can be large; key them by their canonical
        # digest (sorted-key state serialization) instead of inlining.
        payload["traces"] = fingerprint_traces(problem.traces)
    if config is None:
        config = InferenceConfig()
    blob = json.dumps(
        {"problem": payload, "solver": solver, "config": config_to_dict(config)},
        sort_keys=True,
        separators=(",", ":"),
        default=repr,  # Fractions in ground-truth-free fields, if any
    )
    return hashlib.sha1(blob.encode()).hexdigest()
