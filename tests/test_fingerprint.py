"""Tests for the canonical problem fingerprint (repro.utils.fingerprint)."""

from fractions import Fraction

from repro.bench import nla_problem
from repro.infer import InferenceConfig, Problem, record_problem
from repro.sampling.source import LoopTrace, Observation
from repro.utils.fingerprint import (
    fingerprint_program,
    fingerprint_traces,
    problem_fingerprint,
)


def tiny_problem(name: str = "fp", step: int = 1, max_degree: int = 1) -> Problem:
    return Problem(
        name=name,
        source=f"""
program {name};
input n;
assume (n >= 0);
i = 0; x = 0;
while (i < n) {{ i = i + 1; x = x + {step}; }}
""",
        train_inputs=[{"n": v} for v in range(0, 6)],
        max_degree=max_degree,
        ground_truth={0: [f"x == {step} * i"]},
    )


def test_fingerprint_is_deterministic():
    a = problem_fingerprint(tiny_problem(), "gcln", InferenceConfig())
    b = problem_fingerprint(tiny_problem(), "gcln", InferenceConfig())
    assert a == b
    assert len(a) == 40 and int(a, 16) >= 0  # sha1 hex


def test_none_config_means_default_config():
    problem = tiny_problem()
    assert problem_fingerprint(problem) == problem_fingerprint(
        problem, "gcln", InferenceConfig()
    )


def test_fingerprint_covers_program_structure_not_formatting():
    """Two parses of differently-formatted but identical programs key
    the same (the program is keyed by its pretty-print, not bytes)."""
    dense = tiny_problem()
    spread = tiny_problem()
    spread.source = dense.source.replace("i = 0; x = 0;", "i = 0;\n\n  x = 0;")
    assert fingerprint_program(spread.program) == fingerprint_program(
        dense.program
    )
    assert problem_fingerprint(spread) == problem_fingerprint(dense)


def test_fingerprint_sensitive_to_each_component():
    base = problem_fingerprint(tiny_problem(), "gcln", InferenceConfig())
    # program change
    assert problem_fingerprint(tiny_problem(step=2)) != base
    # input change
    changed = tiny_problem()
    changed.train_inputs = [{"n": v} for v in range(0, 7)]
    assert problem_fingerprint(changed) != base
    # solver change
    assert problem_fingerprint(tiny_problem(), "numinv") != base
    # config change
    assert (
        problem_fingerprint(
            tiny_problem(), "gcln", InferenceConfig(max_epochs=7)
        )
        != base
    )
    # problem metadata change (degree feeds term generation)
    assert problem_fingerprint(tiny_problem(max_degree=3)) != base


def test_registry_problems_have_distinct_fingerprints():
    assert problem_fingerprint(nla_problem("ps2")) != problem_fingerprint(
        nla_problem("ps3")
    )


def _traces(check=None):
    return {
        0: LoopTrace(
            train=[
                Observation(state={"x": 1, "y": Fraction(1, 2)}, guard=True),
                Observation(state={"x": 2, "y": Fraction(1)}, guard=False),
            ],
            check=check,
        )
    }


def test_fingerprint_traces_stable_across_state_key_order():
    a = _traces()
    b = {
        0: LoopTrace(
            train=[
                Observation(state={"y": Fraction(1, 2), "x": 1}, guard=True),
                Observation(state={"y": Fraction(1), "x": 2}, guard=False),
            ]
        )
    }
    assert fingerprint_traces(a) == fingerprint_traces(b)
    assert fingerprint_traces(a) == fingerprint_traces(_traces())  # fresh build


def test_fingerprint_traces_collision_resistance():
    base = fingerprint_traces(_traces())
    # value change
    changed = _traces()
    changed[0].train[0].state["x"] = 9
    assert fingerprint_traces(changed) != base
    # guard flip (Observation is frozen; rebuild)
    flipped = _traces()
    first = flipped[0].train[0]
    flipped[0].train[0] = Observation(state=first.state, guard=False)
    assert fingerprint_traces(flipped) != base
    # check=None (reuse train) vs an explicit copy of the train states
    explicit = _traces(check=list(_traces()[0].train))
    assert fingerprint_traces(explicit) != base
    # a state moved from train to check
    moved = _traces()
    moved[0] = LoopTrace(train=moved[0].train[:1], check=moved[0].train[1:])
    assert fingerprint_traces(moved) != base
    # loop index matters
    shifted = {0: LoopTrace(train=[]), 1: _traces()[0]}
    assert fingerprint_traces(shifted) != base


def test_problem_fingerprint_covers_trace_payloads():
    """Trace-only problems key on the recording digest, and a recording
    fingerprints differently from the program it was recorded from."""
    program = nla_problem("ps2")
    recorded = record_problem(program)
    fp = problem_fingerprint(recorded)
    assert fp != problem_fingerprint(program)
    assert fp == problem_fingerprint(record_problem(program))  # deterministic
    tweaked = record_problem(program)
    tweaked.traces[0].train[0].state["x"] += 1
    assert problem_fingerprint(tweaked) != fp
