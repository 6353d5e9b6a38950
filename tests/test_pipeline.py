"""Integration tests for the end-to-end inference pipeline."""

import pytest

from repro.bench import nla_problem, suite_problems
from repro.infer import InferenceConfig, InferenceEngine, Problem
from repro.infer.pipeline import _ground_truth_implied, _reduce_redundant
from repro.infer.problem import parse_ground_truth
from repro.infer.stages import build_matrix, collect_states
from repro.sampling.cache import TraceCache
from repro.smt.formula import Atom
from tests.test_polynomial import P


def test_reduce_redundant_drops_implied():
    atoms = [
        Atom(P("t - 2*a - 1"), "=="),
        Atom(P("n*t - 2*a*n - n"), "=="),  # n * (t - 2a - 1)
        Atom(P("n - a*a"), ">="),
    ]
    reduced = _reduce_redundant(atoms)
    polys = {str(a.poly) for a in reduced}
    assert "t - 2*a - 1" in polys
    assert "n*t - 2*a*n - n" not in polys
    assert len([a for a in reduced if a.op == ">="]) == 1


def test_ground_truth_implied_equalities():
    truth = [parse_ground_truth("s == (a + 1) * (a + 1)")]
    sound = [
        Atom(P("t - 2*a - 1"), "=="),
        Atom(P("t*t + 2*t - 4*s + 1"), "=="),
    ]
    assert _ground_truth_implied(truth, sound)
    assert not _ground_truth_implied(truth, sound[:1])


def test_ground_truth_implied_inequality_matching():
    truth = [parse_ground_truth("n >= a * a")]
    assert _ground_truth_implied(truth, [Atom(P("n - a*a"), ">=")])
    assert not _ground_truth_implied(truth, [Atom(P("n - a"), ">=")])
    # An equality n == a*a would also imply the bound.
    assert _ground_truth_implied(truth, [Atom(P("n - a*a"), "==")])


def test_ground_truth_empty_is_trivially_implied():
    assert _ground_truth_implied([], [])


@pytest.mark.slow
def test_pipeline_solves_ps2():
    problem = Problem(
        name="ps2",
        source="""
program ps2;
input k;
assume (k >= 0);
x = 0; y = 0;
while (y < k) { y = y + 1; x = x + y; }
assert (2 * x == y * y + y);
""",
        train_inputs=[{"k": v} for v in range(0, 20)],
        ground_truth={0: ["2 * x == y * y + y"]},
    )
    config = InferenceConfig(max_epochs=2000, dropout_schedule=(0.6, 0.7, 0.5))
    result = InferenceEngine(problem, config).run()
    assert result.solved
    assert result.loops[0].ground_truth_implied
    # Per-stage profiling rides along with every run.
    assert result.stage_timings["train"] > 0
    assert result.stage_timings["check"] > 0


@pytest.mark.slow
def test_pipeline_ablation_no_normalization_struggles():
    """Table 3 shape: disabling data normalization breaks learning."""
    problem = Problem(
        name="ps3_ablate",
        source="""
program ps3;
input k;
assume (k >= 0);
x = 0; y = 0;
while (y < k) { y = y + 1; x = x + y * y; }
""",
        train_inputs=[{"k": v} for v in range(0, 20)],
        max_degree=3,
        ground_truth={0: ["6 * x == 2*y*y*y + 3*y*y + y"]},
    )
    config = InferenceConfig(
        data_normalization=False,
        max_epochs=600,
        dropout_schedule=(0.6,),
    )
    result = InferenceEngine(problem, config).run()
    # Raw high-magnitude terms destabilize training; the run must not
    # crash, and (matching Table 3) typically fails to solve.
    assert result.attempts == 1


def test_pipeline_rejects_loopless_program():
    problem = Problem(
        name="noloop",
        source="program noloop;\ninput n;\nx = n;",
        train_inputs=[{"n": 1}],
    )
    from repro.errors import InferenceError

    with pytest.raises(InferenceError):
        InferenceEngine(problem).run()


def test_problem_helpers():
    problem = Problem(
        name="p",
        source="program p;\ninput n;\nx = 0;\nwhile (x < n) { x = x + 1; }",
        train_inputs=[{"n": 3}],
        ground_truth={0: ["x >= 0"]},
    )
    assert problem.loop_variables(0) == ["n", "x"]
    atoms = problem.ground_truth_atoms(0)
    assert len(atoms) == 1 and atoms[0].op == ">="
    assert problem.effective_check_inputs == problem.train_inputs


@pytest.mark.parametrize("name", ["egcd2", "egcd3"])
def test_body_local_variable_is_left_out_of_the_basis(name):
    """``temp`` is first assigned inside the loop body, so the first
    loop-head state lacks it; the term matrix must build without it."""
    problem = nla_problem(name)
    config = InferenceConfig()
    cache = TraceCache()
    dataset = collect_states(problem, config, None, cache)
    for loop_index in range(problem.n_loops):
        assert "temp" in problem.loop_variables(loop_index)
        bundle = build_matrix(problem, config, dataset, loop_index, cache)
        used = {v for m in bundle.basis.monomials for v in m.variables}
        assert "temp" not in used
        assert bundle.data.shape[1] == len(bundle.basis)


def test_only_body_temporaries_are_missing_from_loop_heads():
    """Every other suite variable is present at every loop head, so the
    basis rule changes no other problem's matrix."""
    config = InferenceConfig()
    missing = set()
    for suite in ("nla", "code2inv"):
        for problem in suite_problems(suite):
            dataset = collect_states(problem, config, None, TraceCache())
            for loop_index in range(problem.n_loops):
                states = dataset.states[loop_index]
                missing.update(
                    (problem.name, v)
                    for v in problem.loop_variables(loop_index)
                    if not all(v in s for s in states)
                )
    assert missing == {("egcd2", "temp"), ("egcd3", "temp")}
