"""Figure 1 — the two motivating examples (cohencu cube, sqrt1).

Regenerates (a) the trace series the figure plots for the cube loop and
the learned conjunction of its three equality invariants; (b) the sqrt
loop's tight bound n >= a^2 (vs. the loose bounds the figure contrasts).
"""

from __future__ import annotations

import pytest

from repro.bench.nla import nla_problem
from repro.infer import InferenceEngine
from repro.lang import run_program
from repro.utils import format_table


@pytest.mark.benchmark(group="fig1")
def test_fig1a_cube_traces_and_invariants(benchmark, emit):
    from repro.infer import InferenceConfig

    problem = nla_problem("cohencu")
    config = InferenceConfig(max_epochs=1500, dropout_schedule=(0.6, 0.7))

    def run():
        trace = run_program(problem.program, {"a": 15})
        series = [
            (s.state["n"], s.state["x"], s.state["y"], s.state["z"])
            for s in trace.snapshots
            if s.loop_id == 0
        ]
        result = InferenceEngine(problem, config).run()
        return series, result

    series, result = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [list(point) for point in series[:8]]
    emit(
        format_table(
            ["n", "x", "y", "z"],
            rows,
            title="Fig. 1a — cube loop trace (x=n^3, y=3n^2+3n+1, z=6n+6)",
        )
    )
    emit(
        "Fig. 1a learned invariant: "
        + result.invariant(0)
        + f"  (ground truth implied: {result.loops[0].ground_truth_implied})"
    )


@pytest.mark.benchmark(group="fig1")
def test_fig1b_sqrt_tight_bound(benchmark, emit):
    from repro.infer import InferenceConfig

    problem = nla_problem("sqrt1")
    config = InferenceConfig(max_epochs=1500, dropout_schedule=(0.6, 0.7))

    def run():
        return InferenceEngine(problem, config).run()

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    bounds = [a for a in result.loops[0].sound_atoms if " >= " in a]
    tight = [b for b in bounds if "a^2" in b and "n" in b]
    emit(
        "Fig. 1b — sqrt loop bounds learned: "
        + "; ".join(bounds[:10])
        + f"\ntight quadratic bound found: {bool(tight)} ({tight[:1]})"
    )
