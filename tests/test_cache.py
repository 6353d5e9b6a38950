"""Tests for the trace/matrix cache and its use by the engine."""

from repro.infer import InferenceConfig, InferenceEngine, Problem
from repro.infer.stages import build_matrix, collect_states
from repro.lang import parse_program
from repro.sampling.cache import TraceCache
from repro.utils.fingerprint import fingerprint_program

TINY_SOURCE = """
program tiny;
input n;
assume (n >= 0);
i = 0;
while (i < n) { i = i + 1; }
"""


def tiny_problem(**overrides) -> Problem:
    spec = dict(
        name="tiny",
        source=TINY_SOURCE,
        train_inputs=[{"n": v} for v in range(0, 8)],
        max_degree=1,
        # Unsatisfiable ground truth: every attempt fails, so the
        # engine walks the whole retry schedule.
        ground_truth={0: ["i == n + 1"]},
    )
    spec.update(overrides)
    return Problem(**spec)


def test_fingerprint_program_is_structural():
    a = parse_program(TINY_SOURCE)
    b = parse_program(TINY_SOURCE)
    c = parse_program(TINY_SOURCE.replace("i + 1", "i + 2"))
    assert a is not b
    assert fingerprint_program(a) == fingerprint_program(b)
    assert fingerprint_program(a) != fingerprint_program(c)


def test_fingerprint_differs_for_relaxed_program():
    """relax_initializers deep-copies the AST; the relaxed program is
    structurally different and must not inherit the original digest."""
    from repro.sampling.fractional import relax_initializers

    program = parse_program(TINY_SOURCE)
    original_digest = fingerprint_program(program)
    relaxed, relaxed_vars = relax_initializers(program)
    assert relaxed_vars
    assert fingerprint_program(relaxed) != original_digest
    assert fingerprint_program(program) == original_digest


def test_collect_states_and_build_matrix_memoize():
    cache = TraceCache()
    problem = tiny_problem()
    config = InferenceConfig()
    first = collect_states(problem, config, None, cache)
    second = collect_states(problem, config, None, cache)
    assert second is first
    assert cache.stats.trace_hits == 1

    bundle_a = build_matrix(problem, config, first, 0, cache)
    bundle_b = build_matrix(problem, config, second, 0, cache)
    assert bundle_b is bundle_a
    assert cache.stats.matrix_misses == 1
    assert cache.stats.matrix_hits == 1
    assert bundle_a.data.shape[0] == len(first.states[0])


def test_engine_attempts_perform_zero_redundant_collection(monkeypatch):
    """Acceptance: attempts 2+ reuse the states and matrices entirely."""
    import repro.sampling.tracegen as tracegen

    collected = []
    real = tracegen.collect_traces
    monkeypatch.setattr(
        tracegen,
        "collect_traces",
        lambda *a, **k: collected.append(1) or real(*a, **k),
    )
    config = InferenceConfig(max_epochs=60, dropout_schedule=(0.6, 0.7, 0.5))
    engine = InferenceEngine(tiny_problem(), config)
    result = engine.run()
    assert not result.solved
    assert result.attempts == 3
    stats = engine.cache.stats
    # One training-trace collection, one state dataset and one matrix;
    # the retry batch (attempts 2 and 3) is a pure hit.
    assert len(collected) == 1
    assert stats.trace_misses == 1 and stats.trace_hits == 1
    assert stats.matrix_misses == 1 and stats.matrix_hits == 1
    assert result.cache_stats == stats.to_dict()


def test_each_engine_owns_its_memo():
    """Nothing outlives a solve: a second engine for the same problem
    builds its states and matrices again."""
    config = InferenceConfig(max_epochs=60, dropout_schedule=(0.6,))
    first = InferenceEngine(tiny_problem(), config)
    second = InferenceEngine(tiny_problem(), config)
    assert first.cache is not second.cache
    assert first.run().cache_stats == second.run().cache_stats == {
        "trace_hits": 0,
        "trace_misses": 1,
        "matrix_hits": 0,
        "matrix_misses": 1,
    }
