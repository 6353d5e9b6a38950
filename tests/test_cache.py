"""Tests for the trace/matrix cache and its use by the engine."""

from repro.infer import InferenceConfig, InferenceEngine, Problem
from repro.infer.stages import build_matrix, collect_states
from repro.lang import parse_program
from repro.sampling.cache import TraceCache
from repro.utils.fingerprint import fingerprint_inputs, fingerprint_program

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


def test_fingerprint_inputs_order_and_value_sensitivity():
    assert fingerprint_inputs([{"a": 1, "b": 2}]) == fingerprint_inputs(
        [{"b": 2, "a": 1}]
    )
    assert fingerprint_inputs([{"a": 1}]) != fingerprint_inputs([{"a": 2}])
    assert fingerprint_inputs([{"a": 1}, {"a": 2}]) != fingerprint_inputs(
        [{"a": 2}, {"a": 1}]
    )


def test_traces_memoized_by_content():
    cache = TraceCache()
    program_a = parse_program(TINY_SOURCE)
    program_b = parse_program(TINY_SOURCE)  # distinct object, same source
    inputs = [{"n": 3}, {"n": 5}]
    first = cache.traces(program_a, inputs)
    second = cache.traces(program_b, inputs)
    assert second is first
    assert cache.stats.trace_hits == 1
    assert cache.stats.trace_misses == 1
    # Different inputs miss.
    cache.traces(program_a, [{"n": 4}])
    assert cache.stats.trace_misses == 2


def test_checker_traces_keyed_separately_from_sampler_traces():
    cache = TraceCache()
    program = parse_program(TINY_SOURCE)
    inputs = [{"n": 3}]
    cache.traces(program, inputs)
    sentinel: list = []
    got = cache.checker_traces(program, inputs, fuel=100_000, run=lambda: sentinel)
    assert got is sentinel  # did not reuse the sampler entry
    assert cache.stats.trace_misses == 2
    # Second checker call for the same key hits.
    again = cache.checker_traces(
        program, inputs, fuel=100_000, run=lambda: [object()]
    )
    assert again is sentinel
    assert cache.stats.trace_hits == 1


def test_lru_eviction_bounds_entries():
    cache = TraceCache(max_entries=2)
    program = parse_program(TINY_SOURCE)
    cache.traces(program, [{"n": 1}])
    cache.traces(program, [{"n": 2}])
    assert cache.stats.evictions == 0
    cache.traces(program, [{"n": 3}])  # evicts the n=1 entry
    assert len(cache) == 2
    assert cache.stats.evictions == 1
    cache.traces(program, [{"n": 1}])
    assert cache.stats.trace_hits == 0
    assert cache.stats.trace_misses == 4
    assert cache.stats.evictions == 2
    assert cache.stats.to_dict()["evictions"] == 2


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


def test_engine_attempts_perform_zero_redundant_collection():
    """Acceptance: attempts 2+ reuse traces and matrices entirely."""
    config = InferenceConfig(max_epochs=60, dropout_schedule=(0.6, 0.7, 0.5))
    engine = InferenceEngine(tiny_problem(), config)
    result = engine.run()
    assert not result.solved
    assert result.attempts == 3
    stats = engine.cache.stats
    # Exactly one state-dataset build, one underlying trace collection,
    # and one checker-side collection; attempts 2 and 3 are pure hits.
    assert stats.trace_misses == 3
    assert stats.trace_hits == result.attempts - 1 == 2
    assert stats.matrix_misses == 1
    assert stats.matrix_hits == result.attempts - 1 == 2
    assert result.cache_stats == stats.to_dict()


def test_shared_cache_across_engines():
    """A second engine for the same problem reuses everything."""
    cache = TraceCache()
    config = InferenceConfig(max_epochs=60, dropout_schedule=(0.6,))
    InferenceEngine(tiny_problem(), config, cache=cache).run()
    misses_after_first = cache.stats.trace_misses
    InferenceEngine(tiny_problem(), config, cache=cache).run()
    assert cache.stats.trace_misses == misses_after_first
