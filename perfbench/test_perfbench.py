"""Tests for the benchmark's own helpers (not for the program).

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from metrics import END_TO_END, NAME, PER_LAYER, count_failed, end_to_end, harness_layers
from tracing import SPAN_NAMES, Span, Tracer, layer_metrics, self_times
from workloads import WORKLOADS, ordered, train_seeds

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

SQUARES = """
program squares;
input n;
assume (n >= 0);
i = 0; s = 0;
while (i < n) { i = i + 1; s = s + 2 * i - 1; }
"""


def _problem():
    from repro.infer.problem import Problem

    return Problem(name="squares", source=SQUARES, train_inputs=[{"n": n} for n in range(6)])


def _record(name, status="ok", solved=False, runtime=1.0, **timings):
    return {"name": name, "status": status, "solved": solved, "runtime_seconds": runtime,
            "attempts": 1, "train_epochs": 10, "stage_timings": timings}


def test_self_time_subtracts_children_once():
    spans = [
        Span("solve", 0.0, 10.0),
        Span("check.filter", 1.0, 5.0, parent=0),
        Span("check.inductive", 2.0, 4.0, parent=1),
        Span("lang.block", 3.0, 3.5, parent=2),
        Span("train.gcln", 6.0, 9.0, parent=0),
        Span("extract.validate", 7.0, 8.0, parent=4),
        Span("extract.validate", 7.5, 8.5, parent=4),  # overlaps its sibling
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.5, 0.5, 1.5, 1.0, 1.0])


def test_self_time_clips_children_to_the_parent():
    spans = [Span("solve", 0.0, 2.0), Span("lang.run", 1.5, 3.0, parent=0)]
    assert self_times(spans) == pytest.approx([1.5, 1.5])


def test_tracer_records_parents_problems_and_errors_then_restores():
    class Layer:
        def outer(self, problem):
            return self.inner()

        def inner(self):
            raise KeyError("boom")

    tracer = Tracer()
    original = Layer.__dict__["inner"]
    tracer.patch(Layer, "outer", lambda f: tracer.traced("solve", f, problem_of=lambda s, p: p))
    tracer.patch(Layer, "inner", lambda f: tracer.traced("lang.block", f))
    with pytest.raises(KeyError):
        Layer().outer("p1")
    outer, inner = tracer.spans
    assert (outer.parent, inner.parent) == (None, 0)
    assert (outer.problem, inner.problem, tracer.problem) == ("p1", "p1", None)
    assert (outer.error, inner.error) == ("KeyError", "KeyError")
    tracer.restore()
    assert Layer.__dict__["inner"] is original


def test_recheck_accepts_sound_atoms_and_reports_a_false_one():
    from recheck import recheck

    problem = _problem()
    assert recheck(problem, [{"loop_index": 0, "sound_atoms": ["i^2 - s == 0", "n - i >= 0"]}]) == []
    failures = recheck(problem, [{"loop_index": 0, "sound_atoms": ["s - i == 0"]}])
    assert len(failures) == 1
    assert failures[0].startswith("squares: s - i == 0 fails at {")


def test_failed_counts_timeout_error_and_recheck_failure():
    from recheck import recheck

    assert recheck(_problem(), [{"loop_index": 0, "sound_atoms": ["s - i == 0"]}])
    records = [
        _record("slow", status="timeout"),
        _record("crash", status="error"),
        _record("squares", solved=True),
        _record("fine", solved=True),
        _record("unsolved"),
    ]
    assert count_failed(records, {"squares"}) == 3
    assert count_failed(records, set()) == 2


def test_end_to_end_takes_medians_and_guards_zero_solved():
    passes = [
        {"suite_s": s, "cpu_s": 2 * s, "peak_rss_mb": 50.0, "records": [_record("a", solved=True), _record("b")]}
        for s in (10.0, 12.0, 11.0)
    ]
    values = end_to_end(passes, [0.3, 0.5, 0.4])
    assert values == {"suite_s": 11.0, "s_per_solved": 11.0, "solved": 1, "cpu_s": 22.0,
                      "peak_rss_mb": 50.0, "setup_s": 0.4}
    nothing = [{**passes[0], "records": [_record("b")]}]
    assert end_to_end(nothing, [0.3])["s_per_solved"] == 10.0


def test_every_metric_name_is_valid_and_emitted():
    untraced = {"suite_s": 5.0, "jobs": 2, "records": [_record("sqrt1", runtime=4.0, check=3.0, train=1.0),
                                                        _record("x", runtime=4.0)]}
    layers = layer_metrics(Tracer(), {})
    traced = {"records": [_record("sqrt1", runtime=4.5), _record("x", runtime=4.1)],
              "layers": {**layers, "trace.overhead_s": 0.4}}
    values = {**layers, **harness_layers(untraced, traced)}
    assert set(values) == set(PER_LAYER)
    assert layers["trace.overhead_s"] == 0.0
    assert values["runner.dispatch_s"] == pytest.approx(1.0)
    assert values["trace.overhead_frac"] == pytest.approx(0.05)
    assert values["trace.vs_untraced_s"] == pytest.approx(0.6)
    assert values["problem.sqrt1.check_s"] == 3.0
    assert values["problem.geo1.s"] == 0.0
    names = list(END_TO_END) + list(PER_LAYER) + list(WORKLOADS) + list(SPAN_NAMES)
    assert all(NAME.match(name) for name in names), [n for n in names if not NAME.match(n)]


def test_benchmark_json_matches_the_metric_and_workload_tables():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]} == {
        name: spec[:2] for name, spec in PER_LAYER.items()
    }
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()
    }


def test_seed_shuffles_but_keeps_heavy_problems_first():
    workload = WORKLOADS["code2inv"]
    names = [f"c2i_pair_{i}" for i in range(6)] + ["c2i_bound_1", "c2i_bound_2"]
    first = ordered(names, workload, seed=3)
    assert first == ordered(names, workload, seed=3)
    assert sorted(first) == sorted(names)
    assert {n for n in first[:2]} == {"c2i_bound_1", "c2i_bound_2"}
    assert any(ordered(names, workload, seed=s) != first for s in range(4, 10))
    assert train_seeds(1) == (1, 2, 3, 4)
