"""Metric definitions and the arithmetic from solve records to metrics.

``BENCHMARK.json`` lists the metrics the driver reads; this module is
where each one is computed, and ``PER_LAYER`` also records which
end-to-end metric a per-layer metric should move, on which workload.
The tests check that the two lists agree.
"""

from __future__ import annotations

import re
import statistics

from tracing import SPAN_NAMES
from workloads import WORKLOADS

NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")

STATUS_ERROR = "error"
STATUS_TIMEOUT = "timeout"

# name -> unit, measured with tracing off.
END_TO_END = {
    "suite_s": "s",
    "s_per_solved": "s",
    "solved": "count",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# NLA problems that get per-problem metrics (0 on other workloads).
PROBLEM_METRICS = ("s", "check_s", "train_s")
NLA_PROBLEMS = tuple(n for w in WORKLOADS.values() for n in w.problems)

_C2I = "suite_s on code2inv"
_CHECK = "suite_s, s_per_solved on nla-check"
_TRAIN = "suite_s on nla-train"

# name -> (unit, better, which end-to-end metric it should move, where).
PER_LAYER = {
    "runner.dispatch_s": ("s", "lower", _C2I + "; 0 by construction on nla-*"),
    "collect.states_s": ("s", "lower", _C2I + ", nla-train"),
    "collect.states_calls": ("count", "lower", _C2I + ", nla-train"),
    "collect.matrix_s": ("s", "lower", _C2I + ", nla-train"),
    "collect.matrix_calls": ("count", "lower", _C2I + ", nla-train"),
    "collect.cache_hit_ratio": ("ratio", "higher", _C2I + ", nla-train"),
    "lang.run_s": ("s", "lower", _CHECK),
    "lang.run_calls": ("count", "lower", _CHECK),
    "lang.block_s": ("s", "lower", _CHECK + "; peak_rss_mb there"),
    "lang.block_calls": ("count", "lower", _CHECK),
    "lang.fuel_exhausted": ("count", "lower", _CHECK + "; peak_rss_mb there"),
    "train.s": ("s", "lower", _TRAIN + "; suite_s, cpu_s on code2inv"),
    "train.calls": ("count", "lower", _TRAIN + "; suite_s, cpu_s on code2inv"),
    "train.models": ("count", "lower", _TRAIN + "; suite_s, cpu_s on code2inv"),
    "train.epochs": ("count", "lower", _TRAIN + "; suite_s, cpu_s on code2inv"),
    "train.epochs_per_s": ("1/s", "higher", _TRAIN + "; suite_s, cpu_s on code2inv"),
    "train.bound_s": ("s", "lower", "suite_s, cpu_s on code2inv (c2i_bound)"),
    "train.bound_calls": ("count", "lower", "suite_s, cpu_s on code2inv (c2i_bound)"),
    "extract.eq_s": ("s", "lower", _TRAIN),
    "extract.eq_calls": ("count", "lower", _TRAIN),
    "extract.bound_s": ("s", "lower", _TRAIN + ", code2inv"),
    "extract.validate_s": ("s", "lower", _TRAIN),
    "extract.validate_calls": ("count", "lower", _TRAIN),
    "check.filter_s": ("s", "lower", _CHECK),
    "check.filter_calls": ("count", "lower", _CHECK),
    "check.invariant_s": ("s", "lower", _CHECK),
    "check.traces_s": ("s", "lower", _CHECK),
    "check.reach_s": ("s", "lower", _CHECK),
    "check.reach_calls": ("count", "lower", _CHECK),
    "check.inductive_s": ("s", "lower", _CHECK + "; peak_rss_mb there"),
    "check.inductive_calls": ("count", "lower", _CHECK + "; peak_rss_mb there"),
    "check.symbolic_s": ("s", "lower", _CHECK),
    "check.symbolic_calls": ("count", "lower", _CHECK),
    "check.symbolic_valid_ratio": ("ratio", "higher", _CHECK),
    "check.post_s": ("s", "lower", _CHECK),
    "check.atoms_in": ("count", "lower", _CHECK),
    "check.atoms_sound": ("count", "higher", _CHECK),
    "check.sound_ratio": ("ratio", "higher", _CHECK),
    "check.memo_hits": ("count", "higher", _CHECK),
    "check.counterexamples": ("count", "lower", _CHECK),
    "smt.evaluate_calls": ("count", "lower", _CHECK + " (ps2, sqrt1)"),
    "poly.evaluate_calls": ("count", "lower", _CHECK + " (ps2, sqrt1)"),
    "trace.spans": ("count", "lower", "none: size of the trace"),
    "trace.overhead_s": ("s", "lower", "none: wrapper cost, calibrated on a no-op"),
    "trace.overhead_frac": ("ratio", "lower", "none: trace.overhead_s over untraced solve seconds"),
    "trace.vs_untraced_s": ("s", "lower", "none: traced minus untraced solve seconds, noise included"),
}
PER_LAYER.update(
    (f"self.{name}_s", ("s", "lower", "suite_s where the layer runs; self time"))
    for name in SPAN_NAMES
)
PER_LAYER.update(
    (f"problem.{name}.{part}", ("s", "lower", f"suite_s on the workload holding {name}"))
    for name in NLA_PROBLEMS
    for part in PROBLEM_METRICS
)


def is_failed(record: dict, recheck_failed: set[str]) -> bool:
    """Error and timeout records fail, and so does a solved record
    whose sound atoms fail the independent re-check."""
    if record["status"] in (STATUS_ERROR, STATUS_TIMEOUT):
        return True
    return record["solved"] and record["name"] in recheck_failed


def count_failed(records: list[dict], recheck_failed: set[str]) -> int:
    return sum(is_failed(r, recheck_failed) for r in records)


def end_to_end(passes: list[dict], setup_samples: list[float]) -> dict[str, float]:
    """Medians over the untraced passes, plus the median set-up time."""

    def median(key):
        return statistics.median(p[key] for p in passes)

    solved = statistics.median(sum(r["solved"] for r in p["records"]) for p in passes)
    return {
        "suite_s": median("suite_s"),
        # With nothing solved this degrades to suite_s rather than failing.
        "s_per_solved": statistics.median(
            p["suite_s"] / max(1, sum(r["solved"] for r in p["records"])) for p in passes
        ),
        "solved": solved,
        "cpu_s": median("cpu_s"),
        "peak_rss_mb": median("peak_rss_mb"),
        "setup_s": statistics.median(setup_samples),
    }


def harness_layers(untraced: dict, traced: dict) -> dict[str, float]:
    """Per-layer metrics that need the untraced pass.

    ``runner.dispatch_s`` is suite time not spent inside any problem
    (per pool slot).  The tracing overhead is set against the untraced
    pass's summed per-problem seconds.
    """
    base = sum(r["runtime_seconds"] for r in untraced["records"])
    traced_s = sum(r["runtime_seconds"] for r in traced["records"])
    out = {
        "runner.dispatch_s": untraced["suite_s"] - base / untraced["jobs"],
        "trace.overhead_frac": traced["layers"]["trace.overhead_s"] / base if base else 0.0,
        "trace.vs_untraced_s": traced_s - base,
    }
    by_name = {r["name"]: r for r in untraced["records"]}
    for name in NLA_PROBLEMS:
        record = by_name.get(name)
        timings = record["stage_timings"] if record else {}
        out[f"problem.{name}.s"] = record["runtime_seconds"] if record else 0.0
        out[f"problem.{name}.check_s"] = timings.get("check", 0.0)
        out[f"problem.{name}.train_s"] = timings.get("train", 0.0)
    return out
