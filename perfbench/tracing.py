"""Per-layer tracing from outside the program.

The traced run wraps public functions at the module attributes their
callers look up (``repro.infer.pipeline.train_gcln``,
``InvariantChecker.filter_sound_atoms``, ...), so nothing under
``src/`` changes.  Each wrapped call records one :class:`Span`: its
name, start, end, the span open when it started (its parent), and the
problem being solved.  Hot calls (formula and polynomial evaluation)
are counted, not timed, because a span per call would swamp the trace.
Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import json
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable

# Every span name the wrappers record, in layer order.
SPAN_NAMES = (
    "solve",
    "collect.states",
    "collect.matrix",
    "lang.run",
    "lang.block",
    "train.gcln",
    "train.restarts",
    "train.bound",
    "extract.eq",
    "extract.bound",
    "extract.validate",
    "check.filter",
    "check.invariant",
    "check.traces",
    "check.reach",
    "check.inductive",
    "check.symbolic",
    "check.post",
)

# Calls that are counted, not timed (a span each would swamp the trace).
COUNTED = ("smt.evaluate_calls", "poly.evaluate_calls")


class Span:
    """One wrapped call: ``parent`` is an index into the span list."""

    __slots__ = ("name", "start", "end", "parent", "problem", "error")

    def __init__(self, name, start, end, parent=None, problem=None, error=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.problem = problem
        self.error = error

    def to_list(self) -> list:
        return [self.name, self.start, self.end, self.parent, self.problem, self.error]


class Tracer:
    """Records spans and counts from wrapped functions (one thread)."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.problem: str | None = None
        self._open: list[int] = []
        self._undo: list[Callable[[], None]] = []

    def traced(self, name: str, fn, after=None, problem_of=None):
        """Wrap ``fn`` so every call records a span named ``name``.

        ``after(counts, result, *args, **kwargs)`` runs on each
        successful return; ``problem_of(*args, **kwargs)`` names the
        problem this call (and every span under it) belongs to.
        """
        spans, open_spans = self.spans, self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer_problem = self.problem
            if problem_of is not None:
                self.problem = problem_of(*args, **kwargs)
            span = Span(name, 0.0, 0.0, open_spans[-1] if open_spans else None, self.problem)
            open_spans.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = perf_counter()
                open_spans.pop()
                self.problem = outer_problem
            if after is not None:
                after(self.counts, result, *args, **kwargs)
            return result

        return wrapper

    def counted(self, name: str, fn):
        """Wrap ``fn`` so every call only bumps ``counts[name]``."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def patch(self, owner, attr: str, make: Callable) -> None:
        """Replace ``owner.attr`` with ``make(original)`` until :meth:`restore`."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, make(original))
        self._undo.append(lambda: setattr(owner, attr, original))

    def restore(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._undo:
            self._undo.pop()()

    def write(self, path) -> None:
        """Write the spans once, one JSON list per line."""
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span.to_list()) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part its direct children cover.

    Spans are listed in start order (a child always after its parent),
    so each parent's children arrive sorted by start and their union
    is merged in one pass; overlapping children count once.
    """
    covered = [0.0] * len(spans)
    reach = [float("-inf")] * len(spans)  # end of the merged children so far
    for span in spans:
        p = span.parent
        if p is None:
            continue
        parent = spans[p]
        lo = max(span.start, parent.start, reach[p])
        hi = min(span.end, parent.end)
        if hi > lo:
            covered[p] += hi - lo
        reach[p] = max(reach[p], hi)
    return [s.end - s.start - c for s, c in zip(spans, covered)]


def overhead_s(tracer: Tracer, repeats: int = 50_000) -> float:
    """Estimated seconds the wrappers added to the traced run.

    Each span and each counted call is charged what wrapping a no-op
    costs here.  The difference between a traced and an untraced pass
    is also reported, but run-to-run noise is larger than this.
    """
    probe = Tracer()

    def noop():
        return None

    def per_call(fn) -> float:
        start = perf_counter()
        for _ in range(repeats):
            fn()
        return (perf_counter() - start) / repeats

    bare = per_call(noop)
    span_cost = per_call(probe.traced("probe", noop)) - bare
    count_cost = per_call(probe.counted("probe", noop)) - bare
    counted = sum(tracer.counts[name] for name in COUNTED)
    return len(tracer.spans) * span_cost + counted * count_cost


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def install_layers(tracer: Tracer) -> None:
    """Wrap each layer's public functions where their callers find them."""
    from repro.api.service import InvariantService
    from repro.checker import vc
    from repro.checker.bounded import BoundedChecker
    from repro.checker.result import CheckOutcome
    from repro.cln import bounds, extract
    from repro.infer import pipeline, stages
    from repro.lang.interp import Interpreter
    from repro.poly.polynomial import Polynomial
    from repro.smt.formula import Atom

    def one_model(counts, result, *args, **kwargs):
        counts["train.models"] += 1
        counts["train.epochs"] += result.epochs

    def many_models(counts, outcomes, *args, **kwargs):
        counts["train.models"] += len(outcomes)
        counts["train.epochs"] += sum(o.result.epochs for o in outcomes if o.result is not None)

    def symbolic(counts, verdict, *args, **kwargs):
        counts["check.symbolic_valid"] += verdict is CheckOutcome.VALID

    def filtered(counts, result, *args, **kwargs):
        # Every candidate ends up sound or rejected exactly once.
        counts["check.atoms_in"] += len(result.sound) + len(result.rejected)
        counts["check.atoms_sound"] += len(result.sound)
        counts["check.counterexamples"] += len(result.counterexamples)

    def reported(counts, report, *args, **kwargs):
        counts["check.counterexamples"] += len(report.counterexamples)

    def with_memo_hits(name, after):
        # InvariantChecker.memo_hits is per checker; sum what each call adds.
        def make(fn):
            @functools.wraps(fn)
            def wrapper(checker, *args, **kwargs):
                before = checker.memo_hits
                try:
                    return fn(checker, *args, **kwargs)
                finally:
                    tracer.counts["check.memo_hits"] += checker.memo_hits - before

            return span(name, wrapper, after=after)

        return make

    def validators(fn):
        @functools.wraps(fn)
        def make_validator(*args, **kwargs):
            return span("extract.validate", fn(*args, **kwargs))

        return make_validator

    span = tracer.traced
    tracer.patch(InvariantService, "solve", lambda f: span(
        "solve", f, problem_of=lambda service, problem, *a, **k: problem.name))
    for attr, name, after in (
        ("collect_states", "collect.states", None),
        ("build_matrix", "collect.matrix", None),
        ("train_gcln", "train.gcln", one_model),
        ("train_gcln_restarts", "train.restarts", many_models),
        ("train_bound_bank", "train.bound", None),
        ("extract_equalities", "extract.eq", None),
        ("extract_bound_atoms", "extract.bound", None),
    ):
        tracer.patch(pipeline, attr, lambda f, n=name, a=after: span(n, f, after=a))
    for module in (extract, bounds, stages):
        tracer.patch(module, "make_exact_validator", validators)
    tracer.patch(Interpreter, "run", lambda f: span("lang.run", f))
    tracer.patch(Interpreter, "execute_block", lambda f: span("lang.block", f))
    tracer.patch(vc.InvariantChecker, "filter_sound_atoms", with_memo_hits("check.filter", filtered))
    tracer.patch(vc.InvariantChecker, "check_invariant", with_memo_hits("check.invariant", reported))
    tracer.patch(vc, "equality_inductive_symbolic", lambda f: span(
        "check.symbolic", f, after=symbolic))
    for attr, name in (
        ("run_traces", "check.traces"),
        ("holds_on_reachable", "check.reach"),
        ("inductive_bounded", "check.inductive"),
        ("postcondition_bounded", "check.post"),
    ):
        tracer.patch(BoundedChecker, attr, lambda f, n=name: span(n, f))
    tracer.patch(Atom, "evaluate", lambda f: tracer.counted(COUNTED[0], f))
    tracer.patch(Polynomial, "evaluate", lambda f: tracer.counted(COUNTED[1], f))


def layer_metrics(tracer: Tracer, cache_stats: dict) -> dict[str, float]:
    """The traced run's per-layer metrics (see ``metrics.PER_LAYER``)."""
    calls: Counter = Counter()
    total: defaultdict = defaultdict(float)
    own: defaultdict = defaultdict(float)
    fuel = 0
    for span, self_s in zip(tracer.spans, self_times(tracer.spans)):
        calls[span.name] += 1
        total[span.name] += span.end - span.start
        own[span.name] += self_s
        fuel += span.error == "FuelExhausted"
    c = tracer.counts
    hits = cache_stats.get("trace_hits", 0) + cache_stats.get("matrix_hits", 0)
    misses = cache_stats.get("trace_misses", 0) + cache_stats.get("matrix_misses", 0)
    train_s = total["train.gcln"] + total["train.restarts"]
    out = {
        "collect.states_s": total["collect.states"],
        "collect.states_calls": calls["collect.states"],
        "collect.matrix_s": total["collect.matrix"],
        "collect.matrix_calls": calls["collect.matrix"],
        "collect.cache_hit_ratio": _ratio(hits, hits + misses),
        "lang.run_s": total["lang.run"],
        "lang.run_calls": calls["lang.run"],
        "lang.block_s": total["lang.block"],
        "lang.block_calls": calls["lang.block"],
        "lang.fuel_exhausted": fuel,
        "train.s": train_s,
        "train.calls": calls["train.gcln"] + calls["train.restarts"],
        "train.models": c["train.models"],
        "train.epochs": c["train.epochs"],
        "train.epochs_per_s": _ratio(c["train.epochs"], train_s),
        "train.bound_s": total["train.bound"],
        "train.bound_calls": calls["train.bound"],
        "extract.eq_s": total["extract.eq"],
        "extract.eq_calls": calls["extract.eq"],
        "extract.bound_s": total["extract.bound"],
        "extract.validate_s": total["extract.validate"],
        "extract.validate_calls": calls["extract.validate"],
        "check.filter_s": total["check.filter"],
        "check.filter_calls": calls["check.filter"],
        "check.invariant_s": total["check.invariant"],
        "check.traces_s": total["check.traces"],
        "check.reach_s": total["check.reach"],
        "check.reach_calls": calls["check.reach"],
        "check.inductive_s": total["check.inductive"],
        "check.inductive_calls": calls["check.inductive"],
        "check.symbolic_s": total["check.symbolic"],
        "check.symbolic_calls": calls["check.symbolic"],
        "check.symbolic_valid_ratio": _ratio(c["check.symbolic_valid"], calls["check.symbolic"]),
        "check.post_s": total["check.post"],
        "check.atoms_in": c["check.atoms_in"],
        "check.atoms_sound": c["check.atoms_sound"],
        "check.sound_ratio": _ratio(c["check.atoms_sound"], c["check.atoms_in"]),
        "check.memo_hits": c["check.memo_hits"],
        "check.counterexamples": c["check.counterexamples"],
        "smt.evaluate_calls": c["smt.evaluate_calls"],
        "poly.evaluate_calls": c["poly.evaluate_calls"],
        "trace.spans": len(tracer.spans),
        "trace.overhead_s": overhead_s(tracer),
    }
    out.update((f"self.{name}_s", own[name]) for name in SPAN_NAMES)
    return out
