"""The end-to-end inference engine (Fig. 3 workflow + CEGIS retries).

Per attempt: collect traces → build candidate terms → train the G-CLN
equality model (and the PBQU inequality model when enabled) → extract
validated atoms → filter to the sound subset with the checker → stop
when the ground-truth invariant is implied (or, with no ground truth,
when the checker validates the conjunction).  Failed attempts retry
with the next dropout rate / seed and, for fractional problems, finer
sampling intervals.

The engine is a thin orchestrator: the retry policy lives in
:mod:`repro.infer.schedule`, the (memoized) data stages in
:mod:`repro.infer.stages`, and trace/matrix reuse in
:mod:`repro.sampling.cache`.  Attempts after the first perform no
redundant trace collection for an unchanged (inputs, interval) pair.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field
from typing import Generator

import numpy as np

from repro.api.events import (
    STAGES,
    AttemptStarted,
    Event,
    EventSink,
    StageTimed,
    emit_check_events,
    timed_stage,
)
from repro.autodiff.backend import resolve_backend_name
from repro.checker.result import CheckOutcome
from repro.checker.trace import make_checker
from repro.cln.bounds import BoundBank, enumerate_bound_masks, extract_bound_atoms, train_bound_bank
from repro.cln.extract import extract_equalities
from repro.cln.model import GCLN, complexity_term_weights
from repro.cln.train import RestartOutcome, train_gcln, train_gcln_restarts
from repro.errors import InferenceError, TrainingError
from repro.poly.reduce import inter_reduce, is_implied_equality, reduce_modulo
from repro.sampling.cache import TraceCache
from repro.smt.formula import TRUE, And, Atom, Formula
from repro.smt.printer import format_formula
from repro.smt.simplify import simplify
from repro.infer.config import InferenceConfig
from repro.infer.problem import Problem
from repro.infer.schedule import AttemptScheduler
from repro.infer.stages import (
    build_matrix,
    collect_states,
    derive_loop_rng,
    instantiate_fractional,
)


@dataclass
class TrainRequest:
    """One pending G-CLN training call, yielded by ``run_stepwise``.

    The engine suspends at each training step so a driver can decide
    *how* to run it: :meth:`InferenceEngine.run` executes requests
    immediately via :func:`execute_train_request`, while the
    cross-problem batcher (:mod:`repro.infer.batcher`) collects
    same-shape requests from several engines and trains them in one
    stacked call.  The driver responds with one
    :class:`~repro.cln.train.RestartOutcome` per model, in order.
    """

    problem: str
    loop_index: int
    models: list[GCLN]
    data: np.ndarray

    @property
    def batchable(self) -> bool:
        """Can these models join a cross-problem stacked batch?"""
        return all(
            m.batched_capable() and m.config.vectorized for m in self.models
        )


def execute_train_request(request: TrainRequest) -> list[RestartOutcome]:
    """Run one training request inline (no cross-problem batching)."""
    models = request.models
    if len(models) > 1 and request.batchable:
        return train_gcln_restarts(models, request.data)
    outcomes: list[RestartOutcome] = []
    for model in models:
        try:
            result = train_gcln(model, request.data)
            outcomes.append(RestartOutcome(result=result))
        except TrainingError as exc:
            outcomes.append(RestartOutcome(result=None, error=str(exc)))
    return outcomes


@dataclass
class LoopResult:
    """Inference outcome for one loop.

    ``rejected_atoms`` records every checker rejection across *all*
    attempts as ``(atom string, reason)`` pairs — rejected atoms are
    dropped from the candidate pool permanently, so the final attempt's
    ``candidate_atoms`` alone would under-report them.
    """

    loop_index: int
    invariant: Formula
    sound_atoms: list[Atom] = field(default_factory=list)
    candidate_atoms: list[Atom] = field(default_factory=list)
    rejected_atoms: list[tuple[str, str]] = field(default_factory=list)
    ground_truth_implied: bool = False

    def to_dict(self) -> dict:
        """JSON-serializable view (formulas/atoms as strings)."""
        return {
            "loop_index": self.loop_index,
            "invariant": format_formula(self.invariant),
            "sound_atoms": [str(a) for a in self.sound_atoms],
            "candidate_atoms": [str(a) for a in self.candidate_atoms],
            "rejected_atoms": [list(pair) for pair in self.rejected_atoms],
            "ground_truth_implied": self.ground_truth_implied,
        }


@dataclass
class InferenceResult:
    """Outcome of :func:`infer_invariants`."""

    problem_name: str
    solved: bool
    loops: list[LoopResult] = field(default_factory=list)
    runtime_seconds: float = 0.0
    attempts: int = 0
    notes: list[str] = field(default_factory=list)
    cache_stats: dict[str, int] = field(default_factory=dict)
    # Wall-clock seconds per pipeline stage, keyed by
    # repro.api.events.STAGES, summed over attempts.
    stage_timings: dict[str, float] = field(default_factory=dict)
    # Resolved tape-replay backend name the training loops used
    # ("fused"/"numpy"; see repro.autodiff.backend).
    backend: str = ""
    # Total G-CLN training epochs across every attempt/loop/model
    # (deterministic for a given config).
    train_epochs: int = 0
    # Checker mode the run used: "symbolic+bounded" (program-backed)
    # or the degraded "bounded-holdout" (trace-only problems; see
    # repro.checker.result).
    checking: str = ""

    def invariant(self, loop_index: int = 0) -> Formula:
        for loop in self.loops:
            if loop.loop_index == loop_index:
                return loop.invariant
        return TRUE

    def to_dict(self) -> dict:
        """JSON-serializable record of the run."""
        return {
            "problem": self.problem_name,
            "solved": self.solved,
            "attempts": self.attempts,
            "runtime_seconds": self.runtime_seconds,
            "notes": list(self.notes),
            "cache_stats": dict(self.cache_stats),
            "backend": self.backend,
            "train_epochs": self.train_epochs,
            "checking": self.checking,
            "stage_timings": {
                s: float(self.stage_timings.get(s, 0.0)) for s in STAGES
            },
            "loops": [loop.to_dict() for loop in self.loops],
        }


class InferenceEngine:
    """Runs the full inference workflow for one problem.

    Args:
        problem: the benchmark problem.
        config: pipeline knobs; defaults to the paper's full method.
        cache: trace/matrix memo shared across attempts; pass an
            existing instance to also share it across engines (e.g.
            repeated runs of one problem, or with the checker).
        events: optional sink for lifecycle events (AttemptStarted,
            StageTimed, CandidateChecked); the
            :class:`~repro.api.service.InvariantService` passes its
            event bus here.
    """

    SOLVER_NAME = "gcln"

    def __init__(
        self,
        problem: Problem,
        config: InferenceConfig | None = None,
        cache: TraceCache | None = None,
        events: EventSink | None = None,
    ):
        self.problem = problem
        self.config = config if config is not None else InferenceConfig()
        self.cache = cache if cache is not None else TraceCache()
        self._events = events
        # Program-backed problems get the full hybrid checker;
        # trace-only problems degrade to held-out recorded states.
        self._checker = make_checker(
            problem,
            cache=self.cache,
            memoize=self.config.checker_memoization,
        )

    # -- main loop -------------------------------------------------------------

    def _emit(self, event: Event) -> None:
        if self._events is not None:
            self._events(event)

    def run(self) -> InferenceResult:
        """Run the full workflow, executing training steps inline."""
        gen = self.run_stepwise()
        try:
            request = next(gen)
            while True:
                request = gen.send(execute_train_request(request))
        except StopIteration as stop:
            return stop.value

    def run_stepwise(
        self,
    ) -> Generator[TrainRequest, list[RestartOutcome], InferenceResult]:
        """The workflow as a generator that suspends at training calls.

        Yields a :class:`TrainRequest` for every G-CLN training step
        and expects the driver to ``send`` back one outcome per model;
        everything else (trace collection, bound fitting, extraction,
        checking, scheduling) runs inside the generator.  The return
        value is the same :class:`InferenceResult` ``run()`` produces.
        Under the cross-problem batcher the "train" stage timing spans
        the suspension, so it includes the shared stacked call (which
        also trains other problems' models): per-problem train timings
        overlap and may sum to more than wall-clock.
        """
        problem = self.problem
        config = self.config
        start = time.perf_counter()
        result = InferenceResult(
            problem_name=problem.name,
            solved=False,
            backend=resolve_backend_name(config.backend),
            checking=self._checker.checking,
        )
        totals = {stage: 0.0 for stage in STAGES}

        n_loops = problem.n_loops
        if n_loops == 0:
            raise InferenceError(f"problem {problem.name!r} has no loops")

        accumulated: dict[int, dict[str, Atom]] = {i: {} for i in range(n_loops)}
        # Checker rejections accumulated over every attempt (atom -> reason);
        # the per-attempt candidate pool drops them permanently.
        rejections: dict[int, dict[str, str]] = {i: {} for i in range(n_loops)}
        scheduler = AttemptScheduler(config, fractional=problem.fractional)

        def accumulate(loop_index: int, atoms) -> None:
            """Dedupe candidates across attempts before they reach the
            checker: an atom already rejected (or already accumulated)
            never re-enters the pool."""
            pool = accumulated[loop_index]
            rejected = rejections[loop_index]
            for atom in atoms:
                key = str(atom)
                if key not in rejected:
                    pool.setdefault(key, atom)

        solved = False
        for batch in scheduler.iter_batches(config.attempt_batch_size):
            attempt = batch[-1].index + 1
            for plan in batch:
                self._emit(
                    AttemptStarted(
                        problem=problem.name,
                        solver=self.SOLVER_NAME,
                        attempt=plan.index + 1,
                        dropout=plan.dropout,
                        fractional_interval=plan.fractional_interval,
                    )
                )
            timings = {stage: 0.0 for stage in STAGES}
            with timed_stage(timings, "collect"):
                # One call per plan for cache-stat parity with the
                # sequential schedule; all plans in a batch share the
                # fractional interval, so these are hits after the first.
                for plan in batch:
                    dataset = collect_states(
                        problem, config, plan.fractional_interval, self.cache
                    )

            for loop_index in range(n_loops):
                loop_states = dataset.states[loop_index]
                if len(loop_states) < 3:
                    continue
                with timed_stage(timings, "collect"):
                    for plan in batch:
                        bundle = build_matrix(
                            problem, config, dataset, loop_index, self.cache
                        )
                basis, data = bundle.basis, bundle.data
                accumulate(
                    loop_index,
                    instantiate_fractional(
                        bundle.degenerate, loop_states, dataset.fractional_vars
                    ),
                )
                weights = complexity_term_weights(
                    [m.degree for m in basis.monomials],
                    [len(m.variables) for m in basis.monomials],
                )

                # Build one model per scheduled attempt in the batch.
                entries: list[tuple] = []  # (plan, rng, model | None)
                for plan in batch:
                    rng = derive_loop_rng(plan.seed, loop_index)
                    gcln_config = config.gcln_for_attempt(plan.dropout)
                    try:
                        model = GCLN(
                            len(basis),
                            gcln_config,
                            rng,
                            protected_terms=[0],
                            term_weights=weights,
                        )
                    except TrainingError as exc:
                        result.notes.append(
                            f"loop {loop_index}: training failed: {exc}"
                        )
                        model = None
                    entries.append((plan, rng, model))

                models = [m for _, _, m in entries if m is not None]
                outcomes: dict[int, RestartOutcome] = {}
                if models:
                    with timed_stage(timings, "train"):
                        batch_outcomes = yield TrainRequest(
                            problem=problem.name,
                            loop_index=loop_index,
                            models=models,
                            data=data,
                        )
                    for model, outcome in zip(models, batch_outcomes):
                        outcomes[id(model)] = outcome
                        if outcome.error is not None or outcome.result is None:
                            continue
                        result.train_epochs += outcome.result.epochs

                for plan, rng, model in entries:
                    eq_atoms: list[Atom] = []
                    outcome = outcomes.get(id(model)) if model is not None else None
                    if model is not None and outcome.error is not None:
                        result.notes.append(
                            f"loop {loop_index}: training failed: {outcome.error}"
                        )
                    elif model is not None:
                        with timed_stage(timings, "extract"):
                            eq_atoms = extract_equalities(
                                model, basis, loop_states
                            )
                    with timed_stage(timings, "extract"):
                        accumulate(
                            loop_index,
                            instantiate_fractional(
                                eq_atoms, loop_states, dataset.fractional_vars
                            ),
                        )

                    if problem.learn_inequalities:
                        gcln_config = config.gcln_for_attempt(plan.dropout)
                        term_vars = [m.variables for m in basis.monomials]
                        term_degs = [m.degree for m in basis.monomials]
                        ge_atoms: list[Atom] = []
                        try:
                            with timed_stage(timings, "train"):
                                masks = enumerate_bound_masks(
                                    term_vars, term_degs, gcln_config
                                )
                                bank = BoundBank(masks, gcln_config, rng)
                                train_bound_bank(bank, data)
                            with timed_stage(timings, "extract"):
                                ge_atoms = extract_bound_atoms(
                                    bank, basis, loop_states, data
                                )
                        except TrainingError as exc:
                            result.notes.append(
                                f"loop {loop_index}: inequality training failed: {exc}"
                            )
                            ge_atoms = []
                        accumulate(loop_index, ge_atoms)

            # Soundness filtering + solved test.
            loop_results = []
            all_implied = True
            for loop_index in range(n_loops):
                candidates = list(accumulated[loop_index].values())
                with timed_stage(timings, "check"):
                    filtered = self._checker.filter_sound_atoms(
                        loop_index, candidates
                    )
                if self._events is not None:
                    emit_check_events(
                        self._events,
                        problem.name,
                        self.SOLVER_NAME,
                        loop_index,
                        filtered.sound,
                        filtered.rejected,
                    )
                for atom, reason in filtered.rejected:
                    rejections[loop_index].setdefault(str(atom), reason)
                # Drop rejected atoms permanently.
                sound_keys = {str(a) for a in filtered.sound}
                accumulated[loop_index] = {
                    k: v
                    for k, v in accumulated[loop_index].items()
                    if k in sound_keys
                }
                reduced = _reduce_redundant(filtered.sound)
                invariant = simplify(And(reduced)) if reduced else TRUE
                implied = _ground_truth_implied(
                    problem.ground_truth_atoms(loop_index), filtered.sound
                )
                loop_results.append(
                    LoopResult(
                        loop_index=loop_index,
                        invariant=invariant,
                        sound_atoms=filtered.sound,
                        candidate_atoms=candidates,
                        rejected_atoms=sorted(rejections[loop_index].items()),
                        ground_truth_implied=implied,
                    )
                )
                if problem.ground_truth.get(loop_index) and not implied:
                    all_implied = False
            result.loops = loop_results
            if all_implied and any(problem.ground_truth.values()):
                solved = True
            elif not any(problem.ground_truth.values()):
                # No ground truth: stop when the checker validates the
                # conjunction (and something was learned).  Trace-only
                # problems have no asserts to check against.
                posts = (
                    [s.cond for s in problem.program.asserts]
                    if problem.program_backed
                    else []
                )
                with timed_stage(timings, "check"):
                    report = self._checker.check_invariant(
                        n_loops - 1, result.loops[-1].invariant, posts
                    )
                if (
                    report.outcome is CheckOutcome.VALID
                    and result.loops[-1].sound_atoms
                ):
                    solved = True
            for stage in STAGES:
                totals[stage] += timings[stage]
                self._emit(
                    StageTimed(
                        problem=problem.name,
                        solver=self.SOLVER_NAME,
                        stage=stage,
                        seconds=timings[stage],
                        attempt=attempt,
                    )
                )
            if solved:
                scheduler.stop()

        result.solved = solved
        result.attempts = scheduler.attempts_made
        result.runtime_seconds = time.perf_counter() - start
        result.cache_stats = self.cache.stats.to_dict()
        result.stage_timings = totals
        return result


def _reduce_redundant(atoms: list[Atom]) -> list[Atom]:
    """Drop equality atoms implied by simpler ones (graded-lex reduction)."""
    equalities = [a for a in atoms if a.op == "=="]
    others = [a for a in atoms if a.op != "=="]
    ordered = sorted(
        equalities, key=lambda a: (a.poly.degree, len(a.poly.terms))
    )
    kept: list[Atom] = []
    for atom in ordered:
        basis = inter_reduce([k.poly for k in kept]) if kept else []
        if basis and reduce_modulo(atom.poly, basis).is_zero():
            continue
        kept.append(atom)
    return kept + others


def _ground_truth_implied(truth: list[Atom], sound: list[Atom]) -> bool:
    """Is every ground-truth atom implied by the sound learned atoms?

    Equalities use graded-lex reduction modulo the learned equality
    polynomials; inequalities require a syntactically matching learned
    atom (same primitive polynomial and compatible operator).
    """
    if not truth:
        return True
    eq_basis = [a.poly for a in sound if a.op == "=="]
    for atom in truth:
        if atom.op == "==":
            if not is_implied_equality(atom.poly, eq_basis):
                return False
        else:
            target = str(atom.poly)
            matched = False
            for candidate in sound:
                if candidate.op == atom.op and str(candidate.poly) == target:
                    matched = True
                    break
                if candidate.op == "==" and (
                    str(candidate.poly.primitive()) == str(atom.poly.primitive())
                ):
                    matched = True
                    break
            if not matched:
                return False
    return True


def infer_invariants(
    problem: Problem,
    config: InferenceConfig | None = None,
    cache: TraceCache | None = None,
) -> InferenceResult:
    """Run the G-CLN solver once for ``problem``.

    .. deprecated::
        Use :class:`repro.api.InvariantService` (or
        ``repro.api.get_solver("gcln")``) instead; this wrapper now
        delegates to the service and returns the underlying
        :class:`InferenceResult` for backward compatibility.
    """
    warnings.warn(
        "infer_invariants() is deprecated; use "
        "repro.api.InvariantService().solve(problem) instead",
        DeprecationWarning,
        stacklevel=2,
    )
    from repro.api.adapters import GCLNSolver
    from repro.api.service import InvariantService
    from repro.api.solver import solver_entries

    entries = {e.name: e for e in solver_entries()}
    if entries.get("gcln") is None or entries["gcln"].factory is not GCLNSolver:
        # The "gcln" registration was replaced with a strategy that may
        # not carry a native InferenceResult; legacy callers need the
        # real engine output, so run it directly (once).
        return InferenceEngine(problem, config, cache=cache).run()
    service = InvariantService(config=config, cache=cache)
    result = service.solve(problem, solver="gcln")
    assert isinstance(result.raw, InferenceResult)  # stock adapter sets raw
    return result.raw
