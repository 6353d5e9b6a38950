"""The end-to-end inference engine (Fig. 3 workflow + CEGIS retries).

Per attempt: collect traces → build candidate terms → train the G-CLN
equality model (and the PBQU inequality model when enabled) → extract
validated atoms → filter to the sound subset with the checker → stop
when the ground-truth invariant is implied (or, with no ground truth,
when the checker validates the conjunction).  Failed attempts retry
with the next dropout rate / seed and, for fractional problems, finer
sampling intervals.

The filter-and-score half of an attempt is :func:`check_and_score`,
which every baseline solver calls too, and the engine returns the
registry-wide :class:`~repro.api.solver.SolveResult` itself.

The engine is a thin orchestrator: the retry policy lives in
:mod:`repro.infer.schedule`, the (memoized) data stages in
:mod:`repro.infer.stages`, and trace/matrix reuse in
:mod:`repro.sampling.cache`.  Attempts after the first perform no
redundant trace collection for an unchanged (inputs, interval) pair.
"""

from __future__ import annotations

import time

import numpy as np

from repro.api.events import (
    STAGES,
    AttemptStarted,
    CandidateChecked,
    Event,
    EventSink,
    StageTimed,
    timed_stage,
)
from repro.api.solver import GCLN_SOLVER, LoopReport, SolveResult
from repro.checker.result import CheckOutcome
from repro.checker.trace import RecordedChecker, make_checker
from repro.checker.vc import InvariantChecker
from repro.cln.bounds import BoundBank, enumerate_bound_masks, extract_bound_atoms, train_bound_bank
from repro.cln.extract import extract_equalities
from repro.cln.model import GCLN, complexity_term_weights
from repro.cln.train import RestartOutcome, train_gcln, train_gcln_restarts
from repro.errors import InferenceError, TrainingError
from repro.poly.reduce import inter_reduce, is_implied_equality, reduce_modulo
from repro.sampling.cache import TraceCache
from repro.smt.formula import TRUE, And, Atom
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


def _train_attempt_models(
    models: list[GCLN], data: np.ndarray
) -> list[RestartOutcome]:
    """Train one attempt batch's models on one loop's data matrix.

    Batched-capable models share one taped graph
    (:func:`train_gcln_restarts`); otherwise each trains alone.
    Returns one outcome per model, in order.
    """
    if len(models) > 1 and all(m.batched_capable() for m in models):
        return train_gcln_restarts(models, data)
    outcomes: list[RestartOutcome] = []
    for model in models:
        try:
            result = train_gcln(model, data)
            outcomes.append(RestartOutcome(result=result))
        except TrainingError as exc:
            outcomes.append(RestartOutcome(result=None, error=str(exc)))
    return outcomes


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

    def run(self) -> SolveResult:
        """Run the full workflow for the problem, training inline."""
        problem = self.problem
        config = self.config
        start = time.perf_counter()
        result = SolveResult(
            solver=GCLN_SOLVER,
            problem=problem.name,
            solved=False,
            checking=self._checker.checking,
        )
        totals = {stage: 0.0 for stage in STAGES}

        n_loops = problem.n_loops
        if n_loops == 0:
            raise InferenceError(f"problem {problem.name!r} has no loops")

        accumulated: dict[int, dict[str, Atom]] = {i: {} for i in range(n_loops)}
        # Checker rejections accumulated over every attempt (atom -> reason);
        # the per-attempt candidate pool drops them permanently.
        rejections: list[dict[str, str]] = [{} for _ in range(n_loops)]
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
                        solver=GCLN_SOLVER,
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
                        batch_outcomes = _train_attempt_models(models, data)
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

            loops, solved = check_and_score(
                problem,
                self._checker,
                [list(accumulated[i].values()) for i in range(n_loops)],
                rejections,
                timings,
                self._events,
            )
            for loop in loops:
                # Drop rejected atoms permanently.
                sound_keys = set(loop.sound_atoms)
                accumulated[loop.loop_index] = {
                    k: v
                    for k, v in accumulated[loop.loop_index].items()
                    if k in sound_keys
                }
            result.loops = loops
            for stage in STAGES:
                totals[stage] += timings[stage]
                self._emit(
                    StageTimed(
                        problem=problem.name,
                        solver=GCLN_SOLVER,
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


def check_and_score(
    problem: Problem,
    checker: InvariantChecker | RecordedChecker,
    candidates: list[list[Atom]],
    rejections: list[dict[str, str]],
    timings: dict[str, float],
    events: EventSink | None,
    solver: str = GCLN_SOLVER,
) -> tuple[list[LoopReport], bool]:
    """Filter each loop's candidates to the sound subset and score the attempt.

    The one scoring step every solver shares.  Per loop: keep the atoms
    the checker validates (emitting one :class:`CandidateChecked` per
    verdict), record each rejection in ``rejections[loop]`` (first
    reason wins, so callers can accumulate across attempts), reduce the
    sound equalities, and test the documented ground truth.  The attempt
    is solved when every documented loop invariant is implied, or — for
    a problem with no ground truth — when the checker validates the last
    loop's conjunction against the program's asserts and that
    conjunction is non-empty.  ``check_invariant`` runs whenever there
    is no ground truth, even on an empty conjunction: the checker's
    perturbation RNG is shared across calls, so skipping one would shift
    every later bounded verdict.
    """
    loops: list[LoopReport] = []
    all_implied = True
    invariant = TRUE
    for loop_index, loop_candidates in enumerate(candidates):
        with timed_stage(timings, "check"):
            filtered = checker.filter_sound_atoms(loop_index, loop_candidates)
        if events is not None:
            verdicts = [(atom, None) for atom in filtered.sound]
            for atom, reason in verdicts + list(filtered.rejected):
                events(
                    CandidateChecked(
                        problem=problem.name,
                        solver=solver,
                        loop_index=loop_index,
                        atom=str(atom),
                        sound=reason is None,
                        reason=reason,
                    )
                )
        for atom, reason in filtered.rejected:
            rejections[loop_index].setdefault(str(atom), reason)
        reduced = _reduce_redundant(filtered.sound)
        invariant = simplify(And(reduced)) if reduced else TRUE
        implied = _ground_truth_implied(
            problem.ground_truth_atoms(loop_index), filtered.sound
        )
        if problem.ground_truth.get(loop_index) and not implied:
            all_implied = False
        loops.append(
            LoopReport(
                loop_index=loop_index,
                invariant=format_formula(invariant),
                sound_atoms=[str(a) for a in filtered.sound],
                candidate_atoms=[str(a) for a in loop_candidates],
                rejected_atoms=[
                    [atom, reason]
                    for atom, reason in sorted(rejections[loop_index].items())
                ],
                ground_truth_implied=implied,
            )
        )
    if any(problem.ground_truth.values()):
        return loops, all_implied
    # No ground truth: solved when the checker validates the conjunction
    # (and something was learned).  Trace-only problems have no asserts
    # to check against.
    posts = (
        [s.cond for s in problem.program.asserts]
        if problem.program_backed
        else []
    )
    with timed_stage(timings, "check"):
        report = checker.check_invariant(len(candidates) - 1, invariant, posts)
    return loops, report.outcome is CheckOutcome.VALID and bool(loops[-1].sound_atoms)


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
