"""Solver adapters: the G-CLN engine and the baseline strategies as Solvers.

Each adapter wraps one inference strategy behind the
:class:`~repro.api.solver.Solver` protocol so that the CLI, the batch
runner, and the benchmarks dispatch by registry name and compare
strategies under one :class:`~repro.api.solver.SolveResult` schema.

The baseline adapters share a skeleton: collect loop-head states
through the (shared) :class:`~repro.sampling.cache.TraceCache`,
generate candidate atoms with the strategy, filter them to the sound
subset with the :class:`~repro.checker.vc.InvariantChecker`, and score
"solved" exactly like the engine does (documented ground truth implied,
or a checker-valid conjunction when no ground truth exists).  Each
step emits the same lifecycle events the engine emits, so per-stage
profiles are comparable across strategies.

Layering note: :mod:`repro.infer` imports :mod:`repro.api.events`, so
this module imports the inference runtime lazily (inside functions) to
keep the import graph acyclic.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING

from repro.api.events import (
    STAGES,
    AttemptStarted,
    Event,
    EventSink,
    StageTimed,
    emit_check_events,
    timed_stage,
)
from repro.api.solver import (
    LoopReport,
    SolveResult,
    SolverCapabilities,
    register_solver,
)
from repro.baselines import (
    PlainCLN,
    enumerative_search,
    guess_and_check_equalities,
    octahedral_inequalities,
    train_plain_cln,
)
from repro.checker.result import CheckOutcome
from repro.checker.trace import make_checker
from repro.sampling.cache import TraceCache
from repro.sampling.termgen import TermBasis, build_term_basis
from repro.smt.formula import TRUE, And, Atom
from repro.smt.printer import format_formula
from repro.smt.simplify import simplify

if TYPE_CHECKING:  # pragma: no cover
    from repro.infer.config import InferenceConfig
    from repro.infer.problem import Problem


def _silent(_event: Event) -> None:
    """Default event sink: drop everything."""


def solve_result_from_inference(result) -> SolveResult:
    """Package an engine :class:`~repro.infer.pipeline.InferenceResult`
    as the registry-wide :class:`SolveResult` schema."""
    loops = []
    for loop in result.loops:
        loops.append(
            LoopReport(
                loop_index=loop.loop_index,
                invariant=format_formula(loop.invariant),
                sound_atoms=[str(a) for a in loop.sound_atoms],
                candidate_atoms=[str(a) for a in loop.candidate_atoms],
                rejected_atoms=[
                    [atom, reason] for atom, reason in loop.rejected_atoms
                ],
                ground_truth_implied=loop.ground_truth_implied,
            )
        )
    return SolveResult(
        solver=GCLNSolver.name,
        problem=result.problem_name,
        solved=result.solved,
        runtime_seconds=result.runtime_seconds,
        attempts=result.attempts,
        loops=loops,
        notes=list(result.notes),
        stage_timings=dict(result.stage_timings),
        cache_stats=dict(result.cache_stats),
        backend=result.backend,
        train_epochs=result.train_epochs,
        checking=result.checking,
        raw=result,
    )


class GCLNSolver:
    """The full G-CLN pipeline (:class:`~repro.infer.pipeline.InferenceEngine`)."""

    name = "gcln"

    def solve(
        self,
        problem: "Problem",
        *,
        config: "InferenceConfig | None" = None,
        cache: TraceCache | None = None,
        events: EventSink | None = None,
    ) -> SolveResult:
        from repro.infer.pipeline import InferenceEngine

        engine = InferenceEngine(problem, config, cache=cache, events=events)
        return solve_result_from_inference(engine.run())


class _BaselineSolver:
    """Shared skeleton for the single-attempt baseline strategies.

    Subclasses implement :meth:`_candidates` (and set :attr:`name`);
    everything else — state collection, checker filtering, solved
    scoring, event emission, stage timing — is common.
    """

    name = "baseline"

    def solve(
        self,
        problem: "Problem",
        *,
        config: "InferenceConfig | None" = None,
        cache: TraceCache | None = None,
        events: EventSink | None = None,
    ) -> SolveResult:
        from repro.infer.config import InferenceConfig
        from repro.infer.pipeline import _ground_truth_implied, _reduce_redundant
        from repro.infer.stages import collect_states

        emit = events if events is not None else _silent
        cache = cache if cache is not None else TraceCache()
        config = config if config is not None else InferenceConfig()
        start = time.perf_counter()
        timings = {stage: 0.0 for stage in STAGES}
        notes: list[str] = []
        n_loops = problem.n_loops
        if n_loops == 0:
            from repro.errors import InferenceError

            raise InferenceError(f"problem {problem.name!r} has no loops")

        emit(AttemptStarted(problem=problem.name, solver=self.name, attempt=1))
        with timed_stage(timings, "collect"):
            dataset = collect_states(problem, config, None, cache)
        checker = make_checker(problem, cache=cache)

        loops: list[LoopReport] = []
        all_implied = True
        last_invariant = TRUE
        last_sound: list[Atom] = []
        for loop_index in range(n_loops):
            states = dataset.states[loop_index]
            candidates: list[Atom] = []
            if len(states) >= 3:
                candidates = self._candidates(
                    problem, config, loop_index, states, cache, timings, notes
                )
            with timed_stage(timings, "check"):
                filtered = checker.filter_sound_atoms(loop_index, candidates)
            if events is not None:
                emit_check_events(
                    emit,
                    problem.name,
                    self.name,
                    loop_index,
                    filtered.sound,
                    filtered.rejected,
                )
            reduced = _reduce_redundant(filtered.sound)
            invariant = simplify(And(reduced)) if reduced else TRUE
            implied = _ground_truth_implied(
                problem.ground_truth_atoms(loop_index), filtered.sound
            )
            if problem.ground_truth.get(loop_index) and not implied:
                all_implied = False
            last_invariant, last_sound = invariant, filtered.sound
            loops.append(
                LoopReport(
                    loop_index=loop_index,
                    invariant=format_formula(invariant),
                    sound_atoms=[str(a) for a in filtered.sound],
                    candidate_atoms=[str(a) for a in candidates],
                    rejected_atoms=[
                        [str(a), reason] for a, reason in filtered.rejected
                    ],
                    ground_truth_implied=implied,
                )
            )

        # Solved scoring mirrors InferenceEngine.run: with ground truth,
        # every documented loop invariant must be implied; without it,
        # the checker must validate a non-trivial final conjunction.
        if any(problem.ground_truth.values()):
            solved = all_implied
        else:
            solved = False
            if last_sound:
                posts = (
                    [s.cond for s in problem.program.asserts]
                    if problem.program_backed
                    else []
                )
                with timed_stage(timings, "check"):
                    report = checker.check_invariant(
                        n_loops - 1, last_invariant, posts
                    )
                solved = report.outcome is CheckOutcome.VALID

        for stage in STAGES:
            emit(
                StageTimed(
                    problem=problem.name,
                    solver=self.name,
                    stage=stage,
                    seconds=timings[stage],
                    attempt=1,
                )
            )
        return SolveResult(
            solver=self.name,
            problem=problem.name,
            solved=solved,
            runtime_seconds=time.perf_counter() - start,
            attempts=1,
            loops=loops,
            notes=notes,
            stage_timings=timings,
            cache_stats=cache.stats.to_dict(),
            checking=checker.checking,
        )

    # -- strategy hooks --------------------------------------------------------

    def _candidates(
        self,
        problem: "Problem",
        config: "InferenceConfig",
        loop_index: int,
        states: list[dict],
        cache: TraceCache,
        timings: dict[str, float],
        notes: list[str],
    ) -> list[Atom]:
        raise NotImplementedError

    def _basis_and_states(
        self, problem: "Problem", loop_index: int, states: list[dict]
    ) -> tuple[TermBasis, list[dict]]:
        """Full candidate-term basis plus the states it can evaluate on.

        States where an external function would see a non-integer
        argument are dropped, via the same filter the engine's matrix
        stage uses.
        """
        from repro.infer.stages import integer_external_states

        variables = problem.loop_variables(loop_index)
        basis = build_term_basis(
            variables, problem.max_degree, externals=problem.externals
        )
        return basis, integer_external_states(states, problem.externals)


class GuessAndCheckSolver(_BaselineSolver):
    """Exact nullspace equality learning [Sharma et al. 2013].

    NumInv's equality core: evaluates the polynomial kernel and reads
    equalities off the exact rational nullspace.  Cannot learn
    inequalities or disjunctions.
    """

    name = "guess_and_check"

    def __init__(self, max_invariants: int = 40):
        self.max_invariants = max_invariants

    def _candidates(self, problem, config, loop_index, states, cache, timings, notes):
        basis, usable = self._basis_and_states(problem, loop_index, states)
        with timed_stage(timings, "extract"):
            return guess_and_check_equalities(
                usable, basis, max_invariants=self.max_invariants
            )


class OctahedralSolver(_BaselineSolver):
    """Octahedral (±x ±y ≤ c) bound inference, NumInv's inequality domain."""

    name = "octahedral"

    def _candidates(self, problem, config, loop_index, states, cache, timings, notes):
        variables = [
            v for v in problem.loop_variables(loop_index) if states and v in states[0]
        ]
        with timed_stage(timings, "extract"):
            return octahedral_inequalities(states, variables)


class NumInvSolver(_BaselineSolver):
    """NumInv-style combination: nullspace equalities + octahedral bounds.

    This is the paper's Table 2 "NumInv" comparison column: exact
    Guess-and-Check equalities plus the tightest octahedral (±x ±y ≤ c)
    inequalities, both checker-filtered.  It solves linear problems and
    nonlinear equalities but misses nonlinear / 3-variable bounds.
    """

    name = "numinv"

    def __init__(self, max_invariants: int = 40):
        self.max_invariants = max_invariants

    def _candidates(self, problem, config, loop_index, states, cache, timings, notes):
        basis, usable = self._basis_and_states(problem, loop_index, states)
        variables = [
            v for v in problem.loop_variables(loop_index) if states and v in states[0]
        ]
        with timed_stage(timings, "extract"):
            atoms = guess_and_check_equalities(
                usable, basis, max_invariants=self.max_invariants
            )
            atoms.extend(octahedral_inequalities(states, variables))
        return atoms


class EnumerativeSolver(_BaselineSolver):
    """PIE-style enumerative template search within a candidate budget."""

    name = "enumerative"

    def __init__(self, budget: int = 200_000, max_terms: int = 3):
        self.budget = budget
        self.max_terms = max_terms

    def _candidates(self, problem, config, loop_index, states, cache, timings, notes):
        basis, usable = self._basis_and_states(problem, loop_index, states)
        with timed_stage(timings, "extract"):
            atoms, examined, exhausted = enumerative_search(
                usable, basis, max_terms=self.max_terms, budget=self.budget
            )
        notes.append(
            f"loop {loop_index}: enumerated {examined} candidates"
            + (" (budget exhausted)" if exhausted else "")
        )
        return atoms


class PlainCLNSolver(_BaselineSolver):
    """Template-based ungated CLN (CLN2INV), one training run, no restarts."""

    name = "plain_cln"

    def __init__(self, n_units: int = 4, seed: int = 1):
        self.n_units = n_units
        self.seed = seed

    def _candidates(self, problem, config, loop_index, states, cache, timings, notes):
        from repro.errors import TrainingError
        from repro.infer.stages import build_matrix, collect_states, derive_loop_rng

        # Reuse the engine's memoized matrix stage so a service cache
        # shares term matrices between this baseline and the G-CLN.
        with timed_stage(timings, "collect"):
            dataset = collect_states(problem, config, None, cache)
            bundle = build_matrix(problem, config, dataset, loop_index, cache)
        rng = derive_loop_rng(self.seed, loop_index)
        atoms: list[Atom] = list(bundle.degenerate)
        try:
            with timed_stage(timings, "train"):
                model = PlainCLN(len(bundle.basis), self.n_units, rng)
                trained = train_plain_cln(
                    model,
                    bundle.data,
                    bundle.basis,
                    states,
                    max_epochs=config.max_epochs,
                )
            atoms.extend(trained)
        except TrainingError as exc:
            notes.append(f"loop {loop_index}: training failed: {exc}")
        return atoms


def register_default_solvers() -> None:
    """Register the built-in strategies (idempotent)."""
    from repro.api.solver import _REGISTRY

    defaults = [
        (
            GCLNSolver,
            "full G-CLN pipeline (gated CLN + PBQU bounds + CEGIS retries)",
            SolverCapabilities(trace_only=True, inequalities=True, fractional=True),
        ),
        (
            GuessAndCheckSolver,
            "exact nullspace equality learner (NumInv core)",
            SolverCapabilities(trace_only=True),
        ),
        (
            OctahedralSolver,
            "tightest ±x ±y <= c bounds (NumInv inequality domain)",
            SolverCapabilities(trace_only=True, inequalities=True),
        ),
        (
            NumInvSolver,
            "Guess-and-Check equalities + octahedral bounds (NumInv)",
            SolverCapabilities(trace_only=True, inequalities=True),
        ),
        (
            EnumerativeSolver,
            "PIE-style enumerative atom search within a budget",
            SolverCapabilities(trace_only=True),
        ),
        (
            PlainCLNSolver,
            "ungated template CLN (CLN2INV), single training run",
            SolverCapabilities(trace_only=True),
        ),
    ]
    for cls, description, caps in defaults:
        if cls.name not in _REGISTRY:
            register_solver(
                cls.name, cls, description=description, capabilities=caps
            )


register_default_solvers()
