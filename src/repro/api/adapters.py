"""Solver adapters: the G-CLN engine and the baseline strategies as Solvers.

Each adapter wraps one inference strategy behind the
:class:`~repro.api.solver.Solver` protocol so that the CLI, the batch
runner, and the benchmarks dispatch by registry name and compare
strategies under one :class:`~repro.api.solver.SolveResult` schema.

The G-CLN adapter is a one-line delegation: the engine itself returns
a :class:`~repro.api.solver.SolveResult`.  The baseline adapters share
a single-attempt skeleton: collect loop-head states through the
solve's own :class:`~repro.sampling.cache.TraceCache`, generate candidate
atoms with the strategy, then hand them to the engine's own
check-and-score step (:func:`repro.infer.pipeline.check_and_score`),
which filters them to the sound subset, emits the per-verdict events,
and decides "solved".  Every strategy is therefore scored by the same
code, and per-stage profiles are comparable across strategies.

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
    EventSink,
    StageTimed,
    timed_stage,
)
from repro.api.solver import (
    GCLN_SOLVER,
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
from repro.checker.trace import make_checker
from repro.sampling.cache import TraceCache
from repro.sampling.termgen import TermBasis, build_term_basis
from repro.smt.formula import Atom

if TYPE_CHECKING:  # pragma: no cover
    from repro.infer.config import InferenceConfig
    from repro.infer.problem import Problem

# Cap on the nullspace equalities Guess-and-Check (and NumInv) returns.
_MAX_INVARIANTS = 40
# The plain CLN's template size and its one training seed.
_PLAIN_CLN_UNITS = 4
_PLAIN_CLN_SEED = 1


class GCLNSolver:
    """The full G-CLN pipeline (:class:`~repro.infer.pipeline.InferenceEngine`)."""

    name = GCLN_SOLVER

    def solve(
        self,
        problem: "Problem",
        *,
        config: "InferenceConfig | None" = None,
        events: EventSink | None = None,
    ) -> SolveResult:
        from repro.infer.pipeline import InferenceEngine

        return InferenceEngine(problem, config, events=events).run()


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
        events: EventSink | None = None,
    ) -> SolveResult:
        from repro.infer.config import InferenceConfig
        from repro.infer.pipeline import check_and_score
        from repro.infer.stages import collect_states

        cache = TraceCache()
        config = config if config is not None else InferenceConfig()
        start = time.perf_counter()
        timings = {stage: 0.0 for stage in STAGES}
        notes: list[str] = []
        n_loops = problem.n_loops
        if n_loops == 0:
            from repro.errors import InferenceError

            raise InferenceError(f"problem {problem.name!r} has no loops")

        if events is not None:
            events(AttemptStarted(problem=problem.name, solver=self.name, attempt=1))
        with timed_stage(timings, "collect"):
            dataset = collect_states(problem, config, None, cache)
        checker = make_checker(problem)

        candidates: list[list[Atom]] = []
        for loop_index in range(n_loops):
            states = dataset.states[loop_index]
            candidates.append(
                self._candidates(
                    problem, config, loop_index, states, cache, timings, notes
                )
                if len(states) >= 3
                else []
            )
        loops, solved = check_and_score(
            problem,
            checker,
            candidates,
            [{} for _ in range(n_loops)],
            timings,
            events,
            solver=self.name,
        )

        if events is not None:
            for stage in STAGES:
                events(
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

        The basis spans the loop variables every state defines, and
        states where an external function would see a non-integer
        argument are dropped: the same filters the engine's matrix
        stage uses.
        """
        from repro.infer.stages import defined_variables, integer_external_states

        variables = defined_variables(problem, loop_index, states)
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

    def _candidates(self, problem, config, loop_index, states, cache, timings, notes):
        basis, usable = self._basis_and_states(problem, loop_index, states)
        with timed_stage(timings, "extract"):
            return guess_and_check_equalities(
                usable, basis, max_invariants=_MAX_INVARIANTS
            )


class OctahedralSolver(_BaselineSolver):
    """Octahedral (±x ±y ≤ c) bound inference, NumInv's inequality domain."""

    name = "octahedral"

    def _candidates(self, problem, config, loop_index, states, cache, timings, notes):
        from repro.infer.stages import defined_variables

        variables = defined_variables(problem, loop_index, states)
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

    def _candidates(self, problem, config, loop_index, states, cache, timings, notes):
        basis, usable = self._basis_and_states(problem, loop_index, states)
        with timed_stage(timings, "extract"):
            atoms = guess_and_check_equalities(
                usable, basis, max_invariants=_MAX_INVARIANTS
            )
            atoms.extend(octahedral_inequalities(states, basis.variables))
        return atoms


class EnumerativeSolver(_BaselineSolver):
    """PIE-style enumerative template search within a candidate budget
    (:func:`~repro.baselines.enumerative_search`'s default budget and
    term count)."""

    name = "enumerative"

    def _candidates(self, problem, config, loop_index, states, cache, timings, notes):
        basis, usable = self._basis_and_states(problem, loop_index, states)
        with timed_stage(timings, "extract"):
            atoms, examined, exhausted = enumerative_search(usable, basis)
        notes.append(
            f"loop {loop_index}: enumerated {examined} candidates"
            + (" (budget exhausted)" if exhausted else "")
        )
        return atoms


class PlainCLNSolver(_BaselineSolver):
    """Template-based ungated CLN (CLN2INV), one training run, no restarts."""

    name = "plain_cln"

    def _candidates(self, problem, config, loop_index, states, cache, timings, notes):
        from repro.errors import TrainingError
        from repro.infer.stages import build_matrix, collect_states, derive_loop_rng

        # The engine's matrix stage, memoized in this solve's cache.
        with timed_stage(timings, "collect"):
            dataset = collect_states(problem, config, None, cache)
            bundle = build_matrix(problem, config, dataset, loop_index, cache)
        rng = derive_loop_rng(_PLAIN_CLN_SEED, loop_index)
        atoms: list[Atom] = list(bundle.degenerate)
        try:
            with timed_stage(timings, "train"):
                model = PlainCLN(len(bundle.basis), _PLAIN_CLN_UNITS, rng)
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
