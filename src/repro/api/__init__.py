"""Public API: the unified Solver protocol and the InvariantService.

This package is the single public entry point for invariant inference.
Every strategy — the G-CLN pipeline and all the baselines — implements
the :class:`~repro.api.solver.Solver` protocol, is reachable through
the registry (:func:`get_solver` / :func:`available_solvers`), and
returns the same :class:`~repro.api.solver.SolveResult` wire format,
so callers compare strategies without branching on which one ran.

For anything longer-lived than a one-shot call, use
:class:`~repro.api.service.InvariantService`: it holds a default config
and an :class:`~repro.api.events.EventBus` streaming typed lifecycle events
(:class:`AttemptStarted`, :class:`StageTimed`,
:class:`CandidateChecked`, :class:`ProblemSolved`) to subscribers.

Registered solvers (see ``python -m repro solvers``):

========================  ====================================================
``gcln``                  full G-CLN pipeline (gated CLN + bounds + retries)
``guess_and_check``       exact nullspace equality learner (NumInv core)
``octahedral``            tightest ±x ±y ≤ c bounds (NumInv inequalities)
``numinv``                Guess-and-Check equalities + octahedral bounds
``enumerative``           PIE-style enumerative search within a budget
``plain_cln``             ungated template CLN (CLN2INV), single run
========================  ====================================================
"""

from repro.api.events import (
    STAGES,
    AttemptStarted,
    CandidateChecked,
    Event,
    EventBus,
    EventSink,
    ProblemSolved,
    StageTimed,
    timed_stage,
)
from repro.api.solver import (
    LOOP_KEYS,
    RESULT_KEYS,
    LoopReport,
    SolveResult,
    Solver,
    SolverCapabilities,
    SolverCapabilityError,
    SolverEntry,
    UnknownSolverError,
    available_solvers,
    get_solver,
    register_solver,
    require_solver_supports,
    solver_entries,
    unregister_solver,
)
from repro.api.adapters import (
    EnumerativeSolver,
    GCLNSolver,
    GuessAndCheckSolver,
    NumInvSolver,
    OctahedralSolver,
    PlainCLNSolver,
    register_default_solvers,
)
from repro.api.memo import ResultMemo
from repro.api.service import InvariantService

__all__ = [
    # events
    "STAGES",
    "Event",
    "EventBus",
    "EventSink",
    "AttemptStarted",
    "StageTimed",
    "CandidateChecked",
    "ProblemSolved",
    "timed_stage",
    # solver protocol + registry
    "Solver",
    "SolveResult",
    "LoopReport",
    "SolverEntry",
    "SolverCapabilities",
    "SolverCapabilityError",
    "UnknownSolverError",
    "RESULT_KEYS",
    "LOOP_KEYS",
    "register_solver",
    "unregister_solver",
    "get_solver",
    "available_solvers",
    "require_solver_supports",
    "solver_entries",
    # adapters
    "GCLNSolver",
    "GuessAndCheckSolver",
    "OctahedralSolver",
    "NumInvSolver",
    "EnumerativeSolver",
    "PlainCLNSolver",
    "register_default_solvers",
    # service
    "InvariantService",
    "ResultMemo",
]
