"""The unified ``Solver`` protocol, result type, and solver registry.

Every inference strategy in the repo — the G-CLN pipeline and all the
baselines — is exposed as a :class:`Solver`: one object with a ``name``
and a ``solve(problem, ...)`` method returning a :class:`SolveResult`.
The registry maps names to solver factories so the CLI, the batch
runner, and the benchmarks dispatch by string and compare strategies
under one result schema.  :class:`SolveResult` is the only result type:
the G-CLN engine builds it directly, and every solver scores its
candidates through the same step
(:func:`repro.infer.pipeline.check_and_score`).

The wire format is deliberately rigid: :data:`RESULT_KEYS` and
:data:`LOOP_KEYS` enumerate exactly the keys every
``SolveResult.to_dict()`` emits, regardless of solver, so downstream
consumers (JSON records, the distributed runner's journal, the HTTP
service) never branch on the strategy that produced a record.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Protocol, runtime_checkable

from repro.api.events import STAGES, EventSink
from repro.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover
    from repro.infer.config import InferenceConfig
    from repro.infer.problem import Problem
    from repro.sampling.cache import TraceCache

# Registry name of the G-CLN engine; InferenceEngine stamps it on its
# results and events, and GCLNSolver registers under it.
GCLN_SOLVER = "gcln"


class UnknownSolverError(ReproError):
    """Raised when a solver name is not in the registry."""


class SolverCapabilityError(ReproError):
    """Raised when a solver cannot handle the problem it was given
    (e.g. a trace-only problem sent to a solver that needs a program)."""


@dataclass(frozen=True)
class SolverCapabilities:
    """What a registered solver supports, for dispatch and listing.

    Attributes:
        trace_only: can solve problems backed by recorded traces alone
            (no executable program; degraded checking).  Enforced by
            :func:`require_solver_supports` at every entry point.
        inequalities: can learn inequality atoms (advisory — shown by
            ``python -m repro solvers`` and ``GET /v1/solvers``).
        fractional: participates in fractional sampling (§4.3;
            advisory).
    """

    trace_only: bool = False
    inequalities: bool = False
    fractional: bool = False

    def to_dict(self) -> dict[str, bool]:
        return {
            "trace_only": self.trace_only,
            "inequalities": self.inequalities,
            "fractional": self.fractional,
        }


@dataclass
class LoopReport:
    """Per-loop outcome, identical in shape for every solver.

    Attributes:
        loop_index: which loop of the program.
        invariant: the learned invariant, pretty-printed.
        sound_atoms: atoms the checker validated (reachability-sound
            and inductive).
        candidate_atoms: everything the strategy proposed for the loop.
        rejected_atoms: ``[atom, reason]`` pairs the checker refused.
        ground_truth_implied: whether the documented invariant follows
            from the sound atoms.
    """

    loop_index: int
    invariant: str
    sound_atoms: list[str] = field(default_factory=list)
    candidate_atoms: list[str] = field(default_factory=list)
    rejected_atoms: list[list[str]] = field(default_factory=list)
    ground_truth_implied: bool = False

    def to_dict(self) -> dict:
        return {
            "loop_index": self.loop_index,
            "invariant": self.invariant,
            "sound_atoms": list(self.sound_atoms),
            "candidate_atoms": list(self.candidate_atoms),
            "rejected_atoms": [list(pair) for pair in self.rejected_atoms],
            "ground_truth_implied": self.ground_truth_implied,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LoopReport":
        """Rebuild a report from :meth:`to_dict` output (wire format)."""
        return cls(
            loop_index=data["loop_index"],
            invariant=data["invariant"],
            sound_atoms=list(data.get("sound_atoms", [])),
            candidate_atoms=list(data.get("candidate_atoms", [])),
            rejected_atoms=[
                list(pair) for pair in data.get("rejected_atoms", [])
            ],
            ground_truth_implied=data.get("ground_truth_implied", False),
        )


@dataclass
class SolveResult:
    """Outcome of one ``Solver.solve`` call — the common wire format.

    Attributes:
        solver: registry name of the strategy that produced the result.
        problem: problem name.
        solved: whether the documented invariant (or, without ground
            truth, a checker-valid conjunction) was reached.
        runtime_seconds: wall-clock time for the whole solve.
        attempts: attempts used (baselines always report 1).
        loops: one :class:`LoopReport` per loop.
        notes: free-form diagnostics.
        stage_timings: wall-clock seconds per pipeline stage, keyed by
            :data:`repro.api.events.STAGES` (ROADMAP "Per-stage
            profiling").
        cache_stats: the :class:`~repro.sampling.cache.TraceCache`
            counters observed at the end of the solve.
        train_epochs: total training epochs spent across attempts
            (0 for solvers that do not train).
        checking: the checker mode the solve ran under —
            ``"symbolic+bounded"`` for program-backed problems, the
            degraded ``"bounded-holdout"`` for trace-only problems
            (see :mod:`repro.checker.result`).
    """

    solver: str
    problem: str
    solved: bool
    runtime_seconds: float = 0.0
    attempts: int = 1
    loops: list[LoopReport] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    stage_timings: dict[str, float] = field(default_factory=dict)
    cache_stats: dict[str, int] = field(default_factory=dict)
    train_epochs: int = 0
    checking: str = ""

    def invariant(self, loop_index: int = 0) -> str:
        """Pretty-printed invariant for one loop (``"true"`` if absent)."""
        for loop in self.loops:
            if loop.loop_index == loop_index:
                return loop.invariant
        return "true"

    def to_dict(self) -> dict:
        """JSON-serializable record; keys are exactly :data:`RESULT_KEYS`."""
        timings = {s: float(self.stage_timings.get(s, 0.0)) for s in STAGES}
        return {
            "solver": self.solver,
            "problem": self.problem,
            "solved": self.solved,
            "runtime_seconds": self.runtime_seconds,
            "attempts": self.attempts,
            "notes": list(self.notes),
            "stage_timings": timings,
            "cache_stats": dict(self.cache_stats),
            "train_epochs": self.train_epochs,
            "checking": self.checking,
            "loops": [loop.to_dict() for loop in self.loops],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SolveResult":
        """Rebuild a result from :meth:`to_dict` output.

        This is how results come back over process/host boundaries —
        e.g. the distributed runner's journal.  Keys outside
        :data:`RESULT_KEYS` (such as the ``backend`` key older records
        carry) are ignored, so old journals and memos still load.
        """
        return cls(
            solver=data["solver"],
            problem=data["problem"],
            solved=data["solved"],
            runtime_seconds=data.get("runtime_seconds", 0.0),
            attempts=data.get("attempts", 1),
            loops=[LoopReport.from_dict(d) for d in data.get("loops", [])],
            notes=list(data.get("notes", [])),
            stage_timings=dict(data.get("stage_timings", {})),
            cache_stats=dict(data.get("cache_stats", {})),
            train_epochs=int(data.get("train_epochs", 0)),
            checking=data.get("checking", ""),
        )


# The exact key sets of the wire format, for schema validation.
RESULT_KEYS = frozenset(
    {
        "solver",
        "problem",
        "solved",
        "runtime_seconds",
        "attempts",
        "notes",
        "stage_timings",
        "cache_stats",
        "train_epochs",
        "checking",
        "loops",
    }
)
LOOP_KEYS = frozenset(
    {
        "loop_index",
        "invariant",
        "sound_atoms",
        "candidate_atoms",
        "rejected_atoms",
        "ground_truth_implied",
    }
)


@runtime_checkable
class Solver(Protocol):
    """What every registered inference strategy implements."""

    name: str

    def solve(
        self,
        problem: "Problem",
        *,
        config: "InferenceConfig | None" = None,
        cache: "TraceCache | None" = None,
        events: EventSink | None = None,
    ) -> SolveResult:
        """Run the strategy on one problem.

        Args:
            problem: the benchmark problem.
            config: shared pipeline knobs; strategies use the subset
                that applies to them (``None`` = defaults).
            cache: trace/matrix memo to share with other solves; pass
                the service's cache so strategies reuse each other's
                trace collection.
            events: sink for lifecycle events (``None`` = silent).
        """
        ...


@dataclass(frozen=True)
class SolverEntry:
    """One registry row: the factory plus display metadata."""

    name: str
    factory: Callable[[], Solver]
    description: str = ""
    # Conservative default: a registration that declares nothing is
    # assumed to need an executable program (trace-only dispatch to it
    # raises SolverCapabilityError instead of failing mid-solve).
    capabilities: SolverCapabilities = SolverCapabilities()


_REGISTRY: dict[str, SolverEntry] = {}


def register_solver(
    name: str,
    factory: Callable[[], Solver],
    *,
    description: str = "",
    capabilities: SolverCapabilities | None = None,
    replace: bool = False,
) -> None:
    """Register a solver factory under ``name``.

    Args:
        name: registry key (what ``--solver`` accepts).
        factory: zero-argument callable returning a :class:`Solver`.
        description: one-line summary for ``python -m repro solvers``.
        capabilities: what the solver supports; ``None`` declares
            nothing (notably: no trace-only support).
        replace: allow overwriting an existing registration.
    """
    if not replace and name in _REGISTRY:
        raise ReproError(
            f"solver {name!r} is already registered; pass replace=True to override"
        )
    _REGISTRY[name] = SolverEntry(
        name=name,
        factory=factory,
        description=description,
        capabilities=(
            capabilities if capabilities is not None else SolverCapabilities()
        ),
    )


def unregister_solver(name: str) -> None:
    """Remove a registration (mainly for tests)."""
    _REGISTRY.pop(name, None)


def available_solvers() -> tuple[str, ...]:
    """Registered solver names, sorted."""
    return tuple(sorted(_REGISTRY))


def solver_entries() -> tuple[SolverEntry, ...]:
    """Registry rows (name, factory, description), sorted by name."""
    return tuple(_REGISTRY[name] for name in available_solvers())


def get_solver(name: str) -> Solver:
    """Instantiate the solver registered under ``name``.

    Raises:
        UnknownSolverError: listing the available names, so a typo on
            the CLI or in a config file is self-diagnosing.
    """
    entry = _REGISTRY.get(name)
    if entry is None:
        known = ", ".join(available_solvers()) or "<none>"
        raise UnknownSolverError(
            f"unknown solver {name!r}; available solvers: {known}"
        )
    return entry.factory()


def require_solver_supports(name: str, problem: "Problem") -> None:
    """Fail fast when a registered solver cannot handle a problem.

    Today this enforces the trace-only axis: a problem without a
    program may only dispatch to solvers whose registration declares
    ``trace_only`` support.  Called by every entry point — the
    service, the batch runner, and the HTTP protocol parser — so the
    error is a clear registry-level message instead of a mid-solve
    crash inside the strategy.

    Raises:
        UnknownSolverError: for unregistered names.
        SolverCapabilityError: for unsupported (solver, problem)
            combinations, listing the solvers that would work.
    """
    entry = _REGISTRY.get(name)
    if entry is None:
        known = ", ".join(available_solvers()) or "<none>"
        raise UnknownSolverError(
            f"unknown solver {name!r}; available solvers: {known}"
        )
    if problem.source is None and not entry.capabilities.trace_only:
        capable = ", ".join(
            n for n in available_solvers() if _REGISTRY[n].capabilities.trace_only
        ) or "<none>"
        raise SolverCapabilityError(
            f"solver {name!r} does not support trace-only problems "
            f"(problem {problem.name!r} has no program source); "
            f"trace-capable solvers: {capable}"
        )
