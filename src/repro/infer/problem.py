"""Problem definitions: a program plus everything inference needs."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from repro.errors import InferenceError
from repro.lang.ast import Program
from repro.lang.parser import parse_expr, parse_program
from repro.sampling.source import (
    InterpreterSource,
    LoopTrace,
    ObservationSource,
    RecordedTraceSource,
)
from repro.sampling.termgen import ExternalTerm
from repro.smt.convert import expr_to_formula
from repro.smt.formula import Atom


@dataclass
class Problem:
    """One invariant-inference benchmark problem.

    A problem is *program-backed* (``source`` set: states come from the
    interpreter) or *trace-only* (``traces`` set: states come from a
    recording; see :mod:`repro.sampling.source`).  At least one of the
    two must be provided; when both are, the program wins and the
    recording is carried as auxiliary data.

    Attributes:
        name: problem identifier (matches the paper's Table 2 rows).
        source: program text in the mini language, or ``None`` for a
            trace-only problem.
        train_inputs: input assignments used for trace collection
            (program-backed only).
        check_inputs: wider input assignments used by the checker; when
            empty, the training inputs are reused.
        max_degree: maximum monomial degree for candidate terms
            (the paper's ``maxDeg``, per-problem as in Table 2).
        variables: term variables per loop id; defaults to every program
            variable for every loop (program-backed), or the sorted
            keys of the first recorded state (trace-only).
        externals: external-function terms available to the invariant
            (e.g. ``gcd(a, b)``, §5.3).
        learn_inequalities: enable the PBQU inequality model.
        fractional: enable fractional sampling (§4.3); used by ps5/ps6.
            Requires a program (ignored for trace-only problems).
        fractional_vars: which variables to relax (default: all constant
            initializers).
        ground_truth: per loop id, the documented invariant atoms as
            expression strings (e.g. ``"t == 2*a + 1"``); used to score
            "solved" in the benchmark tables.
        max_states: cap on training states per loop.
        traces: recorded per-loop observation sequences for trace-only
            solving (:class:`~repro.sampling.source.LoopTrace` per
            loop id).
    """

    name: str
    source: str | None = None
    train_inputs: list[dict[str, object]] = field(default_factory=list)
    check_inputs: list[dict[str, object]] = field(default_factory=list)
    max_degree: int = 2
    variables: dict[int, list[str]] | None = None
    externals: list[ExternalTerm] = field(default_factory=list)
    learn_inequalities: bool = False
    fractional: bool = False
    fractional_vars: list[str] | None = None
    ground_truth: dict[int, list[str]] = field(default_factory=dict)
    max_states: int = 100
    traces: dict[int, LoopTrace] | None = None

    def __post_init__(self) -> None:
        if self.source is None and self.traces is None:
            raise InferenceError(
                f"problem {self.name!r} needs a program source or recorded "
                "traces (both are None)"
            )

    @property
    def program_backed(self) -> bool:
        """Does this problem carry an executable program?"""
        return self.source is not None

    @cached_property
    def program(self) -> Program:
        if self.source is None:
            raise InferenceError(
                f"problem {self.name!r} is trace-only (no program source); "
                "this operation needs an executable program — solve it "
                "through its recorded traces instead"
            )
        return parse_program(self.source)

    def observations(self) -> ObservationSource:
        """The observation source this problem's states come from."""
        if self.source is not None:
            return InterpreterSource(self.program, self.train_inputs)
        assert self.traces is not None  # __post_init__ guarantees one
        return RecordedTraceSource(self.traces)

    @property
    def n_loops(self) -> int:
        """Loop count, from the program or the recorded payload."""
        if self.source is not None:
            return len(self.program.loops)
        return self.observations().n_loops

    @property
    def effective_check_inputs(self) -> list[dict[str, object]]:
        return self.check_inputs if self.check_inputs else self.train_inputs

    def loop_variables(self, loop_index: int) -> list[str]:
        """Term variables for one loop."""
        if self.variables and loop_index in self.variables:
            return list(self.variables[loop_index])
        if self.source is None:
            names = self.observations().variables(loop_index)
            if names is None:
                raise InferenceError(
                    f"problem {self.name!r}: no recorded states for loop "
                    f"{loop_index} and no explicit variables to derive the "
                    "term basis from"
                )
            return names
        from repro.lang.analysis import program_variables

        return program_variables(self.program)

    def ground_truth_atoms(self, loop_index: int) -> list[Atom]:
        """Parsed ground-truth atoms for one loop."""
        sources = self.ground_truth.get(loop_index, [])
        return [parse_ground_truth(s) for s in sources]


def parse_ground_truth(source: str) -> Atom:
    """Parse an atom like ``"t == 2*a + 1"`` or ``"n >= a*a"``."""
    formula = expr_to_formula(parse_expr(source))
    if not isinstance(formula, Atom):
        raise InferenceError(f"ground truth must be a single atom: {source!r}")
    preserve = formula.op not in ("==", "!=")
    return Atom(formula.poly.primitive(preserve_sign=preserve), formula.op)
