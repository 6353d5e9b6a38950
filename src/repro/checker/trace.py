"""Degraded checking for trace-only problems: held-out recorded states.

Without a program there is nothing to perturb, step, or check
symbolically — the three-VC machinery of :mod:`repro.checker.vc`
cannot run.  What *can* run is the reachability half of the bounded
checker: every candidate must hold on every held-out recorded state
(the ``check`` sequences of the recording, which play the role of the
wider checking input space).  :class:`RecordedChecker` implements
exactly that: each loop's held-out states form a reach
:class:`~repro.checker.bounded.StatePool`, and verdicts come from the
full checker's own :func:`~repro.checker.bounded.holds_on_pool`.  It
duck-types the :class:`~repro.checker.vc.InvariantChecker` surface the
engine and the baseline adapters use, and reports itself as the
degraded ``bounded-holdout`` mode so ``SolveResult.checking`` makes
the downgrade visible.

:func:`make_checker` is the one place that picks between the two —
every solver builds its checker through it, so a problem's
program-backed/trace-only nature never leaks into solver code.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.checker.bounded import MAX_CHECKED_STATES, StatePool, holds_on_pool
from repro.checker.result import (
    CHECKING_RECORDED,
    CheckOutcome,
    CheckReport,
)
from repro.checker.vc import (
    DEFAULT_CHECKER_SEED,
    AtomFilterResult,
    InvariantChecker,
)
from repro.sampling.source import RecordedTraceSource
from repro.sampling.termgen import ExternalTerm
from repro.smt.formula import Atom, Formula
from repro.smt.simplify import simplify

if TYPE_CHECKING:  # pragma: no cover
    from repro.infer.problem import Problem

class RecordedChecker:
    """Reachability-only checking against held-out recorded states.

    The checking states are the recording's ``check`` sequences (train
    reused when absent) — the same states the full checker would read
    off its checking traces, so for a recording of a program-backed
    problem the reachability phase is state-for-state identical.
    Inductiveness and postcondition VCs are not checkable without a
    program; :meth:`check_invariant` degrades them to the recorded
    evidence and says so in the report notes.
    """

    checking = CHECKING_RECORDED

    def __init__(
        self,
        source: RecordedTraceSource,
        externals: Sequence[ExternalTerm] = (),
    ):
        self.source = source
        self.externals = list(externals)
        self._reach_pools: dict[int, StatePool] = {}

    @property
    def memo_hits(self) -> int:
        """Truth vectors the pools served from their caches (the same
        counter the full checker exposes)."""
        return sum(pool.hits for pool in self._reach_pools.values())

    def reach_pool(self, loop_index: int) -> StatePool:
        """The loop's reach pool: its first ``MAX_CHECKED_STATES``
        held-out states, in recording order."""
        pool = self._reach_pools.get(loop_index)
        if pool is None:
            observations = self.source.check_observations(loop_index)
            pool = self._reach_pools[loop_index] = StatePool(
                [ob.state for ob in observations[:MAX_CHECKED_STATES]],
                self.externals,
            )
        return pool

    # -- checker surface -------------------------------------------------

    def filter_sound_atoms(
        self, loop_index: int, atoms: Sequence[Atom]
    ) -> AtomFilterResult:
        """Atoms that hold on every held-out recorded state.

        The rejection reason matches the full checker's reachability
        phase — recorded states *are* reachable states — so a recording
        of a program-backed problem reproduces its rejection records.
        """
        result = AtomFilterResult()
        pool = self.reach_pool(loop_index)
        for atom in atoms:
            outcome, cex = holds_on_pool(pool, atom)
            if outcome is CheckOutcome.INVALID:
                result.rejected.append((atom, "fails on reachable state"))
                if cex:
                    result.counterexamples.append(cex)
            else:
                result.sound.append(atom)
        return result

    def check_invariant(
        self,
        loop_index: int,
        invariant: Formula,
        post_exprs: Sequence = (),
    ) -> CheckReport:
        """Degraded full check: recorded evidence only.

        Inductiveness follows the reachability verdict (an invariant
        holding on every recorded state holds across every recorded
        transition; nothing beyond the recording can be stepped), and
        postconditions are unobservable without a program's asserts.
        """
        invariant = simplify(invariant)
        report = CheckReport(outcome=CheckOutcome.UNKNOWN)
        outcome, cex = holds_on_pool(self.reach_pool(loop_index), invariant)
        report.precondition = outcome
        if outcome is CheckOutcome.INVALID and cex:
            report.counterexamples.append(cex)
            report.notes.append(f"invariant fails at recorded state {cex}")
        report.inductive = outcome
        report.postcondition = (
            CheckOutcome.UNKNOWN if post_exprs else CheckOutcome.VALID
        )
        report.notes.append(
            "trace-only problem: checked against held-out recorded states "
            "(no symbolic/perturbation inductiveness)"
        )
        return report.conclude()


def make_checker(problem: "Problem") -> InvariantChecker | RecordedChecker:
    """The right checker for a problem's observation source.

    Program-backed problems get the full hybrid
    :class:`~repro.checker.vc.InvariantChecker`; trace-only problems
    degrade to :class:`RecordedChecker`.  Every solver adapter builds
    its checker here, so the two modes stay behaviorally aligned (same
    seed, same externals handling) across strategies.
    """
    if problem.program_backed:
        return InvariantChecker(
            problem.program,
            problem.effective_check_inputs,
            externals=problem.externals,
            rng=np.random.default_rng(DEFAULT_CHECKER_SEED),
        )
    source = problem.observations()
    assert isinstance(source, RecordedTraceSource)
    return RecordedChecker(source, externals=problem.externals)
