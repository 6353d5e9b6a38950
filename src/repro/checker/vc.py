"""Top-level invariant checking: atom filtering and full VC reports.

:class:`InvariantChecker` is what the inference pipeline talks to.  It
combines the exact symbolic equality check with bounded sampling:

* :meth:`filter_sound_atoms` — given candidate atoms for one loop,
  iterate to the greatest subset that is (a) true on every reachable
  loop-head state over the *checking* input space (the loop's reach
  pool), and (b) inductive relative to the surviving conjunction
  (symbolically for equalities when the loop body is polynomial;
  bounded otherwise, over the loop's head pool).  This realizes the
  paper's "check and remove unsound constraints" step.
* :meth:`check_invariant` — full three-VC report for a formula,
  including postcondition sufficiency, used to decide whether the
  CEGIS loop can stop.

The checker builds a loop's reach pool on its first check, and draws
every loop's perturbation pools once, on the first bounded check
(:meth:`~repro.checker.bounded.BoundedChecker.draw_pools`).  It keeps
them for its lifetime, across attempts: every verdict reads the same
states, whatever ran before it.  The CEGIS retry loop re-submits its
growing candidate pool every attempt; a re-checked atom reads its
truth vectors from the pools' caches (counted in ``memo_hits``), and
there is no other verdict memo.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.lang.ast import Expr, Program
from repro.lang.analysis import extract_loop_paths
from repro.lang.interp import ExecutionTrace
from repro.sampling.termgen import ExternalTerm
from repro.smt.formula import And, Atom, Formula
from repro.smt.simplify import simplify
from repro.checker.bounded import BoundedChecker, StatePool
from repro.checker.result import CHECKING_FULL, CheckOutcome, CheckReport
from repro.checker.symbolic import equality_inductive_symbolic


# Default seed for the checker's perturbation-sampling RNG.  Shared by
# the inference engine and the baseline solver adapters so every solver
# is filtered by an identically-behaved checker.
DEFAULT_CHECKER_SEED = 10_007

@dataclass
class AtomFilterResult:
    """Outcome of :meth:`InvariantChecker.filter_sound_atoms`."""

    sound: list[Atom] = field(default_factory=list)
    rejected: list[tuple[Atom, str]] = field(default_factory=list)
    counterexamples: list[dict] = field(default_factory=list)


class InvariantChecker:
    """Checks candidate invariants for one program."""

    # The checking mode this checker realizes, reported through
    # ``SolveResult.checking`` (trace-only problems degrade to the
    # ``bounded-holdout`` mode of repro.checker.trace).
    checking = CHECKING_FULL

    def __init__(
        self,
        program: Program,
        check_inputs: Sequence[Mapping[str, object]],
        externals: Sequence[ExternalTerm] = (),
        rng: np.random.Generator | None = None,
    ):
        """
        Args:
            program: program under verification.
            check_inputs: input assignments for the checking runs;
                should be wider than the training inputs.
            externals: external-function terms usable in invariants.
            rng: randomness for perturbation sampling.
        """
        self.program = program
        self.bounded = BoundedChecker(program, externals=externals, rng=rng)
        self._traces: list[ExecutionTrace] | None = None
        self._check_inputs = list(check_inputs)
        self._paths_cache: dict[int, object] = {}
        self._pools: list[tuple[StatePool, StatePool]] | None = None
        self._reach_pools: dict[int, StatePool] = {}

    @property
    def memo_hits(self) -> int:
        """Truth vectors the pools served from their caches."""
        pools = [p for loop in self._pools or () for p in loop]
        pools.extend(self._reach_pools.values())
        return sum(pool.hits for pool in pools)

    @property
    def traces(self) -> list[ExecutionTrace]:
        """Checking traces (computed lazily, cached)."""
        if self._traces is None:
            self._traces = self.bounded.run_traces(self._check_inputs)
        return self._traces

    def _paths(self, loop_index: int):
        if loop_index not in self._paths_cache:
            self._paths_cache[loop_index] = extract_loop_paths(
                self.program.loops[loop_index]
            )
        return self._paths_cache[loop_index]

    def pool(self, loop_index: int, exit_: bool = False) -> StatePool:
        """The loop's head pool (or exit pool); the first call draws
        every loop's pools."""
        if self._pools is None:
            self._pools = self.bounded.draw_pools(self.traces)
        return self._pools[loop_index][exit_]

    def reach_pool(self, loop_index: int) -> StatePool:
        """The loop's reach pool (built on first use)."""
        pool = self._reach_pools.get(loop_index)
        if pool is None:
            pool = self._reach_pools[loop_index] = self.bounded.reach_pool(
                self.traces, loop_index
            )
        return pool

    # -- atom filtering ----------------------------------------------------------

    def filter_sound_atoms(
        self, loop_index: int, atoms: Sequence[Atom]
    ) -> AtomFilterResult:
        """Greatest sound subset of candidate atoms for one loop."""
        result = AtomFilterResult()
        reach = self.reach_pool(loop_index)

        # Phase 1: reachability soundness (absolute per atom).
        surviving: list[Atom] = []
        for atom in atoms:
            outcome, cex = self.bounded.holds_on_reachable(reach, atom)
            if outcome is CheckOutcome.INVALID:
                result.rejected.append((atom, "fails on reachable state"))
                if cex:
                    result.counterexamples.append(cex)
            else:
                surviving.append(atom)

        # Phase 2: inductiveness relative to the surviving set, to fixpoint.
        paths = self._paths(loop_index)
        changed = True
        while changed and surviving:
            changed = False
            eq_polys = [a.poly for a in surviving if a.op == "=="]
            keep: list[Atom] = []
            for atom in surviving:
                verdict = CheckOutcome.UNKNOWN
                if atom.op == "==" and paths is not None:
                    verdict = equality_inductive_symbolic(atom.poly, eq_polys, paths)
                if verdict is not CheckOutcome.VALID:
                    verdict, cex = self.bounded.inductive_bounded(
                        self.pool(loop_index), surviving, atom
                    )
                    if verdict is CheckOutcome.INVALID:
                        result.rejected.append((atom, "not inductive"))
                        if cex:
                            result.counterexamples.append(cex)
                        changed = True
                        continue
                keep.append(atom)
            surviving = keep
        result.sound = surviving
        return result

    # -- full check -------------------------------------------------------------

    def check_invariant(
        self,
        loop_index: int,
        invariant: Formula,
        post_exprs: Sequence[Expr] = (),
    ) -> CheckReport:
        """Full three-VC report for a candidate invariant formula."""
        report = CheckReport(outcome=CheckOutcome.UNKNOWN)
        invariant = simplify(invariant)

        # P => I plus consistency along executions.
        outcome, cex = self.bounded.holds_on_reachable(
            self.reach_pool(loop_index), invariant
        )
        report.precondition = outcome
        if outcome is CheckOutcome.INVALID and cex:
            report.counterexamples.append(cex)
            report.notes.append(f"invariant fails at reachable state {cex}")

        # Inductiveness.
        paths = self._paths(loop_index)
        inductive = CheckOutcome.UNKNOWN
        atoms = invariant.atoms()
        if (
            paths is not None
            and atoms
            and all(a.op == "==" for a in atoms)
            and isinstance(invariant, (Atom, And))
        ):
            eq_polys = [a.poly for a in atoms]
            verdicts = [
                equality_inductive_symbolic(p, eq_polys, paths) for p in eq_polys
            ]
            if all(v is CheckOutcome.VALID for v in verdicts):
                inductive = CheckOutcome.VALID
        if inductive is not CheckOutcome.VALID:
            inductive, cex = self.bounded.inductive_bounded(
                self.pool(loop_index), [invariant], invariant
            )
            if cex:
                report.counterexamples.append(cex)
                report.notes.append(f"inductiveness fails from state {cex}")
        report.inductive = inductive

        # Postcondition sufficiency.
        if post_exprs:
            post_outcome = CheckOutcome.VALID
            for expr in post_exprs:
                outcome, cex = self.bounded.postcondition_bounded(
                    self.pool(loop_index, exit_=True),
                    invariant,
                    self.bounded.expr_fn(expr),
                )
                if outcome is CheckOutcome.INVALID:
                    post_outcome = CheckOutcome.INVALID
                    if cex:
                        report.counterexamples.append(cex)
                        report.notes.append(f"postcondition fails at {cex}")
                    break
                if outcome is CheckOutcome.UNKNOWN:
                    post_outcome = CheckOutcome.UNKNOWN
            report.postcondition = post_outcome
        else:
            report.postcondition = CheckOutcome.VALID
        return report.conclude()
