"""Bounded / randomized invariant checking with counterexamples.

This module discharges the verification conditions that the symbolic
checker cannot, by sampling:

* **reachability soundness** — the candidate must hold at every
  loop-head state over a *wider* input space than training used;
* **bounded inductiveness** — perturb reachable loop-head states into
  nearby (generally unreachable) states, keep those satisfying the
  candidate invariant and the loop guard, execute the loop body once,
  and require the candidate to hold afterwards;
* **postcondition sufficiency** — perturb exit states into states
  satisfying ``I ∧ ¬LC`` and require the postcondition ``Q``.

A failure yields a concrete counterexample state.  This is the
sound-up-to-sampling substitute for Z3 described in DESIGN.md §2; the
CEGIS loop of the paper survives intact because failures produce
counterexamples that drive retraining / atom pruning.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.errors import FuelExhausted, InterpError
from repro.lang.ast import Program, While
from repro.lang.interp import ExecutionTrace, Interpreter
from repro.sampling.termgen import ExternalTerm, extend_state
from repro.smt.formula import Formula
from repro.checker.result import CheckOutcome


# Interpreter step budget per checking run: every checking-side
# execution (checking traces, one-step inductiveness runs, and
# record_observations' checking replay) uses it.
CHECK_FUEL = 500_000

# Reachability checks stop (VALID) after validating this many states.
MAX_CHECKED_STATES = 50_000

# Perturbation sampling for the inductiveness and postcondition VCs:
# perturbed states tried per base state, the largest absolute integer
# offset applied to a variable, and the cap on base states per VC.
_PERTURBATIONS_PER_STATE = 8
_PERTURBATION_RADIUS = 3
_MAX_BASE_STATES = 200


def holds(
    formula: Formula,
    state: Mapping[str, object],
    externals: Sequence[ExternalTerm] = (),
) -> bool:
    """Evaluate ``formula`` exactly on a program state.

    The state is extended with the external terms' values and its bool
    flags are dropped, so a polynomial over a flag raises ``PolyError``.
    Ints stay ints: on an all-int state every atom takes the integer
    path of :meth:`~repro.poly.polynomial.Polynomial.evaluate_scaled`.
    """
    extended = extend_state(state, externals) if externals else state
    return formula.evaluate(
        {k: v for k, v in extended.items() if not isinstance(v, bool)}
    )


class BoundedChecker:
    """Sampling-based VC checker for one program."""

    def __init__(
        self,
        program: Program,
        externals: Sequence[ExternalTerm] = (),
        rng: np.random.Generator | None = None,
    ):
        """
        Args:
            program: the program under verification.
            externals: external-function terms the invariant may use;
                states are extended with their values before evaluation.
            rng: randomness source for perturbations.
        """
        self.program = program
        self.externals = list(externals)
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self._interp = Interpreter(program, fuel=CHECK_FUEL)

    # -- helpers ---------------------------------------------------------

    def run_traces(
        self, inputs: Sequence[Mapping[str, object]]
    ) -> list[ExecutionTrace]:
        """Execute the program over ``inputs``, dropping invalid runs."""
        traces = []
        for assignment in inputs:
            try:
                trace = self._interp.run(assignment)
            except (FuelExhausted, InterpError):
                continue
            if not trace.assume_violated:
                traces.append(trace)
        return traces

    def _perturb(self, state: dict[str, object]) -> dict[str, object]:
        """Integer-offset perturbation of a state (inputs included)."""
        perturbed = dict(state)
        names = [k for k, v in state.items() if not isinstance(v, bool)]
        k = max(1, int(self.rng.integers(1, len(names) + 1)))
        chosen = self.rng.choice(len(names), size=min(k, len(names)), replace=False)
        for idx in chosen:
            offset = int(
                self.rng.integers(-_PERTURBATION_RADIUS, _PERTURBATION_RADIUS + 1)
            )
            name = names[int(idx)]
            perturbed[name] = perturbed[name] + offset
        return perturbed

    # -- verification conditions --------------------------------------------

    def holds_on_reachable(
        self,
        invariant: Formula,
        loop_id: int,
        traces: Sequence[ExecutionTrace],
    ) -> tuple[CheckOutcome, dict | None]:
        """Check the invariant on every reachable loop-head state.

        Covers both ``P ⇒ I`` (iteration-0 snapshots) and consistency
        along real executions.
        """
        checked = 0
        for trace in traces:
            for snapshot in trace.snapshots:
                if snapshot.loop_id != loop_id:
                    continue
                if not holds(invariant, snapshot.state, self.externals):
                    return CheckOutcome.INVALID, dict(snapshot.state)
                checked += 1
                if checked >= MAX_CHECKED_STATES:
                    return CheckOutcome.VALID, None
        if checked == 0:
            return CheckOutcome.UNKNOWN, None
        return CheckOutcome.VALID, None

    def guard_fn(self, loop: While):
        """Boolean evaluator for a loop guard on raw states.

        Uses the interpreter's expression semantics so guards with
        ``%`` or external calls work even though they are outside the
        polynomial formula fragment.
        """

        def evaluate(state: Mapping[str, object]) -> bool:
            env = dict(state)
            return bool(self._interp._eval(loop.cond, env))

        return evaluate

    def expr_fn(self, expr):
        """Boolean evaluator for an arbitrary mini-language expression."""

        def evaluate(state: Mapping[str, object]) -> bool:
            env = dict(state)
            return bool(self._interp._eval(expr, env))

        return evaluate

    def inductive_bounded(
        self,
        invariant: Formula,
        loop: While,
        target: Formula,
        base_states: Sequence[Mapping[str, object]],
    ) -> tuple[CheckOutcome, dict | None]:
        """Perturbation-based inductiveness check.

        For perturbed states satisfying ``I ∧ LC``, one loop-body step
        must re-establish ``target`` (normally one atom of ``I``; pass
        ``invariant`` itself to check the whole conjunction).
        """
        guard = self.guard_fn(loop)
        tested = 0
        for state in list(base_states)[:_MAX_BASE_STATES]:
            candidates = [dict(state)]
            candidates.extend(
                self._perturb(dict(state))
                for _ in range(_PERTURBATIONS_PER_STATE)
            )
            for candidate in candidates:
                try:
                    if not guard(candidate):
                        continue
                    if not holds(invariant, candidate, self.externals):
                        continue
                    after = self._interp.execute_block(loop.body, candidate)
                    if not holds(target, after, self.externals):
                        return CheckOutcome.INVALID, dict(candidate)
                except (InterpError, FuelExhausted, ZeroDivisionError):
                    continue
                tested += 1
        if tested == 0:
            return CheckOutcome.UNKNOWN, None
        return CheckOutcome.VALID, None

    def postcondition_bounded(
        self,
        invariant: Formula,
        loop: While,
        post_fn,
        exit_states: Sequence[Mapping[str, object]],
    ) -> tuple[CheckOutcome, dict | None]:
        """Check ``I ∧ ¬LC ⇒ Q`` on exit states and perturbations."""
        guard = self.guard_fn(loop)
        tested = 0
        for state in list(exit_states)[:_MAX_BASE_STATES]:
            candidates = [dict(state)]
            candidates.extend(
                self._perturb(dict(state))
                for _ in range(_PERTURBATIONS_PER_STATE)
            )
            for candidate in candidates:
                try:
                    if guard(candidate):
                        continue
                    if not holds(invariant, candidate, self.externals):
                        continue
                    if not post_fn(candidate):
                        return CheckOutcome.INVALID, dict(candidate)
                except (InterpError, ZeroDivisionError):
                    continue
                tested += 1
        if tested == 0:
            return CheckOutcome.UNKNOWN, None
        return CheckOutcome.VALID, None
