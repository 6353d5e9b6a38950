"""Bounded / randomized invariant checking with counterexamples.

This module discharges the verification conditions that the symbolic
checker cannot, by sampling:

* **reachability soundness** — over the loop's *reach pool*: the
  candidate must hold at every loop-head state of the checking traces
  (up to ``MAX_CHECKED_STATES``), which run over a *wider* input space
  than training used;
* **bounded inductiveness** — over the loop's *head pool*: the
  loop-head states of the checking traces plus integer perturbations of
  them (generally unreachable), kept where the loop guard holds.  Every
  pool state that satisfies the premise takes one loop-body step, and
  the target must hold afterwards;
* **postcondition sufficiency** — over the loop's *exit pool*, the same
  recipe on exit states kept where the guard fails: every state
  satisfying ``I`` must satisfy the postcondition ``Q``.

:meth:`BoundedChecker.draw_pools` draws every loop's two perturbation
pools at once, in loop order, and :meth:`BoundedChecker.reach_pool`
builds one loop's reach pool (no randomness); the caller keeps them for
its lifetime.  A :class:`StatePool` caches, lazily, one truth vector per
formula over its states, one post state per index (the body runs at most
once per state, and only once some premise admits it), and one truth
vector per target over those post states.  A verdict therefore depends
only on the pool, the premise and the target, never on which check ran
first, and a larger premise tests a subset of the same states.
Re-checking an atom on a later attempt reads its cached truth vector;
that cache is the checker's only verdict memo.  :func:`holds_on_pool`
reads a reachability verdict off a pool; the recorded-trace checker
(:mod:`repro.checker.trace`) uses it on a pool of held-out states.

A body step runs on a budget: the most interpreter steps one iteration
of the loop's body took in the checking traces, times
``_BODY_BUDGET_FACTOR``.  A perturbed state that spins an inner loop
past it is not tested, like any state whose step raises.

A failure yields a concrete counterexample state.  This is the
sound-up-to-sampling substitute for Z3 described in
docs/architecture.md ("Substitutes for the paper's tools"); the CEGIS
loop of the paper survives intact because failures produce
counterexamples that drive retraining / atom pruning.
"""

from __future__ import annotations

from itertools import islice
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.errors import FuelExhausted, InterpError
from repro.lang.ast import Program, While
from repro.lang.interp import ExecutionTrace, Interpreter
from repro.sampling.termgen import ExternalTerm, extend_state
from repro.smt.formula import Formula
from repro.checker.result import CheckOutcome


# Interpreter step budget per checking run: the checking traces and
# record_observations' checking replay use it, and so does a body step
# of a loop that no checking trace entered.
CHECK_FUEL = 500_000

# A reach pool holds at most this many loop-head states (the first ones,
# in trace order); a failure past them is not seen.
MAX_CHECKED_STATES = 50_000

# Perturbation pools for the inductiveness and postcondition VCs:
# perturbed states drawn per base state, the largest absolute integer
# offset applied to a variable, and the cap on base states per pool.
_PERTURBATIONS_PER_STATE = 8
_PERTURBATION_RADIUS = 3
_MAX_BASE_STATES = 200

# A pool's body step may take this many times the most steps one body
# iteration took in the checking traces.
_BODY_BUDGET_FACTOR = 10

# Errors that make a state untestable: a failed guard, external term,
# body step (a spent budget included) or atom evaluation.
_UNTESTABLE = (InterpError, ZeroDivisionError)

_UNSET = object()


def _evaluation_env(
    state: Mapping[str, object], externals: Sequence[ExternalTerm]
) -> dict[str, object]:
    """The state extended with the external terms' values, bool flags
    dropped (a polynomial over a flag raises ``PolyError``).  Ints stay
    ints: on an all-int state every atom takes the integer path of
    :meth:`~repro.poly.polynomial.Polynomial.evaluate_scaled`."""
    extended = extend_state(state, externals) if externals else state
    return {k: v for k, v in extended.items() if not isinstance(v, bool)}


class StatePool:
    """States at one loop head, with cached truth vectors.

    Attributes:
        states: the pool's states, in draw order (perturbation pools
            drop duplicates; a reach pool keeps trace order).
        budget: step budget of one loop-body step (head pools).
        hits: truth vectors served from the cache.
    """

    def __init__(
        self,
        states: list[dict[str, object]],
        externals: Sequence[ExternalTerm],
        step: Callable[[dict[str, object]], dict[str, object]] | None = None,
        budget: int | None = None,
    ):
        """
        Args:
            states: the pool's states.
            externals: external terms to extend states with.
            step: one loop-body step (head pools only).
            budget: the step budget ``step`` runs on.
        """
        self.states = states
        self.budget = budget
        self.hits = 0
        self._externals = externals
        self._step = step
        self._envs: list[dict | None] | None = None
        self._truth: dict[str, np.ndarray] = {}
        self._after: list = [_UNSET] * len(states)
        self._after_truth: dict[str, list] = {}

    def __len__(self) -> int:
        return len(self.states)

    def _env(self, state: Mapping[str, object]) -> dict | None:
        try:
            return _evaluation_env(state, self._externals)
        except _UNTESTABLE:
            return None

    def truth(self, formula: Formula) -> np.ndarray:
        """Whether ``formula`` holds on each state (False where it
        cannot be evaluated)."""
        key = str(formula)
        vector = self._truth.get(key)
        if vector is None:
            if self._envs is None:
                self._envs = [self._env(s) for s in self.states]
            vector = np.fromiter(
                (_evaluate(formula, env) is True for env in self._envs),
                dtype=bool,
                count=len(self.states),
            )
            self._truth[key] = vector
        else:
            self.hits += 1
        return vector

    def admitted(self, premise: Sequence[Formula]) -> np.ndarray:
        """Indices of the states where every premise formula holds."""
        mask = np.ones(len(self.states), dtype=bool)
        for formula in premise:
            mask &= self.truth(formula)
        return np.flatnonzero(mask)

    def holds_after(self, index: int, target: Formula) -> bool | None:
        """Whether ``target`` holds one body step after ``states[index]``.

        None when the state is not tested: the step or the evaluation
        raised, or the step ran out of budget.
        """
        env = self._after[index]
        if env is _UNSET:
            try:
                env = self._env(self._step(self.states[index]))
            except _UNTESTABLE:
                env = None
            self._after[index] = env
        if env is None:
            return None
        vector = self._after_truth.get(str(target))
        if vector is None:
            vector = self._after_truth[str(target)] = [_UNSET] * len(self)
        if vector[index] is _UNSET:
            vector[index] = _evaluate(target, env)
        return vector[index]


def _evaluate(formula: Formula, env: dict | None) -> bool | None:
    if env is None:
        return None
    try:
        return formula.evaluate(env)
    except _UNTESTABLE:
        return None


def holds_on_pool(
    pool: StatePool, formula: Formula
) -> tuple[CheckOutcome, dict | None]:
    """Reachability verdict of ``formula`` on a pool of reachable states.

    INVALID at the first state where it is False (a state where it
    cannot be evaluated counts), and that state is the counterexample;
    UNKNOWN on an empty pool; VALID otherwise.
    """
    if not len(pool):
        return CheckOutcome.UNKNOWN, None
    failing = np.flatnonzero(~pool.truth(formula))
    if failing.size:
        return CheckOutcome.INVALID, dict(pool.states[failing[0]])
    return CheckOutcome.VALID, None


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
        self, pool: StatePool, invariant: Formula
    ) -> tuple[CheckOutcome, dict | None]:
        """Check the invariant on every state of a loop's reach pool.

        Covers both ``P ⇒ I`` (iteration-0 snapshots) and consistency
        along real executions; see :func:`holds_on_pool`, which the
        recorded-trace checker calls directly.  The full checker's
        reach checks all pass through this method, so one wrapper on it
        traces them.
        """
        return holds_on_pool(pool, invariant)

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

    def reach_pool(
        self, traces: Sequence[ExecutionTrace], loop_id: int
    ) -> StatePool:
        """The loop's reach pool: its first ``MAX_CHECKED_STATES``
        logged head states, in trace order.  The pool refers to the
        snapshots' states rather than copying them."""
        states = (
            s.state for t in traces for s in t.snapshots if s.loop_id == loop_id
        )
        return StatePool(list(islice(states, MAX_CHECKED_STATES)), self.externals)

    def draw_pools(
        self, traces: Sequence[ExecutionTrace]
    ) -> list[tuple[StatePool, StatePool]]:
        """Draw every loop's (head, exit) pools, in loop order.

        A pool's base states are the loop's first ``_MAX_BASE_STATES``
        logged states (every head state for the head pool, the exit
        states for the exit pool); each base state contributes itself
        and ``_PERTURBATIONS_PER_STATE`` perturbations, kept where the
        guard holds (head) or fails (exit).
        """
        pools = []
        for loop in self.program.loops:
            snapshots = [
                s for t in traces for s in t.snapshots if s.loop_id == loop.loop_id
            ]
            steps = max(
                (t.max_body_steps.get(loop.loop_id, 0) for t in traces), default=0
            )
            # A loop whose body never ran in the traces has no measured
            # budget and steps on the whole checking fuel.
            budget = steps * _BODY_BUDGET_FACTOR if steps else CHECK_FUEL

            def step(state, body=loop.body, budget=budget):
                return self._interp.execute_block(body, state, budget)

            guard = self.guard_fn(loop)
            head = self._draw([s.state for s in snapshots], guard, True)
            exit_ = self._draw(
                [s.state for s in snapshots if not s.guard_value], guard, False
            )
            pools.append(
                (
                    StatePool(head, self.externals, step, budget),
                    StatePool(exit_, self.externals),
                )
            )
        return pools

    def _draw(
        self,
        base_states: Sequence[Mapping[str, object]],
        guard,
        keep: bool,
    ) -> list[dict[str, object]]:
        states: list[dict[str, object]] = []
        seen: set[frozenset] = set()
        for state in base_states[:_MAX_BASE_STATES]:
            candidates = [dict(state)]
            candidates.extend(
                self._perturb(dict(state)) for _ in range(_PERTURBATIONS_PER_STATE)
            )
            for candidate in candidates:
                try:
                    if guard(candidate) is not keep:
                        continue
                except _UNTESTABLE:
                    continue
                # A repeated state cannot change a verdict or which
                # state is the first counterexample.
                key = frozenset(candidate.items())
                if key not in seen:
                    seen.add(key)
                    states.append(candidate)
        return states

    def inductive_bounded(
        self,
        pool: StatePool,
        premise: Sequence[Formula],
        target: Formula,
    ) -> tuple[CheckOutcome, dict | None]:
        """Bounded inductiveness of ``target`` relative to ``premise``.

        Every head-pool state where each premise formula holds takes
        one loop-body step, after which ``target`` must hold (normally
        ``target`` is one atom of the premise; pass ``[I]`` and ``I`` to
        check the whole conjunction).  The first state that fails is
        the counterexample.
        """
        tested = False
        for index in pool.admitted(premise):
            after = pool.holds_after(int(index), target)
            if after is None:
                continue
            if not after:
                return CheckOutcome.INVALID, dict(pool.states[index])
            tested = True
        return (CheckOutcome.VALID if tested else CheckOutcome.UNKNOWN), None

    def postcondition_bounded(
        self,
        pool: StatePool,
        invariant: Formula,
        post_fn,
    ) -> tuple[CheckOutcome, dict | None]:
        """Check ``I ∧ ¬LC ⇒ Q`` on the exit pool."""
        tested = False
        for index in pool.admitted([invariant]):
            state = pool.states[index]
            try:
                if not post_fn(state):
                    return CheckOutcome.INVALID, dict(state)
            except _UNTESTABLE:
                continue
            tested = True
        return (CheckOutcome.VALID if tested else CheckOutcome.UNKNOWN), None
