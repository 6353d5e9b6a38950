"""Tree-walking interpreter with trace instrumentation.

Programs execute over exact rationals (``int`` values stay ``int`` where
possible; division produces ``Fraction``).  Exact arithmetic is what
makes fractional sampling (§4.3 of the paper) sound: relaxed initial
values like ``y0 = -0.6`` are represented as ``Fraction(-3, 5)`` and the
loop semantics are otherwise unchanged.

Instrumentation records a snapshot of the full variable environment at
every loop-head evaluation — i.e. each time a ``while`` guard is tested,
including the final failing test — tagged with the loop id and iteration
number.  This matches the paper's trace collection (Fig. 4a logs inside
the loop every iteration and once after exit).  A run also records the
most interpreter steps one iteration of each loop's body took, which the
bounded checker turns into a step budget.  :meth:`Interpreter.
execute_block` records nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

from repro.errors import FuelExhausted, InterpError
from repro.lang.ast import (
    Assert,
    Assign,
    Assume,
    Binary,
    Block,
    BoolLit,
    Call,
    Expr,
    If,
    IntLit,
    Program,
    Stmt,
    Unary,
    Var,
    While,
)
from repro.lang.builtins import lookup_builtin

Value = "int | Fraction | bool"


def _normalize(value):
    """Collapse integral Fractions back to int for cleaner traces."""
    if isinstance(value, Fraction) and value.denominator == 1:
        return int(value)
    return value


@dataclass(frozen=True)
class LoopSnapshot:
    """One logged program state at a loop head.

    Attributes:
        loop_id: which loop (parse order) the snapshot belongs to.
        iteration: 0 for the first guard test, incrementing per test.
        state: variable environment at the time of the test.
        guard_value: whether the guard held (False = exit snapshot).
    """

    loop_id: int
    iteration: int
    state: Mapping[str, object]
    guard_value: bool


@dataclass
class ExecutionTrace:
    """Everything recorded from one program execution."""

    inputs: dict[str, object]
    snapshots: list[LoopSnapshot] = field(default_factory=list)
    final_state: dict[str, object] = field(default_factory=dict)
    assume_violated: bool = False
    assertion_failures: list[str] = field(default_factory=list)
    # Loop id -> the most interpreter steps one iteration of its body
    # took (inner loops included).
    max_body_steps: dict[int, int] = field(default_factory=dict)


class _AssumeViolation(Exception):
    """Internal control flow: an ``assume`` failed, discard this run."""


class Interpreter:
    """Executes a :class:`Program` on given inputs, recording a trace."""

    def __init__(self, program: Program, fuel: int = 100_000):
        """
        Args:
            program: parsed program to run.
            fuel: maximum number of statement evaluations before
                :class:`FuelExhausted` is raised.
        """
        self._program = program
        self._fuel_limit = fuel

    def run(self, inputs: Mapping[str, object]) -> ExecutionTrace:
        """Execute the program on ``inputs``.

        Args:
            inputs: values for every declared ``input`` variable; ints,
                Fractions, or floats (floats are converted exactly).

        Returns:
            The recorded :class:`ExecutionTrace`.  When an ``assume``
            fails, the trace has ``assume_violated=True`` and no
            snapshots; assertion failures are recorded, not raised.
        """
        env: dict[str, object] = {}
        for name in self._program.inputs:
            if name not in inputs:
                raise InterpError(f"missing input {name!r}")
            env[name] = _coerce_input(inputs[name])
        extra = set(inputs) - set(self._program.inputs)
        if extra:
            # Permit seeding non-input variables: fractional sampling
            # overrides initializers by pre-binding them (see
            # sampling.fractional for how initializer statements are
            # rewritten instead); unknown names are still an error.
            raise InterpError(f"unknown inputs: {sorted(extra)}")

        trace = ExecutionTrace(inputs={k: _coerce_input(v) for k, v in inputs.items()})
        self._budget = self._fuel = self._fuel_limit
        try:
            self._exec_block(self._program.body, env, trace)
        except _AssumeViolation:
            trace.assume_violated = True
            trace.snapshots.clear()
        trace.final_state = {k: _normalize(v) for k, v in env.items()}
        return trace

    def execute_block(
        self,
        block: Block,
        state: Mapping[str, object],
        budget: int | None = None,
    ) -> dict[str, object]:
        """Execute a statement block from an arbitrary state.

        Used by the bounded checker to take one loop-body step from a
        (possibly unreachable) state when testing inductiveness.  No
        trace is kept: inner loops log no snapshots.

        Args:
            block: statements to run (e.g. ``loop.body``).
            state: starting environment (not mutated).
            budget: step budget for this block; the interpreter's fuel
                when omitted.  Running out raises :class:`FuelExhausted`.

        Returns:
            The environment after execution.
        """
        env = {k: _normalize(_coerce_input(v)) for k, v in state.items()}
        self._budget = self._fuel = self._fuel_limit if budget is None else budget
        self._exec_block(block, env, None)
        return {k: _normalize(v) for k, v in env.items()}

    # -- statement execution -------------------------------------------------

    def _spend_fuel(self) -> None:
        self._fuel -= 1
        if self._fuel <= 0:
            raise FuelExhausted(
                f"program {self._program.name!r} exceeded {self._budget} steps"
            )

    def _exec_block(
        self, block: Block, env: dict, trace: ExecutionTrace | None
    ) -> None:
        for stmt in block.statements:
            self._exec_stmt(stmt, env, trace)

    def _exec_stmt(
        self, stmt: Stmt, env: dict, trace: ExecutionTrace | None
    ) -> None:
        self._spend_fuel()
        if isinstance(stmt, Assign):
            env[stmt.name] = _normalize(self._eval(stmt.value, env))
        elif isinstance(stmt, If):
            if self._eval_bool(stmt.cond, env):
                self._exec_block(stmt.then_body, env, trace)
            elif stmt.else_body is not None:
                self._exec_block(stmt.else_body, env, trace)
        elif isinstance(stmt, While):
            iteration = 0
            while True:
                guard = self._eval_bool(stmt.cond, env)
                if trace is not None:
                    trace.snapshots.append(
                        LoopSnapshot(
                            loop_id=stmt.loop_id,
                            iteration=iteration,
                            state={k: _normalize(v) for k, v in env.items()},
                            guard_value=guard,
                        )
                    )
                if not guard:
                    break
                fuel = self._fuel
                self._exec_block(stmt.body, env, trace)
                if trace is not None:
                    steps = fuel - self._fuel
                    if steps > trace.max_body_steps.get(stmt.loop_id, 0):
                        trace.max_body_steps[stmt.loop_id] = steps
                iteration += 1
                self._spend_fuel()
        elif isinstance(stmt, Assume):
            if not self._eval_bool(stmt.cond, env):
                raise _AssumeViolation()
        elif isinstance(stmt, Assert):
            if not self._eval_bool(stmt.cond, env) and trace is not None:
                trace.assertion_failures.append(
                    f"assertion failed in {self._program.name!r}"
                )
        elif isinstance(stmt, Block):
            self._exec_block(stmt, env, trace)
        else:
            raise InterpError(f"unknown statement {stmt!r}")

    # -- expression evaluation -------------------------------------------------

    def _eval_bool(self, expr: Expr, env: dict) -> bool:
        value = self._eval(expr, env)
        if not isinstance(value, bool):
            raise InterpError(f"expected boolean, got {value!r}")
        return value

    def _eval(self, expr: Expr, env: dict):
        if isinstance(expr, IntLit):
            return expr.value
        if isinstance(expr, BoolLit):
            return expr.value
        if isinstance(expr, Var):
            if expr.name not in env:
                raise InterpError(f"undefined variable {expr.name!r}")
            return env[expr.name]
        if isinstance(expr, Unary):
            operand = self._eval(expr.operand, env)
            if expr.op == "-":
                return -operand
            if expr.op == "!":
                if not isinstance(operand, bool):
                    raise InterpError(f"'!' needs a boolean, got {operand!r}")
                return not operand
            raise InterpError(f"unknown unary operator {expr.op!r}")
        if isinstance(expr, Binary):
            return self._eval_binary(expr, env)
        if isinstance(expr, Call):
            func = lookup_builtin(expr.func)
            args = [self._eval(a, env) for a in expr.args]
            return _normalize(func(*args))
        raise InterpError(f"unknown expression {expr!r}")

    def _eval_binary(self, expr: Binary, env: dict):
        op = expr.op
        if op == "&&":
            return self._eval_bool(expr.left, env) and self._eval_bool(expr.right, env)
        if op == "||":
            return self._eval_bool(expr.left, env) or self._eval_bool(expr.right, env)
        left = self._eval(expr.left, env)
        right = self._eval(expr.right, env)
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            if right == 0:
                raise InterpError("division by zero")
            return Fraction(left) / Fraction(right)
        if op == "%":
            return lookup_builtin("mod")(left, right)
        if op == "==":
            return left == right
        if op == "!=":
            return left != right
        if op == "<":
            return left < right
        if op == "<=":
            return left <= right
        if op == ">":
            return left > right
        if op == ">=":
            return left >= right
        raise InterpError(f"unknown binary operator {op!r}")


def _coerce_input(value):
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return _normalize(value)
    if isinstance(value, float):
        return _normalize(Fraction(value).limit_denominator(10**6))
    raise InterpError(f"unsupported input value {value!r}")


def run_program(
    program: Program, inputs: Mapping[str, object], fuel: int = 100_000
) -> ExecutionTrace:
    """Convenience wrapper: run ``program`` once on ``inputs``."""
    return Interpreter(program, fuel=fuel).run(inputs)
