"""Static analyses over the mini language used by the symbolic checker.

The key export is :func:`extract_loop_paths`: for a loop whose body is
straight-line polynomial code (assignments and ``if``/``else``, no
nested loops, no external calls), it enumerates every path through the
body as a path condition plus a *symbolic update map* sending each
variable to the polynomial describing its value after one iteration.

Candidate equality invariants are then checked for inductiveness by
exact substitution of these update maps (see ``repro.checker.symbolic``).
Loops that fall outside this fragment return ``None`` and the checker
falls back to bounded checking.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import PolyError
from repro.lang.ast import (
    Assert,
    Assign,
    Assume,
    Binary,
    Block,
    Expr,
    If,
    IntLit,
    Program,
    Unary,
    Var,
    While,
    walk_statements,
)
from repro.poly.polynomial import Polynomial


class _NonPolynomial(Exception):
    """Internal: expression leaves the polynomial fragment."""


def program_variables(program: Program) -> list[str]:
    """All variables of a program: inputs plus every assigned name.

    Ordered deterministically: inputs in declaration order, then
    assigned variables in first-assignment order.
    """
    seen = list(program.inputs)
    seen_set = set(seen)
    for stmt in walk_statements(program.body):
        if isinstance(stmt, Assign) and stmt.name not in seen_set:
            seen.append(stmt.name)
            seen_set.add(stmt.name)
    return seen


def expr_to_polynomial(
    expr: Expr, env: dict[str, Polynomial] | None = None
) -> Polynomial | None:
    """Convert an arithmetic expression to a polynomial, if possible.

    Args:
        expr: arithmetic expression (no booleans, comparisons, calls).
        env: optional substitution for variables already updated along
            the current path; unmapped variables stay symbolic.

    Returns:
        The polynomial, or ``None`` when the expression is outside the
        polynomial fragment (``%``, calls, boolean subterms, or division
        by a non-constant).
    """
    try:
        return _to_poly(expr, env or {})
    except _NonPolynomial:
        return None


def _to_poly(expr: Expr, env: dict[str, Polynomial]) -> Polynomial:
    if isinstance(expr, IntLit):
        return Polynomial.constant(expr.value)
    if isinstance(expr, Var):
        return env.get(expr.name, Polynomial.var(expr.name))
    if isinstance(expr, Unary):
        if expr.op == "-":
            return -_to_poly(expr.operand, env)
        raise _NonPolynomial()
    if isinstance(expr, Binary):
        if expr.op in ("+", "-", "*"):
            left = _to_poly(expr.left, env)
            right = _to_poly(expr.right, env)
            if expr.op == "+":
                return left + right
            if expr.op == "-":
                return left - right
            return left * right
        if expr.op == "/":
            left = _to_poly(expr.left, env)
            right = _to_poly(expr.right, env)
            if not right.is_constant() or right.is_zero():
                raise _NonPolynomial()
            return left.scale(1 / right.constant_term())
        raise _NonPolynomial()
    raise _NonPolynomial()


@dataclass
class LoopPath:
    """One path through a loop body.

    Attributes:
        conditions: branch conditions taken along the path, each as
            ``(expr, polarity)`` — the path is feasible when every
            expr evaluates to its polarity.
        updates: symbolic update map ``var -> polynomial over pre-state``
            for every variable assigned on the path.
    """

    conditions: list[tuple[Expr, bool]] = field(default_factory=list)
    updates: dict[str, Polynomial] = field(default_factory=dict)


def extract_loop_paths(loop: While) -> list[LoopPath] | None:
    """Enumerate symbolic paths through ``loop``'s body.

    Returns ``None`` when the body contains nested loops or any
    non-polynomial assignment, in which case symbolic inductiveness
    checking is unavailable for this loop.
    """
    paths = [LoopPath()]
    try:
        return _extend_paths(loop.body, paths)
    except _NonPolynomial:
        return None


def _extend_paths(block: Block, paths: list[LoopPath]) -> list[LoopPath]:
    for stmt in block.statements:
        if isinstance(stmt, Assign):
            for path in paths:
                value = _to_poly(stmt.value, path.updates)
                path.updates = dict(path.updates)
                path.updates[stmt.name] = value
        elif isinstance(stmt, If):
            new_paths: list[LoopPath] = []
            for path in paths:
                then_path = LoopPath(
                    conditions=path.conditions + [(stmt.cond, True)],
                    updates=dict(path.updates),
                )
                new_paths.extend(_extend_paths(stmt.then_body, [then_path]))
                else_path = LoopPath(
                    conditions=path.conditions + [(stmt.cond, False)],
                    updates=dict(path.updates),
                )
                if stmt.else_body is not None:
                    new_paths.extend(_extend_paths(stmt.else_body, [else_path]))
                else:
                    new_paths.append(else_path)
            paths = new_paths
        elif isinstance(stmt, Block):
            paths = _extend_paths(stmt, paths)
        elif isinstance(stmt, (Assume, Assert)):
            continue
        elif isinstance(stmt, While):
            raise _NonPolynomial()
        else:
            raise PolyError(f"unexpected statement {stmt!r}")
        if len(paths) > 64:
            # Path explosion guard; fall back to bounded checking.
            raise _NonPolynomial()
    return paths
