"""Independent re-check of every reported sound atom.

For a solved record, each sound atom is parsed back from its printed
form, the problem's check inputs are run through ``Interpreter.run``,
and the atom is evaluated with exact Fractions on every loop-head state
of its loop.  Nothing here calls into ``repro.checker``: this is the
oracle any checker fast path has to pass.
"""

from __future__ import annotations

import re
from fractions import Fraction

from repro.errors import FuelExhausted, InterpError, ReproError
from repro.infer.problem import Problem, parse_ground_truth
from repro.lang.interp import Interpreter
from repro.sampling.termgen import extend_state

# The step budget the checker gives each checking run.
FUEL = 500_000

_POWER = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)\^(\d+)")
_HOLDS = {
    "==": lambda v: v == 0,
    "!=": lambda v: v != 0,
    "<": lambda v: v < 0,
    "<=": lambda v: v <= 0,
    ">": lambda v: v > 0,
    ">=": lambda v: v >= 0,
}


def parse_atom(text: str):
    """Parse a printed atom; ``x^3`` becomes ``(x*x*x)`` for the parser."""
    expanded = _POWER.sub(lambda m: "(" + "*".join([m[1]] * int(m[2])) + ")", text)
    return parse_ground_truth(expanded)


def _value(atom, state) -> Fraction:
    total = Fraction(0)
    for monomial, coeff in atom.poly.terms.items():
        term = Fraction(coeff)
        for var, exp in monomial:
            term *= Fraction(state[var]) ** exp
        total += term
    return total


def loop_head_states(problem: Problem) -> dict[int, list[dict]]:
    """Every loop-head state of every valid checking run, per loop."""
    interpreter = Interpreter(problem.program, fuel=FUEL)
    states: dict[int, list[dict]] = {}
    for inputs in problem.effective_check_inputs:
        try:
            trace = interpreter.run(inputs)
        except (FuelExhausted, InterpError):
            continue
        if trace.assume_violated:
            continue
        for snapshot in trace.snapshots:
            states.setdefault(snapshot.loop_id, []).append(dict(snapshot.state))
    return states


def recheck(problem: Problem, loops: list[dict]) -> list[str]:
    """Failures (problem, atom and state) among a record's sound atoms.

    ``loops`` is the record's ``result["loops"]`` wire list.
    """
    states = loop_head_states(problem)
    failures: list[str] = []
    for loop in loops:
        for text in loop["sound_atoms"]:
            try:
                atom = parse_atom(text)
            except ReproError as exc:  # an unparsable atom fails the check
                failures.append(f"{problem.name}: cannot parse {text!r}: {exc}")
                continue
            for state in states.get(loop["loop_index"], []):
                point = extend_state(state, problem.externals) if problem.externals else state
                if not _HOLDS[atom.op](_value(atom, point)):
                    failures.append(f"{problem.name}: {text} fails at {state}")
                    break
    return failures
