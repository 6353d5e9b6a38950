"""Benchmark problem definitions.

* ``nla`` — the 27 nonlinear problems of Table 2 (NLA suite [22]),
  transcribed into the mini language with documented ground-truth
  invariants.
* ``code2inv`` — a generated suite of 124 linear-invariant problems
  standing in for the Code2Inv benchmark (§6.4; see docs/architecture.md,
  "Substitutes for the paper's tools", for the rationale).
* ``stability`` — the six problems of the Table 4 stability study.

Every suite exposes a ``*_suite()`` accessor returning a flat
``list[Problem]`` so it can be fed directly to
:meth:`repro.api.service.InvariantService.solve_many`;
:func:`suite_problems` dispatches on a suite name (used by
``python -m repro run-all``).
"""

from repro.bench.nla import NLA_PROBLEMS, nla_problem, nla_suite
from repro.bench.code2inv import code2inv_problems, code2inv_suite
from repro.bench.stability import stability_problems, stability_suite
from repro.errors import ReproError
from repro.infer.problem import Problem

SUITES = ("nla", "code2inv", "stability")


def suite_problems(
    suite: str, names: list[str] | None = None
) -> list[Problem]:
    """Problems of one named suite, optionally filtered by name."""
    if suite == "nla":
        problems = nla_suite()
    elif suite == "code2inv":
        problems = code2inv_suite()
    elif suite == "stability":
        problems = stability_suite()
    else:
        raise ReproError(
            f"unknown suite {suite!r}; expected one of {', '.join(SUITES)}"
        )
    if names is not None:
        wanted = set(names)
        problems = [p for p in problems if p.name in wanted]
        missing = wanted - {p.name for p in problems}
        if missing:
            raise ReproError(
                f"unknown {suite} problem(s): {', '.join(sorted(missing))}"
            )
    return problems


__all__ = [
    "NLA_PROBLEMS",
    "nla_problem",
    "nla_suite",
    "code2inv_problems",
    "code2inv_suite",
    "stability_problems",
    "stability_suite",
    "suite_problems",
    "SUITES",
]
