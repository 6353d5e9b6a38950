"""repro — Gated Continuous Logic Networks for nonlinear loop invariants.

A from-scratch reproduction of "Learning Nonlinear Loop Invariants with
Gated Continuous Logic Networks" (Yao, Ryan, Wong, Jana, Gu — PLDI
2020), including every substrate the paper depends on: a reverse-mode
autodiff engine, an exact polynomial engine with a hybrid invariant
checker (the Z3 substitute), a mini imperative language for the
benchmark programs, the G-CLN model itself, and the baseline systems
used in the paper's comparisons.

Quickstart (the public API is :mod:`repro.api`)::

    from repro import InvariantService, Problem
    problem = Problem(
        name="ps2",
        source='''
            program ps2;
            input k;
            assume (k >= 0);
            x = 0; y = 0;
            while (y < k) { y = y + 1; x = x + y; }
            assert (2 * x == y * y + y);
        ''',
        train_inputs=[{"k": v} for v in range(0, 25)],
        ground_truth={0: ["2 * x == y * y + y"]},
    )
    service = InvariantService()
    result = service.solve(problem)                      # G-CLN
    baseline = service.solve(problem, solver="numinv")   # same schema
    print(result.solved, result.invariant(0))
"""

from repro.errors import ReproError
from repro.infer import (
    InferenceConfig,
    InferenceEngine,
    Problem,
)
from repro.api import (
    InvariantService,
    SolveResult,
    Solver,
    available_solvers,
    get_solver,
    register_solver,
)
from repro.cln import GCLN, GCLNConfig, train_gcln, extract_formula
from repro.smt import Formula, Atom, And, Or, Not, format_formula
from repro.lang import parse_program, run_program

__version__ = "1.1.0"

__all__ = [
    "ReproError",
    "Problem",
    "InferenceConfig",
    "InferenceEngine",
    "InvariantService",
    "Solver",
    "SolveResult",
    "available_solvers",
    "get_solver",
    "register_solver",
    "GCLN",
    "GCLNConfig",
    "train_gcln",
    "extract_formula",
    "Formula",
    "Atom",
    "And",
    "Or",
    "Not",
    "format_formula",
    "parse_program",
    "run_program",
    "__version__",
]
