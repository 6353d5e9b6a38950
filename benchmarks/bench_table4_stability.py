"""Table 4 — stability: plain CLN vs G-CLN convergence rates.

Per problem, train each model N times with randomized initialization
and no restarts; a run converges when a valid invariant implying the
problem's ground truth (or, for Disj Eq, the target disjunction) is
extracted.  The paper: CLN averages 58.3%, G-CLN 97.5%.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from repro.baselines.plain_cln import PlainCLN, train_plain_cln
from repro.bench.stability import stability_problems
from repro.cln.extract import extract_equalities, extract_formula
from repro.cln.model import GCLN, complexity_term_weights
from repro.cln.train import train_gcln
from repro.infer.pipeline import _ground_truth_implied
from repro.poly.nullspace import row_space_basis
from repro.sampling import (
    build_term_basis,
    collect_traces,
    dedup_columns,
    evaluate_terms,
    growth_rate_filter,
    loop_dataset,
    normalize_rows,
)
from repro.sampling.termgen import evaluate_terms_exact
from repro.utils import format_table

from benchmarks.conftest import full_mode

_EPOCHS = 2000


def _prepare(problem):
    traces = collect_traces(problem.program, problem.train_inputs)
    states = loop_dataset(traces, 0, max_states=80)
    variables = problem.loop_variables(0)
    basis = build_term_basis(variables, problem.max_degree)
    raw = evaluate_terms(states, basis)
    keep = growth_rate_filter(raw, [m.degree for m in basis.monomials])
    keep = [j for j in keep if j in set(dedup_columns(raw))]
    basis = basis.restrict(keep)
    raw = raw[:, keep]
    return states, basis, normalize_rows(raw)


def _disjunction_target_met(states, formula) -> bool:
    """Disj Eq converges when the formula captures (x=y) || (x=-y)."""
    for state in states:
        exact = {k: Fraction(v) for k, v in state.items()}
        if not formula.evaluate(exact):
            return False
    atoms = formula.atoms()
    return len(atoms) >= 2


def _gcln_run(problem, states, basis, data, seed) -> bool:
    from repro.cln.model import GCLNConfig

    config = GCLNConfig(max_epochs=_EPOCHS)
    rng = np.random.default_rng(seed)
    weights = complexity_term_weights([m.degree for m in basis.monomials])
    model = GCLN(
        len(basis), config, rng, protected_terms=[0], term_weights=weights
    )
    train_gcln(model, data)
    if problem.name == "disj_eq":
        formula = extract_formula(model, basis, states)
        return _disjunction_target_met(states, formula)
    exact_rows = row_space_basis(evaluate_terms_exact(states, basis))
    atoms = extract_equalities(model, basis, states, exact_rows)
    truth = [a for lid in problem.ground_truth for a in problem.ground_truth_atoms(lid)]
    return _ground_truth_implied([a for a in truth if a.op == "=="], atoms)


def _plain_cln_run(problem, states, basis, data, seed) -> bool:
    rng = np.random.default_rng(seed)
    model = PlainCLN(
        len(basis),
        n_units=4,
        rng=rng,
        disjunction=(problem.name == "disj_eq"),
    )
    atoms = train_plain_cln(model, data, basis, states, max_epochs=_EPOCHS)
    if problem.name == "disj_eq":
        return len(atoms) >= 2
    truth = [a for lid in problem.ground_truth for a in problem.ground_truth_atoms(lid)]
    return _ground_truth_implied([a for a in truth if a.op == "=="], atoms)


@pytest.mark.benchmark(group="table4")
def test_table4_stability(benchmark, emit):
    runs = 20 if full_mode() else 3
    problems = stability_problems()

    def run():
        rows = []
        cln_rates = []
        gcln_rates = []
        for label, problem in problems.items():
            states, basis, data = _prepare(problem)
            cln_ok = sum(
                _plain_cln_run(problem, states, basis, data, seed)
                for seed in range(runs)
            )
            gcln_ok = sum(
                _gcln_run(problem, states, basis, data, 1000 + seed)
                for seed in range(runs)
            )
            cln_rates.append(cln_ok / runs)
            gcln_rates.append(gcln_ok / runs)
            rows.append(
                [label, f"{100 * cln_ok / runs:.0f}%", f"{100 * gcln_ok / runs:.0f}%"]
            )
        rows.append(
            [
                "AVERAGE",
                f"{100 * sum(cln_rates) / len(cln_rates):.1f}%",
                f"{100 * sum(gcln_rates) / len(gcln_rates):.1f}%",
            ]
        )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        format_table(
            ["problem", "CLN convergence", "G-CLN convergence"],
            rows,
            title=(
                f"Table 4 — stability over {runs} randomized runs "
                "(paper: CLN 58.3% avg, G-CLN 97.5% avg)"
            ),
        )
    )
