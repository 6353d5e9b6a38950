"""Figure 10 — learned tight vs loose inequality bounds.

Trains the PBQU bound bank on the sqrt data and reports each candidate
bound with its mean PBQU activation: tight bounds (solid lines in the
figure) have activation near 1 and touch the data; loose ones score
lower and are discarded by extraction.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from repro.autodiff import Tensor
from repro.bench.nla import nla_problem
from repro.cln.bounds import (
    INEQ_ACTIVATION_THRESHOLD,
    BoundBank,
    enumerate_bound_masks,
    extract_bound_atoms,
    train_bound_bank,
)
from repro.cln.model import GCLNConfig
from repro.sampling import (
    build_term_basis,
    collect_traces,
    evaluate_terms,
    loop_dataset,
    normalize_rows,
)
from repro.utils import format_table


@pytest.mark.benchmark(group="fig10")
def test_fig10_tight_bounds_on_sqrt(benchmark, emit):
    problem = nla_problem("sqrt1")
    config = GCLNConfig(max_epochs=1500)

    def run():
        traces = collect_traces(problem.program, problem.train_inputs)
        states = loop_dataset(traces, 0, max_states=90)
        basis = build_term_basis(["a", "s", "t", "n"], 2)
        raw = evaluate_terms(states, basis)
        data = normalize_rows(raw)
        masks = enumerate_bound_masks(
            [m.variables for m in basis.monomials],
            [m.degree for m in basis.monomials],
        )
        bank = BoundBank(masks, config, np.random.default_rng(4))
        train_bound_bank(bank, data)
        atoms = extract_bound_atoms(bank, basis, states, data)
        activations = bank.forward(Tensor(data)).data.mean(axis=0)
        return states, atoms, activations

    states, atoms, activations = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = []
    for atom in atoms[:15]:
        slack = min(
            atom.poly.evaluate({k: Fraction(v) for k, v in s.items()})
            for s in states
        )
        rows.append([str(atom), "tight (touches data)" if slack == 0 else f"slack {slack}"])
    emit(
        format_table(
            ["learned bound", "fit"],
            rows,
            title="Fig. 10 — PBQU-learned bounds on sqrt (all extracted bounds are tight)",
        )
    )
    emit(
        f"bound units trained: {len(activations)}; "
        f"extracted (activation >= {INEQ_ACTIVATION_THRESHOLD}, "
        f"touching): {len(atoms)}; "
        f"tight quadratic n >= a^2 found: "
        f"{any('a^2' in str(a) and 'n' in str(a) for a in atoms)}"
    )
    assert atoms, "extraction must keep at least one tight bound"
