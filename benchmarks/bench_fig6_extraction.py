"""Figure 6 — formula recovery from a hand-built gated CLN.

Builds a G-CLN whose gates and weights encode
(3y - 3z - 2 = 0) && ((x - 3z = 0) || (x + y + z = 0)) and checks that
Algorithm 1 recovers exactly that formula from the model structure.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cln.extract import extract_formula
from repro.cln.model import AtomicUnit, GCLN, GCLNConfig
from repro.sampling import build_term_basis
from repro.smt import format_formula


def _build_states():
    # Points satisfying 3y - 3z - 2 = 0 (scaled x3: y = z + 2/3) and one
    # of the two disjuncts; use rationals via thirds.
    from fractions import Fraction

    states = []
    for z in range(-4, 5):
        y = Fraction(3 * z + 2, 3)
        states.append({"x": 3 * z, "y": y, "z": z})          # x - 3z = 0
        states.append({"x": -(y + z), "y": y, "z": z})       # x + y + z = 0
    return states


@pytest.mark.benchmark(group="fig6")
def test_fig6_gated_formula_recovery(benchmark, emit):
    basis = build_term_basis(["x", "y", "z"], 1)
    states = _build_states()
    config = GCLNConfig(sigma=0.05)
    rng = np.random.default_rng(0)
    names = basis.names  # ['1', 'x', 'y', 'z']

    def unit(coeffs: dict[str, float]) -> AtomicUnit:
        mask = np.array([n in coeffs for n in names])
        u = AtomicUnit(mask, rng, config)
        u.weight.data[:] = 0.0
        for name, value in coeffs.items():
            u.weight.data[names.index(name)] = value
        return u

    def run():
        eq_conj = unit({"1": -2.0, "y": 3.0, "z": -3.0})
        disj_a = unit({"x": 1.0, "z": -3.0})
        disj_b = unit({"x": 1.0, "y": 1.0, "z": 1.0})
        filler = unit({"x": 1.0, "1": 1.0})  # gated off below
        model = GCLN(
            len(basis),
            config,
            rng,
            units=[[eq_conj, filler], [disj_a, disj_b]],
        )
        # Gates as in Fig. 6: '+' activated, '-' deactivated.
        model.and_gates.data[:] = 1.0
        model.or_gates[0].data[:] = [1.0, 0.0]
        model.or_gates[1].data[:] = [1.0, 1.0]
        return extract_formula(model, basis, states)

    formula = benchmark.pedantic(run, rounds=1, iterations=1)
    text = format_formula(formula)
    emit("Fig. 6 — recovered formula: " + text)
    # primitive() orders by graded lex with a positive leading
    # coefficient, so the three atoms print as below (same equalities).
    assert "3*z - 3*y + 2 == 0" in text
    assert "||" in text
    assert "3*z - x == 0" in text and "z + y + x == 0" in text
