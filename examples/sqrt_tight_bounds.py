"""Tight inequality bounds with PBQU units (Fig. 1b / Fig. 10).

The integer square-root loop needs the *tight* quadratic bound
n >= a^2 — infinitely many looser bounds fit the data but cannot verify
the postcondition.  This example trains the PBQU bound bank directly
and shows which bounds survive extraction (all tight, touching the
data) and that the sound ones, conjoined with sqrt1's documented
invariant, verify the postcondition.

Usage:  python examples/sqrt_tight_bounds.py
"""

from fractions import Fraction

import numpy as np

from repro.bench.nla import nla_problem
from repro.checker import InvariantChecker
from repro.cln.bounds import (
    BoundBank,
    enumerate_bound_masks,
    extract_bound_atoms,
    train_bound_bank,
)
from repro.cln.model import GCLNConfig
from repro.api import InvariantService
from repro.smt import And
from repro.sampling import (
    build_term_basis,
    collect_traces,
    evaluate_terms,
    loop_dataset,
    normalize_rows,
)

def main() -> None:
    problem = nla_problem("sqrt1")

    # 1. Collect traces and build the candidate-term matrix.
    traces = collect_traces(problem.program, problem.train_inputs)
    states = loop_dataset(traces, 0, max_states=90)
    basis = build_term_basis(["a", "s", "t", "n"], 2)
    data = normalize_rows(evaluate_terms(states, basis))

    # 2. Train one PBQU unit per small term combination (§5.2.2).
    config = GCLNConfig(max_epochs=1500)
    masks = enumerate_bound_masks(
        [m.variables for m in basis.monomials],
        [m.degree for m in basis.monomials],
    )
    bank = BoundBank(masks, config, np.random.default_rng(4))
    train_bound_bank(bank, data)
    atoms = extract_bound_atoms(bank, basis, states, data)

    print(f"{len(masks)} bound units trained; {len(atoms)} tight bounds kept:")
    for atom in atoms:
        slack = min(
            atom.poly.evaluate({k: Fraction(v) for k, v in s.items()})
            for s in states
        )
        print(f"  {atom}   (min slack on data: {slack})")

    # 3. The full pipeline combines these with the learned equalities
    #    and checks the three verification conditions.  Here we do the
    #    same by hand: keep the sound step-2 bounds plus sqrt1's
    #    documented invariant atoms, and check their conjunction.
    result = InvariantService().solve(problem)
    print(f"\nfull pipeline solved: {result.solved}")
    print(f"invariant: {result.invariant(0)[:200]} ...")

    checker = InvariantChecker(
        problem.program, problem.effective_check_inputs
    )
    candidates = atoms + problem.ground_truth_atoms(0)
    sound = checker.filter_sound_atoms(0, candidates).sound
    posts = [s.cond for s in problem.program.asserts]
    report = checker.check_invariant(0, And(sound), posts)
    print(f"\nhand-built invariant: {And(sound)}")
    print(f"VC check: pre={report.precondition.value} "
          f"inductive={report.inductive.value} "
          f"post={report.postcondition.value}")


if __name__ == "__main__":
    main()
