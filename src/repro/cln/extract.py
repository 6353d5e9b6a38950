"""Formula extraction from a trained G-CLN (Algorithm 1, §4.1).

Walks the gated conjunction-of-disjunctions structure keeping branches
whose gates exceed 0.5; each surviving atomic unit's weights are scaled
so the largest is 1, rounded to rationals with bounded denominator
(trying max denominators 10, 15, 30 as in §6), and the resulting
integer-coefficient atom is validated *exactly* against the raw
(unnormalized, rational) training samples.  Invalid candidates are
discarded, exactly as the paper prescribes.
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

import numpy as np

from repro.poly.polynomial import Polynomial
from repro.sampling.termgen import TermBasis, extend_state
from repro.smt.formula import TRUE, And, Atom, Formula, Or
from repro.smt.simplify import simplify
from repro.utils.rational import round_coefficient_vector
from repro.cln.model import GCLN, AtomicUnit

Validator = Callable[[Polynomial, str], bool]

# Rounding denominators tried in order (§6: 10, 15, 30).
MAX_DENOMINATORS = (10, 15, 30)
# Algorithm 1 keeps a clause or literal whose gate exceeds this.
GATE_THRESHOLD = 0.5
# Support-guided recovery tries the top-k learned terms up to this k.
MAX_SUPPORT = 8


def _extend(
    states: Sequence[Mapping[str, object]], basis: TermBasis
) -> list[Mapping[str, object]]:
    """The samples with their external-term values; ints stay ints."""
    if not basis.externals:
        return list(states)
    return [extend_state(state, basis.externals) for state in states]


def make_exact_validator(
    states: Sequence[Mapping[str, object]],
    basis: TermBasis,
) -> Validator:
    """Build a validator checking atoms exactly on the raw samples.

    ``validate(poly, op)`` holds when ``poly op 0`` is true on every
    sample; an unknown ``op`` raises ``FormulaError``.
    """
    extended = _extend(states, basis)

    def validate(poly: Polynomial, op: str) -> bool:
        atom = Atom(poly, op)
        return all(atom.evaluate(point) for point in extended)

    return validate


def make_touch_checker(
    states: Sequence[Mapping[str, object]],
    basis: TermBasis,
) -> Callable[[Polynomial], bool]:
    """Check the 'desired inequality' condition (Eq. 4 of the paper).

    A learned bound should hold with equality on at least one sample;
    bounds that never touch the data are loose fits (e.g. globally
    positive quadratics) and are discarded.
    """
    extended = _extend(states, basis)

    def touches(poly: Polynomial) -> bool:
        return any(poly.evaluate(assignment) == 0 for assignment in extended)

    return touches


def _round_and_validate(
    weights: np.ndarray,
    mask_idx: Sequence[int],
    basis: TermBasis,
    validator: Validator,
    op: str,
    touch: Callable[[Polynomial], bool] | None = None,
) -> Atom | None:
    """Round a weight vector to integer coefficients and validate.

    Following the paper's extraction, the vector is rescaled before
    rounding; besides the max-magnitude reference we rescale by *each*
    significant weight in turn, which rescues directions whose largest
    coordinate converged slightly off (e.g. 0.94 instead of 1).

    ``op`` is ``"=="`` for an equality unit or ``">="`` for a PBQU bound
    row, whose atom must also pass ``touch`` (Eq. 4) when one is given.
    """
    top = float(np.abs(weights).max()) if len(weights) else 0.0
    if top == 0.0 or not np.isfinite(top):
        return None
    references = [float(np.abs(weights).max())]
    references.extend(
        float(abs(w)) for w in weights if 0.3 * top <= abs(w) < top
    )
    tried: set[tuple] = set()
    for reference in references:
        scaled = weights / reference
        for max_den in MAX_DENOMINATORS:
            coeffs = round_coefficient_vector(list(scaled), max_den)
            if coeffs is None:
                continue
            key = tuple(coeffs)
            if key in tried:
                continue
            tried.add(key)
            poly = Polynomial(
                {basis.monomials[i]: c for i, c in zip(mask_idx, coeffs)}
            )
            if poly.is_zero() or poly.is_constant():
                continue
            if op == "==":
                if validator(poly, "=="):
                    return Atom(poly.primitive(), "==")
            else:
                # PBQU learns w·x >= 0; the sign of the learned weights
                # already orients the bound.
                for oriented in (poly, -poly):
                    if validator(oriented, ">=") and (
                        touch is None or touch(oriented)
                    ):
                        return Atom(oriented.primitive(preserve_sign=True), ">=")
    return None


def unit_to_atom(
    unit: AtomicUnit, basis: TermBasis, validator: Validator
) -> Atom | None:
    """BuildAtomicFormula: recover a validated equality from one unit.

    Args:
        unit: trained atomic unit.
        basis: term basis giving each weight's monomial.
        validator: exact data-fit check.

    Returns:
        A validated :class:`Atom` or ``None``.
    """
    mask_idx = [int(i) for i in np.flatnonzero(unit.mask)]
    weights = unit.weight_numpy()[mask_idx]
    return _round_and_validate(weights, mask_idx, basis, validator, "==")


def refine_unit_atoms(
    unit: AtomicUnit,
    basis: TermBasis,
    exact_rows: Sequence[Sequence[int]],
    validator: Validator,
) -> list[Atom]:
    """Support-guided exact coefficient recovery for an equality unit.

    Training drives a unit's weight vector into the data's nullspace,
    but gradient descent often converges to a *mixture* of invariants
    whose real-valued coefficients do not round to small rationals.
    The learned magnitudes still identify which terms matter, so we
    take the top-k learned terms as a support and compute the exact
    rational nullspace of the data matrix restricted to that support:
    each nullspace vector is a clean equality holding on all samples.
    Directions far from the unit's learned weight subspace are
    rejected, keeping the recovery model-guided.

    ``exact_rows`` is the exact row-space basis of the samples over
    ``basis`` (:func:`~repro.poly.nullspace.row_space_basis`), not the
    samples themselves: restricted to a support it spans the same
    space as the restricted samples, so each support's nullspace is
    the same, solved on at most ``len(basis)`` rows.

    This generalizes the paper's scale-and-round extraction; see
    docs/architecture.md (step 6, "Extraction").
    """
    from repro.poly.nullspace import rational_nullspace

    mask_idx = [int(i) for i in np.flatnonzero(unit.mask)]
    weights = unit.weight_numpy()[mask_idx]
    if not len(weights):
        return []
    order = np.argsort(-np.abs(weights))
    top = float(np.abs(weights[order[0]]))
    if top == 0.0:
        return []
    atoms: list[Atom] = []
    seen: set[str] = set()

    def try_support(support: list[int]) -> None:
        rows = [[row[j] for j in support] for row in exact_rows]
        vectors = rational_nullspace(rows)
        if not vectors or len(vectors) > 4:
            return
        for vec in vectors:
            poly = Polynomial(
                {basis.monomials[j]: c for j, c in zip(support, vec)}
            )
            if poly.is_zero() or poly.is_constant():
                continue
            if not validator(poly, "=="):
                continue
            atom = Atom(poly.primitive(), "==")
            key = str(atom.poly)
            if key not in seen:
                seen.add(key)
                atoms.append(atom)

    for k in range(2, min(len(mask_idx), MAX_SUPPORT) + 1):
        support_local = [int(i) for i in order[:k]]
        if abs(weights[support_local[-1]]) < 0.02 * top:
            break
        try_support([mask_idx[i] for i in support_local])
        if atoms:
            return atoms
    # Dead or collapsed units carry no magnitude information, but the
    # dropout mask itself is a small, biased support — exactly the
    # "dropout encourages simple invariants" effect of §5.1.3.
    if len(mask_idx) <= 12:
        try_support(list(mask_idx))
    return atoms


def extract_formula(
    model: GCLN,
    basis: TermBasis,
    states: Sequence[Mapping[str, object]],
) -> Formula:
    """Algorithm 1: extract the CNF formula from a trained model."""
    validator = make_exact_validator(states, basis)
    exact_states = _extend(states, basis)
    clauses: list[Formula] = []
    for group, gates, and_gate in zip(
        model.clauses, model.or_gates, model.and_gates.data
    ):
        if and_gate <= GATE_THRESHOLD:
            continue
        multi_literal = sum(1 for g in gates.data if g > GATE_THRESHOLD) > 1
        literals: list[Formula] = []
        for unit, gate in zip(group, gates.data):
            if gate <= GATE_THRESHOLD:
                continue
            atom = unit_to_atom(unit, basis, validator)
            if atom is None and multi_literal:
                # A literal of a genuine disjunction need not fit every
                # sample individually — only the whole clause must.
                # Round permissively; clause-level validation follows.
                atom = unit_to_atom(unit, basis, lambda _poly, _op: True)
            if atom is not None:
                literals.append(atom)
        if not literals:
            continue
        clause: Formula = Or(literals) if len(literals) > 1 else literals[0]
        if all(clause.evaluate(point) for point in exact_states):
            clauses.append(clause)
    if not clauses:
        return TRUE
    return simplify(And(clauses))


def extract_equalities(
    model: GCLN,
    basis: TermBasis,
    states: Sequence[Mapping[str, object]],
    exact_rows: Sequence[Sequence[int]],
) -> list[Atom]:
    """All distinct validated equality atoms over every unit.

    Richer than Algorithm 1's gated walk: the pipeline unions these
    candidates and lets the specification check keep the sound subset,
    mirroring the paper's "check and discard" loop.  Units whose direct
    rounding fails go through support-guided exact recovery
    (:func:`refine_unit_atoms`) on ``exact_rows``, the exact row-space
    basis of ``states`` over ``basis``
    (:attr:`~repro.infer.stages.MatrixBundle.exact_rows`).
    """
    validator = make_exact_validator(states, basis)
    seen: set[str] = set()
    atoms: list[Atom] = []

    def add(atom: Atom) -> None:
        key = str(atom.poly)
        alt = str((-atom.poly).primitive())
        if key not in seen and alt not in seen:
            seen.add(key)
            atoms.append(atom)

    for group in model.clauses:
        for unit in group:
            atom = unit_to_atom(unit, basis, validator)
            if atom is not None:
                add(atom)
            else:
                for refined in refine_unit_atoms(
                    unit, basis, exact_rows, validator
                ):
                    add(refined)
    return atoms
