"""Pure data stages of the inference pipeline, memoized per solve.

These are the attempt-independent stages of the Fig. 3 workflow:
collecting loop-head training states (with optional fractional
sampling, §4.3) and building the candidate-term matrices.  Both are
pure functions of (problem, config, fractional interval) and memoize
their results in the solve's :class:`~repro.sampling.cache.TraceCache`,
keyed by the interval (and loop) alone, so the retry schedule pays for
them once per distinct interval instead of once per attempt.  A cache
must not be shared between solves of different problems or configs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from repro.cln.extract import make_exact_validator
from repro.infer.config import InferenceConfig
from repro.infer.problem import Problem
from repro.poly.nullspace import row_space_basis
from repro.poly.polynomial import Polynomial
from repro.sampling.cache import TraceCache
from repro.sampling.filters import duplicate_column_map, growth_rate_filter
from repro.sampling.fractional import (
    FRACTIONAL_SUFFIX,
    fractional_inputs,
    relax_initializers,
)
from repro.sampling.normalize import normalize_rows
from repro.sampling.source import gather_states
from repro.sampling.termgen import (
    TermBasis,
    build_term_basis,
    evaluate_terms,
    evaluate_terms_exact,
)
from repro.sampling.tracegen import collect_traces, loop_dataset
from repro.smt.formula import Atom


@dataclass(frozen=True)
class StateDataset:
    """Training states for every loop at one fractional interval.

    Attributes:
        states: per-loop-index lists of variable environments.
        fractional_vars: the ``*__frac`` offset variables present in
            the states (empty when fractional sampling is off).
        interval: the fractional interval the states were sampled at
            (``None`` without fractional sampling); the matrix stage
            keys its memo on it.
    """

    states: Mapping[int, list[dict]]
    fractional_vars: tuple[str, ...]
    interval: float | None


@dataclass(frozen=True)
class MatrixBundle:
    """Candidate-term data for one loop: basis, matrices, free atoms.

    ``raw`` is the unnormalized term matrix after filtering, ``data``
    the training matrix (row-normalized unless disabled), and
    ``degenerate`` the equality atoms read directly off duplicate /
    constant columns (they are emitted here because the duplicate
    column itself is dropped for conditioning).  ``loop_states`` are
    the loop-head states the bundle was built from, before the
    external-argument filter: the samples extraction validates on.
    """

    basis: TermBasis
    raw: np.ndarray
    data: np.ndarray
    degenerate: tuple[Atom, ...]
    loop_states: Sequence[Mapping[str, object]]

    @cached_property
    def exact_rows(self) -> list[list[int]]:
        """Exact row-space basis of ``loop_states`` over ``basis``.

        Computed on first use, then shared by every model of every
        attempt that extracts from this bundle; restricted to a column
        support it has the same nullspace as the sample rows
        (:func:`~repro.poly.nullspace.row_space_basis`).
        """
        return row_space_basis(evaluate_terms_exact(self.loop_states, self.basis))


def derive_loop_rng(seed: int, loop_index: int) -> np.random.Generator:
    """Per-loop model/weight-init RNG derived from an attempt seed.

    The one copy of the ``seed * 1000 + loop_index`` derivation shared
    by the engine and the baseline solvers, so a future change to the
    seed scheme cannot drift between them.
    """
    return np.random.default_rng(seed * 1000 + loop_index)


def collect_states(
    problem: Problem,
    config: InferenceConfig,
    fractional_interval: float | None,
    cache: TraceCache,
) -> StateDataset:
    """Training states per loop, optionally with fractional sampling.

    Memoized on the effective interval: repeated attempts at the same
    interval return the cached dataset without re-interpreting the
    program (or re-assembling the recording).
    """
    source = problem.observations()
    use_fractional = (
        problem.fractional
        and config.fractional_sampling
        and fractional_interval is not None
        and source.kind == "program"  # relaxation needs a program
    )
    interval = fractional_interval if use_fractional else None

    def compute() -> StateDataset:
        states = source.train_states(problem.max_states)
        fractional_vars: tuple[str, ...] = ()
        if use_fractional:
            program = problem.program
            relaxed, relaxed_vars = relax_initializers(
                program, problem.fractional_vars
            )
            if relaxed_vars:
                # The paper's relaxation (§4.3): initial values become
                # symbolic inputs V_I carried as extra state variables
                # (the ``*__frac`` offsets); the model learns the
                # *relaxed* invariant over V ∪ V_I and the pipeline
                # substitutes the exact initial offsets (zero) back in
                # (Eq. 7).  Fractional states therefore keep their
                # offset variables.
                fractional_vars = tuple(
                    v + FRACTIONAL_SUFFIX for v in relaxed_vars
                )
                base = problem.train_inputs[: max(1, len(problem.train_inputs) // 4)]
                frac_in = fractional_inputs(
                    base, relaxed_vars, interval=fractional_interval, limit=200
                )
                frac_traces = collect_traces(relaxed, frac_in)
                for loop_index in range(len(program.loops)):
                    extra = loop_dataset(
                        frac_traces, loop_index, max_states=problem.max_states
                    )
                    zero = {name: 0 for name in fractional_vars}
                    merged = [dict(s, **zero) for s in states[loop_index]]
                    merged.extend(extra)
                    states[loop_index] = gather_states(
                        merged, 2 * problem.max_states
                    )
        return StateDataset(
            states=states, fractional_vars=fractional_vars, interval=interval
        )

    return cache.memoize("trace", (interval,), compute)


def integer_external_states(
    states: list[dict], externals: list
) -> list[dict]:
    """States where every external-function argument is an integer.

    External terms (e.g. ``gcd(a, b)``, §5.3) are only defined on
    integer arguments; fractional-sampling states that give an argument
    a non-integer value are dropped before term evaluation.  Shared by
    the engine's matrix stage and the baseline solver adapters so both
    apply exactly the same filter.
    """
    if not externals:
        return states
    return [
        s
        for s in states
        if all(
            getattr(s.get(a), "denominator", 1) == 1
            for ext in externals
            for a in ext.args
        )
    ]


def defined_variables(
    problem: Problem, loop_index: int, states: Sequence[Mapping[str, object]]
) -> list[str]:
    """The loop's variables that every loop-head state defines.

    A body temporary such as ``egcd2``'s ``temp``, first assigned
    inside the loop, is absent from the first loop-head state; its
    terms are undefined there, so it is left out of every solver's
    term basis and variable list.
    """
    return [
        v
        for v in problem.loop_variables(loop_index)
        if all(v in s for s in states)
    ]


def build_matrix(
    problem: Problem,
    config: InferenceConfig,
    dataset: StateDataset,
    loop_index: int,
    cache: TraceCache,
) -> MatrixBundle:
    """Term basis, matrices, and degenerate-column atoms for one loop.

    Memoized on (dataset interval, loop); the returned bundle is shared
    across attempts and must not be mutated.  The basis spans the
    :func:`defined_variables` of the loop.
    """
    return cache.memoize(
        "matrix",
        (dataset.interval, loop_index),
        lambda: _build_matrix_uncached(problem, config, dataset, loop_index),
    )


def _build_matrix_uncached(
    problem: Problem,
    config: InferenceConfig,
    dataset: StateDataset,
    loop_index: int,
) -> MatrixBundle:
    states = dataset.states[loop_index]
    variables = defined_variables(problem, loop_index, states)
    frac_vars = [
        v for v in dataset.fractional_vars if states and v in states[0]
    ]
    variables.extend(v for v in frac_vars if v not in variables)
    basis = build_term_basis(
        variables, problem.max_degree, externals=problem.externals
    )
    usable_states = integer_external_states(states, problem.externals)
    raw = evaluate_terms(usable_states, basis)

    # Duplicate columns (``r`` identical to ``A`` throughout) and
    # constant columns (``q`` always 0) are *themselves* equality
    # candidates; they are emitted directly because dropping the
    # duplicate column — necessary for conditioning — would otherwise
    # hide the invariant from the model.
    degenerate: list[Atom] = []
    validator = make_exact_validator(usable_states, basis)
    dup_of = duplicate_column_map(raw)
    kept_unique = [j for j in range(raw.shape[1]) if j not in dup_of]
    for j, i in dup_of.items():
        poly = Polynomial(
            {basis.monomials[i]: 1, basis.monomials[j]: -1}
        )
        if not poly.is_zero() and validator(poly, "=="):
            degenerate.append(Atom(poly.primitive(), "=="))
    for j in kept_unique:
        column = raw[:, j]
        if basis.monomials[j].is_constant():
            continue
        if np.all(column == column[0]) and float(column[0]).is_integer():
            poly = Polynomial(
                {
                    basis.monomials[j]: 1,
                    basis.monomials[0]: -int(column[0]),
                }
            )
            if validator(poly, "=="):
                degenerate.append(Atom(poly.primitive(), "=="))

    degrees = [m.degree for m in basis.monomials]
    keep = growth_rate_filter(raw, degrees)
    keep = [j for j in keep if j not in dup_of]
    basis = basis.restrict(keep)
    raw = raw[:, keep]
    if config.data_normalization:
        data = normalize_rows(raw)
    else:
        data = raw.copy()
    return MatrixBundle(
        basis=basis,
        raw=raw,
        data=data,
        degenerate=tuple(degenerate),
        loop_states=states,
    )


def instantiate_fractional(
    atoms: list[Atom] | tuple[Atom, ...],
    states: list[dict],
    fractional_vars: tuple[str, ...],
) -> list[Atom]:
    """Substitute zero offsets into relaxed-invariant atoms (Eq. 7).

    Atoms learned over the relaxed program may mention the ``*__frac``
    initial-value variables; instantiating them at the original
    initial values (offset 0) yields candidate invariants of the
    original program, which are re-validated on the zero-offset
    samples.
    """
    if not fractional_vars:
        return list(atoms)
    zero_map = {v: Polynomial.zero() for v in fractional_vars}
    base_states = [
        {k: v for k, v in s.items() if not k.endswith(FRACTIONAL_SUFFIX)}
        for s in states
        if all(s.get(v, 0) == 0 for v in fractional_vars)
    ]
    out: list[Atom] = []
    for atom in atoms:
        poly = atom.poly.substitute(zero_map)
        if poly.is_zero() or poly.is_constant():
            continue
        if any(v.endswith(FRACTIONAL_SUFFIX) for v in poly.variables):
            continue
        candidate = Atom(poly.primitive(), atom.op)
        if all(candidate.evaluate(s) for s in base_states):
            out.append(candidate)
    return out
