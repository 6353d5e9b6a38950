"""Shared fixtures for the test suite."""

from __future__ import annotations

import contextlib

import numpy as np
import pytest

from repro.autodiff import tape as tape_module
from repro.lang import parse_program
from repro.poly.polynomial import Polynomial
from repro.sampling import (
    build_term_basis,
    collect_traces,
    enumerate_inputs,
    evaluate_terms,
    loop_dataset,
    normalize_rows,
)

SQRT1_SOURCE = """
program sqrt1;
input n;
assume (n >= 0);
a = 0; s = 1; t = 1;
while (s <= n) { a = a + 1; t = t + 2; s = s + t; }
assert (a * a <= n);
"""

PS2_SOURCE = """
program ps2;
input k;
assume (k >= 0);
x = 0; y = 0;
while (y < k) { y = y + 1; x = x + y; }
assert (2 * x == y * y + y);
"""


@pytest.fixture(scope="session")
def sqrt1_program():
    return parse_program(SQRT1_SOURCE)


@pytest.fixture(scope="session")
def ps2_program():
    return parse_program(PS2_SOURCE)


@pytest.fixture(scope="session")
def sqrt1_data(sqrt1_program):
    """(states, basis, raw matrix, normalized matrix) for sqrt1."""
    traces = collect_traces(
        sqrt1_program, enumerate_inputs({"n": list(range(0, 30))})
    )
    states = loop_dataset(traces, 0, max_states=80)
    basis = build_term_basis(["a", "s", "t", "n"], 2)
    raw = evaluate_terms(states, basis)
    return states, basis, raw, normalize_rows(raw)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def _decline_compile(nodes, root):
    return None, "compile declined: walker oracle"


@pytest.fixture
def walker(monkeypatch):
    """Context manager under which every Tape replays through its walker.

    It makes the plan compile decline, exactly as it does for a graph
    it cannot lower, so the tape takes its own fallback: the closure
    walker, the reference the compiled plan is tested against.
    """

    @contextlib.contextmanager
    def replay_through_walker():
        with monkeypatch.context() as patch:
            patch.setattr(tape_module, "compile_plan", _decline_compile)
            yield

    return replay_through_walker


def _decline_integer_path(poly, assignment):
    return None


@pytest.fixture
def fraction_path(monkeypatch):
    """Context manager under which every polynomial evaluates over Fractions.

    It makes the integer form decline, exactly as it does on a point
    holding a non-int value, so ``Polynomial.evaluate`` and
    ``Atom.evaluate`` take their own fallback: the Fraction loop, the
    reference the integer path is tested against.
    """

    @contextlib.contextmanager
    def evaluate_over_fractions():
        with monkeypatch.context() as patch:
            patch.setattr(Polynomial, "evaluate_scaled", _decline_integer_path)
            yield

    return evaluate_over_fractions


def _normalized_record(record) -> dict:
    data = record.to_dict()
    data.pop("runtime_seconds")
    if data["result"] is not None:
        data["result"].pop("runtime_seconds")
        data["result"].pop("stage_timings")
    return data


@pytest.fixture
def normalized():
    """A record's wire dict minus timing fields.

    Records from two execution paths (inline, process pool, work
    queue) must be equal under it, cache counters included: every
    solve owns its trace memo.
    """
    return _normalized_record
