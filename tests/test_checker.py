"""Tests for the hybrid invariant checker (the Z3 substitute)."""

import numpy as np
import pytest

from repro.checker import CheckOutcome, InvariantChecker
from repro.checker.symbolic import equality_inductive_symbolic
from repro.infer.problem import parse_ground_truth
from repro.lang import parse_program
from repro.lang.analysis import extract_loop_paths
from repro.smt.formula import And
from tests.conftest import SQRT1_SOURCE


@pytest.fixture(scope="module")
def sqrt1_checker():
    program = parse_program(SQRT1_SOURCE)
    return InvariantChecker(
        program,
        [{"n": v} for v in range(0, 60)],
        rng=np.random.default_rng(7),
    )


def test_symbolic_inductive_valid(sqrt1_program):
    paths = extract_loop_paths(sqrt1_program.loops[0])
    atom = parse_ground_truth("t == 2*a + 1")
    verdict = equality_inductive_symbolic(atom.poly, [atom.poly], paths)
    assert verdict is CheckOutcome.VALID


def test_symbolic_inductive_needs_companions(sqrt1_program):
    paths = extract_loop_paths(sqrt1_program.loops[0])
    # s = (a+1)^2 is only inductive together with t = 2a + 1.
    s_atom = parse_ground_truth("s == (a + 1) * (a + 1)")
    alone = equality_inductive_symbolic(s_atom.poly, [s_atom.poly], paths)
    assert alone is CheckOutcome.UNKNOWN
    t_atom = parse_ground_truth("t == 2*a + 1")
    together = equality_inductive_symbolic(
        s_atom.poly, [s_atom.poly, t_atom.poly], paths
    )
    assert together is CheckOutcome.VALID


def test_reachable_check_accepts_truth(sqrt1_checker):
    atom = parse_ground_truth("t == 2*a + 1")
    outcome, cex = sqrt1_checker.bounded.holds_on_reachable(
        sqrt1_checker.reach_pool(0), atom
    )
    assert outcome is CheckOutcome.VALID and cex is None


def test_reachable_check_rejects_falsehood(sqrt1_checker):
    atom = parse_ground_truth("t == 2*a")
    outcome, cex = sqrt1_checker.bounded.holds_on_reachable(
        sqrt1_checker.reach_pool(0), atom
    )
    assert outcome is CheckOutcome.INVALID
    assert cex is not None and cex["t"] != 2 * cex["a"]


def test_filter_sound_atoms_prunes_noninductive(sqrt1_checker):
    good = [
        parse_ground_truth("t == 2*a + 1"),
        parse_ground_truth("s == (a + 1) * (a + 1)"),
    ]
    # False on some reachable state within the checking input range:
    # s <= 3t + 10 breaks once a > 6.
    shaky = parse_ground_truth("s <= 3 * t + 10")
    result = sqrt1_checker.filter_sound_atoms(0, good + [shaky])
    kept = {str(a) for a in result.sound}
    assert str(good[0]) in kept and str(good[1]) in kept
    assert str(shaky) not in kept
    assert result.rejected and result.counterexamples


def test_check_invariant_valid_report(sqrt1_checker, sqrt1_program):
    invariant = And(
        [
            parse_ground_truth("t == 2*a + 1"),
            parse_ground_truth("s == (a + 1) * (a + 1)"),
            parse_ground_truth("n >= a * a"),
        ]
    )
    posts = [s.cond for s in sqrt1_program.asserts]
    report = sqrt1_checker.check_invariant(0, invariant, posts)
    assert report.precondition is CheckOutcome.VALID
    assert report.inductive is CheckOutcome.VALID
    assert report.postcondition is CheckOutcome.VALID
    assert report.outcome is CheckOutcome.VALID


def test_check_invariant_insufficient_post(sqrt1_checker, sqrt1_program):
    # Equalities alone cannot prove a*a <= n.
    invariant = And([parse_ground_truth("t == 2*a + 1")])
    posts = [s.cond for s in sqrt1_program.asserts]
    report = sqrt1_checker.check_invariant(0, invariant, posts)
    assert report.postcondition is CheckOutcome.INVALID
    assert report.counterexamples


def test_check_invariant_invalid_on_reachable(sqrt1_checker):
    report = sqrt1_checker.check_invariant(
        0, And([parse_ground_truth("a == 1")]), []
    )
    assert report.outcome is CheckOutcome.INVALID


def test_guard_fn_uses_interpreter_semantics():
    program = parse_program(
        """
program modguard;
input n;
x = n;
while (mod(x, 2) == 0) { x = x / 2; }
"""
    )
    checker = InvariantChecker(program, [{"n": v} for v in range(1, 20)])
    guard = checker.bounded.guard_fn(program.loops[0])
    assert guard({"n": 4, "x": 4})
    assert not guard({"n": 4, "x": 3})


def test_filter_sound_atoms_memoizes_repeat_checks(sqrt1_program):
    """Re-submitting a candidate pool reads every truth vector from the
    pools' caches and gives the same verdicts."""
    checker = InvariantChecker(
        sqrt1_program,
        [{"n": v} for v in range(0, 60)],
        rng=np.random.default_rng(7),
    )
    good = parse_ground_truth("t == 2*a + 1")
    bad = parse_ground_truth("a == n")
    shaky = parse_ground_truth("s <= 3 * t + 10")
    first = checker.filter_sound_atoms(0, [good, bad, shaky])
    assert [str(a) for a in first.sound] == [str(good)]
    pools = [checker.reach_pool(0), checker.pool(0), checker.pool(0, exit_=True)]
    before = [(pool.hits, len(pool._truth)) for pool in pools]

    again = checker.filter_sound_atoms(0, [good, bad, shaky])
    assert again.sound == first.sound
    assert again.rejected == first.rejected
    assert again.counterexamples == first.counterexamples
    # No truth vector was computed again; each reach verdict (one per
    # atom) was served from the reach pool's cache.
    after = [(pool.hits, len(pool._truth)) for pool in pools]
    assert [n for _, n in after] == [n for _, n in before]
    assert after[0][0] == before[0][0] + 3
    assert checker.memo_hits == sum(pool.hits for pool in pools)


# Candidate pools mixing true invariants, atoms that fail on a reachable
# state, and atoms that hold on every reachable state but are not
# inductive (their companions are missing from the pool).
_FILTER_POOLS = {
    "sqrt1": [
        "t == 2*a + 1",
        "n >= a * a",
        "t == 2*a",
        "a <= 7",
        "s <= 3 * t + 10",
        "t <= 2 * n + 1",
        "s >= 1",
    ],
    "ps2": [
        "x >= y",
        "k >= y",
        "y <= 29",
        "x == y * y",
        "x <= 2 * k",
        "x <= k * k",
        "y * y <= x * x",
    ],
    "cohencu": [
        "x == n * n * n",
        "z == 6 * n + 6",
        "z == 6 * n",
        "y >= z",
        "x >= n",
        "y >= 1",
        "y <= x + 1",
        "z <= 6 * a + 6",
    ],
}


@pytest.mark.parametrize("name", sorted(_FILTER_POOLS))
def test_filter_sound_atoms_integer_path_matches_fraction_path(name, fraction_path):
    """Same sound atoms, rejections and counterexamples over Fractions."""
    from repro.bench.nla import nla_problem

    problem = nla_problem(name)
    atoms = [parse_ground_truth(s) for s in _FILTER_POOLS[name]]

    def filtered():
        checker = InvariantChecker(
            problem.program,
            problem.effective_check_inputs,
            rng=np.random.default_rng(7),
        )
        return checker.filter_sound_atoms(0, atoms)

    fast = filtered()
    with fraction_path():
        exact = filtered()
    assert fast.sound == exact.sound
    assert fast.rejected == exact.rejected
    assert fast.counterexamples == exact.counterexamples
    reasons = {reason for _, reason in fast.rejected}
    assert reasons == {"fails on reachable state", "not inductive"}


def _reference_inductive(checker, pool, premise, target):
    """Brute force over the same pool: evaluate the premise, step the
    body and evaluate the target per state, caching nothing."""
    from repro.checker.bounded import CHECK_FUEL
    from repro.errors import InterpError
    from repro.lang.interp import Interpreter

    interp = Interpreter(checker.program, fuel=CHECK_FUEL)
    body = checker.program.loops[0].body
    tested = False
    for state in pool.states:
        try:
            if not And(premise).evaluate(state):
                continue
            after = interp.execute_block(body, state, pool.budget)
            if not target.evaluate(after):
                return CheckOutcome.INVALID, state
        except (InterpError, ZeroDivisionError):
            continue
        tested = True
    return (CheckOutcome.VALID if tested else CheckOutcome.UNKNOWN), None


@pytest.mark.parametrize("name", sorted(_FILTER_POOLS))
def test_pooled_inductiveness_matches_brute_force(name):
    """Cached truth vectors and post states give the verdicts and
    counterexamples of re-evaluating everything per premise."""
    import random

    from repro.bench.nla import nla_problem

    problem = nla_problem(name)
    atoms = [parse_ground_truth(s) for s in _FILTER_POOLS[name]]
    checker = InvariantChecker(
        problem.program, problem.effective_check_inputs,
        rng=np.random.default_rng(7),
    )
    pool = checker.pool(0)
    assert len(pool) > 0
    pick = random.Random(3)
    outcomes = set()
    for _ in range(8):
        premise = pick.sample(atoms, pick.randint(1, len(atoms)))
        for target in premise:
            got = checker.bounded.inductive_bounded(pool, premise, target)
            assert got == _reference_inductive(checker, pool, premise, target)
            outcomes.add(got[0])
    assert CheckOutcome.INVALID in outcomes and CheckOutcome.VALID in outcomes


def _reference_reachable(traces, formula, cap):
    """Walk loop 0's snapshots in trace order, at most ``cap`` of them,
    evaluating each; returns the verdict and the failing index."""
    states = [s.state for t in traces for s in t.snapshots if s.loop_id == 0]
    for index, state in enumerate(states[:cap]):
        if not formula.evaluate(state):
            return (CheckOutcome.INVALID, state), index
    verdict = CheckOutcome.VALID if states else CheckOutcome.UNKNOWN
    return (verdict, None), None


@pytest.mark.parametrize("name", sorted(_FILTER_POOLS))
def test_pooled_reachability_matches_brute_force(name, monkeypatch):
    """The reach pool's cached truth vectors give the walk's verdicts:
    the first failing snapshot is the counterexample, and a failure
    past ``MAX_CHECKED_STATES`` is not seen."""
    from repro.bench.nla import nla_problem
    from repro.checker import bounded

    problem = nla_problem(name)
    atoms = [parse_ground_truth(s) for s in _FILTER_POOLS[name]]

    def pooled():
        checker = InvariantChecker(
            problem.program, problem.effective_check_inputs,
            rng=np.random.default_rng(7),
        )
        reach = checker.reach_pool(0)
        verdicts = [checker.bounded.holds_on_reachable(reach, a) for a in atoms]
        return checker.traces, verdicts

    traces, got = pooled()
    walked = [
        _reference_reachable(traces, a, bounded.MAX_CHECKED_STATES) for a in atoms
    ]
    assert got == [verdict for verdict, _ in walked]
    first_failures = [-1 if index is None else index for _, index in walked]
    late = max(first_failures)
    assert late > 0

    # Cap the pool just before the latest first failure.
    monkeypatch.setattr(bounded, "MAX_CHECKED_STATES", late)
    traces, capped = pooled()
    assert capped == [_reference_reachable(traces, a, late)[0] for a in atoms]
    assert capped[first_failures.index(late)] == (CheckOutcome.VALID, None)


def test_shipped_seed_rejects_noninductive_ps2_bound():
    """Under the seed every solver's checker uses, the ps2 pool rejects
    ``x <= k*k`` as not inductive (a seed-7 pool keeps it: one pool per
    loop can miss a rare perturbed counterexample)."""
    from repro.bench.nla import nla_problem
    from repro.checker.vc import DEFAULT_CHECKER_SEED

    problem = nla_problem("ps2")
    atoms = [parse_ground_truth(s) for s in _FILTER_POOLS["ps2"]]
    checker = InvariantChecker(
        problem.program, problem.effective_check_inputs,
        rng=np.random.default_rng(DEFAULT_CHECKER_SEED),
    )
    result = checker.filter_sound_atoms(0, atoms)
    bound = parse_ground_truth("x <= k * k")
    assert (bound, "not inductive") in result.rejected


_DIVBIN_POOLS = {
    0: ["q == 0", "r == A", "b >= B", "r >= 1", "b <= 2 * r", "b >= 1"],
    1: ["A == q * b + r", "r >= 0", "b >= B", "r <= b", "q >= 0", "b <= A"],
}


def _divbin_verdicts(order, invariant_first):
    from repro.bench.nla import nla_problem

    problem = nla_problem("divbin")
    checker = InvariantChecker(
        problem.program, problem.effective_check_inputs,
        rng=np.random.default_rng(7),
    )
    if invariant_first:
        truth = And([parse_ground_truth("A == q * b + r"),
                     parse_ground_truth("r >= 0")])
        checker.check_invariant(
            1, truth, [s.cond for s in problem.program.asserts]
        )
    verdicts = {}
    for loop_index in order:
        atoms = [parse_ground_truth(s) for s in _DIVBIN_POOLS[loop_index]]
        result = checker.filter_sound_atoms(loop_index, atoms)
        verdicts[loop_index] = (
            result.sound, result.rejected, result.counterexamples
        )
    return verdicts


def test_bounded_verdicts_do_not_depend_on_check_order():
    """Every loop's pools are drawn up front, so neither the loop order
    nor a preceding check_invariant moves a verdict."""
    default = _divbin_verdicts([0, 1], invariant_first=False)
    assert any(
        reason == "not inductive"
        for loop in default.values()
        for _, reason in loop[1]
    )
    assert _divbin_verdicts([1, 0], invariant_first=False) == default
    assert _divbin_verdicts([0, 1], invariant_first=True) == default


_SPIN_SOURCE = """
program spin;
input n;
assume (n >= 1);
i = 0; d = 1; s = 0; j = 0;
while (i < n) {
  j = 0;
  while (j < 3) { j = j + d; }
  i = i + 1; s = s + j;
}
"""


def test_spinning_inner_loop_is_not_tested(monkeypatch):
    """A perturbed state whose inner loop never ends (d <= 0) stops at
    the body budget from the traces and counts as not tested."""
    from repro.checker.bounded import _BODY_BUDGET_FACTOR, CHECK_FUEL
    from repro.lang.interp import Interpreter

    program = parse_program(_SPIN_SOURCE)
    checker = InvariantChecker(
        program, [{"n": v} for v in range(1, 12)],
        rng=np.random.default_rng(7),
    )
    observed = max(t.max_body_steps[0] for t in checker.traces)
    pool = checker.pool(0)
    assert pool.budget == _BODY_BUDGET_FACTOR * observed < CHECK_FUEL // 1000
    spinning = [i for i, s in enumerate(pool.states) if s["d"] <= 0]
    assert spinning

    steps = 0
    spend = Interpreter._spend_fuel

    def counting(self):
        nonlocal steps
        steps += 1
        spend(self)

    monkeypatch.setattr(Interpreter, "_spend_fuel", counting)
    target = parse_ground_truth("s >= 0")
    assert pool.holds_after(spinning[0], target) is None
    assert steps <= pool.budget
    outcome, cex = checker.bounded.inductive_bounded(
        pool, [parse_ground_truth("d <= 0")], target
    )
    assert outcome is CheckOutcome.UNKNOWN and cex is None
    assert steps <= len(spinning) * pool.budget
