"""Tests for the interpreter and trace instrumentation."""

from fractions import Fraction

import pytest

from repro.errors import FuelExhausted, InterpError
from repro.lang import parse_program, run_program
from repro.lang.interp import Interpreter


def test_basic_execution(ps2_program):
    trace = run_program(ps2_program, {"k": 4})
    assert trace.final_state["x"] == 10
    assert trace.final_state["y"] == 4
    assert not trace.assertion_failures


def test_snapshots_logged_each_guard_test(ps2_program):
    trace = run_program(ps2_program, {"k": 3})
    # 3 passing guard tests + 1 failing exit test.
    assert len(trace.snapshots) == 4
    assert [s.guard_value for s in trace.snapshots] == [True, True, True, False]
    assert trace.snapshots[0].state["x"] == 0


def test_assume_violation_discards_trace(ps2_program):
    trace = run_program(ps2_program, {"k": -5})
    assert trace.assume_violated
    assert trace.snapshots == []


def test_assertion_failure_recorded():
    program = parse_program(
        "program bad;\ninput n;\nx = n;\nassert (x == n + 1);"
    )
    trace = run_program(program, {"n": 1})
    assert len(trace.assertion_failures) == 1


def test_missing_input_rejected(ps2_program):
    with pytest.raises(InterpError):
        run_program(ps2_program, {})


def test_unknown_input_rejected(ps2_program):
    with pytest.raises(InterpError):
        run_program(ps2_program, {"k": 1, "zz": 2})


def test_fuel_exhaustion():
    program = parse_program(
        "program spin;\ninput n;\nwhile (n >= 0) { n = n + 1; }"
    )
    with pytest.raises(FuelExhausted):
        run_program(program, {"n": 0}, fuel=100)


def test_division_produces_exact_fractions():
    program = parse_program("program d;\ninput a;\nx = a / 2;")
    trace = run_program(program, {"a": 5})
    assert trace.final_state["x"] == Fraction(5, 2)


def test_integral_fraction_normalized_to_int():
    program = parse_program("program d;\ninput a;\nx = a / 2;")
    trace = run_program(program, {"a": 6})
    assert trace.final_state["x"] == 3
    assert isinstance(trace.final_state["x"], int)


def test_division_by_zero_rejected():
    program = parse_program("program d;\ninput a;\nx = 1 / a;")
    with pytest.raises(InterpError):
        run_program(program, {"a": 0})


def test_mod_truncates_toward_zero():
    program = parse_program("program m;\ninput a, b;\nx = mod(a, b);")
    assert run_program(program, {"a": 7, "b": 3}).final_state["x"] == 1
    assert run_program(program, {"a": -7, "b": 3}).final_state["x"] == -1


def test_gcd_builtin():
    program = parse_program("program g;\ninput a, b;\nx = gcd(a, b);")
    assert run_program(program, {"a": 12, "b": 18}).final_state["x"] == 6
    assert run_program(program, {"a": 0, "b": 0}).final_state["x"] == 0


def test_unknown_function_rejected():
    program = parse_program("program f;\ninput a;\nx = nosuch(a);")
    with pytest.raises(InterpError):
        run_program(program, {"a": 1})


def test_boolean_guard_type_error():
    program = parse_program("program b;\ninput a;\nwhile (a) { a = 0; }")
    with pytest.raises(InterpError):
        run_program(program, {"a": 1})


def test_execute_block_steps_loop_body(sqrt1_program):
    interp = Interpreter(sqrt1_program)
    state = {"n": 30, "a": 2, "s": 9, "t": 5}
    after = interp.execute_block(sqrt1_program.loops[0].body, state)
    assert after == {"n": 30, "a": 3, "s": 16, "t": 7}
    # Original state untouched.
    assert state["a"] == 2


def test_fractional_inputs_execute_exactly(ps2_program):
    trace = run_program(ps2_program, {"k": Fraction(5, 2)})
    assert not trace.assume_violated
    assert trace.final_state["y"] == 3


def test_nested_loop_snapshot_tagging():
    program = parse_program(
        """
program nested;
input n;
i = 0; total = 0;
while (i < n) {
  j = 0;
  while (j < i) { j = j + 1; total = total + 1; }
  i = i + 1;
}
"""
    )
    trace = run_program(program, {"n": 3})
    outer = [s for s in trace.snapshots if s.loop_id == 0]
    inner = [s for s in trace.snapshots if s.loop_id == 1]
    assert len(outer) == 4  # i = 0,1,2 pass + exit
    assert len(inner) == 6  # entries at i=0,1,2 log 1, 2, 3 snapshots
    assert trace.final_state["total"] == 3


def test_run_records_most_body_steps_per_loop(sqrt1_program):
    trace = run_program(sqrt1_program, {"n": 20})
    # One step per assignment of the three-statement body.
    assert trace.max_body_steps == {0: 3}


def test_execute_block_appends_no_snapshots(monkeypatch):
    program = parse_program(
        """
program nested;
input n;
i = 0; j = 0; s = 0;
while (i < n) {
  j = 0;
  while (j < i) { j = j + 1; s = s + 1; }
  i = i + 1;
}
"""
    )

    def no_snapshot(**kwargs):
        raise AssertionError("execute_block logged a loop snapshot")

    monkeypatch.setattr("repro.lang.interp.LoopSnapshot", no_snapshot)
    after = Interpreter(program).execute_block(
        program.loops[0].body, {"n": 5, "i": 3, "j": 0, "s": 0}
    )
    assert after == {"n": 5, "i": 4, "j": 3, "s": 3}
