"""Tests for the error hierarchy and the top-level public API."""

import pytest

import repro
from repro import errors


def test_error_hierarchy():
    assert issubclass(errors.LexError, errors.LangError)
    assert issubclass(errors.ParseError, errors.LangError)
    assert issubclass(errors.InterpError, errors.LangError)
    assert issubclass(errors.FuelExhausted, errors.InterpError)
    for name in (
        "LangError",
        "PolyError",
        "FormulaError",
        "AutodiffError",
        "TrainingError",
        "InferenceError",
    ):
        assert issubclass(getattr(errors, name), errors.ReproError)


def test_lex_error_carries_position():
    err = errors.LexError("bad char", 3, 7)
    assert err.line == 3 and err.column == 7
    assert "line 3" in str(err)


def test_public_api_exports():
    for name in repro.__all__:
        assert hasattr(repro, name), name
    assert repro.__version__ == "1.1.0"


def test_api_quickstart_types():
    program = repro.parse_program(
        "program p;\ninput n;\nx = 0;\nwhile (x < n) { x = x + 1; }"
    )
    trace = repro.run_program(program, {"n": 3})
    assert trace.final_state["x"] == 3
    problem = repro.Problem(
        name="p", source="program p;\ninput n;\nx = 0;", train_inputs=[{"n": 1}]
    )
    assert problem.program.name == "p"


def test_interp_error_is_catchable_as_repro_error():
    program = repro.parse_program("program p;\ninput n;\nx = y;")
    with pytest.raises(repro.ReproError):
        repro.run_program(program, {"n": 1})
