"""Exception hierarchy for the repro package.

Every error raised by this package derives from :class:`ReproError`, so
callers can catch a single base class at API boundaries.  Subsystems get
their own subclass to keep failure provenance obvious in tracebacks.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class LangError(ReproError):
    """Base class for errors in the mini imperative language."""


class LexError(LangError):
    """Raised when the lexer encounters an invalid character sequence."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class ParseError(LangError):
    """Raised when the parser encounters an unexpected token."""

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        if line:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


class InterpError(LangError):
    """Raised when program evaluation fails (bad types, undefined names)."""


class FuelExhausted(InterpError):
    """Raised when an execution exceeds its step budget.

    Loops in the benchmark are expected to terminate quickly; this guards
    against accidental nontermination from a malformed transcription.
    """


class PolyError(ReproError):
    """Raised for invalid polynomial operations (e.g. division by zero)."""


class FormulaError(ReproError):
    """Raised for invalid SMT formula construction or evaluation."""


class AutodiffError(ReproError):
    """Raised for invalid tensor operations or backward passes."""


class TrainingError(ReproError):
    """Raised when G-CLN training cannot proceed (e.g. empty data)."""


class InferenceError(ReproError):
    """Raised when the end-to-end pipeline fails unrecoverably."""
