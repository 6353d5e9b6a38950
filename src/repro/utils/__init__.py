"""Shared utilities: rational rounding, fingerprints, tables."""

from repro.utils.rational import (
    round_to_rational,
    scale_to_integer_coeffs,
    nice_coefficients,
)
from repro.utils.fingerprint import (
    fingerprint_program,
    fingerprint_traces,
    problem_fingerprint,
)
from repro.utils.table import format_table

__all__ = [
    "round_to_rational",
    "scale_to_integer_coeffs",
    "nice_coefficients",
    "fingerprint_program",
    "fingerprint_traces",
    "problem_fingerprint",
    "format_table",
]
