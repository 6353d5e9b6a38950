"""Mini imperative language for the benchmark programs.

The NLA and Code2Inv-style benchmark loops are transcribed in a small
imperative language with exact rational semantics.  The subpackage
provides a lexer, recursive-descent parser, tree-walking interpreter
with execution-trace instrumentation (the paper's trace collection
phase), and static analyses used by the symbolic checker (per-path
polynomial update extraction).
"""

from repro.lang.ast import (
    Assert,
    Assign,
    Assume,
    Binary,
    Block,
    BoolLit,
    Call,
    Expr,
    If,
    IntLit,
    Program,
    Stmt,
    Unary,
    Var,
    While,
)
from repro.lang.lexer import Token, tokenize
from repro.lang.parser import parse_program, parse_expr
from repro.lang.interp import Interpreter, ExecutionTrace, LoopSnapshot, run_program
from repro.lang.pretty import pretty_program, pretty_expr
from repro.lang.analysis import (
    extract_loop_paths,
    expr_to_polynomial,
    LoopPath,
)

__all__ = [
    "Assert",
    "Assign",
    "Assume",
    "Binary",
    "Block",
    "BoolLit",
    "Call",
    "Expr",
    "If",
    "IntLit",
    "Program",
    "Stmt",
    "Unary",
    "Var",
    "While",
    "Token",
    "tokenize",
    "parse_program",
    "parse_expr",
    "Interpreter",
    "ExecutionTrace",
    "LoopSnapshot",
    "run_program",
    "pretty_program",
    "pretty_expr",
    "extract_loop_paths",
    "expr_to_polynomial",
    "LoopPath",
]
