"""Expression language: lexing, parsing, evaluation, and guard splitting."""

from .ast import (
    ArrayIndex,
    Assignment,
    Binary,
    BoolLiteral,
    Expr,
    Field,
    IntLiteral,
    Name,
    Quantifier,
    Unary,
    conjuncts,
    make_conjunction,
    names_in,
    walk,
)
from .clocksplit import (
    TRUE_GUARD,
    ClockAtom,
    GuardError,
    SplitGuard,
    split_guard,
    update_max_constants,
)
from .env import DeclarationError, Declarations, IntArray, IntVar
from .eval import (
    Context,
    EvalError,
    apply_assignments,
    compile_expr,
    evaluate,
    evaluate_bool,
    static_int_bound,
)
from .lexer import LexError, Token, TokenStream, tokenize
from .parser import ParseError, parse_assignments, parse_expression
