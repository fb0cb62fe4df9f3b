"""The AST-walking reference evaluator of the expression language.

The library compiles every integer expression once into nested closures
(:mod:`repro.expr.eval`).  This is the straightforward interpreter those
closures replaced: it walks the AST on every evaluation and resolves
quantifier binders through a copied bindings dict.  The property tests
in ``tests/test_expr_compile.py`` check the compiled closures against it
(values, raised exception types and messages); nothing in ``src/`` uses
it.
"""

from typing import Sequence, Tuple

from repro.expr.ast import (
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
)
from repro.expr.eval import Context, EvalError


def evaluate(expr: Expr, ctx: Context) -> int:
    """Evaluate to an int (booleans are 0/1)."""
    if isinstance(expr, IntLiteral):
        return expr.value
    if isinstance(expr, BoolLiteral):
        return 1 if expr.value else 0
    if isinstance(expr, Name):
        return _resolve_name(expr.ident, ctx)
    if isinstance(expr, ArrayIndex):
        return _resolve_array(expr, ctx)
    if isinstance(expr, Field):
        return _resolve_field(expr, ctx)
    if isinstance(expr, Unary):
        value = evaluate(expr.operand, ctx)
        if expr.op == "-":
            return -value
        if expr.op == "!":
            return 0 if value else 1
        raise EvalError(f"unknown unary operator {expr.op!r}")
    if isinstance(expr, Binary):
        return _eval_binary(expr, ctx)
    if isinstance(expr, Quantifier):
        return _eval_quantifier(expr, ctx)
    raise EvalError(f"cannot evaluate {expr!r}")


def evaluate_bool(expr: Expr, ctx: Context) -> bool:
    """Evaluate as a boolean (nonzero = true)."""
    return evaluate(expr, ctx) != 0


def _eval_binary(expr: Binary, ctx: Context) -> int:
    op = expr.op
    if op == "&&":
        return 1 if (evaluate(expr.lhs, ctx) and evaluate(expr.rhs, ctx)) else 0
    if op == "||":
        return 1 if (evaluate(expr.lhs, ctx) or evaluate(expr.rhs, ctx)) else 0
    if op == "imply":
        return 1 if (not evaluate(expr.lhs, ctx) or evaluate(expr.rhs, ctx)) else 0
    lhs = evaluate(expr.lhs, ctx)
    rhs = evaluate(expr.rhs, ctx)
    if op == "+":
        return lhs + rhs
    if op == "-":
        return lhs - rhs
    if op == "*":
        return lhs * rhs
    if op == "/":
        if rhs == 0:
            raise EvalError("division by zero")
        return int(lhs / rhs) if (lhs < 0) != (rhs < 0) else lhs // rhs
    if op == "%":
        if rhs == 0:
            raise EvalError("modulo by zero")
        return lhs - rhs * (int(lhs / rhs) if (lhs < 0) != (rhs < 0) else lhs // rhs)
    if op == "==":
        return 1 if lhs == rhs else 0
    if op == "!=":
        return 1 if lhs != rhs else 0
    if op == "<":
        return 1 if lhs < rhs else 0
    if op == "<=":
        return 1 if lhs <= rhs else 0
    if op == ">":
        return 1 if lhs > rhs else 0
    if op == ">=":
        return 1 if lhs >= rhs else 0
    raise EvalError(f"unknown operator {op!r}")


def _eval_quantifier(expr: Quantifier, ctx: Context) -> int:
    low = evaluate(expr.low, ctx)
    high = evaluate(expr.high, ctx)
    if expr.kind == "forall":
        for value in range(low, high + 1):
            if not evaluate_bool(expr.body, ctx.with_binding(expr.binder, value)):
                return 0
        return 1
    for value in range(low, high + 1):
        if evaluate_bool(expr.body, ctx.with_binding(expr.binder, value)):
            return 1
    return 0


def _resolve_name(ident: str, ctx: Context) -> int:
    if ident in ctx.bindings:
        return ctx.bindings[ident]
    decls = ctx.decls
    if ident in decls.constants:
        return decls.constants[ident]
    var = decls.int_vars.get(ident)
    if var is not None:
        return ctx.state[var.slot]
    # Named range bounds synthesized by the parser: "<Type>.__low__".
    if ident.endswith(".__low__") or ident.endswith(".__high__"):
        type_name, _, which = ident.rpartition(".")
        bounds = decls.range_types.get(type_name)
        if bounds is None:
            raise EvalError(f"unknown range type {type_name!r}")
        return bounds[0] if which == "__low__" else bounds[1]
    if decls.clock_index(ident) is not None:
        raise EvalError(f"clock {ident!r} used in an integer expression")
    if ident in decls.arrays:
        raise EvalError(f"array {ident!r} used without an index")
    raise EvalError(f"unknown identifier {ident!r}")


def _resolve_array(expr: ArrayIndex, ctx: Context) -> int:
    if not isinstance(expr.array, Name):
        raise EvalError(f"cannot index {expr.array}")
    arr = ctx.decls.arrays.get(expr.array.ident)
    if arr is None:
        raise EvalError(f"unknown array {expr.array.ident!r}")
    index = evaluate(expr.index, ctx)
    if not (0 <= index < arr.size):
        raise EvalError(f"{arr.name}[{index}] out of bounds (size {arr.size})")
    return ctx.state[arr.offset + index]


def _resolve_field(expr: Field, ctx: Context) -> int:
    if ctx.location_test is None:
        raise EvalError(f"location test {expr} not allowed here")
    if not isinstance(expr.base, Name):
        raise EvalError(f"malformed location test {expr}")
    return 1 if ctx.location_test(expr.base.ident, expr.field) else 0


# ----------------------------------------------------------------------
# Assignments
# ----------------------------------------------------------------------


def apply_assignments(
    assignments: Sequence[Assignment],
    ctx: Context,
) -> Tuple[int, ...]:
    """Apply integer assignments sequentially, returning the new state.

    Each assignment sees the effects of the previous ones (UPPAAL order).
    Range violations raise :class:`OverflowError`.
    """
    state = list(ctx.state)
    decls = ctx.decls
    for assign in assignments:
        local = Context(decls, tuple(state), ctx.location_test, dict(ctx.bindings))
        value = evaluate(assign.value, local)
        target = assign.target
        if isinstance(target, Name):
            var = decls.int_vars.get(target.ident)
            if var is None:
                raise EvalError(f"cannot assign to {target.ident!r}")
            state[var.slot] = var.clamp_check(value)
        elif isinstance(target, ArrayIndex):
            if not isinstance(target.array, Name):
                raise EvalError(f"cannot assign to {target}")
            arr = decls.arrays.get(target.array.ident)
            if arr is None:
                raise EvalError(f"unknown array {target.array.ident!r}")
            index = evaluate(target.index, local)
            state[arr.offset + index] = arr.clamp_check(value, index)
        else:
            raise EvalError(f"invalid assignment target {target}")
    return tuple(state)
