"""Evaluation of integer/boolean expressions over discrete states.

Clocks never appear here: guards are split into clock atoms and integer
atoms by :mod:`repro.expr.clocksplit`, and only the integer part reaches
this evaluator.  Booleans are represented as ints (0/1), matching UPPAAL's
coercion rules closely enough for the models in this project.

Every expression is **compiled once** into nested closures
``fn(state, binders=(), location_test=None)`` over the flat variable
tuple (:func:`compile_expr`):

* constants, named range bounds (``BufferId.__low__``) and constant
  subexpressions are folded at compile time;
* a constant array index becomes a direct slot read;
* quantifier binders are resolved by lexical position: ``binders`` is a
  tuple holding the value of every enclosing binder, innermost last.

Errors keep their run-time semantics: an unknown name, a division by
zero or an out-of-bounds index compiles to a closure that raises the
same :class:`EvalError` when (and only if) evaluation reaches it, so
short-circuiting still guards it.  :func:`evaluate`, :func:`evaluate_bool`
and :func:`apply_assignments` are the :class:`Context`-based entry points
on the same closures.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence, Tuple, Union

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
)
from .env import Declarations


class EvalError(ValueError):
    """Raised on bad name references, type misuse, or division by zero."""


LocationTest = Callable[[str, str], bool]
#: A compiled expression: ``fn(state, binders=(), location_test=None)``.
Compiled = Callable[..., int]
Update = Callable[..., Tuple[int, ...]]


class Context:
    """Everything needed to evaluate an expression.

    ``location_test(process, location)`` resolves dotted atoms like
    ``IUT.Bright``; it may be None when such atoms are illegal (e.g. in
    edge guards).
    """

    __slots__ = ("decls", "state", "bindings", "location_test")

    def __init__(
        self,
        decls: Declarations,
        state: Tuple[int, ...],
        location_test: Optional[LocationTest] = None,
        bindings: Optional[Dict[str, int]] = None,
    ):
        self.decls = decls
        self.state = state
        self.location_test = location_test
        self.bindings = bindings or {}

    def with_binding(self, name: str, value: int) -> "Context":
        """A child context with one extra quantifier binding."""
        child = Context(self.decls, self.state, self.location_test, dict(self.bindings))
        child.bindings[name] = value
        return child


def evaluate(expr: Expr, ctx: Context) -> int:
    """Evaluate to an int (booleans are 0/1)."""
    bindings = ctx.bindings
    scope = tuple(bindings)
    fn = _cached(ctx.decls, "expr", expr, scope, compile_expr)
    return fn(ctx.state, tuple(bindings.values()), ctx.location_test)


def evaluate_bool(expr: Expr, ctx: Context) -> bool:
    """Evaluate as a boolean (nonzero = true)."""
    return evaluate(expr, ctx) != 0


def apply_assignments(
    assignments: Sequence[Assignment],
    ctx: Context,
) -> Tuple[int, ...]:
    """Apply integer assignments sequentially, returning the new state.

    Each assignment sees the effects of the previous ones (UPPAAL order).
    Range violations raise :class:`OverflowError`, an out-of-bounds array
    target :class:`IndexError`.
    """
    bindings = ctx.bindings
    fn = _cached(
        ctx.decls, "assign", tuple(assignments), tuple(bindings),
        compile_assignments,
    )
    return fn(ctx.state, tuple(bindings.values()), ctx.location_test)


def _cached(decls: Declarations, kind: str, item, scope: tuple, compiler):
    """``compiler(item, decls, scope)``, memoized on the declarations."""
    cache = decls.compiled
    key = (kind, item, scope)
    fn = cache.get(key)
    if fn is None:
        fn = cache[key] = compiler(item, decls, scope)
    return fn


# ----------------------------------------------------------------------
# Compiler
# ----------------------------------------------------------------------

#: A compile-time result: a folded constant or a closure.
_Code = Union[int, Compiled]


def compile_expr(expr: Expr, decls: Declarations, scope: Tuple[str, ...] = ()) -> Compiled:
    """Compile an expression to a closure over the variable tuple.

    ``scope`` names the binders already bound around the expression
    (their values are passed as ``binders``, in the same order).
    """
    return _as_closure(_compile(expr, decls, tuple(scope)))


def constant_value(expr: Expr, decls: Declarations) -> Optional[int]:
    """The expression's value if it folds to a constant, else None."""
    code = _compile(expr, decls, ())
    return None if callable(code) else code


def compile_conjunction(
    atoms: Sequence[Expr], decls: Declarations
) -> Optional[Compiled]:
    """One closure testing ``atoms[0] && atoms[1] && ...`` (1/0), left to
    right and short-circuiting; None when it is constantly true."""
    code = _all_of(atoms, decls, ())
    return None if code == 1 else _as_closure(code)


def _as_closure(code: _Code) -> Compiled:
    if callable(code):
        return code
    value = code

    def const(s, b=(), t=None):
        return value

    return const


def _raising(exc_type, message: str) -> Compiled:
    def fail(s, b=(), t=None):
        raise exc_type(message)

    return fail


def _compile(expr: Expr, decls: Declarations, scope: tuple) -> _Code:
    if isinstance(expr, IntLiteral):
        return expr.value
    if isinstance(expr, BoolLiteral):
        return 1 if expr.value else 0
    if isinstance(expr, Name):
        return _compile_name(expr.ident, decls, scope)
    if isinstance(expr, ArrayIndex):
        return _compile_array(expr, decls, scope)
    if isinstance(expr, Field):
        return _compile_field(expr)
    if isinstance(expr, Unary):
        return _compile_unary(expr, decls, scope)
    if isinstance(expr, Binary):
        return _compile_binary(expr, decls, scope)
    if isinstance(expr, Quantifier):
        return _compile_quantifier(expr, decls, scope)
    return _raising(EvalError, f"cannot evaluate {expr!r}")


def _compile_name(ident: str, decls: Declarations, scope: tuple) -> _Code:
    for pos in range(len(scope) - 1, -1, -1):
        if scope[pos] == ident:

            def binder(s, b=(), t=None):
                return b[pos]

            return binder
    if ident in decls.constants:
        return decls.constants[ident]
    var = decls.int_vars.get(ident)
    if var is not None:
        slot = var.slot

        def read(s, b=(), t=None):
            return s[slot]

        return read
    # Named range bounds synthesized by the parser: "<Type>.__low__".
    if ident.endswith(".__low__") or ident.endswith(".__high__"):
        type_name, _, which = ident.rpartition(".")
        bounds = decls.range_types.get(type_name)
        if bounds is None:
            return _raising(EvalError, f"unknown range type {type_name!r}")
        return bounds[0] if which == "__low__" else bounds[1]
    if decls.clock_index(ident) is not None:
        return _raising(EvalError, f"clock {ident!r} used in an integer expression")
    if ident in decls.arrays:
        return _raising(EvalError, f"array {ident!r} used without an index")
    return _raising(EvalError, f"unknown identifier {ident!r}")


def _compile_array(expr: ArrayIndex, decls: Declarations, scope: tuple) -> _Code:
    if not isinstance(expr.array, Name):
        return _raising(EvalError, f"cannot index {expr.array}")
    arr = decls.arrays.get(expr.array.ident)
    if arr is None:
        return _raising(EvalError, f"unknown array {expr.array.ident!r}")
    index = _compile(expr.index, decls, scope)
    name, size, offset = arr.name, arr.size, arr.offset
    if not callable(index):
        if not 0 <= index < size:
            return _raising(
                EvalError, f"{name}[{index}] out of bounds (size {size})"
            )
        slot = offset + index

        def read(s, b=(), t=None):
            return s[slot]

        return read

    def read_indexed(s, b=(), t=None):
        i = index(s, b, t)
        if not 0 <= i < size:
            raise EvalError(f"{name}[{i}] out of bounds (size {size})")
        return s[offset + i]

    return read_indexed


def _compile_field(expr: Field) -> Compiled:
    base, field = expr.base, expr.field
    if isinstance(base, Name):
        proc = base.ident

        def location(s, b=(), t=None):
            if t is None:
                raise EvalError(f"location test {expr} not allowed here")
            return 1 if t(proc, field) else 0

        return location

    def malformed(s, b=(), t=None):
        if t is None:
            raise EvalError(f"location test {expr} not allowed here")
        raise EvalError(f"malformed location test {expr}")

    return malformed


def _compile_unary(expr: Unary, decls: Declarations, scope: tuple) -> _Code:
    operand = _compile(expr.operand, decls, scope)
    op = expr.op
    if op == "-":
        if not callable(operand):
            return -operand

        def neg(s, b=(), t=None):
            return -operand(s, b, t)

        return neg
    if op == "!":
        if not callable(operand):
            return 0 if operand else 1

        def negate(s, b=(), t=None):
            return 0 if operand(s, b, t) else 1

        return negate
    message = f"unknown unary operator {op!r}"
    code = _as_closure(operand)

    def unknown(s, b=(), t=None):
        code(s, b, t)
        raise EvalError(message)

    return unknown


def _div(lhs: int, rhs: int) -> int:
    if rhs == 0:
        raise EvalError("division by zero")
    return int(lhs / rhs) if (lhs < 0) != (rhs < 0) else lhs // rhs


def _mod(lhs: int, rhs: int) -> int:
    if rhs == 0:
        raise EvalError("modulo by zero")
    return lhs - rhs * (int(lhs / rhs) if (lhs < 0) != (rhs < 0) else lhs // rhs)


#: Strict binary operators (both operands always evaluated, left first).
_STRICT: Dict[str, Callable[[int, int], int]] = {
    "+": lambda a, c: a + c,
    "-": lambda a, c: a - c,
    "*": lambda a, c: a * c,
    "/": _div,
    "%": _mod,
    "==": lambda a, c: 1 if a == c else 0,
    "!=": lambda a, c: 1 if a != c else 0,
    "<": lambda a, c: 1 if a < c else 0,
    "<=": lambda a, c: 1 if a <= c else 0,
    ">": lambda a, c: 1 if a > c else 0,
    ">=": lambda a, c: 1 if a >= c else 0,
}


def _compile_binary(expr: Binary, decls: Declarations, scope: tuple) -> _Code:
    op = expr.op
    if op == "&&":
        return _all_of(conjuncts(expr), decls, scope)
    lhs = _compile(expr.lhs, decls, scope)
    if op in ("||", "imply"):
        if not callable(lhs):
            # A constant left operand decides alone or defers to the right.
            if bool(lhs) == (op == "||"):
                return 1
            return _all_of([expr.rhs], decls, scope)
        left, right = lhs, _as_closure(_compile(expr.rhs, decls, scope))
        if op == "||":

            def either(s, b=(), t=None):
                return 1 if (left(s, b, t) or right(s, b, t)) else 0

            return either

        def implies(s, b=(), t=None):
            return 1 if (not left(s, b, t) or right(s, b, t)) else 0

        return implies
    rhs = _compile(expr.rhs, decls, scope)
    fold = _STRICT.get(op)
    if fold is None:
        message = f"unknown operator {op!r}"
        left, right = _as_closure(lhs), _as_closure(rhs)

        def unknown(s, b=(), t=None):
            left(s, b, t)
            right(s, b, t)
            raise EvalError(message)

        return unknown
    if not callable(lhs) and not callable(rhs):
        try:
            return fold(lhs, rhs)
        except (EvalError, OverflowError) as exc:
            return _raising(type(exc), str(exc))
    if not callable(rhs):
        c = rhs
        return lambda s, b=(), t=None: fold(lhs(s, b, t), c)
    left = _as_closure(lhs)
    return lambda s, b=(), t=None: fold(left(s, b, t), rhs(s, b, t))


def _all_of(parts: Sequence[Expr], decls: Declarations, scope: tuple) -> _Code:
    """``parts[0] && parts[1] && ...`` (1/0): left to right, stopping at
    the first false part."""
    tests: list = []
    for part in parts:
        code = _compile(part, decls, scope)
        if callable(code):
            tests.append(code)
        elif not code:  # false from here on, once the tests before ran
            if not tests:
                return 0
            tests.append(_as_closure(0))
            break
    if not tests:
        return 1
    if len(tests) == 1:
        only = tests[0]

        def single(s, b=(), t=None):
            return 1 if only(s, b, t) else 0

        return single
    if len(tests) == 2:
        first, second = tests

        def both(s, b=(), t=None):
            return 1 if (first(s, b, t) and second(s, b, t)) else 0

        return both
    tests = tuple(tests)

    def every(s, b=(), t=None):
        for test in tests:
            if not test(s, b, t):
                return 0
        return 1

    return every


def _compile_quantifier(expr: Quantifier, decls: Declarations, scope: tuple) -> _Code:
    low = _compile(expr.low, decls, scope)
    high = _compile(expr.high, decls, scope)
    forall = expr.kind == "forall"
    if not callable(low) and not callable(high) and low > high:
        return 1 if forall else 0  # empty range: the body never runs
    body = _compile(expr.body, decls, scope + (expr.binder,))
    if not callable(low) and not callable(high) and not callable(body):
        return 1 if body else 0
    lo_fn, hi_fn, test = _as_closure(low), _as_closure(high), _as_closure(body)
    if forall:

        def every(s, b=(), t=None):
            for value in range(lo_fn(s, b, t), hi_fn(s, b, t) + 1):
                if not test(s, b + (value,), t):
                    return 0
            return 1

        return every

    def some(s, b=(), t=None):
        for value in range(lo_fn(s, b, t), hi_fn(s, b, t) + 1):
            if test(s, b + (value,), t):
                return 1
        return 0

    return some


# ----------------------------------------------------------------------
# Assignments
# ----------------------------------------------------------------------


def compile_assignments(
    assignments: Sequence[Assignment],
    decls: Declarations,
    scope: Tuple[str, ...] = (),
) -> Update:
    """Compile a sequential assignment list to ``fn(state, binders=(),
    location_test=None) -> new state``; raises like
    :func:`apply_assignments`."""
    writes = compile_writes(assignments, decls, scope)

    def update(s, b=(), t=None):
        state = list(s)
        for write in writes:
            write(state, b, t)
        return tuple(state)

    return update


def compile_writes(
    assignments: Sequence[Assignment],
    decls: Declarations,
    scope: Tuple[str, ...] = (),
) -> tuple:
    """One closure ``write(state_list, binders, location_test)`` per
    assignment, applying it in place: the value sees the list's current
    contents, so running them in order is :func:`apply_assignments`."""
    return tuple(_compile_write(assign, decls, tuple(scope)) for assign in assignments)


def _compile_write(assign: Assignment, decls: Declarations, scope: tuple):
    value = _as_closure(_compile(assign.value, decls, scope))
    target = assign.target
    if isinstance(target, Name):
        var = decls.int_vars.get(target.ident)
        if var is None:
            message = f"cannot assign to {target.ident!r}"

            def bad_var(state, b, t):
                value(state, b, t)
                raise EvalError(message)

            return bad_var
        slot, low, high, check = var.slot, var.low, var.high, var.clamp_check

        def write_var(state, b, t):
            v = value(state, b, t)
            if not low <= v <= high:
                check(v)
            state[slot] = v

        return write_var
    if isinstance(target, ArrayIndex):
        if not isinstance(target.array, Name):
            message = f"cannot assign to {target}"
        else:
            arr = decls.arrays.get(target.array.ident)
            message = f"unknown array {target.array.ident!r}"
        if not isinstance(target.array, Name) or arr is None:

            def bad_array(state, b, t):
                value(state, b, t)
                raise EvalError(message)

            return bad_array
        index = _as_closure(_compile(target.index, decls, scope))
        offset, size, low, high = arr.offset, arr.size, arr.low, arr.high
        check = arr.clamp_check

        def write_cell(state, b, t):
            v = value(state, b, t)
            i = index(state, b, t)
            if not (0 <= i < size and low <= v <= high):
                check(v, i)
            state[offset + i] = v

        return write_cell
    message = f"invalid assignment target {target}"

    def bad_target(state, b, t):
        value(state, b, t)
        raise EvalError(message)

    return bad_target


# ----------------------------------------------------------------------
# Static bounds (for extrapolation constants)
# ----------------------------------------------------------------------


def static_int_bound(expr: Expr, decls: Declarations) -> int:
    """An upper bound on ``|value|`` of an integer expression, over all
    reachable variable values (using declared ranges).  Conservative."""
    if isinstance(expr, IntLiteral):
        return abs(expr.value)
    if isinstance(expr, BoolLiteral):
        return 1
    if isinstance(expr, Name):
        if expr.ident in decls.constants:
            return abs(decls.constants[expr.ident])
        var = decls.int_vars.get(expr.ident)
        if var is not None:
            return max(abs(var.low), abs(var.high))
        if expr.ident.endswith(".__low__") or expr.ident.endswith(".__high__"):
            type_name, _, _ = expr.ident.rpartition(".")
            low, high = decls.range_types[type_name]
            return max(abs(low), abs(high))
        raise EvalError(f"cannot bound identifier {expr.ident!r}")
    if isinstance(expr, ArrayIndex):
        if isinstance(expr.array, Name) and expr.array.ident in decls.arrays:
            arr = decls.arrays[expr.array.ident]
            return max(abs(arr.low), abs(arr.high))
        raise EvalError(f"cannot bound {expr}")
    if isinstance(expr, Unary):
        return static_int_bound(expr.operand, decls)
    if isinstance(expr, Binary):
        lhs = static_int_bound(expr.lhs, decls)
        rhs = static_int_bound(expr.rhs, decls)
        if expr.op in ("+", "-"):
            return lhs + rhs
        if expr.op == "*":
            return lhs * rhs
        if expr.op in ("/", "%"):
            return lhs
        return 1  # comparisons / logic yield 0 or 1
    if isinstance(expr, Quantifier):
        return 1
    raise EvalError(f"cannot bound {expr!r}")
