"""Tests for the expression language: lexer, parser, evaluator, splitting."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.expr import (
    Context,
    Declarations,
    EvalError,
    GuardError,
    LexError,
    ParseError,
    apply_assignments,
    evaluate,
    evaluate_bool,
    parse_assignments,
    parse_expression,
    split_guard,
    static_int_bound,
    tokenize,
)
from repro.expr.ast import Binary, Name, Quantifier, conjuncts, walk
from repro.expr.clocksplit import update_max_constants


def make_decls():
    d = Declarations()
    d.add_constant("Tidle", 20)
    d.add_constant("N", 4)
    d.add_int("n", 0, 10, 3)
    d.add_int("flag", 0, 1, 0)
    d.add_array("inUse", 4, 0, 1)
    d.add_clock("x")
    d.add_clock("y")
    d.add_range_type("BufferId", 0, 3)
    return d


def ctx_of(d, **overrides):
    state = list(d.initial_state())
    for name, value in overrides.items():
        if name in d.int_vars:
            state[d.int_vars[name].slot] = value
    return Context(d, tuple(state))


class TestLexer:
    def test_tokens(self):
        kinds = [t.kind for t in tokenize("x >= 20 && n == 3")]
        assert kinds == ["ident", "op", "int", "op", "ident", "op", "int", "eof"]

    def test_keywords(self):
        tokens = tokenize("forall and or not exists imply true false")
        assert all(t.kind in ("kw", "eof") for t in tokens)

    def test_maximal_munch(self):
        texts = [t.text for t in tokenize("<=>=!=:=&&||")]
        assert texts == ["<=", ">=", "!=", ":=", "&&", "||", ""]

    def test_bad_character(self):
        with pytest.raises(LexError):
            tokenize("x @ 3")

    def test_positions(self):
        tokens = tokenize("ab + cd")
        assert tokens[0].pos == 0
        assert tokens[1].pos == 3
        assert tokens[2].pos == 5


class TestParser:
    def test_precedence_and_over_or(self):
        e = parse_expression("a || b && c")
        assert isinstance(e, Binary) and e.op == "||"
        assert isinstance(e.rhs, Binary) and e.rhs.op == "&&"

    def test_precedence_comparison_over_and(self):
        e = parse_expression("a == 1 && b == 2")
        assert e.op == "&&"

    def test_arith_precedence(self):
        e = parse_expression("1 + 2 * 3")
        assert e.op == "+"
        assert isinstance(e.rhs, Binary) and e.rhs.op == "*"

    def test_parentheses(self):
        e = parse_expression("(1 + 2) * 3")
        assert e.op == "*"

    def test_unary_minus(self):
        d = make_decls()
        assert evaluate(parse_expression("-3 + 5"), ctx_of(d)) == 2

    def test_not_keyword_and_bang(self):
        d = make_decls()
        assert evaluate(parse_expression("!0"), ctx_of(d)) == 1
        assert evaluate(parse_expression("not 1"), ctx_of(d)) == 0

    def test_imply(self):
        d = make_decls()
        assert evaluate(parse_expression("0 imply 0"), ctx_of(d)) == 1
        assert evaluate(parse_expression("1 imply 0"), ctx_of(d)) == 0

    def test_quantifier_named_range(self):
        e = parse_expression("forall (i : BufferId) (inUse[i] == 0)")
        assert isinstance(e, Quantifier)
        assert e.kind == "forall"

    def test_quantifier_explicit_range(self):
        e = parse_expression("exists (k : int[1, 3]) (k == 2)")
        d = make_decls()
        assert evaluate(e, ctx_of(d)) == 1

    def test_dotted_field(self):
        e = parse_expression("IUT.Bright")
        assert str(e) == "IUT.Bright"

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_expression("1 + 2 )")

    def test_missing_operand(self):
        with pytest.raises(ParseError):
            parse_expression("1 +")

    def test_assignments(self):
        assigns = parse_assignments("x := 0, n = n + 1")
        assert len(assigns) == 2
        assert str(assigns[0]) == "x := 0"

    def test_empty_assignment_list(self):
        assert parse_assignments("") == []
        assert parse_assignments("   ") == []

    def test_bad_assignment_target(self):
        with pytest.raises(ParseError):
            parse_assignments("3 := 4")

    def test_array_assignment_target(self):
        assigns = parse_assignments("inUse[2] := 1")
        assert len(assigns) == 1


class TestEvaluator:
    def test_constants_and_vars(self):
        d = make_decls()
        assert evaluate(parse_expression("Tidle + n"), ctx_of(d)) == 23

    def test_array_access(self):
        d = make_decls()
        assert evaluate(parse_expression("inUse[0] + inUse[3]"), ctx_of(d)) == 0

    def test_array_out_of_bounds(self):
        d = make_decls()
        with pytest.raises(EvalError):
            evaluate(parse_expression("inUse[7]"), ctx_of(d))

    def test_unknown_name(self):
        d = make_decls()
        with pytest.raises(EvalError):
            evaluate(parse_expression("nosuch"), ctx_of(d))

    def test_clock_in_int_expr_rejected(self):
        d = make_decls()
        with pytest.raises(EvalError):
            evaluate(parse_expression("x + 1"), ctx_of(d))

    def test_division_truncates_toward_zero(self):
        d = make_decls()
        assert evaluate(parse_expression("7 / 2"), ctx_of(d)) == 3
        assert evaluate(parse_expression("-7 / 2"), ctx_of(d)) == -3
        assert evaluate(parse_expression("7 % 2"), ctx_of(d)) == 1
        assert evaluate(parse_expression("-7 % 2"), ctx_of(d)) == -1

    def test_division_by_zero(self):
        d = make_decls()
        with pytest.raises(EvalError):
            evaluate(parse_expression("1 / 0"), ctx_of(d))

    def test_forall_over_named_range(self):
        d = make_decls()
        e = parse_expression("forall (i : BufferId) (inUse[i] == 0)")
        assert evaluate_bool(e, ctx_of(d))

    def test_exists_false_on_initial(self):
        d = make_decls()
        e = parse_expression("exists (i : BufferId) (inUse[i] == 1)")
        assert not evaluate_bool(e, ctx_of(d))

    def test_forall_empty_range_is_true(self):
        d = make_decls()
        e = parse_expression("forall (i : int[1, 0]) (0)")
        assert evaluate_bool(e, ctx_of(d))

    def test_nested_quantifiers(self):
        d = make_decls()
        e = parse_expression(
            "forall (i : int[0, 2]) exists (j : int[0, 2]) (i == j)"
        )
        assert evaluate_bool(e, ctx_of(d))

    def test_short_circuit(self):
        d = make_decls()
        # RHS would raise if evaluated.
        assert evaluate(parse_expression("0 && (1 / 0)"), ctx_of(d)) == 0
        assert evaluate(parse_expression("1 || (1 / 0)"), ctx_of(d)) == 1

    def test_binding_shadowing(self):
        d = make_decls()
        e = parse_expression("exists (n : int[5, 5]) (n == 5)")
        assert evaluate_bool(e, ctx_of(d))  # binder shadows variable n


class TestAssignments:
    def test_sequential_semantics(self):
        d = make_decls()
        # The second assignment must see the effect of the first (n: 3 -> 4).
        assigns = parse_assignments("n := n + 1, flag := n - 3")
        state = apply_assignments(assigns, ctx_of(d))
        layout = d.int_vars
        assert state[layout["n"].slot] == 4
        assert state[layout["flag"].slot] == 1

    def test_overflow_raises(self):
        d = make_decls()
        with pytest.raises(OverflowError):
            apply_assignments(parse_assignments("n := 11"), ctx_of(d))

    def test_array_assignment(self):
        d = make_decls()
        state = apply_assignments(parse_assignments("inUse[2] := 1"), ctx_of(d))
        arr = d.arrays["inUse"]
        assert state[arr.offset + 2] == 1

    def test_array_index_expression(self):
        d = make_decls()
        state = apply_assignments(
            parse_assignments("inUse[n - 3] := 1"), ctx_of(d)
        )
        arr = d.arrays["inUse"]
        assert state[arr.offset + 0] == 1

    def test_assign_to_constant_rejected(self):
        d = make_decls()
        with pytest.raises(EvalError):
            apply_assignments(parse_assignments("Tidle := 3"), ctx_of(d))


class TestSplitGuard:
    def test_pure_int_guard(self):
        d = make_decls()
        sg = split_guard(parse_expression("n == 3 && flag == 0"), d)
        assert len(sg.int_atoms) == 2
        assert len(sg.clock_atoms) == 0

    def test_pure_clock_guard(self):
        d = make_decls()
        sg = split_guard(parse_expression("x >= Tidle && y < 5"), d)
        assert len(sg.clock_atoms) == 2
        assert sg.clock_atoms[0].op == ">="

    def test_diagonal(self):
        d = make_decls()
        sg = split_guard(parse_expression("x - y <= 2"), d)
        atom = sg.clock_atoms[0]
        assert (atom.i, atom.j) == (1, 2)
        assert atom.is_diagonal

    def test_flipped_comparison(self):
        d = make_decls()
        sg = split_guard(parse_expression("5 >= x"), d)
        atom = sg.clock_atoms[0]
        assert atom.op == "<=" and atom.i == 1 and atom.j == 0

    def test_equality_atom_two_constraints(self):
        d = make_decls()
        sg = split_guard(parse_expression("x == 3"), d)
        constraints = sg.clock_constraints(ctx_of(d))
        assert len(constraints) == 2

    def test_clock_disjunction_rejected(self):
        d = make_decls()
        with pytest.raises(GuardError):
            split_guard(parse_expression("x < 1 || x > 5"), d)

    def test_clock_arithmetic_rejected(self):
        d = make_decls()
        with pytest.raises(GuardError):
            split_guard(parse_expression("x + 1 < 5"), d)

    def test_mixed_difference_rejected(self):
        d = make_decls()
        with pytest.raises(GuardError):
            split_guard(parse_expression("x - n < 5"), d)

    def test_negated_clock_atom(self):
        d = make_decls()
        sg = split_guard(parse_expression("!(x < 5)"), d)
        assert sg.clock_atoms[0].op == ">="

    def test_variable_rhs_constraint(self):
        d = make_decls()
        sg = split_guard(parse_expression("x <= n"), d)
        constraints = sg.clock_constraints(ctx_of(d, n=7))
        assert constraints == [(1, 0, (7 << 1) | 1)]

    def test_true_guard_for_none(self):
        d = make_decls()
        sg = split_guard(None, d)
        assert sg.int_holds(ctx_of(d))
        assert sg.clock_constraints(ctx_of(d)) == []


class TestStaticBounds:
    def test_constant(self):
        d = make_decls()
        assert static_int_bound(parse_expression("Tidle + 5"), d) == 25

    def test_variable_range(self):
        d = make_decls()
        assert static_int_bound(parse_expression("n"), d) == 10

    def test_product(self):
        d = make_decls()
        assert static_int_bound(parse_expression("n * 3"), d) == 30

    def test_update_max_constants(self):
        d = make_decls()
        sg = split_guard(parse_expression("x >= Tidle && y <= n"), d)
        max_consts = [0, 0, 0]
        update_max_constants(sg.clock_atoms, d, max_consts)
        assert max_consts[1] == 20
        assert max_consts[2] == 10


class TestAstHelpers:
    def test_conjuncts_flatten(self):
        e = parse_expression("a == 1 && b == 2 && c == 3")
        assert len(conjuncts(e)) == 3

    def test_walk_visits_all(self):
        e = parse_expression("inUse[n] + 2 * Tidle")
        names = [node.ident for node in walk(e) if isinstance(node, Name)]
        assert set(names) == {"inUse", "n", "Tidle"}

    @given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50))
    def test_parse_eval_roundtrip_arith(self, a, b, c):
        d = make_decls()
        expr = parse_expression(f"({a}) + ({b}) * ({c})")
        assert evaluate(expr, ctx_of(d)) == a + b * c
