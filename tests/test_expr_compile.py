"""The compiled discrete layer against its references.

* Closure-compiled expressions and assignments (:mod:`repro.expr.eval`)
  against the AST-walking interpreter of ``tests/expr_reference.py``:
  same values, same exception types and messages, under the same
  short-circuiting.
* Template move enumeration (:meth:`System.moves_from`) against the
  per-state enumeration of ``tests/moves_reference.py``, move for move
  and in order, in the closed, open and partial modes.
* The Table 1 cells explored on the compiled layer: graphs, expansion
  tables, win federations and rank layers hash to pinned digests (those
  of the AST-walking implementation), on every kernel backend.
"""

import hashlib
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dbm import backends as backends_mod
from repro.expr import (
    Context,
    Declarations,
    EvalError,
    apply_assignments,
    compile_expr,
    evaluate,
    parse_assignments,
    parse_expression,
)
from repro.expr.ast import (
    ArrayIndex,
    Assignment,
    Binary,
    BoolLiteral,
    Field,
    IntLiteral,
    Name,
    Quantifier,
    Unary,
)
from repro.game import solver
from repro.gen import generate_instance
from repro.graph.explorer import ExplorationLimit, SimulationGraph
from repro.models import lep, smartlight, traingate
from repro.semantics.system import MODES, System
from repro.ta import NetworkBuilder
from repro.tctl import query

from tests import expr_reference as reference
from tests.moves_reference import enumerate_moves


def make_decls() -> Declarations:
    d = Declarations()
    d.add_constant("N", 3)
    d.add_int("n", -5, 5, 1)
    d.add_int("m", -5, 5, -2)
    d.add_array("arr", 3, -4, 4, init=[2, -1, 0])
    d.add_clock("x")
    d.add_range_type("R", 0, 2)
    return d


DECLS = make_decls()
NAMES = ["n", "m", "N", "i", "j", "zz", "x", "arr", "R.__low__", "R.__high__",
         "Q.__low__"]
OPS = ["+", "-", "*", "/", "%", "==", "!=", "<", "<=", ">", ">=", "&&", "||",
       "imply"]

leaves = st.one_of(
    st.integers(-6, 6).map(IntLiteral),
    st.booleans().map(BoolLiteral),
    st.sampled_from(NAMES).map(Name),
)


def _extend(children):
    return st.one_of(
        st.builds(
            ArrayIndex,
            st.sampled_from([Name("arr"), Name("nope"), IntLiteral(1)]),
            children,
        ),
        st.builds(Unary, st.sampled_from(["-", "!"]), children),
        st.builds(Binary, st.sampled_from(OPS), children, children),
        st.builds(
            Quantifier,
            st.sampled_from(["forall", "exists"]),
            st.sampled_from(["i", "j", "n"]),  # "n" shadows a variable
            children,
            children,
            children,
        ),
        st.builds(
            Field, st.sampled_from([Name("P"), Name("Q"), IntLiteral(0)]),
            st.sampled_from(["l0", "l1"]),
        ),
    )


exprs = st.recursive(leaves, _extend, max_leaves=10)
states = st.tuples(
    st.integers(-5, 5), st.integers(-5, 5),
    st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4),
)


def location_test(proc: str, loc: str) -> bool:
    if proc != "P":
        raise EvalError(f"unknown process {proc!r}")
    return loc == "l1"


def outcome(run):
    """A call's value, or its exception's type and message."""
    try:
        return ("value", run())
    except (EvalError, OverflowError, IndexError) as exc:
        return (type(exc).__name__, str(exc))


def contexts(state):
    yield Context(DECLS, state)
    yield Context(DECLS, state, location_test)
    yield Context(DECLS, state, location_test, {"i": 2, "k": -1})


@settings(max_examples=400, deadline=None)
@given(exprs, states)
def test_compiled_expressions_match_the_reference(expr, state):
    for ctx in contexts(state):
        want = outcome(lambda: reference.evaluate(expr, ctx))
        assert outcome(lambda: evaluate(expr, ctx)) == want, ctx.bindings
    fn = compile_expr(expr, DECLS)
    assert outcome(lambda: fn(state)) == outcome(
        lambda: reference.evaluate(expr, Context(DECLS, state))
    )


targets = st.one_of(
    st.sampled_from(["n", "m", "N", "zz"]).map(Name),
    st.builds(ArrayIndex, st.sampled_from([Name("arr"), Name("nope")]), exprs),
    st.just(IntLiteral(0)),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.builds(Assignment, targets, exprs), max_size=4), states)
def test_compiled_assignments_match_the_reference(assigns, state):
    ctx = Context(DECLS, state, location_test)
    assert outcome(lambda: apply_assignments(assigns, ctx)) == outcome(
        lambda: reference.apply_assignments(assigns, ctx)
    )


@pytest.mark.parametrize(
    "text, value",
    [
        ("7 / 2", 3), ("-7 / 2", -3), ("7 / -2", -3), ("-7 % 2", -1),
        ("7 % -2", 1), ("0 && zz", 0), ("1 || zz", 1), ("0 imply zz", 1),
        ("0 && (1 / 0)", 0), ("forall (i : int[1, 0]) zz", 1),
        ("exists (i : int[1, 0]) zz", 0), ("forall (n : int[0, 2]) n >= 0", 1),
        ("exists (i : int[0, 2]) exists (i : int[5, 5]) i == 5", 1),
        ("forall (i : R) arr[i] <= 2", 1), ("arr[n + 1] + N", 3),
    ],
)
def test_edge_cases_fold_and_short_circuit_like_the_reference(text, value):
    expr = parse_expression(text)
    ctx = Context(DECLS, DECLS.initial_state())
    assert evaluate(expr, ctx) == reference.evaluate(expr, ctx) == value


@pytest.mark.parametrize(
    "text, message",
    [
        ("1 / 0", "division by zero"), ("n % (m + 2)", "modulo by zero"),
        ("arr[3]", "arr[3] out of bounds (size 3)"),
        ("arr[n - 2]", "arr[-1] out of bounds (size 3)"),
        ("1 && zz", "unknown identifier 'zz'"),
        ("x + 1", "clock 'x' used in an integer expression"),
        ("arr + 1", "array 'arr' used without an index"),
    ],
)
def test_errors_are_raised_when_reached(text, message):
    expr = parse_expression(text)
    ctx = Context(DECLS, DECLS.initial_state())
    for run in (evaluate, reference.evaluate):
        with pytest.raises(EvalError, match=re.escape(message)):
            run(expr, ctx)


def test_out_of_bounds_array_target_raises_index_error():
    assigns = parse_assignments("arr[n + 2] := 1")
    ctx = Context(DECLS, DECLS.initial_state())
    for run in (apply_assignments, reference.apply_assignments):
        with pytest.raises(IndexError):
            run(assigns, ctx)


# ----------------------------------------------------------------------
# Template enumeration against the per-state reference
# ----------------------------------------------------------------------


def _guarded_committed_net():
    """Guards on both halves of binary pairs, and broadcasts cast while
    some automaton is committed, by committed and uncommitted emitters."""
    net = NetworkBuilder("guarded-committed")
    net.clock("x")
    net.int_var("v", 0, 3, 0)
    net.broadcast_channel("b")
    net.input_channel("go")
    net.output_channel("out")
    p = net.automaton("P")
    p.location("s", initial=True)
    p.location("c", committed=True)
    p.edge("s", "c", sync="go!", guard="v < 3", assign="v := v + 1")
    p.edge("c", "s", sync="b!")
    p.edge("s", "s", sync="out?", guard="v == 2")
    q = net.automaton("Q")
    q.location("q", initial=True)
    q.location("k", committed=True)
    q.edge("q", "q", sync="go?", guard="v != 1")
    q.edge("q", "k", sync="b?", guard="v >= 1")
    q.edge("k", "q", sync="out!", assign="v := 0")
    r = net.automaton("R")
    r.location("r", initial=True)
    r.edge("r", "r", sync="b?", guard="v <= 2")
    r.edge("r", "r", sync="go?", guard="v >= 2")
    r.edge("r", "r", sync="b!", guard="v != 3")
    return net.build()


def _networks():
    yield "guarded-committed", _guarded_committed_net()
    for family in ("broadcast", "urgent_random", "chain"):
        for seed in range(5):
            instance = generate_instance(seed, family)
            yield f"{family}-{seed}-arena", instance.arena
            yield f"{family}-{seed}-plant", instance.plant
    yield "lep-3", lep.lep_network(3)  # committed locations
    yield "smartlight", smartlight.smartlight_network()
    yield "traingate", traingate.traingate_network(2)


def _discrete_states(network, limit=250):
    graph = SimulationGraph(System(network), max_nodes=limit)
    try:
        graph.explore_all()
    except ExplorationLimit:
        pass
    return list(dict.fromkeys(node.key for node in graph.nodes))


@pytest.mark.parametrize("name, network", list(_networks()))
def test_template_enumeration_matches_the_reference(name, network):
    system = System(network)
    for locs, vars in _discrete_states(network):
        for mode in MODES:
            want = enumerate_moves(system, locs, vars, mode)
            got = system.moves_from(locs, vars, mode)
            assert got == want, (name, locs, vars, mode)
            assert [m.key for m in got] == [m.key for m in want]


# ----------------------------------------------------------------------
# Table 1 cells: byte-identical work
# ----------------------------------------------------------------------

#: (purpose, n, solver) -> (graph, expansion tables, wins) digests.
TABLE1 = {
    ("TP2", 6, "OnTheFlySolver"): (
        "2124dceacef311bb", "eb82ca05a1bdbbb7", "a9ac0ac5661bde1e",
    ),
    ("TP1", 3, "TwoPhaseSolver"): (
        "cd7c363a043960fe", "835a0a71ff22a0ae", "3c53e133071b7323",
    ),
    ("TP2", 4, "TwoPhaseSolver"): (
        "8feb6f251de705a8", "12223288381b0954", "7000996f5c0a75f0",
    ),
}


def _fed_bytes(fed) -> bytes:
    return b"".join(zone.m.tobytes() for zone in fed.zones)


def _digests(result):
    graph, tables, wins = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    seen = set()
    for node in result.graph.nodes:
        graph.update(repr((node.id, node.sym.locs, node.sym.vars)).encode())
        graph.update(node.sym.zone.m.tobytes())
        for e in node.out_edges:
            graph.update(repr((
                e.source.id, e.target.id, e.slot, e.move.key, e.move.label,
                e.move.direction, e.move.controllable,
            )).encode())
        table = node.table
        if table is not None and id(table) not in seen:
            seen.add(id(table))
            tables.update(repr([
                (m.key, m.label, m.direction, m.controllable) for m in table.moves
            ]).encode())
            tables.update(repr(table.targets).encode())
            tables.update(table.flat.tobytes())
        entry = result.wins.get(node.id)
        if entry is not None:
            wins.update(repr(node.id).encode())
            wins.update(_fed_bytes(entry.win))
            wins.update(_fed_bytes(entry.goal))
            for step, fed in entry.layers:
                wins.update(repr(step).encode())
                wins.update(_fed_bytes(fed))
    return tuple(h.hexdigest()[:16] for h in (graph, tables, wins))


@pytest.mark.parametrize("backend", backends_mod.available_backends())
@pytest.mark.parametrize("cell", list(TABLE1))
def test_table1_work_is_byte_identical(cell, backend):
    tp, n, solver_name = cell
    with backends_mod.use_backend(backend):
        arena = System(lep.lep_network(n))
        purpose = query.parse_query(lep.TEST_PURPOSES[tp])
        result = getattr(solver, solver_name)(arena, purpose).solve()
        assert result.winning
        assert _digests(result) == TABLE1[cell]
