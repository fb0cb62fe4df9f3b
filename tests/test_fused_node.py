"""The graph-node kernels: one call per node forward and backward.

The explorer expands a node with one ``zone_expand`` call over its
discrete state's :class:`~repro.dbm.backends.base.ExpansionTable` and
probes for a node whose zone includes a new one with one
``first_superset`` call; the solver evaluates a node's fixpoint
equation with one ``node_equation`` call.  These tests hold the compiled kernels to the numpy reference on
whole Table 1 solves, hold the fused calls to the per-step kernels and
Python federation algebra they replace, and check demotion under
injected faults.
"""

import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import faults
from repro.dbm import DBM, Federation, bound
from repro.dbm import backends as backends_mod
from repro.dbm.backends.base import ExpansionTable, MovePlan
from repro.dbm.backends.numpy_backend import NumpyBackend
from repro.game import OnTheFlySolver, TwoPhaseSolver
from repro.game import solver as solver_mod
from repro.gen.differential import (
    EQUATION_CASES,
    EXPAND_CASES,
    _equation_kernel_mismatch,
    _expand_kernel_mismatch,
)
from repro.graph import explorer as explorer_mod
from repro.models.lep import TEST_PURPOSES, lep_network
from repro.semantics.system import Move, System
from repro.tctl import parse_query
from repro.util import counters
from tests.zone_strategies import federations, zones

AVAILABLE = backends_mod.available_backends()
COMPILED = [name for name in AVAILABLE if name != "numpy"]
REFERENCE = NumpyBackend()
DIM = 4

needs_compiled = pytest.mark.skipif(not COMPILED, reason="no compiled backend loads")

#: LEP cells: (test purpose, size, solver class).
CELLS = [
    ("TP2", 6, OnTheFlySolver),
    ("TP1", 3, TwoPhaseSolver),
    ("TP2", 4, TwoPhaseSolver),
]


def solve_trace(tp, n, cls, backend_name, monkeypatch):
    """Every expansion and every ``_update`` of one solve, in order:
    expansions as (node, [(slot, target, target zone bytes)]), updates
    as (node, win bytes)."""
    trace = []
    expand = explorer_mod.SimulationGraph.expand
    update = solver_mod._BaseSolver._update

    def recording_expand(self, node):
        fresh = not self._expanded.get(node.id)
        edges = expand(self, node)
        if fresh:
            trace.append(
                (
                    "expand",
                    node.id,
                    [(e.slot, e.target.id, e.target.zone.hash_key()) for e in edges],
                )
            )
        return edges

    def recording_update(self, node):
        win = update(self, node)
        trace.append(("update", node.id, np.array(win._rows()).tobytes()))
        return win

    monkeypatch.setattr(explorer_mod.SimulationGraph, "expand", recording_expand)
    monkeypatch.setattr(solver_mod._BaseSolver, "_update", recording_update)
    with backends_mod.use_backend(backends_mod.resolve(backend_name)):
        result = cls(System(lep_network(n)), parse_query(TEST_PURPOSES[tp])).solve()
    monkeypatch.setattr(explorer_mod.SimulationGraph, "expand", expand)
    monkeypatch.setattr(solver_mod._BaseSolver, "_update", update)
    assert result.winning
    return trace


@needs_compiled
@pytest.mark.parametrize("name", COMPILED)
@pytest.mark.parametrize("tp,n,cls", CELLS)
def test_every_expansion_and_update_matches_numpy(name, tp, n, cls, monkeypatch):
    compiled = solve_trace(tp, n, cls, name, monkeypatch)
    reference = solve_trace(tp, n, cls, "numpy", monkeypatch)
    assert len(compiled) == len(reference)
    assert {kind for kind, *_ in reference} == {"expand", "update"}
    for step, (got, want) in enumerate(zip(compiled, reference)):
        assert got == want, f"{want[0]} {step} (node {want[1]}) differs"


# ----------------------------------------------------------------------
# Kernel-level properties
# ----------------------------------------------------------------------


@st.composite
def constraint_lists(draw, dim=DIM, max_n=3):
    out = []
    for _ in range(draw(st.integers(0, max_n))):
        i = draw(st.integers(0, dim - 1))
        j = draw(st.integers(0, dim - 1))
        if i != j:
            out.append((i, j, bound(draw(st.integers(-4, 9)), draw(st.booleans()))))
    return tuple(out)


@st.composite
def plans(draw, dim=DIM, caps=None):
    clocks = draw(st.lists(st.integers(1, dim - 1), unique=True, max_size=dim - 1))
    assigns = tuple(sorted((x, draw(st.sampled_from((0, 0, 1, 3)))) for x in clocks))
    return MovePlan(
        draw(constraint_lists(dim)),
        assigns,
        draw(constraint_lists(dim)),
        draw(st.booleans()),
        caps,
    )


def table_of(plan_list, controllable):
    moves = [
        Move(f"m{x}", "input" if ctrl else "output", ctrl, ())
        for x, ctrl in enumerate(controllable)
    ]
    return ExpansionTable(moves, [((x,), ()) for x in range(len(moves))], plan_list)


@st.composite
def expansion_tables(draw, dim=DIM):
    caps = draw(st.one_of(st.none(), st.tuples(*[st.integers(0, 8)] * dim)))
    plan_list = draw(st.lists(plans(dim, caps), max_size=4))
    return table_of(plan_list, [draw(st.booleans()) for _ in plan_list])


@pytest.mark.parametrize("name", AVAILABLE)
@settings(max_examples=80, deadline=None)
@given(zones(), expansion_tables())
def test_zone_expand_is_zone_successor_per_move(name, zone, table):
    assume(not zone.is_empty())
    backend = backends_mod.resolve(name)
    pristine = zone.m.copy()
    rows, ok = backend.zone_expand(zone.m, table)
    assert rows.shape == (len(table.plans), DIM, DIM)
    assert ok.shape == (len(table.plans),)
    for x, plan in enumerate(table.plans):
        want = REFERENCE.zone_successor(zone.m, plan)
        assert (want is not None) == bool(ok[x])
        if want is not None:
            assert np.array_equal(rows[x], want)
    assert np.array_equal(zone.m, pristine)


def broadcast_probe(stack, m):
    """The explorer's original probe: one broadcast comparison."""
    hits = (stack >= m).all(axis=(1, 2))
    return int(np.flatnonzero(hits)[0]) if hits.any() else -1


@pytest.mark.parametrize("name", AVAILABLE)
@settings(max_examples=80, deadline=None)
@given(st.lists(zones(), max_size=6), zones(), st.data())
def test_first_superset_is_the_broadcast_probe(name, members, probe, data):
    members = [z for z in members if not z.is_empty()]
    assume(not probe.is_empty())
    if members and data.draw(st.booleans()):
        probe = data.draw(st.sampled_from(members))  # a guaranteed hit
    stack = (
        np.stack([z.m for z in members])
        if members
        else np.empty((0, DIM, DIM), dtype=np.int64)
    )
    backend = backends_mod.resolve(name)
    assert backend.first_superset(stack, probe.m) == broadcast_probe(stack, probe.m)


def composed_equation(zone, invariant, goal, can_delay, table, slots, targets, wins):
    """``recompute_node``'s composition on raw operands: ``zone_pred``
    per zone into :class:`Federation` algebra, ``B`` as
    ``Pred_e(Z(n') \\ Win(n'))``, then one ``fixpoint_body`` call."""
    dim = zone.shape[0]
    backend = backends_mod.active()

    def pred(plan, fed):
        out = []
        for z in fed.zones:
            m = backend.zone_pred(z.m, plan, zone)
            if m is not None:
                out.append(DBM(m))
        return Federation(dim, out)

    g_act = bad = u_enabled = Federation.empty(dim)
    for slot, target, win in zip(slots, targets, wins):
        plan = table.plans[slot]
        win = Federation(dim, [DBM(m) for m in win])
        if table.controllable[slot]:
            g_act = g_act.union(pred(plan, win))
            continue
        target_all = Federation.from_zone(DBM(target))
        bad = bad.union(pred(plan, target_all.subtract(win)))
        u_enabled = u_enabled.union(pred(plan, target_all))
    rows = backend.fixpoint_body(
        zone,
        invariant,
        goal,
        g_act._rows(),
        bad._rows(),
        u_enabled._rows(),
        can_delay,
    )
    return Federation._adopt(dim, rows)


def rows_of(fed):
    return np.array(fed._rows())


@st.composite
def node_operands(draw, dim=DIM):
    """A node's zone, invariant, goal and out-edges: targets drawn from
    ``zones()``, each win empty, covering its target, or a random part
    of it."""
    zone = draw(zones(dim))
    assume(not zone.is_empty())
    invariant = draw(zones(dim, max_constraints=3))
    assume(not invariant.is_empty())
    goal = draw(federations(dim, max_zones=1)).intersect_zone(zone)
    ne = draw(st.integers(0, 3))
    plan_list = [draw(plans(dim)) for _ in range(ne + 1)]
    table = table_of(plan_list, [draw(st.booleans()) for _ in plan_list])
    slots, targets, wins = [], [], []
    for _ in range(ne):
        target = draw(zones(dim))
        assume(not target.is_empty())
        kind = draw(st.sampled_from(("empty", "covering", "part")))
        if kind == "empty":
            win = Federation.empty(dim)
        elif kind == "covering":
            win = Federation.from_zone(target)
        else:
            win = draw(federations(dim)).intersect_zone(target)
        slots.append(draw(st.integers(0, ne)))
        targets.append(target.m)
        wins.append(rows_of(win))
    stacked = np.stack(targets) if targets else np.empty((0, dim, dim), np.int64)
    return (
        zone.m,
        invariant.m,
        rows_of(goal),
        draw(st.booleans()),
        table,
        slots,
        stacked,
        wins,
    )


@pytest.mark.parametrize("name", AVAILABLE)
@settings(max_examples=80, deadline=None)
@given(node_operands())
def test_node_equation_is_the_composed_equation(name, args):
    backend = backends_mod.resolve(name)
    pristine = [a.copy() for a in (args[0], args[1], args[2], args[6], *args[7])]
    got = backend.node_equation(*args)
    assert np.array_equal(got, REFERENCE.node_equation(*args))
    with backends_mod.use_backend(backend):
        want = composed_equation(*args)
    assert Federation._adopt(DIM, got).equals(want)
    after = [args[0], args[1], args[2], args[6], *args[7]]
    assert all(np.array_equal(a, b) for a, b in zip(after, pristine))


@pytest.mark.parametrize("name", AVAILABLE)
def test_node_equation_on_dim_one(name):
    """The reference clock alone: every zone is the universal one."""
    backend = backends_mod.resolve(name)
    whole = DBM.universal(1).m
    none = np.empty((0, 1, 1), dtype=np.int64)
    for ctrl in (False, True):
        table = table_of([MovePlan((), (), (), True)], [ctrl])
        for goal in (none, whole[None]):
            for win in (none, whole[None]):
                for delay in (False, True):
                    args = (whole, whole, goal, delay, table, [0], whole[None], [win])
                    got = backend.node_equation(*args)
                    assert np.array_equal(got, REFERENCE.node_equation(*args))
                    with backends_mod.use_backend(backend):
                        want = composed_equation(*args)
                    assert Federation._adopt(1, got).equals(want)
                    # Winning iff the goal holds, or the only move leads
                    # into a winning target and either is the tester's or
                    # is forced (time cannot pass).
                    assert bool(got.shape[0]) == bool(
                        goal.shape[0] or (win.shape[0] and (ctrl or not delay))
                    )


# ----------------------------------------------------------------------
# Demotion and the kernel check's cases
# ----------------------------------------------------------------------


@needs_compiled
@pytest.mark.parametrize("name", COMPILED)
def test_injected_fault_demotes_each_node_kernel(name):
    backend = backends_mod.resolve(name)
    rng = random.Random(3)
    zone = DBM.universal(DIM).tighten(1, 0, bound(5, False))
    table = table_of(
        [
            MovePlan(((1, 0, bound(3, False)),), ((2, 0),), (), True),
            MovePlan(((0, 1, bound(-2, False)),), ((1, 0),), (), False),
        ],
        [True, False],
    )
    target = DBM.universal(DIM).m
    win = DBM.universal(DIM).tighten(2, 0, bound(1, False)).m
    bounded = DBM.universal(DIM).tighten(3, 0, bound(rng.randint(0, 4), True))
    stack = np.stack([bounded.m, target])
    calls = {
        "zone_expand": lambda: backend.zone_expand(zone.m, table),
        "first_superset": lambda: backend.first_superset(stack, zone.m),
        "node_equation": lambda: backend.node_equation(
            zone.m, zone.m, np.empty((0, DIM, DIM), np.int64), True, table,
            [0, 1], np.stack([target, target]), [win[None], win[None]],
        ),
    }
    for label, call in calls.items():
        want = call()
        before = counters.export()
        with faults.injected(f"dbm.{name}.compute:1"):
            got = call()
        delta = counters.diff(before, counters.export())
        assert delta.get("dbm.backend_demotions") == 1, label
        if label == "zone_expand":
            assert np.array_equal(got[1], want[1])
            assert np.array_equal(got[0][want[1]], want[0][want[1]])
        elif label == "first_superset":
            assert got == want == 1
        else:
            assert np.array_equal(got, want) and got.shape[0]


@needs_compiled
@pytest.mark.parametrize("case", EXPAND_CASES)
def test_kernel_check_runs_every_expand_case(case):
    for name in COMPILED:
        backend = backends_mod.resolve(name)
        for seed in range(20):
            assert _expand_kernel_mismatch(random.Random(seed), backend, case) is None


@needs_compiled
@pytest.mark.parametrize("case", EQUATION_CASES)
def test_kernel_check_runs_every_equation_case(case):
    for name in COMPILED:
        backend = backends_mod.resolve(name)
        for seed in range(20):
            assert (
                _equation_kernel_mismatch(random.Random(seed), backend, case)
                is None
            )
