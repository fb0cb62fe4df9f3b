"""The fused step kernels against the zone operations they stand for.

The explorer makes one ``zone_expand`` call per node (one
``zone_successor`` per enabled move of the discrete state's
:meth:`System.expansion` table), ``System.post`` one ``zone_successor``
call per step and ``System.pred`` one ``zone_pred`` call per target
zone, on compiled :class:`~repro.dbm.backends.base.MovePlan` objects.  These
tests replay every enabled move of explored graphs through the composed
per-zone ``DBM`` operations (guard, assignment, invariant, up,
invariant, extrapolation; assignment pre-image, guard, intersection)
and require the same successor bytes and the same pred federation,
under every backend.
"""

import random

import numpy as np
import pytest

from repro import faults
from repro.dbm import DBM, Federation, bound
from repro.dbm import backends as backends_mod
from repro.dbm.backends.base import MovePlan
from repro.game import OnTheFlySolver
from repro.gen.differential import (
    PRED_CASES,
    SUCCESSOR_CASES,
    _fused_kernel_mismatch,
)
from repro.gen.networks import generate_instance
from repro.gen.zones import random_zone
from repro.graph.explorer import SimulationGraph
from repro.models.lep import TEST_PURPOSES, lep_network
from repro.semantics.compose import _scaled_zone
from repro.semantics.system import OPEN, System
from repro.ta.builder import NetworkBuilder
from repro.tctl import parse_query
from repro.util import counters

AVAILABLE = backends_mod.available_backends()
COMPILED = [name for name in AVAILABLE if name != "numpy"]


def composed_successor(system, sym, move, caps, delay=True):
    """post, delay closure and ExtraM as separate per-zone operations."""
    new_vars = system.apply_move_vars(sym.vars, move)
    if new_vars is None:
        return None
    new_locs = system.target_locs(sym.locs, move)
    if not system.invariant_int_ok(new_locs, new_vars):
        return None
    zone = sym.zone.constrained(system.guard_constraints(move, sym.vars))
    if zone.is_empty():
        return None
    invariant = system.invariant_constraints(new_locs, new_vars)
    zone = zone.assign_clocks(system.resets_of(move)).constrained(invariant)
    if zone.is_empty():
        return None
    if delay and system.can_delay(new_locs):
        zone = zone.up().constrained(invariant)
    if caps is not None:
        zone = zone.extrapolate(caps)
    return new_locs, new_vars, zone


def composed_pred(system, source, move, target_fed):
    """Assignment pre-image, guard and source zone, zone by zone."""
    assigns = system.resets_of(move)
    guard = system.guard_constraints(move, source.vars)
    zones = [
        zone.assign_pred(assigns).constrained(guard).intersect(source.zone)
        for zone in target_fed.zones
    ]
    return Federation(system.dim, zones)


def expanded(graph, node):
    """Each enabled move's zone-graph step from a node, through the
    node's expansion table: move key -> (locs, vars, matrix) or None."""
    sym = node.sym
    table = graph.system.expansion(
        sym.locs, sym.vars, graph.mode, graph.max_consts
    )
    steps = {}
    if table.moves:
        rows, ok = backends_mod.active().zone_expand(sym.zone.m, table)
        for slot, move in enumerate(table.moves):
            target = table.targets[slot]
            steps[move.key] = (*target, rows[slot]) if ok[slot] else None
    return steps


def check_graph(graph):
    """Every edge (and every enabled move) of an explored graph."""
    system = graph.system
    caps = graph.max_consts
    steps = 0
    for node in graph.nodes:
        sym = node.sym
        got_steps = expanded(graph, node)
        for move in system.moves_from(sym.locs, sym.vars, graph.mode):
            want = composed_successor(system, sym, move, caps)
            got = got_steps.get(move.key)
            assert (want is None) == (got is None), move.describe()
            post = system.post(sym, move)
            if want is None:
                assert post is None
                continue
            steps += 1
            locs, vars, zone = want
            assert got[:2] == (locs, vars)
            assert got[2].tobytes() == zone.hash_key(), move.describe()
            bare = composed_successor(system, sym, move, None, delay=False)
            assert post.zone.hash_key() == bare[2].hash_key()
        assert [e.move.key for e in node.out_edges] == [
            key for key, step in got_steps.items() if step is not None
        ]
    for node in graph.nodes:
        for edge in node.out_edges:
            targets = [Federation.from_zone(edge.target.zone)]
            # A two-zone target: the pred of a union is the union of preds.
            extra = Federation(
                system.dim, [edge.target.zone, node.zone.up()]
            )
            if len(extra) == 2:
                targets.append(extra)
            for target_fed in targets:
                want = composed_pred(system, node.sym, edge.move, target_fed)
                got = system.pred(node.sym, edge.move, target_fed)
                assert got.equals(want), edge.move.describe()
    return steps


def assignment_network():
    """Nonzero clock assignments, a diagonal guard, committed and urgent
    targets: extrapolation is off (diagonal constraints)."""
    net = NetworkBuilder("fused")
    net.clock("x", "y")
    net.int_var("n", 0, 3)
    net.input_channel("go")
    net.output_channel("done")
    p = net.automaton("P")
    p.location("A", "x <= 4", initial=True)
    p.location("C", committed=True)
    p.location("U", urgent=True)
    p.location("B", "y <= 6")
    p.edge("A", "C", sync="go?", guard="x >= 1", assign="y := 3")
    p.edge("C", "U", assign="x := 2, n := n + 1")
    p.edge("U", "B", sync="done!", guard="x - y <= 2")
    p.edge("B", "A", guard="y >= 5 && n < 3", assign="x := 0")
    p.edge("B", "B", sync="go?", guard="x - y > 1", assign="x := 1")
    return net.build()


def graphs():
    otf = OnTheFlySolver(
        System(lep_network(4)), parse_query(TEST_PURPOSES["TP2"])
    )
    yield "lep-tp2-4", otf.graph
    yield "assignments", SimulationGraph(
        System(assignment_network()), mode=OPEN
    )
    for seed, family in ((4, "urgent_random"), (4, "random"), (1, "chain")):
        instance = generate_instance(seed, family)
        yield f"{family}-{seed}", SimulationGraph(System(instance.arena))


@pytest.mark.parametrize("backend_name", AVAILABLE)
def test_fused_steps_match_composed_zone_ops(backend_name):
    with backends_mod.use_backend(backends_mod.resolve(backend_name)):
        for name, graph in graphs():
            graph.explore_all()
            steps = check_graph(graph)
            assert steps, f"{name}: no enabled step"


def test_assignment_network_is_what_it_claims():
    system = System(assignment_network())
    graph = SimulationGraph(system, mode=OPEN)
    graph.explore_all()
    assert graph.max_consts is None  # diagonal guard: no extrapolation
    plans = {
        system.step_plan(n.sym.locs, n.sym.vars, e.move)[1]
        for n in graph.nodes
        for e in n.out_edges
    }
    assert any(c for plan in plans for _, c in plan.assigns)
    assert any(not plan.delay for plan in plans)
    assert any(plan.delay for plan in plans)


@pytest.mark.skipif(not COMPILED, reason="no compiled backend loads")
@pytest.mark.parametrize("name", COMPILED)
def test_injected_fault_demotes_fused_calls(name):
    system = System(lep_network(3))
    graph = SimulationGraph(system)
    graph.explore_all()
    node = next(n for n in graph.nodes if n.out_edges)
    edge = node.out_edges[0]
    target = Federation.from_zone(edge.target.zone)
    with backends_mod.use_backend(backends_mod.resolve(name)):
        want_succ = expanded(graph, node)[edge.move.key]
        want_pred = system.pred(node.sym, edge.move, target)
        for call in ("successor", "pred"):
            before = counters.export()
            with faults.injected(f"dbm.{name}.compute:1"):
                if call == "successor":
                    got = expanded(graph, node)[edge.move.key]
                else:
                    got = system.pred(node.sym, edge.move, target)
            delta = counters.diff(before, counters.export())
            assert delta.get("dbm.backend_demotions") == 1, call
            if call == "successor":
                assert got[:2] == want_succ[:2]
                assert np.array_equal(got[2], want_succ[2])
            else:
                assert got.equals(want_pred)
                assert got.hash_key() == want_pred.hash_key()


@pytest.mark.skipif(not COMPILED, reason="no compiled backend loads")
@pytest.mark.parametrize("case", SUCCESSOR_CASES)
def test_kernel_check_runs_every_fused_case(case):
    """The ``kernel`` check's fused cases, each forced, on every compiled
    backend (the check itself draws one at random per trial)."""
    for name in COMPILED:
        backend = backends_mod.resolve(name)
        for seed in range(20):
            pred_case = PRED_CASES[seed % len(PRED_CASES)]
            rng = random.Random(seed)
            assert _fused_kernel_mismatch(rng, backend, case, pred_case) is None


@pytest.mark.parametrize("backend_name", AVAILABLE)
def test_scaled_plan_steps_scaled_zones(backend_name):
    """``MovePlan.scaled(k)`` on a zone scaled by ``k`` is the scaled
    successor: the state estimate's rescaling commutes with its steps."""
    backend = backends_mod.resolve(backend_name)
    rng = random.Random(21)
    for _ in range(60):
        dim = rng.randint(3, 5)
        zone = random_zone(rng, dim)
        if zone.is_empty():
            continue

        def cons():
            return tuple(
                (i, j, bound(rng.randint(-4, 8), rng.random() < 0.5))
                for i, j in (
                    (rng.randrange(dim), rng.randrange(dim)) for _ in range(3)
                )
                if i != j
            )

        assigns = tuple(
            sorted((c, rng.randint(0, 3)) for c in rng.sample(range(1, dim), 2))
        )
        plan = MovePlan(cons(), assigns, cons(), rng.random() < 0.5)
        k = rng.choice((2, 3, 7))
        scaled = plan.scaled(k)
        assert plan.scaled(k) is scaled and plan.scaled(1) is plan
        want = backend.zone_successor(zone.m, plan)
        got = backend.zone_successor(_scaled_zone(zone, k).m, scaled)
        if want is None:
            assert got is None
        else:
            assert np.array_equal(got, _scaled_zone(DBM(want), k).m)
