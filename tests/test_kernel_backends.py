"""Kernel backend seam: registry, dispatch, minimal form and interning.

Covers the selection/fallback behavior of :mod:`repro.dbm.backends`
(environment variable, ``auto`` default and probing, unavailable-backend
fallback, counters, the guarded backend's kernel list), per-backend
exactness differentials on the per-zone, fused step and subsumption
kernels (including the ctypes binding of ``cext``), the
minimal-constraint form of :mod:`repro.dbm.minform` (round trip), and
the explorer's zone-object interning by canonical bytes.
"""

import inspect
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dbm import (
    DBM,
    INF,
    bound,
    minimal_constraints,
    verified_minimal_constraints,
)
from repro.dbm import backends as backends_mod
from repro.dbm.backends.base import CHANGED, EMPTY, UNCHANGED, KernelBackend, MovePlan
from repro.dbm.backends.numpy_backend import NumpyBackend
from repro.gen.zones import random_zone
from repro.graph.explorer import SimulationGraph
from repro.semantics.system import System
from repro.ta.builder import NetworkBuilder
from repro.util import counters
from tests.zone_strategies import DIM, diagonal_zones, zones

AVAILABLE = backends_mod.available_backends()


@pytest.fixture(autouse=True)
def _clean_backend_state(monkeypatch):
    """Each test starts from an unresolved selection and a clean env."""
    monkeypatch.delenv(backends_mod.ENV_VAR, raising=False)
    previous = backends_mod.set_backend(None)
    yield
    backends_mod.set_backend(None)


# ----------------------------------------------------------------------
# Registry / selection
# ----------------------------------------------------------------------


def test_numpy_always_available_and_auto_is_default():
    assert "numpy" in AVAILABLE
    reference = backends_mod.resolve("numpy")
    assert not reference.compiled
    assert isinstance(reference, KernelBackend)
    backend = backends_mod.active()
    assert backend.name == ("cext" if "cext" in AVAILABLE else "numpy")
    assert isinstance(backend, KernelBackend)


def test_env_var_selects_backend(monkeypatch):
    monkeypatch.setenv(backends_mod.ENV_VAR, "numpy")
    backends_mod.set_backend(None)
    assert backends_mod.active().name == "numpy"


def test_auto_resolves_to_some_available_backend():
    backend = backends_mod.resolve("auto")
    assert backend.name in AVAILABLE


def test_unavailable_explicit_backend_falls_back_with_warning():
    counters.reset()
    backends_mod._warned_fallback = False
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        backend = backends_mod.resolve("no-such-backend")
    assert backend.name == "numpy"
    assert counters.export()["counts"]["dbm.backend_fallbacks"] == 1
    assert any("no-such-backend" in str(w.message) for w in caught)


def test_resolution_and_dispatch_counters():
    """Resolution is counted; kernel calls themselves add no backend
    counter (only a demotion would)."""
    counters.reset()
    with backends_mod.use_backend(backends_mod.resolve("numpy")):
        zone = DBM.universal(3).tighten(1, 0, bound(4, False)).down()
    assert not zone.is_empty()
    exported = counters.export()["counts"]
    assert exported["dbm.backend_selected_numpy"] == 1
    assert [k for k in exported if k.startswith("dbm.backend")] == [
        "dbm.backend_selected_numpy"
    ]


def test_differential_checks_select_no_compiled_backend():
    """Every check on one instance, pinned to numpy: the compiled
    backends the checks compare against are loaded, never selected."""
    from repro.gen import generate_instance
    from repro.gen.differential import SKIP, run_instance_checks

    with backends_mod.use_backend("numpy"):
        counters.reset()
        report = run_instance_checks(generate_instance(0))
    assert report.ok
    statuses = {result.name: result.status for result in report.results}
    if "cext" in AVAILABLE:
        assert statuses["kernel"] != SKIP
    assert "dbm.backend_selected_cext" not in counters.export()["counts"]
    assert backends_mod.compiled_backends() is backends_mod.compiled_backends()


def test_use_backend_restores_previous():
    previous = backends_mod.active()
    replacement = backends_mod.resolve("numpy")
    assert replacement is not previous
    with backends_mod.use_backend(replacement) as installed:
        assert installed is replacement
        assert backends_mod.active() is installed
    assert backends_mod.active() is previous


def test_every_available_backend_satisfies_protocol():
    for name in AVAILABLE:
        backend = backends_mod.resolve(name)
        assert isinstance(backend, KernelBackend)


def test_guarded_backend_wraps_every_protocol_method():
    """Every kernel of the protocol is guarded, and nothing else is."""
    protocol = {
        name
        for name, _ in inspect.getmembers(KernelBackend, inspect.isfunction)
        if not name.startswith("_")
    }
    assert protocol  # the protocol declares its kernels as methods
    guarded = backends_mod.GuardedBackend(NumpyBackend())
    wrapped = {
        name for name, value in vars(guarded).items() if callable(value)
    }
    assert wrapped == protocol
    for name in protocol:
        assert getattr(guarded, name).__name__ == name


# ----------------------------------------------------------------------
# Per-backend kernel differentials
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend_name", AVAILABLE)
def test_backend_close_matches_reference(backend_name):
    """``zone_close`` on possibly inconsistent matrices: the verdict, and
    a consistent matrix byte for byte, equal the numpy reference's."""
    backend = backends_mod.resolve(backend_name)
    reference = NumpyBackend()
    rng = random.Random(7)
    for _ in range(25):
        dim = rng.randint(2, 5)
        zone = random_zone(rng, dim)
        raw = (DBM.universal(dim) if zone.is_empty() else zone).m.copy()
        for _ in range(rng.randint(0, 4)):
            i, j = rng.randrange(dim), rng.randrange(dim)
            if i != j:
                raw[i, j] = rng.randint(-9, 17)
        ref_m, got_m = raw.copy(), raw.copy()
        ref_ok = reference.zone_close(ref_m)
        assert backend.zone_close(got_m) == ref_ok
        if ref_ok:
            assert np.array_equal(ref_m, got_m)


@pytest.mark.parametrize("backend_name", AVAILABLE)
def test_backend_fused_post_matches_reference(backend_name):
    """``zone_successor`` (the fused post of the explorer and the state
    estimate) against the same step as separate reference zone
    operations: guard, clock assignments, invariant, delay, invariant."""
    backend = backends_mod.resolve(backend_name)
    rng = random.Random(11)
    for _ in range(25):
        dim = rng.randint(3, 5)
        zone = random_zone(rng, dim)
        while zone.is_empty():
            zone = random_zone(rng, dim)

        def cons(n):
            pairs = [
                (rng.randrange(dim), rng.randrange(dim))
                for _ in range(rng.randint(0, n))
            ]
            return tuple(
                (i, j, bound(rng.randint(-4, 8), rng.random() < 0.5))
                for i, j in pairs
                if i != j
            )

        guard, inv = cons(3), cons(3)
        assigns = tuple(
            sorted(
                (c, rng.randint(0, 4))
                for c in rng.sample(range(1, dim), rng.randint(0, dim - 1))
            )
        )
        plan = MovePlan(guard, assigns, inv, rng.random() < 0.5)
        with backends_mod.use_backend(NumpyBackend()):
            want = zone.constrained(guard)
            if not want.is_empty():
                want = want.assign_clocks(assigns).constrained(inv)
            if plan.delay and not want.is_empty():
                want = want.up().constrained(inv)
        got = backend.zone_successor(zone.m, plan)
        if want.is_empty():
            assert got is None
        else:
            assert got is not None and np.array_equal(got, want.m)


@pytest.mark.parametrize("backend_name", AVAILABLE)
def test_backend_subsumption_matches_reference(backend_name):
    """``first_superset``, the explorer's and the estimate's subsumption
    probe, finds the first including zone by pointwise comparison."""
    backend = backends_mod.resolve(backend_name)
    rng = random.Random(13)
    for _ in range(25):
        dim = rng.randint(2, 5)
        n, zs = rng.randint(1, 5), []
        while len(zs) < n:
            z = random_zone(rng, dim)
            if not z.is_empty():
                zs.append(z)
        stack = np.stack([z.m for z in zs])
        for probe in zs + [zs[0].intersect(zs[-1]), DBM.universal(dim)]:
            if probe.is_empty():
                continue
            want = next(
                (x for x, z in enumerate(zs) if z.includes(probe)), -1
            )
            assert backend.first_superset(stack, probe.m) == want


_constraint_lists = st.lists(
    st.tuples(
        st.integers(0, DIM - 1),
        st.integers(0, DIM - 1),
        st.builds(bound, st.integers(-8, 12), st.booleans()),
    ),
    max_size=4,
)


@pytest.mark.parametrize("backend_name", AVAILABLE)
@settings(max_examples=80, deadline=None)
@given(
    zone=zones(),
    cons=_constraint_lists,
    caps=st.lists(st.integers(0, 10), min_size=DIM, max_size=DIM),
)
def test_zone_kernels_match_full_closure(backend_name, zone, cons, caps):
    """Per-zone kernels against oracles that share none of their code:
    incremental constraining against tighten-all-then-close from
    scratch, extrapolation against widen-entry-by-entry-then-close."""
    if zone.is_empty():
        return
    backend = backends_mod.resolve(backend_name)
    m = zone.m
    pristine = m.copy()

    status, got = backend.zone_constrain(m, cons)
    raw = m.copy()
    for i, j, enc in cons:
        raw[i, j] = min(raw[i, j], enc)
    if not NumpyBackend().zone_close(raw):
        assert status == EMPTY
    elif all(enc >= m[i, j] for i, j, enc in cons):
        assert status == UNCHANGED
    else:
        assert status == CHANGED
        assert np.array_equal(got, raw)
    implied = [(i, j, int(m[i, j])) for i, j, _ in cons]
    assert backend.zone_constrain(m, implied)[0] == UNCHANGED

    status, got = backend.zone_extrapolate(m, caps)
    widened = m.copy()
    for i in range(DIM):
        for j in range(DIM):
            enc = int(widened[i, j])
            if i and i != j and enc < INF and (enc >> 1) > caps[i]:
                widened[i, j] = INF
            elif not i and enc < INF and (enc >> 1) < -caps[j]:
                widened[i, j] = bound(-caps[j], True)
    assert NumpyBackend().zone_close(widened)
    assert status in (UNCHANGED, CHANGED)
    assert np.array_equal(m if status == UNCHANGED else got, widened)
    assert np.array_equal(m, pristine)  # inputs are never written


@pytest.mark.parametrize("seed", range(4))
def test_cext_ctypes_binding_matches_reference(monkeypatch, seed):
    """The stdlib ctypes binding (used when cffi is missing) passes the
    same exactness trials as the default cffi binding."""
    if "cext" not in AVAILABLE:
        pytest.skip("cext does not load here")
    from repro.dbm.backends import cext
    from repro.gen.differential import _zone_kernel_mismatch

    monkeypatch.setattr(
        cext, "_BINDING", cext._CtypesBinding(cext._build_library())
    )
    backend = cext.CExtBackend()
    assert backend.binding == "ctypes"
    rng = random.Random(seed)
    for _ in range(25):
        assert _zone_kernel_mismatch(rng, backend) is None


@pytest.mark.parametrize(
    "backend_name", [n for n in AVAILABLE if n != "numpy"]
)
def test_estimate_session_identical_across_backends(backend_name):
    """End-to-end: a monitor session agrees exactly with the numpy run."""
    from fractions import Fraction

    from repro.semantics import StateEstimate

    net = NetworkBuilder("pair")
    net.clock("x", "y")
    net.input_channel("go")
    net.output_channel("done", "hop")
    net.interface("go", "done")
    a = net.automaton("A")
    a.location("Idle", initial=True)
    a.location("Busy", "x <= 3")
    a.location("End")
    a.edge("Idle", "Busy", sync="go?", assign="x := 0")
    a.edge("Busy", "End", sync="hop!", guard="x >= 1", assign="y := 0")
    network = net.build()

    def drive():
        estimate = StateEstimate(System(network), max_states=256)
        trace = []
        trace.append(estimate.observe("go", "input"))
        trace.append(estimate.max_quiescence())
        trace.append(estimate.advance(Fraction(1, 2)))
        trace.append(estimate.max_quiescence())
        trace.append(estimate.enabled_labels("output"))
        trace.append(
            sorted(
                (m.locs, m.vars, m.zone.hash_key())
                for m in estimate.states
            )
        )
        return trace

    reference = drive()
    with backends_mod.use_backend(backends_mod.resolve(backend_name)):
        assert drive() == reference


# ----------------------------------------------------------------------
# Minimal-constraint form (repro.dbm.minform)
# ----------------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(zones())
def test_minform_round_trip(zone):
    if zone.is_empty():
        return
    cons = minimal_constraints(zone)
    rebuilt = DBM.from_constraints(zone.dim, cons)
    assert rebuilt.hash_key() == zone.hash_key()
    assert len(cons) <= len(zone.nontrivial_constraints())


@settings(max_examples=80, deadline=None)
@given(diagonal_zones())
def test_minform_round_trip_diagonal(zone):
    if zone.is_empty():
        return
    cons = verified_minimal_constraints(zone)
    assert DBM.from_constraints(zone.dim, cons).hash_key() == zone.hash_key()


@settings(max_examples=60, deadline=None)
@given(zones())
def test_hash_key_stability(zone):
    """Equal zones, however constructed, share one canonical key."""
    key = zone.hash_key()
    if zone.is_empty():
        assert key == DBM.empty(zone.dim).hash_key()
        return
    rebuilt = DBM.from_constraints(zone.dim, minimal_constraints(zone))
    assert rebuilt.hash_key() == key
    full = DBM.from_constraints(zone.dim, zone.nontrivial_constraints())
    assert full.hash_key() == key


def test_hash_key_distinguishes_zones():
    from repro.dbm import le

    a = DBM.from_constraints(DIM, [(1, 0, le(4))])
    b = DBM.from_constraints(DIM, [(1, 0, le(5))])
    assert a.hash_key() != b.hash_key()
    assert a.hash_key() != DBM.empty(DIM).hash_key()


# ----------------------------------------------------------------------
# Explorer zone interning
# ----------------------------------------------------------------------


def _loop_network():
    net = NetworkBuilder("loop")
    net.clock("x")
    net.output_channel("tick")
    a = net.automaton("A")
    a.location("L", "x <= 2", initial=True)
    a.edge("L", "L", sync="tick!", guard="x >= 1", assign="x := 0")
    return net.build()


def test_explorer_interns_equal_zones():
    graph = SimulationGraph(System(_loop_network()))
    graph.explore_all()
    ids = {}
    for node in graph.nodes:
        ids.setdefault(node.zone.hash_key(), set()).add(
            id(node.zone)
        )
    for key, objects in ids.items():
        assert len(objects) == 1, "equal zones must share one DBM object"


def test_explorer_interning_preserves_graph_shape():
    reference = SimulationGraph(System(_loop_network()))
    reference.explore_all()
    again = SimulationGraph(System(_loop_network()))
    again.explore_all()
    assert reference.node_count == again.node_count
    assert reference.edge_count == again.edge_count


# ----------------------------------------------------------------------
# The fuzz campaign's `kernel` check
# ----------------------------------------------------------------------


@pytest.mark.skipif("cext" not in AVAILABLE, reason="no compiled backend loads")
def test_kernel_check_fails_on_a_kernel_that_always_demotes(monkeypatch):
    from repro.dbm.backends.cext import CExtBackend
    from repro.gen import generate_instance
    from repro.gen.differential import FAIL, OK, DiffConfig, check_kernel

    instance = generate_instance(0, "random")
    assert check_kernel(instance, DiffConfig()).status == OK

    def broken(self, m):
        raise RuntimeError("compiled kernel fault")

    monkeypatch.setattr(CExtBackend, "zone_close", broken)
    # The checks share one backend per process, bound before the patch:
    # load a fresh one (and leave the shared one unpatched).
    monkeypatch.setattr(
        backends_mod, "compiled_backends", backends_mod.compiled_backends.__wrapped__
    )
    result = check_kernel(instance, DiffConfig())
    assert result.status == FAIL
    assert "demoted" in result.detail
