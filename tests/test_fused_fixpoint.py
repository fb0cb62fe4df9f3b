"""The federation kernels against the numpy reference.

``Federation.subtract`` (and with it ``includes`` and ``compact``) makes
one ``fed_subtract`` call, ``repro.game.predt.predt`` one ``fed_predt``
call and each solver ``_update`` one ``node_equation`` call, whose
equation body is the ``fixpoint_body`` code.  A compiled backend must
return exactly the reference's zones in the reference's order, so the
rank layers, strategies and verdicts built on them do not depend on the
backend.  These tests hold
the compiled kernels to that on the Table 1 solves, on the shared
hypothesis federations and under injected faults.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import faults
from repro.dbm import DBM, Federation
from repro.dbm import backends as backends_mod
from repro.dbm.backends.numpy_backend import NumpyBackend
from repro.game import OnTheFlySolver, TwoPhaseSolver
from repro.game import solver as solver_mod
from repro.gen.differential import (
    PREDT_CASES,
    SUBTRACT_CASES,
    _federation_kernel_mismatch,
    _kernel_stack,
)
from repro.models.lep import TEST_PURPOSES, lep_network
from repro.semantics.system import System
from repro.tctl import parse_query
from repro.util import counters
from tests.zone_strategies import big_federations, federations, zones

AVAILABLE = backends_mod.available_backends()
COMPILED = [name for name in AVAILABLE if name != "numpy"]
REFERENCE = NumpyBackend()

pytestmark = pytest.mark.skipif(not COMPILED, reason="no compiled backend loads")

#: The Table 1 solves: (test purpose, LEP size, solver class).
SOLVES = [("TP1", 3, TwoPhaseSolver), ("TP2", 4, OnTheFlySolver)]


def rows(fed):
    return np.array(fed._rows())


def same_rows(a, b):
    return a.shape == b.shape and np.array_equal(a, b)


def update_trace(tp, n, cls, backend_name, monkeypatch):
    """Every ``_update`` of one solve: (node id, win bytes), in order."""
    trace = []
    original = solver_mod._BaseSolver._update

    def recording(self, node):
        win = original(self, node)
        trace.append((node.id, rows(win).tobytes()))
        return win

    monkeypatch.setattr(solver_mod._BaseSolver, "_update", recording)
    with backends_mod.use_backend(backends_mod.resolve(backend_name)):
        result = cls(System(lep_network(n)), parse_query(TEST_PURPOSES[tp])).solve()
    monkeypatch.setattr(solver_mod._BaseSolver, "_update", original)
    assert result.winning
    return trace


@pytest.mark.parametrize("name", COMPILED)
@pytest.mark.parametrize("tp,n,cls", SOLVES)
def test_every_update_matches_numpy(name, tp, n, cls, monkeypatch):
    """Whole solves: every ``_update`` result, byte for byte and in
    order, is the same under the compiled backend and under numpy."""
    compiled = update_trace(tp, n, cls, name, monkeypatch)
    reference = update_trace(tp, n, cls, "numpy", monkeypatch)
    assert len(compiled) == len(reference) > 0
    for step, (got, want) in enumerate(zip(compiled, reference)):
        assert got == want, f"update {step} (node {want[0]}) differs"


@pytest.mark.parametrize("name", COMPILED)
@pytest.mark.parametrize("tp,n,cls", SOLVES)
def test_every_equation_body_matches_reference(name, tp, n, cls, monkeypatch):
    """Each ``node_equation`` call of a compiled solve, replayed on the
    numpy reference with the same inputs, gives the same stack."""
    backend = backends_mod.resolve(name)
    calls = []

    class Checking:
        def __getattr__(self, attr):
            return getattr(backend, attr)

        def node_equation(self, *args):
            got = backend.node_equation(*args)
            want = REFERENCE.node_equation(*args)
            calls.append(same_rows(got, want))
            return got

    with backends_mod.use_backend(Checking()):
        result = cls(System(lep_network(n)), parse_query(TEST_PURPOSES[tp])).solve()
    assert result.winning
    assert calls and all(calls), f"{calls.count(False)} of {len(calls)} differ"


def check_subtract(backend, f, g):
    a, b = rows(f), rows(g)
    want = REFERENCE.fed_subtract(a, b)
    got = backend.fed_subtract(a, b)
    assert (got is a) == (want is a)
    assert same_rows(got, want)


def check_predt(backend, f, g):
    a, b = rows(f), rows(g)
    for lenient in (False, True):
        want = REFERENCE.fed_predt(a, b, lenient)
        got = backend.fed_predt(a, b, lenient)
        assert same_rows(got, want), f"lenient={lenient}"


@pytest.mark.parametrize("name", COMPILED)
@settings(max_examples=60, deadline=None)
@given(big_federations(), big_federations())
def test_kernels_match_reference_on_big_federations(name, f, g):
    backend = backends_mod.resolve(name)
    check_subtract(backend, f, g)
    check_subtract(backend, g, f)
    check_predt(backend, f, g)


@pytest.mark.parametrize("name", COMPILED)
@settings(max_examples=60, deadline=None)
@given(federations(), federations())
def test_kernels_match_reference_with_empty_operands(name, f, g):
    """``federations()`` draws zero to three possibly empty zones, so
    empty minuends, subtrahends, goals and bad sets all come up."""
    backend = backends_mod.resolve(name)
    check_subtract(backend, f, g)
    check_predt(backend, f, g)


@pytest.mark.parametrize("name", COMPILED)
@settings(max_examples=40, deadline=None)
@given(big_federations(), st.data())
def test_kernels_on_nested_and_disjoint_operands(name, f, data):
    backend = backends_mod.resolve(name)
    zone = data.draw(zones())
    nested = Federation(f.dim, [z.intersect(zone) for z in f.zones])
    cover = Federation(f.dim, [z.up() for z in f.zones])
    for g in (nested, cover):
        check_subtract(backend, f, g)
        check_subtract(backend, g, f)
    check_predt(backend, f, cover)  # a bad set covering the goal
    check_predt(backend, nested, f)
    outside = Federation.from_zone(DBM.universal(f.dim)).subtract(f)
    check_subtract(backend, f, outside)  # disjoint: f stands
    assert f.subtract(outside).equals(f)


@pytest.mark.parametrize("name", COMPILED)
def test_kernels_on_dim_one(name):
    backend = backends_mod.resolve(name)
    whole = Federation.universal(1)
    none = Federation.empty(1)
    for f in (whole, none):
        for g in (whole, none):
            check_subtract(backend, f, g)
            check_predt(backend, f, g)
            for delay in (False, True):
                z = DBM.universal(1).m
                args = (z, z, rows(f), rows(g), rows(f), rows(g), delay)
                assert same_rows(
                    backend.fixpoint_body(*args), REFERENCE.fixpoint_body(*args)
                )


@pytest.mark.parametrize("name", COMPILED)
def test_injected_fault_demotes_each_kernel(name):
    backend = backends_mod.resolve(name)
    rng = random.Random(7)
    with backends_mod.use_backend(REFERENCE):
        f = Federation(4, [DBM(m) for m in _kernel_stack(rng, 4, 3)])
        g = Federation(4, [DBM(m) for m in _kernel_stack(rng, 4, 2)])
    zone = DBM.universal(4).m
    calls = {
        "fed_subtract": lambda: backend.fed_subtract(rows(f), rows(g)),
        "fed_predt": lambda: backend.fed_predt(rows(f), rows(g), True),
        "fixpoint_body": lambda: backend.fixpoint_body(
            zone, zone, rows(f), rows(g), rows(g), rows(f), True
        ),
    }
    for label, call in calls.items():
        want = call()
        before = counters.export()
        with faults.injected(f"dbm.{name}.compute:1"):
            got = call()
        delta = counters.diff(before, counters.export())
        assert delta.get("dbm.backend_demotions") == 1, label
        assert same_rows(got, want), label


@pytest.mark.parametrize("case", SUBTRACT_CASES)
def test_kernel_check_runs_every_federation_case(case):
    """The ``kernel`` check's federation cases, each forced, on every
    compiled backend (the check itself draws one at random per trial)."""
    for name in COMPILED:
        backend = backends_mod.resolve(name)
        for seed in range(20):
            predt_case = PREDT_CASES[seed % len(PREDT_CASES)]
            rng = random.Random(seed)
            assert (
                _federation_kernel_mismatch(rng, backend, case, predt_case)
                is None
            )
