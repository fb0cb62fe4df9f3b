"""Warm-start solving: win-set serialization and the solve cache.

The serialization property here is the load-bearing one: the on-disk
cache stores federations in minimal-constraint form, and a single lossy
round-trip would silently corrupt every restored fixpoint.  The cache
tests pin the counter protocol (hit/miss/store/mismatch) the
``warmstart`` differential check relies on.
"""

import json
import threading

import pytest
from hypothesis import given, settings

from repro.dbm import (
    DBM,
    federation_from_obj,
    federation_to_obj,
    le,
    minimal_constraints,
    zone_from_obj,
    zone_to_obj,
)
from repro.game import TwoPhaseSolver, warm_solve
from repro.game.warm import WinSetCache, effective_caps, resolve_cache
from repro.gen.networks import generate_instance
from repro.models.smartlight import smartlight_network
from repro.semantics.system import System
from repro.tctl import parse_query
from repro.util import counters

from tests.zone_strategies import DIM, big_federations, diagonal_zones, zones

QUERY = "control: A<> IUT.Bright"


def _counts():
    return {
        k: v for k, v in counters.snapshot().items()
        if k.startswith("solver.warm_")
    }


def _win_map(result):
    return {
        (node.sym.locs, node.sym.vars, node.sym.zone.hash_key()):
            entry.win.hash_key()
        for node in result.graph.nodes
        for entry in [result.wins.get(node.id)]
        if entry is not None and not entry.win.is_empty()
    }


# ---------------------------------------------------------------------------
# Minimal-constraint serialization
# ---------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(zones())
def test_zone_roundtrip_exact(zone):
    if zone.is_empty():
        return
    obj = zone_to_obj(zone)
    assert zone_from_obj(zone.dim, obj).hash_key() == zone.hash_key()


@settings(max_examples=100, deadline=None)
@given(diagonal_zones())
def test_diagonal_zone_roundtrip_exact(zone):
    if zone.is_empty():
        return
    obj = zone_to_obj(zone)
    assert zone_from_obj(zone.dim, obj).hash_key() == zone.hash_key()


@settings(max_examples=100, deadline=None)
@given(zones())
def test_minimal_constraints_no_larger_than_nontrivial(zone):
    if zone.is_empty():
        return
    assert len(minimal_constraints(zone)) <= len(zone.nontrivial_constraints())


@settings(max_examples=100, deadline=None)
@given(big_federations())
def test_federation_roundtrip_exact(fed):
    obj = federation_to_obj(fed)
    back = federation_from_obj(fed.dim, obj)
    assert back.hash_key() == fed.hash_key()
    # JSON round-trip too: the disk format is json.dump(obj).
    again = federation_from_obj(fed.dim, json.loads(json.dumps(obj)))
    assert again.hash_key() == fed.hash_key()


def test_all_clocks_equal_zone_roundtrips():
    """The zero-cycle collapse regression: x1 = x2 = x3 (all equal)."""
    zone = DBM.universal(DIM)
    for i in range(1, DIM - 1):
        zone = zone.tighten(i, i + 1, le(0)).tighten(i + 1, i, le(0))
    assert not zone.is_empty()
    obj = zone_to_obj(zone)
    assert zone_from_obj(DIM, obj).hash_key() == zone.hash_key()


# ---------------------------------------------------------------------------
# Cache hit/miss counter protocol
# ---------------------------------------------------------------------------


def test_cache_miss_then_memo_hit_then_restore_hit(tmp_path):
    counters.reset()
    cache = WinSetCache(str(tmp_path / "warm"))
    system = System(smartlight_network())

    cold = warm_solve(system, QUERY, cache=cache)
    after_miss = _counts()
    assert after_miss.get("solver.warm_misses") == 1
    assert after_miss.get("solver.warm_stores") == 1
    assert not after_miss.get("solver.warm_hits")

    memo = warm_solve(system, QUERY, cache=cache)
    after_memo = _counts()
    assert memo is cold  # the installed-result memo returns the object
    assert after_memo.get("solver.warm_hits") == 1
    assert after_memo.get("solver.warm_result_hits") == 1

    cache.forget_results()
    restored = warm_solve(system, QUERY, cache=cache)
    after_restore = _counts()
    assert restored is not cold
    assert after_restore.get("solver.warm_hits") == 2
    assert after_restore.get("solver.warm_result_hits") == 1  # unchanged
    assert after_restore.get("solver.warm_misses") == 1  # unchanged
    assert restored.winning == cold.winning
    assert _win_map(restored) == _win_map(cold)


def test_cross_process_restore_via_fresh_cache_object(tmp_path):
    counters.reset()
    directory = str(tmp_path / "warm")
    system = System(smartlight_network())
    cold = warm_solve(system, QUERY, cache=WinSetCache(directory))

    fresh = WinSetCache(directory)  # simulates a new worker process
    restored = warm_solve(system, QUERY, cache=fresh)
    assert _counts().get("solver.warm_hits") == 1
    assert restored.winning == cold.winning
    assert _win_map(restored) == _win_map(cold)


def test_memory_only_cache_needs_no_directory():
    cache = WinSetCache()
    system = System(smartlight_network())
    first = warm_solve(system, QUERY, cache=cache)
    assert warm_solve(system, QUERY, cache=cache) is first
    assert len(cache) == 1


def test_resolve_cache_accepts_path_object_and_none(tmp_path):
    assert resolve_cache(None) is None
    cache = WinSetCache()
    assert resolve_cache(cache) is cache
    built = resolve_cache(str(tmp_path / "dir"))
    assert isinstance(built, WinSetCache)
    assert built.directory == str(tmp_path / "dir")


def _foreign_format(entry):
    return {"format": 999}


def _unsigned_bad_steps(entry):
    """No ``checksum`` to catch it, and a ``steps`` that is no integer."""
    entry = {k: v for k, v in entry.items() if k != "checksum"}
    entry["steps"] = "x"
    return entry


@pytest.mark.parametrize(
    "corrupt",
    [_foreign_format, _unsigned_bad_steps],
    ids=["foreign-format", "unsigned-bad-steps"],
)
def test_corrupt_disk_entry_falls_back_to_cold(corrupt, tmp_path):
    counters.reset()
    directory = str(tmp_path / "warm")
    system = System(smartlight_network())
    cache = WinSetCache(directory)
    warm_solve(system, QUERY, cache=cache)
    caps = effective_caps(system, parse_query(QUERY))
    key = WinSetCache.key_for(system.network, parse_query(QUERY), caps)
    path = cache._path(key)
    with open(path, encoding="utf-8") as handle:
        entry = json.load(handle)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(corrupt(entry), handle)

    fresh = WinSetCache(directory)
    result = warm_solve(system, QUERY, cache=fresh)
    assert result.winning
    assert _counts().get("solver.warm_mismatches") == 1


# ---------------------------------------------------------------------------
# Warm ≡ cold
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("family,seed", [("clientserver", 7), ("ring", 3)])
def test_warm_equals_cold_on_generated(family, seed, tmp_path):
    instance = generate_instance(seed, family)
    system = System(instance.arena)
    query = parse_query(instance.query)
    cold = TwoPhaseSolver(system, query).solve()
    cache = WinSetCache(str(tmp_path / "warm"))
    warm_solve(System(instance.arena), query, cache=cache)  # populate
    cache.forget_results()
    warm = warm_solve(System(instance.arena), query, cache=cache)
    assert warm.winning == cold.winning
    assert _win_map(warm) == _win_map(cold)


# ---------------------------------------------------------------------------
# A campaign's spec pool
# ---------------------------------------------------------------------------
#
# Mutation campaigns re-solve the same specs over and over: every mutant
# is tested against the unchanged arena strategy.  After the first pass
# every repeat solve is a cache lookup.

SPEC_POOL = ["smartlight", "lep2", "lep3", "clientserver7", "ring7", "chain7"]


@pytest.fixture(scope="module")
def warm_pool(tmp_path_factory):
    """A win-set cache populated by one pass over the spec pool, and the
    pool as ``name -> (system, query, first result)``."""
    from repro.models.lep import TP1, lep_network

    specs = {
        "smartlight": (System(smartlight_network()), parse_query(QUERY)),
        "lep2": (System(lep_network(2)), parse_query(TP1)),
        "lep3": (System(lep_network(3)), parse_query(TP1)),
    }
    for family, seed in (("clientserver", 7), ("ring", 7), ("chain", 7)):
        instance = generate_instance(seed, family)
        specs[f"{family}{seed}"] = (
            System(instance.arena), parse_query(instance.query)
        )
    cache = WinSetCache(str(tmp_path_factory.mktemp("warm-pool")))
    pool = {
        name: (system, query, warm_solve(system, query, cache=cache))
        for name, (system, query) in specs.items()
    }
    return cache, pool


@pytest.mark.parametrize("name", SPEC_POOL)
def test_warm_spec_synthesis(warm_pool, name):
    """A repeat solve of one spec is a memo hit on the first result."""
    cache, pool = warm_pool
    system, query, first = pool[name]
    counters.reset()
    assert warm_solve(system, query, cache=cache) is first
    assert _counts() == {"solver.warm_hits": 1, "solver.warm_result_hits": 1}


def test_warm_campaign_sweep(warm_pool):
    """A second pass over the whole pool solves nothing cold."""
    cache, pool = warm_pool
    counters.reset()
    for system, query, first in pool.values():
        assert warm_solve(system, query, cache=cache) is first
    counts = _counts()
    assert counts.get("solver.warm_hits") == len(pool)
    assert not counts.get("solver.warm_misses")


def test_warm_cross_process_restore(warm_pool):
    """A fresh cache object over the pool's directory, as a new worker
    process would open it, restores every spec from disk: same verdicts,
    same fixpoint step counts and win sets, no cold solve."""
    cache, pool = warm_pool
    fresh = WinSetCache(cache.directory)
    counters.reset()
    for system, query, first in pool.values():
        restored = warm_solve(system, query, cache=fresh)
        assert restored is not first
        assert restored.winning == first.winning
        assert restored.steps == first.steps
        assert _win_map(restored) == _win_map(first)
    counts = _counts()
    assert counts.get("solver.warm_hits") == len(pool)
    assert not counts.get("solver.warm_misses")


# ---------------------------------------------------------------------------
# SpecResolver in-flight dedupe
# ---------------------------------------------------------------------------


def test_spec_resolver_dedupes_concurrent_builds():
    from repro.server.registry import SpecResolver

    counters.reset()
    resolver = SpecResolver()
    barrier = threading.Barrier(8)
    bundles = []

    def worker():
        barrier.wait()
        bundles.append(resolver.resolve({"model": "smartlight"}))

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert len(bundles) == 8
    assert all(b is bundles[0] for b in bundles)
    snap = counters.snapshot()
    assert snap.get("server.bundle_builds") == 1
    assert (
        snap.get("server.bundle_waits", 0) + snap.get("server.bundle_hits", 0)
        == 7
    )


def test_spec_resolver_failed_build_is_retried():
    from repro.server.protocol import ProtocolError
    from repro.server.registry import SpecResolver

    resolver = SpecResolver()
    with pytest.raises(ProtocolError):
        resolver.resolve({"model": "no-such-model"})
    # Not cached: a second attempt fails afresh rather than returning a
    # poisoned bundle (and a later valid spec still resolves).
    with pytest.raises(ProtocolError):
        resolver.resolve({"model": "no-such-model"})
    assert resolver.resolve({"model": "smartlight"}).winning

