"""Federations of many members against pointwise set semantics.

Federation operations once ran on a separate stacked path from three
member zones up; the test names below keep that history.  Every
operation now runs on one path, so these tests hold it to set semantics
instead: each result's membership, on sampled rational points, must
equal the operation's definition evaluated directly on the points
(:func:`repro.dbm.dbm.fold_delay_window` for the delay predecessors,
which shares no code with ``down``).  Inputs span the small and the big
federations of :mod:`tests.zone_strategies`, the empty, universal, zero
and diagonal edge cases, every loadable kernel backend, and a seeded
bulk run over more than 500 fuzzed federations.
"""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings

from repro.dbm import DBM, Federation, le, scale
from repro.dbm import backends as backends_mod
from repro.dbm.backends.numpy_backend import _disjoint
from repro.dbm.dbm import fold_delay_window
from repro.dbm.federation import _reduce
from repro.dbm.stack import _inclusion_matrix_ref, _reduce_indices_ref
from repro.gen.zones import (
    _satisfies,
    random_federation,
    random_point,
    random_zone,
)
from tests.zone_strategies import (
    DIM,
    big_federations,
    diagonal_zones,
    federations,
    zones,
)

#: Every kernel backend loadable here.
BACKENDS = backends_mod.available_backends()

GUARD = [(1, 0, le(5)), (0, 2, le(-1))]


def in_past(fed, point):
    """``point`` reaches the federation by some delay ``d >= 0``."""
    nums, den = scale(point)
    return any(
        fold_delay_window(z.finite_bounds, nums, den) is not None
        for z in fed.zones
    )


def sample_points(rng, dim, feds, count=4):
    points = [random_point(rng, dim) for _ in range(count)]
    for fed in feds:
        p = fed.sample_random(rng) if fed else None
        if p is not None:
            points.append(list(p))
            points.append([p[0]] + [v - Fraction(1, 2) for v in p[1:]])
    return [p for p in points if min(p) >= 0]


#: Every member-wise Federation op, with its pointwise definition.
OPS = [
    ("down", lambda f: f.down(), in_past),
    (
        "constrained",
        lambda f: f.constrained(GUARD),
        lambda f, p: f.contains(p) and _satisfies(p, GUARD),
    ),
    (
        "intersect_zone",
        lambda f: f.intersect_zone(DBM.from_constraints(f.dim, GUARD)),
        lambda f, p: f.contains(p) and _satisfies(p, GUARD),
    ),
]


def check_all_ops(fed, rng):
    points = sample_points(rng, fed.dim, [fed, fed.down()])
    for label, op, member in OPS:
        result = op(fed)
        for p in points:
            assert result.contains(p) == member(fed, p), (
                f"{label}: membership differs at {p}"
            )


# ----------------------------------------------------------------------
# Hypothesis property tests (reuse the shared zone strategies)
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend_name", BACKENDS)
@settings(max_examples=60, deadline=None)
@given(big_federations())
def test_batched_ops_match_legacy_on_big_federations(backend_name, fed):
    with backends_mod.use_backend(backends_mod.resolve(backend_name)):
        check_all_ops(fed, random.Random(0))


@settings(max_examples=40, deadline=None)
@given(federations())
def test_batched_ops_match_legacy_on_small_federations(fed):
    check_all_ops(fed, random.Random(1))


@settings(max_examples=40, deadline=None)
@given(big_federations(), zones())
def test_batched_zone_intersection_and_subtraction(fed, zone):
    rng = random.Random(2)
    points = sample_points(rng, fed.dim, [fed, Federation.from_zone(zone)])
    inter = fed.intersect_zone(zone)
    sub = fed.subtract(Federation.from_zone(zone))
    for p in points:
        assert inter.contains(p) == (fed.contains(p) and zone.contains(p))
        assert sub.contains(p) == (fed.contains(p) and not zone.contains(p))


@settings(max_examples=30, deadline=None)
@given(big_federations(), big_federations())
def test_batched_pairwise_intersect(f, g):
    rng = random.Random(3)
    points = sample_points(rng, f.dim, [f, g])
    inter = f.intersect(g)
    for p in points:
        assert inter.contains(p) == (f.contains(p) and g.contains(p))
    # The same set as per-pair DBM intersections, reduced.
    reference = Federation(
        f.dim, [a.intersect(b) for a in f.zones for b in g.zones]
    )
    assert inter.equals(reference)


@settings(max_examples=30, deadline=None)
@given(big_federations(), big_federations())
def test_includes_prefilter_agrees_with_subtraction(f, g):
    assert f.includes(g) == g.subtract(f).is_empty()
    assert g.includes(f) == f.subtract(g).is_empty()
    assert f.equals(g) == (f.includes(g) and g.includes(f))


@settings(max_examples=40, deadline=None)
@given(big_federations())
def test_compact_preserves_semantics(fed):
    compacted = fed.compact()
    assert compacted.equals(fed)
    assert len(compacted) <= len(fed)


@settings(max_examples=40, deadline=None)
@given(big_federations(), big_federations())
def test_batched_reduce_matches_pairwise_reduce(f, g):
    """Federation's pair-by-pair reduction keeps the zones, in the order,
    that the kernels' inclusion-matrix reduction keeps, duplicates and
    included zones mixed in."""
    zones_list = list(f.zones) + list(g.zones) + list(f.zones[:1])
    zones_list += [z.intersect(h) for z in f.zones for h in g.zones[:1]]
    zones_list = [z for z in zones_list if not z.is_empty()]
    if not zones_list:
        return
    survivors = _reduce_indices_ref(np.stack([z.m for z in zones_list]))
    assert [z.hash_key() for z in _reduce(zones_list)] == [
        zones_list[i].hash_key() for i in survivors
    ]


@settings(max_examples=40, deadline=None)
@given(diagonal_zones(), diagonal_zones(), diagonal_zones())
def test_stack_kernels_exact_on_diagonal_zones(a, b, c):
    members = [z for z in (a, b, c) if not z.is_empty()]
    if len(members) < 2:
        return
    stack = np.stack([z.m for z in members])
    # The reference inclusion matrix and disjointness test are exact per
    # pair of canonical zones.
    inc = _inclusion_matrix_ref(stack, stack)
    for x, zx in enumerate(members):
        for y, zy in enumerate(members):
            assert bool(inc[x, y]) == zx.includes(zy)
            assert _disjoint(zx.m, zy.m) == zx.intersect(zy).is_empty()


# ----------------------------------------------------------------------
# Edge cases
# ----------------------------------------------------------------------


def test_empty_federation_ops():
    fed = Federation.empty(DIM)
    for label, op, _ in OPS:
        assert op(fed).is_empty(), label
    assert fed.intersect(Federation.universal(DIM)).is_empty()
    assert fed.subtract(Federation.universal(DIM)).is_empty()
    assert Federation.universal(DIM).subtract(Federation.universal(DIM)).is_empty()
    assert Federation.universal(DIM).includes(fed)
    assert not fed.includes(Federation.universal(DIM))


def test_universal_and_zero_edge_cases():
    uni = Federation.universal(DIM)
    zero = Federation.from_zone(DBM.zero(DIM))
    assert Federation(DIM, [z.up() for z in uni]).equals(uni)
    assert uni.down().equals(uni)
    assert Federation(DIM, [z.up() for z in zero]).down().includes(zero)
    assert uni.includes(zero)
    assert not zero.includes(uni)
    # A universal member makes every sibling redundant in one reduction.
    fed = Federation(DIM, [DBM.zero(DIM), DBM.universal(DIM), DBM.zero(DIM)])
    assert len(fed) == 1
    assert fed.equals(uni)


def test_duplicate_zones_reduce_to_one():
    z = DBM.from_constraints(DIM, [(1, 0, le(4))])
    fed = Federation(DIM, [z, z, z, z])
    assert len(fed) == 1


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_stack_close_matches_per_zone_close(backend_name):
    """Each backend's ``zone_close`` on possibly inconsistent matrices
    against the numpy reference's."""
    rng = random.Random(99)
    raw = []
    for _ in range(8):
        z = random_zone(rng, DIM)
        if z.is_empty():
            continue
        m = z.m.copy()
        m[1, 0] = le(rng.randint(-3, 6))  # possibly inconsistent tightening
        raw.append(m)
    assert raw
    with backends_mod.use_backend(backends_mod.resolve("numpy")):
        references = [DBM._from_raw(m.copy()) for m in raw]
    backend = backends_mod.resolve(backend_name)
    for m, reference in zip(raw, references):
        got = m.copy()
        assert backend.zone_close(got) == (not reference.is_empty())
        if not reference.is_empty():
            assert np.array_equal(got, reference.m)


# ----------------------------------------------------------------------
# Seeded bulk differential: > 500 fuzzed federations through every op
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_bulk_fuzzed_federations_across_backends(backend_name):
    """Fuzzed federations through every member-wise op, per backend."""
    rng = random.Random(0xBA7C4E)
    with backends_mod.use_backend(backends_mod.resolve(backend_name)):
        for trial in range(40):
            fed = random_federation(rng, DIM, max_zones=6)
            check_all_ops(fed, rng)


@pytest.mark.parametrize("chunk", range(5))
def test_bulk_fuzzed_federations_batched_vs_legacy(chunk):
    """>= 500 fuzzed federations (100 per chunk) through every op."""
    rng = random.Random(0xBA7C4 + chunk)
    for trial in range(100):
        fed = random_federation(rng, DIM, max_zones=6)
        check_all_ops(fed, rng)
        other = random_federation(rng, DIM, max_zones=4)
        zone = random_zone(rng, DIM)
        points = sample_points(rng, DIM, [fed, other])
        inter = fed.intersect(other)
        inter_zone = fed.intersect_zone(zone)
        sub = fed.subtract(other)
        for p in points:
            assert inter.contains(p) == (fed.contains(p) and other.contains(p))
            assert sub.contains(p) == (fed.contains(p) and not other.contains(p))
            assert inter_zone.contains(p) == (fed.contains(p) and zone.contains(p))
        assert fed.includes(other) == other.subtract(fed).is_empty()
        assert fed.compact().equals(fed)
