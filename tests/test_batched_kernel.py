"""Differential tests: batched federation kernels vs the per-zone path.

The federation layer dispatches between two implementations of every
timed/set operation: the legacy per-zone DBM path (small federations)
and the stacked numpy kernels of :mod:`repro.dbm.stack` (three or more
member zones).  These tests drive both through the same inputs and
assert extensional equality — exact set equality via subtraction, plus
membership spot checks on sampled rational points — including the
empty/universal/zero/diagonal edge cases, and a seeded bulk run over
more than 500 fuzzed federations.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings

from repro.dbm import DBM, Federation, le
from repro.dbm import backends as backends_mod
from repro.dbm import stack as sk
from repro.dbm.federation import _reduce_pairwise
from repro.gen.zones import random_federation, random_point, random_zone
from tests.zone_strategies import (
    DIM,
    big_federations,
    diagonal_zones,
    federations,
    zones,
)

#: Every kernel backend loadable here.
BACKENDS = backends_mod.available_backends()


def legacy_map(fed, fn):
    """The reference result: the per-zone DBM op applied member-wise."""
    return Federation(fed.dim, [fn(z) for z in fed.zones])


def assert_same_set(batched, reference, points, label):
    __tracebackhint__ = True
    assert batched.equals(reference), f"{label}: sets differ"
    for p in points:
        assert batched.contains(p) == reference.contains(p), (
            f"{label}: membership differs at {p}"
        )


def sample_points(rng, dim, feds, count=4):
    points = [random_point(rng, dim) for _ in range(count)]
    for fed in feds:
        p = fed.sample_random(rng) if fed else None
        if p is not None:
            points.append(list(p))
    return points


#: Every batched Federation op, paired with its per-zone reference map.
OPS = [
    ("up", lambda f: f.up(), lambda z: z.up()),
    ("down", lambda f: f.down(), lambda z: z.down()),
    (
        "constrained",
        lambda f: f.constrained([(1, 0, le(5)), (0, 2, le(-1))]),
        lambda z: z.constrained([(1, 0, le(5)), (0, 2, le(-1))]),
    ),
    (
        "extrapolate",
        lambda f: f.extrapolate([0, 3, 3, 3]),
        lambda z: z.extrapolate([0, 3, 3, 3]),
    ),
]


def check_all_ops(fed, rng):
    points = sample_points(rng, fed.dim, [fed])
    for label, batched_op, zone_op in OPS:
        assert_same_set(
            batched_op(fed), legacy_map(fed, zone_op), points, label
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
    assert_same_set(
        fed.intersect_zone(zone),
        legacy_map(fed, lambda z: z.intersect(zone)),
        points,
        "intersect_zone",
    )
    sub = fed.subtract_dbm(zone)
    for p in points:
        assert sub.contains(p) == (fed.contains(p) and not zone.contains(p))


@settings(max_examples=30, deadline=None)
@given(big_federations(), big_federations())
def test_batched_pairwise_intersect(f, g):
    rng = random.Random(3)
    points = sample_points(rng, f.dim, [f, g])
    inter = f.intersect(g)
    for p in points:
        assert inter.contains(p) == (f.contains(p) and g.contains(p))
    # Reference: per-pair DBM intersections, no batching.
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
@given(big_federations())
def test_batched_reduce_matches_pairwise_reduce(fed):
    zones_list = list(fed.zones)
    if not zones_list:
        return
    batched = sk.reduce_indices(sk.stack_of(zones_list))
    reference = _reduce_pairwise(zones_list)
    assert [zones_list[i].hash_key() for i in batched] == [
        z.hash_key() for z in reference
    ]


@settings(max_examples=40, deadline=None)
@given(diagonal_zones(), diagonal_zones(), diagonal_zones())
def test_stack_kernels_exact_on_diagonal_zones(a, b, c):
    members = [z for z in (a, b, c) if not z.is_empty()]
    if len(members) < 2:
        return
    stack = sk.stack_of(members)
    # The reference inclusion matrix (behind reduce_indices) and
    # disjoint_mask are exact per pair of canonical zones.
    inc = sk._inclusion_matrix_ref(stack, stack)
    for x, zx in enumerate(members):
        for y, zy in enumerate(members):
            assert bool(inc[x, y]) == zx.includes(zy)
    for x, zx in enumerate(members):
        disj = sk.disjoint_mask(stack, zx.m)
        for y, zy in enumerate(members):
            assert bool(disj[y]) == (not zy.intersects(zx))


# ----------------------------------------------------------------------
# Edge cases
# ----------------------------------------------------------------------


def test_empty_federation_ops():
    fed = Federation.empty(DIM)
    for label, batched_op, _ in OPS:
        assert batched_op(fed).is_empty(), label
    assert fed.intersect(Federation.universal(DIM)).is_empty()
    assert fed.subtract_dbm(DBM.universal(DIM)).is_empty()
    assert Federation.universal(DIM).includes(fed)
    assert not fed.includes(Federation.universal(DIM))


def test_universal_and_zero_edge_cases():
    uni = Federation.universal(DIM)
    zero = Federation.from_zone(DBM.zero(DIM))
    assert uni.up().equals(uni)
    assert uni.down().equals(uni)
    assert zero.up().down().includes(zero)
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
    # References: the per-zone closure of the numpy reference backend.
    with backends_mod.use_backend(backends_mod.resolve("numpy")):
        references = [DBM._from_raw(m.copy()) for m in raw]
    with backends_mod.use_backend(backends_mod.resolve(backend_name)):
        stack = np.stack([m.copy() for m in raw])
        keep = sk.close(stack)
    for idx, reference in enumerate(references):
        assert bool(keep[idx]) == (not reference.is_empty())
        if keep[idx]:
            assert np.array_equal(stack[idx], reference.m)


# ----------------------------------------------------------------------
# Seeded bulk differential: > 500 fuzzed federations through every op
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_bulk_fuzzed_federations_across_backends(backend_name):
    """Fuzzed federations through every batched op, per kernel backend."""
    rng = random.Random(0xBA7C4E)
    with backends_mod.use_backend(backends_mod.resolve(backend_name)):
        for trial in range(40):
            fed = random_federation(rng, DIM, max_zones=6)
            check_all_ops(fed, rng)


@pytest.mark.parametrize("chunk", range(5))
def test_bulk_fuzzed_federations_batched_vs_legacy(chunk):
    """>= 500 fuzzed federations (100 per chunk) through every batched op."""
    rng = random.Random(0xBA7C4 + chunk)
    for trial in range(100):
        fed = random_federation(rng, DIM, max_zones=6)
        check_all_ops(fed, rng)
        other = random_federation(rng, DIM, max_zones=4)
        zone = random_zone(rng, DIM)
        points = sample_points(rng, DIM, [fed, other])
        inter = fed.intersect(other)
        sub = fed.subtract(other)
        for p in points:
            assert inter.contains(p) == (fed.contains(p) and other.contains(p))
            assert sub.contains(p) == (fed.contains(p) and not other.contains(p))
        assert fed.includes(other) == other.subtract(fed).is_empty()
        assert fed.compact().equals(fed)
        assert_same_set(
            fed.intersect_zone(zone),
            legacy_map(fed, lambda z: z.intersect(zone)),
            points,
            f"trial {trial}: intersect_zone",
        )
