"""The integer valuation path agrees with the exact-rational reference.

Zone membership and delay intervals run on clock numerators over one
shared denominator (``repro.dbm.scale``).  Every check here compares them
with the ``Fraction`` versions in ``tests/fraction_reference.py`` on
random zones from ``repro.gen.zones``, on valuations with random
denominators, and on points placed exactly on strict and non-strict
bounds.  ``ConcreteState`` itself (delays, assignments, equality,
hashing, zone tests and pickling) is compared with
``ReferenceConcreteState``, the ``Fraction`` dataclass it replaced.
"""

import pickle
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dbm import INF, DBM, Federation, le, lt, scale
from repro.game.strategy import federation_delay_candidates, zone_delay_interval
from repro.gen import generate_instance
from repro.gen.zones import random_federation, random_zone
from repro.semantics.state import ConcreteState
from repro.semantics.system import DelayInterval, System
from repro.ta import NetworkBuilder

from tests import fraction_reference as ref

SEEDS = st.integers(0, 2**32 - 1)


def random_valuation(rng: random.Random, dim: int, hi: int = 14) -> list:
    """Clocks with denominators drawn from 1..60 (entry 0 is the 0-clock)."""
    return [Fraction(0)] + [
        Fraction(rng.randint(0, hi * den), den)
        for den in (rng.randint(1, 60) for _ in range(dim - 1))
    ]


def boundary_valuations(rng: random.Random, zone: DBM) -> list:
    """Points lying exactly on each finite bound of ``zone``.

    For ``x_i - x_j ≺ b`` one clock of a random valuation is moved so
    the difference is exactly ``b``; on a strict bound the point is
    outside, on a non-strict one it may be inside.
    """
    points = []
    for i, j, b, _strict in zone.finite_bounds:
        point = random_valuation(rng, zone.dim)
        if i and (j == 0 or point[j] + b >= 0):
            point[i] = (point[j] if j else 0) + b
        elif j and (i == 0 or point[i] - b >= 0):
            point[j] = (point[i] if i else 0) - b
        else:
            continue
        if all(v >= 0 for v in point):
            points.append(point)
    return points


def points_for(rng: random.Random, zone: DBM) -> list:
    points = [random_valuation(rng, zone.dim) for _ in range(4)]
    points += boundary_valuations(rng, zone)
    inside = zone.sample_random(rng)
    if inside is not None:
        points.append(inside)
        # A delay with a denominator new to the point.
        d = Fraction(rng.randint(1, 40), rng.randint(7, 97))
        points.append([inside[0]] + [v + d for v in inside[1:]])
    return points


class TestScale:
    def test_common_denominator(self):
        assert scale([0, Fraction(1, 2), Fraction(1, 3), 2]) == ((0, 3, 2, 12), 6)

    def test_reference_entry_ignored(self):
        assert scale([Fraction(7, 5), 1]) == ((0, 1), 1)

    def test_reference_clock_only(self):
        assert scale([0]) == ((0,), 1)
        assert DBM.universal(1).contains([0])
        assert not DBM.empty(1).contains([0])

    def test_floats_convert_exactly(self):
        nums, den = scale([0, 0.1])
        assert Fraction(nums[1], den) == Fraction(0.1) != Fraction(1, 10)

    def test_numpy_scalars(self):
        assert scale([0, np.int64(3), np.float64(0.25)]) == ((0, 12, 1), 4)

    @settings(max_examples=200, deadline=None)
    @given(SEEDS)
    def test_scale_is_exact(self, seed):
        rng = random.Random(seed)
        point = random_valuation(rng, rng.randint(1, 6))
        nums, den = scale(point)
        assert nums[0] == 0
        assert all(Fraction(n, den) == v for n, v in zip(nums[1:], point[1:]))


class TestZoneMembership:
    @settings(max_examples=300, deadline=None)
    @given(SEEDS, st.integers(2, 6))
    def test_dbm_contains_matches_reference(self, seed, dim):
        rng = random.Random(seed)
        zone = random_zone(rng, dim)
        for point in points_for(rng, zone):
            assert zone.contains(point) == ref.contains(zone, point), (zone, point)
            assert zone.contains_scaled(*scale(point)) == ref.contains(zone, point)

    @settings(max_examples=200, deadline=None)
    @given(SEEDS, st.integers(2, 5))
    def test_federation_contains_matches_reference(self, seed, dim):
        rng = random.Random(seed)
        fed = random_federation(rng, dim)
        points = [random_valuation(rng, dim) for _ in range(6)]
        for zone in fed.zones:
            points += points_for(rng, zone)
        for point in points:
            assert fed.contains(point) == ref.fed_contains(fed, point)

    def test_strict_and_non_strict_boundaries(self):
        closed = DBM.from_constraints(3, [(1, 0, le(3)), (1, 2, le(1))])
        opened = DBM.from_constraints(3, [(1, 0, lt(3)), (1, 2, lt(1))])
        on_upper = [0, Fraction(3), Fraction(5, 2)]
        on_diagonal = [0, Fraction(7, 3), Fraction(4, 3)]
        assert closed.contains(on_upper) and closed.contains(on_diagonal)
        assert not opened.contains(on_upper)
        assert not opened.contains(on_diagonal)
        assert opened.contains([0, Fraction(29, 10), Fraction(21, 10)])

    def test_empty_zone_and_federation(self):
        assert not DBM.empty(3).contains([0, 0, 0])
        assert not Federation.empty(3).contains([0, 0, 0])
        assert zone_delay_interval(DBM.empty(3), (0, 0, 0), 1) is None

    def test_float_difference_is_exact(self):
        # 1.0 - 1e-30 rounds to 1.0 in float arithmetic; the exact
        # difference is below 1, so the strict bound holds.
        zone = DBM.from_constraints(3, [(2, 1, lt(1))])
        assert zone.contains([0, 1e-30, 1.0])
        # 0.1 is slightly above 1/10 as a binary rational.
        diagonal = DBM.from_constraints(3, [(1, 2, le(0))])
        assert not diagonal.contains([0, 0.1, Fraction(1, 10)])
        assert diagonal.contains([0, Fraction(1, 10), 0.1])


class TestDelayIntervals:
    @settings(max_examples=300, deadline=None)
    @given(SEEDS, st.integers(2, 6))
    def test_zone_delay_interval_matches_reference(self, seed, dim):
        rng = random.Random(seed)
        zone = random_zone(rng, dim)
        for point in points_for(rng, zone):
            got = zone_delay_interval(zone, *scale(point))
            assert got == ref.zone_delay_interval(zone, point), (zone, point)

    @settings(max_examples=150, deadline=None)
    @given(SEEDS, st.integers(2, 5))
    def test_delay_candidates_match_reference(self, seed, dim):
        rng = random.Random(seed)
        fed = random_federation(rng, dim)
        point = random_valuation(rng, dim)
        expected = [
            interval.pick()
            for zone in fed.zones
            if (interval := ref.zone_delay_interval(zone, point)) is not None
        ]
        assert federation_delay_candidates(fed, *scale(point)) == expected


def discrete_states(system: System, rng: random.Random, runs: int = 4):
    """Discrete states reached by a few short random concrete runs."""
    seen = {}
    for _ in range(runs):
        state = system.initial_concrete()
        for _ in range(10):
            seen.setdefault(state.key, state)
            options = system.move_options(state)
            if not options:
                break
            move, interval = rng.choice(options)
            nxt = system.fire(state.delayed(interval.pick()), move)
            if nxt is None:
                break
            state = nxt
    return list(seen.values())


def concrete_states(system: System, rng: random.Random, base: ConcreteState):
    """``base``'s discrete state under random valuations and under
    valuations on the constants of its invariant and guards."""
    consts = {0, 1, 2, 3}
    inv = system.invariant_zone(base.locs, base.vars)
    consts.update(abs(b) for _i, _j, b, _s in inv.finite_bounds)
    for move in system.moves_from(base.locs, base.vars):
        for _i, _j, enc in system.guard_constraints(move, base.vars):
            if enc < INF:
                consts.add(abs(enc >> 1))
    consts = sorted(consts)
    for _ in range(4):
        clocks = random_valuation(rng, system.dim, hi=8)
        yield ConcreteState(base.locs, base.vars, tuple(clocks))
    for _ in range(4):
        clocks = [Fraction(0)] + [
            Fraction(rng.choice(consts)) for _ in range(system.dim - 1)
        ]
        yield ConcreteState(base.locs, base.vars, tuple(clocks))


@pytest.mark.parametrize("family", ["random", "chain", "urgent_random", "broadcast"])
@pytest.mark.parametrize("seed", range(6))
def test_system_delay_queries_match_reference(family, seed):
    system = System(generate_instance(seed, family).arena)
    rng = random.Random(seed)
    for base in discrete_states(system, rng):
        for state in concrete_states(system, rng, base):
            assert system.max_delay(state) == ref.max_delay(system, state)
            for move in system.moves_from(state.locs, state.vars):
                assert system.enabled_interval(state, move) == ref.enabled_interval(
                    system, state, move
                ), (state, move)
                assert system.fire(state, move) == ref.fire(system, state, move)
            for directions in (None, ("output", "internal")):
                assert system.move_options(
                    state, directions=directions
                ) == ref.move_options(system, state, directions=directions)
                assert system.enabled_now(
                    state, directions=directions
                ) == ref.enabled_now(system, state, directions=directions)
            # A delay whose denominator is new to the state.
            d = Fraction(rng.randint(1, 30), rng.choice([7, 11, 13, 29]))
            later = state.delayed(d)
            nums, den = later.scaled
            assert all(
                Fraction(n, den) == v
                for n, v in zip(nums[1:], later.clocks[1:])
            )
            hi, hi_strict = ref.max_delay(system, state)
            for delay in (d, hi, hi and hi - Fraction(1, 97)):
                if delay is not None and delay > 0:
                    assert system.delay_ok(state, delay) == (
                        hi is None or delay < hi or (delay == hi and not hi_strict)
                    )
            inv = system.invariant_zone(later.locs, later.vars)
            assert later.in_zone(inv) == ref.contains(inv, later.clocks)


def test_move_options_follow_the_variables_and_strict_guards():
    """The memoized enumeration is per variable state (an update leaving
    its range blocks the move), and a strict lower guard met exactly is
    enabled after any positive delay but not now."""
    net = NetworkBuilder("vars")
    net.clock("x")
    net.int_var("v", 0, 1)
    a = net.automaton("A")
    a.location("s", initial=True)
    a.edge("s", "s", guard="x > 1", assign="v := v + 1")
    system = System(net.build())
    base = system.initial_concrete()
    at_one = ConcreteState(base.locs, (0,), (0, Fraction(1)))
    full = ConcreteState(base.locs, (1,), (0, Fraction(1)))
    for state in (at_one, full, at_one):
        assert system.move_options(state) == ref.move_options(system, state)
        assert system.enabled_now(state) == ref.enabled_now(system, state)
    ((move, interval),) = system.move_options(at_one)
    assert interval.lo == 0 and interval.lo_strict
    assert system.enabled_now(at_one) == [] and system.move_options(full) == []
    later = at_one.delayed(Fraction(1, 9))
    assert system.enabled_now(later) == [
        (move, DelayInterval(Fraction(0), False, None, False))
    ]


def test_invariant_ties_keep_the_strict_bound():
    """Two invariant bounds with the same slack: the strict one wins, on
    ``max_delay`` and on ``delay_ok`` exactly at the limit."""
    net = NetworkBuilder("tie")
    net.clock("x", "y")
    a = net.automaton("A")
    a.location("s", initial=True, invariant="x <= 3 && y < 4")
    system = System(net.build())
    base = system.initial_concrete()
    state = ConcreteState(base.locs, base.vars, (0, Fraction(1), Fraction(2)))
    assert system.max_delay(state) == (Fraction(2), True)
    assert ref.max_delay(system, state) == (Fraction(2), True)
    assert not system.delay_ok(state, Fraction(2))
    assert system.delay_ok(state, Fraction(13, 7))
    later = ConcreteState(base.locs, base.vars, (0, Fraction(4, 3), Fraction(7, 3)))
    assert system.max_delay(later) == (Fraction(5, 3), True)


# ----------------------------------------------------------------------
# ConcreteState (integer numerators) against the Fraction dataclass
# ----------------------------------------------------------------------

#: Clock values and delays with denominators 1..10.
RATIONALS = st.builds(Fraction, st.integers(0, 40), st.integers(1, 10))
VALUATIONS = st.lists(RATIONALS, min_size=1, max_size=4).map(
    lambda values: (Fraction(0), *values)
)
LOCS, VARS = (0,), ()


def both(clocks, locs=LOCS, vars=VARS):
    return (
        ConcreteState(locs, vars, clocks),
        ref.ReferenceConcreteState(locs, vars, tuple(clocks)),
    )


def assert_same(state, reference):
    assert state.locs == reference.locs and state.vars == reference.vars
    assert state.clocks == reference.clocks
    # The integer form is the reduced one, whatever route built it.
    assert state.scaled == scale(reference.clocks)


def reset_system() -> System:
    """One clock reset to 0 and one set to a constant, into a location
    whose invariant the assignment can violate."""
    net = NetworkBuilder("resets")
    net.clock("x", "y")
    a = net.automaton("A")
    a.location("s", initial=True, invariant="y <= 9")
    a.location("t", invariant="x <= 4")
    a.edge("s", "t", guard="x >= 1", assign="x := 0")
    a.edge("s", "t", guard="y < 7", assign="x := 3, y := 0")
    a.edge("s", "t", assign="y := 2")
    return System(net.build())


class TestConcreteStateReference:
    @settings(max_examples=300, deadline=None)
    @given(VALUATIONS, st.lists(RATIONALS, max_size=4))
    def test_delayed(self, clocks, delays):
        state, reference = both(clocks)
        for d in delays:
            state, reference = state.delayed(d), reference.delayed(d)
            assert_same(state, reference)
            assert state == ConcreteState(LOCS, VARS, reference.clocks)

    def test_delayed_rejects_negative_and_keeps_zero(self):
        state, _ = both((0, Fraction(1, 3)))
        assert state.delayed(0) is state
        with pytest.raises(ValueError):
            state.delayed(Fraction(-1, 2))

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.builds(Fraction, st.integers(0, 6), st.integers(1, 3)),
                 min_size=2, max_size=2),
        st.lists(st.builds(Fraction, st.integers(0, 6), st.integers(1, 3)),
                 min_size=2, max_size=2),
        st.sampled_from([(LOCS, VARS), ((1,), VARS), (LOCS, (1,))]),
    )
    def test_equality_and_hash(self, a, b, other):
        clocks_a, clocks_b = (0, *a), (0, *b)
        state_a, ref_a = both(clocks_a)
        state_b, ref_b = both(clocks_b, *other)
        assert (state_a == state_b) == (ref_a == ref_b)
        if state_a == state_b:
            assert hash(state_a) == hash(state_b)
        # Ints and Fractions name the same state.
        spelled = ConcreteState(
            LOCS, VARS, (0, *(int(v) if v.denominator == 1 else v for v in a))
        )
        assert spelled == state_a and hash(spelled) == hash(state_a)

    @settings(max_examples=200, deadline=None)
    @given(VALUATIONS)
    def test_clocks(self, clocks):
        state, reference = both(clocks)
        assert_same(state, reference)
        assert state.clocks is state.clocks
        assert all(type(c) is Fraction for c in state.clocks)
        with pytest.raises(AttributeError):
            state.locs = (1,)

    @settings(max_examples=300, deadline=None)
    @given(SEEDS, VALUATIONS)
    def test_in_zone(self, seed, clocks):
        rng = random.Random(seed)
        state, reference = both(clocks)
        zone = random_zone(rng, len(clocks))
        assert state.in_zone(zone) == reference.in_zone(zone)
        inside = zone.sample_random(rng)
        if inside is not None:
            state, reference = both(tuple(inside))
            assert state.in_zone(zone) and reference.in_zone(zone)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(RATIONALS, min_size=2, max_size=2), st.lists(RATIONALS, max_size=2))
    def test_fire_with_assignments(self, values, delays):
        system = reset_system()
        base = system.initial_concrete()
        state, reference = both((0, *values), base.locs, base.vars)
        for d in delays:
            state, reference = state.delayed(d), reference.delayed(d)
        for move in system.moves_from(state.locs, state.vars):
            got = system.fire(state, move)
            want = ref.fire(system, reference, move)
            assert (got is None) == (want is None), move
            if got is not None:
                assert_same(got, want)

    @settings(max_examples=100, deadline=None)
    @given(VALUATIONS, RATIONALS)
    def test_pickle_round_trip(self, clocks, d):
        for state in (ConcreteState(LOCS, VARS, clocks),
                      ConcreteState(LOCS, VARS, clocks).delayed(d)):
            back = pickle.loads(pickle.dumps(state))
            assert back == state and hash(back) == hash(state)
            assert back.scaled == state.scaled and back.clocks == state.clocks
