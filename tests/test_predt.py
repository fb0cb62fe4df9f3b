"""Property tests for the safe-timed-predecessor operator ``Predt``.

``Predt`` is the heart of the game solver, so we verify it against a
brute-force reference: for a random state ``s``, random target ``G`` and
bad set ``B``, check membership by scanning candidate arrival delays on a
fine fractional grid.  With integer zone constants, behaviour changes only
at half-integer delay boundaries, so grid scanning plus midpoints is an
exact decision procedure for the sampled points.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dbm import Federation
from repro.game.predt import predt, predt_mixed, up_strict

from tests.zone_strategies import (
    DIM,
    big_federations,
    box,
    diagonal_zones,
    federations,
    points,
    zones,
)


def shifted(p, d):
    return [p[0]] + [v + d for v in p[1:]]


def candidate_delays(max_const=30):
    """Quarter-integer grid: strictly finer than any zone boundary."""
    return [Fraction(k, 4) for k in range(0, max_const * 4 + 1)]


def reference_predt(point, goal: Federation, bad: Federation, lenient: bool) -> bool:
    """Brute-force: exists delay d with point+d in G, avoiding B on the way.

    Arrival instants are scanned on the quarter-integer grid (exact: with
    half-integer points and integer constants, every goal-entry boundary
    is a half-integer).  Avoidance of ``bad`` over [0, d] (strict) or
    [0, d) (lenient) is decided *exactly* via the rational delay interval
    of each bad zone — grid scanning would miss open intervals like
    ``(0, 1/4)`` that contain no grid point.
    """
    from repro.dbm import scale
    from repro.game.strategy import zone_delay_interval

    scaled = scale(point)
    bad_intervals = [
        interval
        for zone in bad.zones
        if (interval := zone_delay_interval(zone, *scaled)) is not None
    ]

    def blocked(d):
        for interval in bad_intervals:
            if interval.lo < d:
                return True
            if interval.lo == d and not lenient and not interval.lo_strict:
                return True
        return False

    for d in candidate_delays():
        arrival = shifted(point, d)
        if not goal.contains(arrival):
            continue
        if not blocked(d):
            return True
    return False


class TestUpStrict:
    def test_strict_future_excludes_start(self):
        z = box(2, [(2, 3)])
        u = up_strict(z)
        assert not u.contains([0, Fraction(2)])
        assert u.contains([0, Fraction(9, 4)])
        assert u.contains([0, Fraction(100)])

    def test_strict_future_of_point(self):
        z = box(3, [(2, 2), (2, 2)])
        u = up_strict(z)
        assert not u.contains([0, Fraction(2), Fraction(2)])
        assert u.contains([0, Fraction(5, 2), Fraction(5, 2)])
        assert not u.contains([0, Fraction(5, 2), Fraction(2)])

    @given(zones(), points(), st.integers(1, 8))
    @settings(max_examples=200, deadline=None)
    def test_up_strict_semantics_forward(self, z, p, num):
        d = Fraction(num, 2)
        if z.contains(p):
            assert up_strict(z).contains(shifted(p, d))

    @given(zones())
    @settings(max_examples=100, deadline=None)
    def test_up_strict_inside_up(self, z):
        if z.is_empty():
            return
        assert z.up().includes(up_strict(z))


class TestPredtBasics:
    def test_no_bad_is_down(self):
        g = Federation.from_zone(box(2, [(5, 6)]))
        result = predt(g, Federation.empty(2))
        assert result.contains([0, Fraction(0)])
        assert result.contains([0, Fraction(6)])
        assert not result.contains([0, Fraction(7)])

    def test_bad_after_goal_no_block(self):
        # g at x=5, bad at x=8: reaching goal never crosses bad.
        g = Federation.from_zone(box(2, [(5, 5)]))
        b = Federation.from_zone(box(2, [(8, 9)]))
        result = predt(g, b)
        assert result.contains([0, Fraction(3)])
        assert not result.contains([0, Fraction(17, 2)])

    def test_bad_before_goal_blocks(self):
        # g at x=5, bad at x=[2,3]: states before bad cannot pass it.
        g = Federation.from_zone(box(2, [(5, 5)]))
        b = Federation.from_zone(box(2, [(2, 3)]))
        result = predt(g, b)
        assert result.contains([0, Fraction(4)])
        assert not result.contains([0, Fraction(1)])
        assert not result.contains([0, Fraction(5, 2)])  # inside bad

    def test_strict_vs_lenient_boundary(self):
        # Goal exactly at the bad region's entry: lenient arrival wins.
        g = Federation.from_zone(box(2, [(2, 2)]))
        b = Federation.from_zone(box(2, [(2, 3)]))
        strict = predt(g, b, lenient=False)
        lenient = predt(g, b, lenient=True)
        assert strict.is_empty()
        assert lenient.contains([0, Fraction(1)])
        assert lenient.contains([0, Fraction(2)])  # zero-delay arrival

    def test_union_of_bads_is_intersection(self):
        g = Federation.from_zone(box(2, [(6, 6)]))
        b1 = box(2, [(2, 3)])
        b2 = box(2, [(4, 5)])
        both = predt(g, Federation(2, [b1, b2]))
        only1 = predt(g, Federation.from_zone(b1))
        only2 = predt(g, Federation.from_zone(b2))
        assert only1.includes(both)
        assert only2.includes(both)
        # (5,6] survives both blocks.
        assert both.contains([0, Fraction(11, 2)])
        assert not both.contains([0, Fraction(7, 2)])

    def test_empty_goal(self):
        assert predt(Federation.empty(2), Federation.from_zone(box(2, [(0, 1)]))).is_empty()


class TestPredtReference:
    @given(federations(), federations(), points())
    @settings(max_examples=150, deadline=None)
    def test_strict_matches_reference(self, goal, bad, p):
        result = predt(goal, bad, lenient=False)
        assert result.contains(p) == reference_predt(p, goal, bad, lenient=False)

    @given(federations(), federations(), points())
    @settings(max_examples=150, deadline=None)
    def test_lenient_matches_reference(self, goal, bad, p):
        result = predt(goal, bad, lenient=True)
        assert result.contains(p) == reference_predt(p, goal, bad, lenient=True)

    @given(federations(), federations())
    @settings(max_examples=80, deadline=None)
    def test_lenient_contains_strict(self, goal, bad):
        strict = predt(goal, bad, lenient=False)
        lenient = predt(goal, bad, lenient=True)
        assert lenient.includes(strict)

    @given(federations(), federations(), federations(), points())
    @settings(max_examples=80, deadline=None)
    def test_mixed_is_union(self, acts, goals, bad, p):
        mixed = predt_mixed(acts, goals, bad)
        expected = predt(acts, bad, lenient=False).union(
            predt(goals, bad, lenient=True)
        )
        assert mixed.contains(p) == expected.contains(p)

    @given(federations(), federations())
    @settings(max_examples=80, deadline=None)
    def test_monotone_in_goal(self, goal, bad):
        bigger = goal.union(Federation.from_zone(box(DIM, [(1, 2)] * (DIM - 1))))
        assert predt(bigger, bad).includes(predt(goal, bad))


class TestPredtDiagonal:
    """Reference agreement on diagonal-constrained goals and bad sets.

    Delay shifts both clocks together, so diagonal differences are delay
    invariant; the quarter-grid reference stays exact on these shapes, and
    they exercise the ``subtract``/``down`` paths boxes cannot reach.
    """

    @given(diagonal_zones(), diagonal_zones(), points())
    @settings(max_examples=120, deadline=None)
    def test_strict_matches_reference_on_diagonals(self, g, b, p):
        goal = Federation.from_zone(g)
        bad = Federation.from_zone(b)
        result = predt(goal, bad, lenient=False)
        assert result.contains(p) == reference_predt(p, goal, bad, lenient=False)

    @given(big_federations(), big_federations(), points())
    @settings(max_examples=100, deadline=None)
    def test_lenient_matches_reference_on_big_federations(self, goal, bad, p):
        result = predt(goal, bad, lenient=True)
        assert result.contains(p) == reference_predt(p, goal, bad, lenient=True)

    @given(big_federations(), big_federations())
    @settings(max_examples=60, deadline=None)
    def test_lenient_contains_strict_on_big_federations(self, goal, bad):
        assert predt(goal, bad, lenient=True).includes(
            predt(goal, bad, lenient=False)
        )

    @given(big_federations())
    @settings(max_examples=60, deadline=None)
    def test_no_bad_is_down_on_big_federations(self, goal):
        assert predt(goal, Federation.empty(DIM)).equals(goal.down())
