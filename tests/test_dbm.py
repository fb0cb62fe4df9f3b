"""Unit and property tests for canonical DBMs (repro.dbm.dbm)."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dbm import DBM, le, lt


from tests.zone_strategies import (
    big_federations,
    box,
    diagonal_zones,
    points,
    zones,
)


# ----------------------------------------------------------------------
# Construction and canonical form
# ----------------------------------------------------------------------


class TestConstruction:
    def test_universal_contains_everything(self):
        z = DBM.universal(3)
        assert z.contains([0, Fraction(0), Fraction(100)])
        assert not z.is_empty()
        assert z.is_universal()

    def test_zero_is_singleton(self):
        z = DBM.zero(3)
        assert z.contains([0, Fraction(0), Fraction(0)])
        assert not z.contains([0, Fraction(1, 2), Fraction(0)])

    def test_empty(self):
        z = DBM.empty(3)
        assert z.is_empty()
        assert not z
        assert not z.contains([0, Fraction(0), Fraction(0)])

    def test_contradiction_is_empty(self):
        z = DBM.from_constraints(2, [(1, 0, le(2)), (0, 1, le(-3))])  # x<=2, x>=3
        assert z.is_empty()

    def test_boundary_meets(self):
        z = DBM.from_constraints(2, [(1, 0, le(2)), (0, 1, le(-2))])  # x == 2
        assert not z.is_empty()
        assert z.contains([0, Fraction(2)])

    def test_strict_boundary_empty(self):
        z = DBM.from_constraints(2, [(1, 0, lt(2)), (0, 1, le(-2))])  # x<2, x>=2
        assert z.is_empty()

    def test_negative_clock_unsatisfiable(self):
        z = DBM.from_constraints(2, [(1, 0, le(-1))])  # x <= -1
        assert z.is_empty()

    def test_canonical_propagates_diagonals(self):
        # x - y == 5, y >= 2  =>  x >= 7
        z = DBM.from_constraints(
            3, [(1, 2, le(5)), (2, 1, le(-5)), (0, 2, le(-2))]
        )
        assert not z.contains([0, Fraction(6), Fraction(1)])
        assert z.contains([0, Fraction(7), Fraction(2)])
        # Canonical form exposes the derived lower bound on x.
        assert int(z.m[0, 1]) == le(-7)


class TestEqualityInclusion:
    def test_equal_canonical_forms(self):
        a = box(3, [(0, 5), (0, 5)])
        b = box(3, [(0, 5), (0, 5)])
        assert a.equals(b)
        assert hash(a) == hash(b)

    def test_inclusion(self):
        small = box(2, [(2, 3)])
        big = box(2, [(0, 10)])
        assert big.includes(small)
        assert not small.includes(big)

    def test_inclusion_reflexive(self):
        z = box(2, [(1, 4)])
        assert z.includes(z)

    def test_empty_included_in_all(self):
        assert box(2, [(1, 2)]).includes(DBM.empty(2))

    @given(zones(), zones())
    @settings(max_examples=200, deadline=None)
    def test_inclusion_agrees_with_sampling(self, a, b):
        if a.is_empty():
            assert b.includes(a)
            return
        if b.includes(a):
            point = a.sample()
            assert b.contains(point)


# ----------------------------------------------------------------------
# Timed operators
# ----------------------------------------------------------------------


class TestUpDown:
    def test_up_removes_upper_bounds(self):
        z = box(2, [(1, 3)]).up()
        assert z.contains([0, Fraction(100)])
        assert not z.contains([0, Fraction(1, 2)])

    def test_down_keeps_upper_bounds(self):
        z = box(2, [(2, 3)]).down()
        assert z.contains([0, Fraction(0)])
        assert not z.contains([0, Fraction(4)])

    def test_up_preserves_differences(self):
        z = DBM.zero(3).up()  # diagonal x == y
        assert z.contains([0, Fraction(5), Fraction(5)])
        assert not z.contains([0, Fraction(5), Fraction(4)])

    @given(zones())
    @settings(max_examples=150, deadline=None)
    def test_up_down_inflate(self, z):
        assert z.up().includes(z)
        assert z.down().includes(z)

    @given(zones())
    @settings(max_examples=150, deadline=None)
    def test_up_idempotent(self, z):
        assert z.up().up().equals(z.up())
        assert z.down().down().equals(z.down())

    @given(zones(), points(), st.integers(0, 10))
    @settings(max_examples=200, deadline=None)
    def test_up_semantics(self, z, p, d):
        """p in Z implies p+d in up(Z); p in up(Z) implies some p-d' in Z."""
        if z.contains(p):
            shifted = [p[0]] + [v + d for v in p[1:]]
            assert z.up().contains(shifted)

    @given(zones(), points())
    @settings(max_examples=200, deadline=None)
    def test_down_semantics_backward(self, z, p):
        if z.contains(p):
            for d in (Fraction(1, 2), Fraction(3)):
                earlier = [p[0]] + [v - d for v in p[1:]]
                if all(v >= 0 for v in earlier[1:]):
                    assert z.down().contains(earlier)


class TestResetFree:
    def test_reset_to_zero(self):
        z = box(3, [(2, 5), (3, 7)]).reset([1])
        assert z.contains([0, Fraction(0), Fraction(3)])
        assert not z.contains([0, Fraction(1), Fraction(3)])

    def test_reset_multiple(self):
        z = box(3, [(2, 5), (3, 7)]).reset([1, 2])
        assert z.contains([0, Fraction(0), Fraction(0)])

    def test_assign_constant(self):
        z = box(2, [(0, 10)]).assign_clocks([(1, 4)])
        assert z.contains([0, Fraction(4)])
        assert not z.contains([0, Fraction(3)])

    def test_free_removes_constraints(self):
        z = box(3, [(2, 5), (3, 7)]).free([1])
        assert z.contains([0, Fraction(99), Fraction(3)])
        assert not z.contains([0, Fraction(1), Fraction(8)])

    def test_reset_pred_roundtrip(self):
        target = box(3, [(0, 0), (3, 7)])  # x == 0, 3 <= y <= 7
        pred = target.reset_pred([1])
        # Any x with y in range maps into the target.
        assert pred.contains([0, Fraction(42), Fraction(5)])
        assert not pred.contains([0, Fraction(42), Fraction(8)])

    def test_reset_pred_of_unreachable_reset_is_empty(self):
        target = box(2, [(1, 2)])  # x in [1,2]: x==0 not inside
        assert target.reset_pred([1]).is_empty()

    def test_assign_pred(self):
        target = box(2, [(4, 6)])
        pred = target.assign_pred([(1, 5)])
        assert pred.contains([0, Fraction(0)])
        assert pred.contains([0, Fraction(77)])
        empty = target.assign_pred([(1, 3)])
        assert empty.is_empty()

    @given(zones(), points())
    @settings(max_examples=200, deadline=None)
    def test_reset_pred_exact(self, z, p):
        """p in reset_pred(Z) iff p[x:=0] in Z."""
        pred = z.reset_pred([1])
        mapped = list(p)
        mapped[1] = Fraction(0)
        assert pred.contains(p) == z.contains(mapped)

    @given(zones(), points(), st.integers(0, 9))
    @settings(max_examples=200, deadline=None)
    def test_assign_pred_exact(self, z, p, c):
        pred = z.assign_pred([(2, c)])
        mapped = list(p)
        mapped[2] = Fraction(c)
        assert pred.contains(p) == z.contains(mapped)


class TestIntersect:
    def test_overlap(self):
        a = box(2, [(0, 5)])
        b = box(2, [(3, 9)])
        c = a.intersect(b)
        assert c.contains([0, Fraction(4)])
        assert not c.contains([0, Fraction(2)])

    def test_disjoint(self):
        a = box(2, [(0, 2)])
        b = box(2, [(3, 9)])
        assert a.intersect(b).is_empty()

    @given(zones(), zones(), points())
    @settings(max_examples=250, deadline=None)
    def test_intersection_semantics(self, a, b, p):
        c = a.intersect(b)
        assert c.contains(p) == (a.contains(p) and b.contains(p))


class TestTighten:
    def test_tighten_matches_constrained(self):
        z = DBM.universal(3)
        via_tighten = z.tighten(1, 0, le(5)).tighten(0, 2, le(-1))
        via_constrained = z.constrained([(1, 0, le(5)), (0, 2, le(-1))])
        assert via_tighten.equals(via_constrained)


class TestExtrapolate:
    def test_bounded_zone_unchanged(self):
        z = box(2, [(1, 3)])
        assert z.extrapolate([0, 10]).equals(z)

    def test_large_upper_bound_removed(self):
        z = box(2, [(0, 50)])
        ex = z.extrapolate([0, 10])
        assert ex.contains([0, Fraction(1000)])

    def test_large_lower_bound_clipped(self):
        z = box(2, [(50, 60)])
        ex = z.extrapolate([0, 10])
        # Everything above the max constant becomes indistinguishable.
        assert ex.contains([0, Fraction(11)])
        assert not ex.contains([0, Fraction(10)])

    @given(zones())
    @settings(max_examples=150, deadline=None)
    def test_extrapolation_inflates(self, z):
        assert z.extrapolate([0, 5, 5, 5]).includes(z)


class TestSample:
    @given(zones())
    @settings(max_examples=300, deadline=None)
    def test_sample_in_zone(self, z):
        point = z.sample()
        if z.is_empty():
            assert point is None
        else:
            assert z.contains(point)

    def test_sample_strict_bounds(self):
        z = DBM.from_constraints(2, [(1, 0, lt(3)), (0, 1, lt(-2))])  # 2<x<3
        p = z.sample()
        assert Fraction(2) < p[1] < Fraction(3)

    def test_sample_diagonal(self):
        z = DBM.from_constraints(
            3, [(1, 2, le(0)), (2, 1, le(0)), (1, 0, le(4)), (0, 1, le(-4))]
        )  # x == y == 4
        p = z.sample()
        assert p[1] == p[2] == Fraction(4)


class TestDiagonalZones:
    """The same semantic laws, on zones with guaranteed diagonal bands."""

    @given(diagonal_zones(), points())
    @settings(max_examples=200, deadline=None)
    def test_up_preserves_membership_along_diagonals(self, z, p):
        if z.contains(p):
            for d in (Fraction(1, 2), Fraction(3)):
                shifted = [p[0]] + [v + d for v in p[1:]]
                assert z.up().contains(shifted)

    @given(diagonal_zones(), diagonal_zones(), points())
    @settings(max_examples=200, deadline=None)
    def test_intersection_semantics(self, a, b, p):
        c = a.intersect(b)
        assert c.contains(p) == (a.contains(p) and b.contains(p))

    @given(diagonal_zones(), points())
    @settings(max_examples=200, deadline=None)
    def test_reset_pred_exact(self, z, p):
        pred = z.reset_pred([1])
        mapped = list(p)
        mapped[1] = Fraction(0)
        assert pred.contains(p) == z.contains(mapped)

    @given(diagonal_zones(), zones())
    @settings(max_examples=150, deadline=None)
    def test_inclusion_agrees_with_subtraction(self, a, b):
        from repro.dbm import subtract_zone

        assert a.includes(b) == (not subtract_zone(b, a))

    @given(diagonal_zones())
    @settings(max_examples=150, deadline=None)
    def test_sample_lies_inside(self, z):
        point = z.sample()
        if z.is_empty():
            assert point is None
        else:
            assert z.contains(point)

    @given(diagonal_zones())
    @settings(max_examples=100, deadline=None)
    def test_sample_random_lies_inside(self, z):
        import random

        rng = random.Random(1234)
        point = z.sample_random(rng)
        if z.is_empty():
            assert point is None
        else:
            assert z.contains(point)


class TestBigFederations:
    @given(big_federations(), points())
    @settings(max_examples=150, deadline=None)
    def test_compact_preserves_membership(self, f, p):
        assert f.compact().contains(p) == f.contains(p)

    @given(big_federations(), big_federations(), points())
    @settings(max_examples=150, deadline=None)
    def test_subtract_membership(self, f, g, p):
        assert f.subtract(g).contains(p) == (f.contains(p) and not g.contains(p))

    @given(big_federations(), big_federations())
    @settings(max_examples=100, deadline=None)
    def test_includes_agrees_with_subtraction(self, f, g):
        assert f.includes(g) == g.subtract(f).is_empty()

    @given(big_federations())
    @settings(max_examples=100, deadline=None)
    def test_sample_random_in_federation(self, f):
        import random

        rng = random.Random(99)
        point = f.sample_random(rng)
        if f.is_empty():
            assert point is None
        else:
            assert f.contains(point)


class TestPrinting:
    def test_true(self):
        assert DBM.universal(2).to_string(["0", "x"]) == "true"

    def test_false(self):
        assert DBM.empty(2).to_string(["0", "x"]) == "false"

    def test_bounds_appear(self):
        s = box(2, [(2, 5)]).to_string(["0", "x"])
        assert "x >= 2" in s and "x <= 5" in s
