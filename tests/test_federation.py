"""Unit and property tests for federations (repro.dbm.federation)."""

from fractions import Fraction

from hypothesis import given, settings

from repro.dbm import DBM, Federation, subtract_zone

from tests.zone_strategies import DIM, box, federations, points, zones




def interval(lo, hi, dim=2):
    return box(dim, [(lo, hi)] + [(0, 100)] * (dim - 2))


class TestSubtractZone:
    def test_middle_cut(self):
        pieces = subtract_zone(interval(0, 10), interval(3, 5))
        fed = Federation(2, pieces)
        assert fed.contains([0, Fraction(2)])
        assert fed.contains([0, Fraction(6)])
        assert not fed.contains([0, Fraction(4)])
        # Boundary points belong to the subtrahend.
        assert not fed.contains([0, Fraction(3)])
        assert not fed.contains([0, Fraction(5)])

    def test_disjoint_subtrahend(self):
        pieces = subtract_zone(interval(0, 2), interval(5, 9))
        assert len(pieces) == 1
        assert pieces[0].equals(interval(0, 2))

    def test_covering_subtrahend(self):
        assert subtract_zone(interval(3, 4), interval(0, 10)) == []

    def test_pieces_disjoint(self):
        pieces = subtract_zone(box(3, [(0, 10), (0, 10)]), box(3, [(2, 5), (3, 8)]))
        for i in range(len(pieces)):
            for j in range(i + 1, len(pieces)):
                assert pieces[i].intersect(pieces[j]).is_empty()

    @given(zones(), zones(), points())
    @settings(max_examples=300, deadline=None)
    def test_subtraction_semantics(self, a, b, p):
        fed = Federation(DIM, subtract_zone(a, b))
        assert fed.contains(p) == (a.contains(p) and not b.contains(p))


class TestSetOperations:
    def test_union_contains_both(self):
        f = Federation.from_zone(interval(0, 2)).union_zone(interval(5, 7))
        assert f.contains([0, Fraction(1)])
        assert f.contains([0, Fraction(6)])
        assert not f.contains([0, Fraction(3)])

    def test_union_subsumption_reduces(self):
        f = Federation(2, [interval(0, 10), interval(2, 3)])
        assert len(f) == 1

    def test_intersect(self):
        f1 = Federation(2, [interval(0, 4), interval(8, 12)])
        f2 = Federation(2, [interval(3, 9)])
        meet = f1.intersect(f2)
        assert meet.contains([0, Fraction(7, 2)])
        assert meet.contains([0, Fraction(17, 2)])
        assert not meet.contains([0, Fraction(6)])

    def test_subtract_federation(self):
        whole = Federation.from_zone(interval(0, 10))
        holes = Federation(2, [interval(2, 3), interval(6, 7)])
        rest = whole.subtract(holes)
        assert rest.contains([0, Fraction(1)])
        assert rest.contains([0, Fraction(5)])
        assert not rest.contains([0, Fraction(13, 2)])

    def test_complement_within(self):
        f = Federation.from_zone(interval(3, 5))
        comp = f.complement_within(DBM.universal(2))
        assert comp.contains([0, Fraction(2)])
        assert not comp.contains([0, Fraction(4)])

    @given(federations(), federations(), points())
    @settings(max_examples=250, deadline=None)
    def test_union_semantics(self, f1, f2, p):
        assert f1.union(f2).contains(p) == (f1.contains(p) or f2.contains(p))

    @given(federations(), federations(), points())
    @settings(max_examples=250, deadline=None)
    def test_intersection_semantics(self, f1, f2, p):
        assert f1.intersect(f2).contains(p) == (f1.contains(p) and f2.contains(p))

    @given(federations(), federations(), points())
    @settings(max_examples=250, deadline=None)
    def test_subtraction_semantics(self, f1, f2, p):
        assert f1.subtract(f2).contains(p) == (f1.contains(p) and not f2.contains(p))


class TestInclusion:
    def test_includes_exact_nonconvex(self):
        # [0,10] covers the union [0,4] ∪ [4,10] even across the seam.
        parts = Federation(2, [interval(0, 4), interval(4, 10)])
        whole = Federation.from_zone(interval(0, 10))
        assert whole.includes(parts)
        assert parts.includes(whole)
        assert parts.equals(whole)

    def test_not_includes_with_gap(self):
        parts = Federation(2, [interval(0, 3), interval(5, 10)])
        whole = Federation.from_zone(interval(0, 10))
        assert whole.includes(parts)
        assert not parts.includes(whole)

    @given(federations(), federations())
    @settings(max_examples=150, deadline=None)
    def test_inclusion_sound_on_samples(self, f1, f2):
        if f2.includes(f1):
            for zone in f1.zones:
                assert f2.contains(zone.sample())


class TestTimedOperators:
    def test_down_union(self):
        f = Federation(2, [interval(5, 6), interval(9, 10)])
        d = f.down()
        assert d.contains([0, Fraction(0)])
        assert d.contains([0, Fraction(8)])
        assert not d.contains([0, Fraction(11)])

    def test_up(self):
        f = Federation.from_zone(interval(2, 3))
        assert f.up().contains([0, Fraction(50)])


class TestCompact:
    def test_compact_merges_cover(self):
        f = Federation(2, [interval(0, 4), interval(4, 10), interval(0, 10)])
        compacted = f.compact()
        assert len(compacted) == 1
        assert compacted.equals(f)

    def test_compact_drops_seam_covered_zone(self):
        # [2,3] is covered by [0,4] alone, dropped by pairwise reduction;
        # [0,4] and [4,10] jointly cover [3,5] only via the union.
        f = Federation(2, [interval(0, 4), interval(4, 10), interval(3, 5)])
        compacted = f.compact()
        assert compacted.equals(f)
        assert len(compacted) == 2

    @given(federations())
    @settings(max_examples=100, deadline=None)
    def test_compact_preserves_set(self, f):
        assert f.compact().equals(f)


class TestMisc:
    def test_empty_federation(self):
        f = Federation.empty(2)
        assert f.is_empty()
        assert not f
        assert f.sample() is None

    def test_sample_in_federation(self):
        f = Federation(2, [interval(3, 4)])
        assert f.contains(f.sample())

    def test_hash_key_stable_under_order(self):
        f1 = Federation(2, [interval(0, 1), interval(5, 6)])
        f2 = Federation(2, [interval(5, 6), interval(0, 1)])
        assert f1.hash_key() == f2.hash_key()

    def test_to_string_empty(self):
        assert Federation.empty(2).to_string() == "false"

    def test_to_string_union(self):
        f = Federation(2, [interval(0, 1), interval(5, 6)])
        assert "||" in f.to_string(["0", "x"])
