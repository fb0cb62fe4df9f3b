"""Unit tests for the encoded-bound arithmetic (repro.dbm.bounds)."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dbm.bounds import (
    INF,
    LE_ZERO,
    LT_ZERO,
    add_bounds,
    bound,
    bound_as_string,
    bound_value,
    decode,
    is_strict,
    le,
    lt,
    negate,
)

from tests.fraction_reference import satisfies


class TestEncoding:
    def test_le_encoding(self):
        assert le(3) == (3 << 1) | 1
        assert decode(le(3)) == (3, False)

    def test_lt_encoding(self):
        assert lt(3) == 3 << 1
        assert decode(lt(3)) == (3, True)

    def test_zero_constants(self):
        assert le(0) == LE_ZERO
        assert lt(0) == LT_ZERO

    def test_negative_values(self):
        assert decode(le(-7)) == (-7, False)
        assert decode(lt(-7)) == (-7, True)

    def test_bound_constructor_matches_le_lt(self):
        assert bound(5, strict=False) == le(5)
        assert bound(5, strict=True) == lt(5)

    def test_bound_value(self):
        assert bound_value(le(9)) == 9
        assert bound_value(lt(-2)) == -2

    def test_is_strict(self):
        assert is_strict(lt(1))
        assert not is_strict(le(1))

    def test_order_tighter_is_smaller(self):
        # (2, <) < (2, <=) < (3, <) < (3, <=) < INF
        assert lt(2) < le(2) < lt(3) < le(3) < INF


class TestAddition:
    def test_le_plus_le(self):
        assert add_bounds(le(2), le(3)) == le(5)

    def test_lt_makes_strict(self):
        assert add_bounds(lt(2), le(3)) == lt(5)
        assert add_bounds(le(2), lt(3)) == lt(5)
        assert add_bounds(lt(2), lt(3)) == lt(5)

    def test_inf_saturates(self):
        assert add_bounds(INF, le(3)) == INF
        assert add_bounds(le(3), INF) == INF
        assert add_bounds(INF, INF) == INF

    def test_negative_sum(self):
        assert add_bounds(le(-5), le(2)) == le(-3)

    @given(
        st.integers(-1000, 1000),
        st.integers(-1000, 1000),
        st.booleans(),
        st.booleans(),
    )
    def test_addition_matches_semantics(self, a, b, sa, sb):
        enc = add_bounds(bound(a, sa), bound(b, sb))
        value, strict = decode(enc)
        assert value == a + b
        assert strict == (sa or sb)


class TestNegation:
    def test_negate_le(self):
        # not (x - y <= 3)  is  y - x < -3
        assert negate(le(3)) == lt(-3)

    def test_negate_lt(self):
        # not (x - y < 3)  is  y - x <= -3
        assert negate(lt(3)) == le(-3)

    def test_negate_involutive(self):
        for enc in (le(4), lt(4), le(-4), lt(0)):
            assert negate(negate(enc)) == enc

    def test_negate_inf_raises(self):
        with pytest.raises(ValueError):
            negate(INF)

    @given(st.integers(-100, 100), st.booleans(), st.fractions(-150, 150))
    def test_negation_partitions_the_line(self, value, strict, diff):
        """Every difference satisfies exactly one of (c, ¬c)."""
        enc = bound(value, strict)
        neg = negate(enc)
        assert satisfies(diff, enc) != satisfies(-diff, neg)


class TestSatisfies:
    def test_le_boundary(self):
        assert satisfies(3, le(3))
        assert not satisfies(3, lt(3))
        assert satisfies(Fraction(5, 2), lt(3))

    def test_inf_always(self):
        assert satisfies(10**9, INF)

    def test_fractions(self):
        assert satisfies(Fraction(7, 2), le(4))
        assert not satisfies(Fraction(9, 2), le(4))


class TestPrinting:
    def test_single_clock(self):
        assert bound_as_string(le(3), "x") == "x <= 3"
        assert bound_as_string(lt(3), "x") == "x < 3"

    def test_difference(self):
        assert bound_as_string(le(-1), "x", "y") == "x - y <= -1"

    def test_inf(self):
        assert "inf" in bound_as_string(INF, "x")
