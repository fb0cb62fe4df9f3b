"""Tests for goal-predicate evaluation (repro.tctl.goals)."""

from fractions import Fraction

import pytest

from repro.dbm import Federation
from repro.semantics.system import System
from repro.ta import NetworkBuilder
from repro.tctl import GoalPredicate, parse_query
from repro.tctl.goals import normalize_process_fields


def goal_model():
    net = NetworkBuilder("goals")
    net.clock("x", "y")
    net.int_var("v", 0, 5, init=2)
    net.int_array("arr", 3, 0, 1, init=[1, 0, 1])
    net.range_type("Idx", 0, 2)
    a = net.automaton("A")
    a.location("s0", initial=True)
    a.location("s1")
    a.edge("s0", "s1", controllable=False)
    return net.build()


@pytest.fixture()
def sys_():
    return System(goal_model())


@pytest.fixture()
def init(sys_):
    return sys_.initial_symbolic()


def fed_of(sys_, init, text):
    goal = GoalPredicate(sys_, parse_query("E<> " + text).predicate)
    return goal.federation(init)


class TestDiscreteAtoms:
    def test_true_variable_atom_gives_whole_zone(self, sys_, init):
        fed = fed_of(sys_, init, "v == 2")
        assert fed.equals(Federation.from_zone(init.zone))

    def test_false_variable_atom_gives_empty(self, sys_, init):
        assert fed_of(sys_, init, "v == 3").is_empty()

    def test_location_atom(self, sys_, init):
        assert not fed_of(sys_, init, "A.s0").is_empty()
        assert fed_of(sys_, init, "A.s1").is_empty()

    def test_negated_location(self, sys_, init):
        assert fed_of(sys_, init, "!A.s1").equals(
            Federation.from_zone(init.zone)
        )

    def test_array_and_quantifier(self, sys_, init):
        assert not fed_of(sys_, init, "exists (i : Idx) (arr[i] == 0)").is_empty()
        assert fed_of(sys_, init, "forall (i : Idx) (arr[i] == 1)").is_empty()

    def test_negated_quantifier(self, sys_, init):
        # !forall == exists-not.
        fed = fed_of(sys_, init, "!(forall (i : Idx) (arr[i] == 1))")
        assert fed.equals(Federation.from_zone(init.zone))


class TestClockAtoms:
    def test_upper_bound(self, sys_, init):
        fed = fed_of(sys_, init, "x <= 3")
        assert fed.contains([0, Fraction(2), Fraction(2)])
        assert not fed.contains([0, Fraction(4), Fraction(4)])

    def test_conjunction_with_discrete(self, sys_, init):
        fed = fed_of(sys_, init, "v == 2 && x >= 1")
        assert fed.contains([0, Fraction(1), Fraction(1)])
        assert not fed.contains([0, Fraction(0), Fraction(0)])

    def test_disjunction_of_clocks(self, sys_, init):
        fed = fed_of(sys_, init, "x < 1 || x > 5")
        assert fed.contains([0, Fraction(1, 2), Fraction(1, 2)])
        assert fed.contains([0, Fraction(6), Fraction(6)])
        assert not fed.contains([0, Fraction(3), Fraction(3)])

    def test_negated_equality_splits(self, sys_, init):
        fed = fed_of(sys_, init, "!(x == 2)")
        assert fed.contains([0, Fraction(1), Fraction(1)])
        assert fed.contains([0, Fraction(3), Fraction(3)])
        assert not fed.contains([0, Fraction(2), Fraction(2)])

    def test_diagonal_goal(self, sys_, init):
        # Along the initial diagonal x == y this is empty.
        fed = fed_of(sys_, init, "x - y >= 1")
        assert fed.is_empty()

    def test_imply_with_clock(self, sys_, init):
        fed = fed_of(sys_, init, "v == 2 imply x >= 1")
        assert not fed.contains([0, Fraction(0), Fraction(0)])
        assert fed.contains([0, Fraction(1), Fraction(1)])

    def test_arrow_imply_synonym(self, sys_, init):
        a = fed_of(sys_, init, "v == 2 -> x >= 1")
        b = fed_of(sys_, init, "v == 2 imply x >= 1")
        assert a.equals(b)

    def test_quantified_clock_bound(self, sys_, init):
        # x >= i for every i in [0, 2] collapses to x >= 2.
        fed = fed_of(sys_, init, "forall (i : Idx) (x >= i)")
        assert fed.contains([0, Fraction(2), Fraction(2)])
        assert not fed.contains([0, Fraction(1), Fraction(1)])


class TestNormalization:
    def test_process_variable_rewritten(self, sys_):
        expr = parse_query("E<> A.v == 2").predicate
        normalized = normalize_process_fields(expr, sys_)
        assert "A.v" not in str(normalized)
        assert "v" in str(normalized)

    def test_location_test_untouched(self, sys_):
        expr = parse_query("E<> A.s0").predicate
        normalized = normalize_process_fields(expr, sys_)
        assert str(normalized) == "A.s0"

    def test_holds_discretely(self, sys_, init):
        goal = GoalPredicate(sys_, parse_query("E<> v == 2").predicate)
        assert goal.holds_discretely(init)

    def test_clock_atoms_collected(self, sys_):
        goal = GoalPredicate(
            sys_, parse_query("E<> x <= 7 && v == 1 && y > 3").predicate
        )
        atoms = goal.clock_atoms()
        assert len(atoms) == 2
