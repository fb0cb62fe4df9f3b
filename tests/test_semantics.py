"""Tests for symbolic and concrete semantics (repro.semantics.system)."""

from fractions import Fraction

import pytest

from repro.dbm import Federation
from repro.semantics.state import ConcreteState
from repro.semantics.system import OPEN, System
from repro.ta import NetworkBuilder


def ping_pong():
    """Two automata synchronizing on ping (input) / pong (output)."""
    net = NetworkBuilder("pingpong")
    net.clock("x", "y")
    net.int_var("count", 0, 100)
    net.input_channel("ping")
    net.output_channel("pong")

    left = net.automaton("L")
    left.location("idle", initial=True)
    left.location("busy", invariant="x <= 3")
    left.edge("idle", "busy", guard="x >= 1", sync="ping?", assign="x := 0")
    left.edge("busy", "idle", guard="x >= 1", sync="pong!", assign="count := count + 1")

    right = net.automaton("R")
    right.location("go", initial=True)
    right.edge("go", "go", sync="ping!", assign="y := 0")
    right.edge("go", "go", sync="pong?")
    return net.build()


def open_plant():
    net = NetworkBuilder("open")
    net.clock("c")
    net.input_channel("inp")
    net.output_channel("out")
    a = net.automaton("P")
    a.location("s", initial=True)
    a.location("t", invariant="c <= 2")
    a.edge("s", "t", sync="inp?", assign="c := 0")
    a.edge("t", "s", guard="c >= 1", sync="out!")
    return net.build()


class TestMoves:
    def test_sync_pair_found(self):
        sys_ = System(ping_pong())
        init = sys_.initial_symbolic()
        moves = sys_.moves_from(init.locs, init.vars)
        assert [m.label for m in moves] == ["ping"]
        assert moves[0].direction == "input"
        assert moves[0].controllable

    def test_no_self_sync(self):
        # L's pong! may not sync with an edge of L itself.
        sys_ = System(ping_pong())
        locs = (1, 0)  # L.busy, R.go
        moves = sys_.moves_from(locs, sys_.decls.initial_state())
        pongs = [m for m in moves if m.label == "pong"]
        assert len(pongs) == 1
        involved = {a_idx for a_idx, _ in pongs[0].edges}
        assert involved == {0, 1}

    def test_open_moves(self):
        sys_ = System(open_plant())
        init = sys_.initial_symbolic()
        moves = sys_.moves_from(init.locs, init.vars, OPEN)
        assert [(m.label, m.direction) for m in moves] == [("inp", "input")]


class TestSymbolicPost:
    def test_post_applies_guard_reset_invariant(self):
        sys_ = System(ping_pong())
        init = sys_.initial_symbolic()
        move = sys_.moves_from(init.locs, init.vars)[0]
        post = sys_.post(init, move)
        assert post is not None
        # x reset; zone satisfies target invariant x <= 3.
        names = sys_.network.clock_names()
        assert "x" in names
        assert post.locs == (1, 0)
        # Both x (L's reset) and y (R's reset) are zero after the sync.
        assert post.zone.contains([0, Fraction(0), Fraction(0)])
        assert not post.zone.contains([0, Fraction(0), Fraction(1)])
        assert not post.zone.contains([0, Fraction(2), Fraction(2)])

    def test_post_disabled_when_guard_unsatisfiable(self):
        sys_ = System(ping_pong())
        init = sys_.initial_symbolic()
        move = sys_.moves_from(init.locs, init.vars)[0]
        # Shrink the zone to x == 0 (guard needs x >= 1).
        from repro.dbm import DBM
        from repro.semantics.state import SymbolicState

        tight = SymbolicState(init.locs, init.vars, DBM.zero(sys_.dim))
        assert sys_.post(tight, move) is None

    def test_vars_updated_on_move(self):
        sys_ = System(ping_pong())
        init = sys_.initial_symbolic()
        ping = sys_.moves_from(init.locs, init.vars)[0]
        mid = sys_.delay_closure(sys_.post(init, ping))
        pong = [m for m in sys_.moves_from(mid.locs, mid.vars) if m.label == "pong"][0]
        after = sys_.post(mid, pong)
        count_var = sys_.decls.int_vars["count"]
        assert after.vars[count_var.slot] == 1

    def test_delay_closure_respects_invariant(self):
        sys_ = System(ping_pong())
        init = sys_.initial_symbolic()
        move = sys_.moves_from(init.locs, init.vars)[0]
        post = sys_.delay_closure(sys_.post(init, move))
        assert post.zone.contains([0, Fraction(3), Fraction(3)])
        assert not post.zone.contains([0, Fraction(7, 2), Fraction(7, 2)])


class TestPred:
    def test_pred_inverts_post(self):
        sys_ = System(ping_pong())
        init = sys_.initial_symbolic()
        move = sys_.moves_from(init.locs, init.vars)[0]
        post = sys_.delay_closure(sys_.post(init, move))
        back = sys_.pred(init, move, Federation.from_zone(post.zone))
        # Every init state with x >= 1 can take the move into the target.
        assert back.contains([0, Fraction(1), Fraction(1)])
        assert back.contains([0, Fraction(10), Fraction(10)])
        assert not back.contains([0, Fraction(1, 2), Fraction(1, 2)])

    def test_pred_of_empty_is_empty(self):
        sys_ = System(ping_pong())
        init = sys_.initial_symbolic()
        move = sys_.moves_from(init.locs, init.vars)[0]
        assert sys_.pred(init, move, Federation.empty(sys_.dim)).is_empty()


class TestConcrete:
    def test_initial(self):
        sys_ = System(ping_pong())
        state = sys_.initial_concrete()
        assert state.clocks == (Fraction(0), Fraction(0), Fraction(0))

    def test_delayed(self):
        sys_ = System(ping_pong())
        state = sys_.initial_concrete().delayed(Fraction(5, 2))
        assert state.clocks[1] == Fraction(5, 2)
        assert state.clocks[0] == 0

    def test_negative_delay_rejected(self):
        sys_ = System(ping_pong())
        with pytest.raises(ValueError):
            sys_.initial_concrete().delayed(Fraction(-1))

    def test_enabled_interval(self):
        sys_ = System(ping_pong())
        state = sys_.initial_concrete()
        move = sys_.moves_from(state.locs, state.vars)[0]
        interval = sys_.enabled_interval(state, move)
        assert interval.lo == 1 and not interval.lo_strict
        assert interval.hi is None

    def test_enabled_interval_upper_bound_from_invariant(self):
        sys_ = System(open_plant())
        state = sys_.initial_concrete()
        inp = sys_.moves_from(state.locs, state.vars, OPEN)[0]
        mid = sys_.fire(state, inp)
        out = sys_.moves_from(mid.locs, mid.vars, OPEN)[0]
        interval = sys_.enabled_interval(mid, out)
        assert interval.lo == 1
        assert interval.hi == 2 and not interval.hi_strict

    def test_fire_requires_enabledness(self):
        sys_ = System(ping_pong())
        state = sys_.initial_concrete()  # x == 0, guard needs x >= 1
        move = sys_.moves_from(state.locs, state.vars)[0]
        assert sys_.fire(state, move) is None
        assert sys_.fire(state.delayed(Fraction(1)), move) is not None

    def test_fire_resets_clock(self):
        sys_ = System(ping_pong())
        state = sys_.initial_concrete().delayed(Fraction(2))
        move = sys_.moves_from(state.locs, state.vars)[0]
        nxt = sys_.fire(state, move)
        assert nxt.clocks[1] == 0  # x reset by L's receiving edge
        assert nxt.clocks[2] == 0  # y reset by R's emitting edge

    def test_max_delay_unbounded_in_idle(self):
        sys_ = System(ping_pong())
        bound, strict = sys_.max_delay(sys_.initial_concrete())
        assert bound is None

    def test_max_delay_bounded_by_invariant(self):
        sys_ = System(open_plant())
        state = sys_.initial_concrete()
        inp = sys_.moves_from(state.locs, state.vars, OPEN)[0]
        mid = sys_.fire(state, inp)
        bound, strict = sys_.max_delay(mid)
        assert bound == 2 and not strict
        assert sys_.delay_ok(mid, Fraction(2))
        assert not sys_.delay_ok(mid, Fraction(5, 2))


class TestCommitted:
    def make_committed(self):
        net = NetworkBuilder("committed")
        net.clock("x")
        net.int_var("v", 0, 5)
        a = net.automaton("A")
        a.location("s", initial=True)
        a.location("mid", committed=True)
        a.location("t")
        a.edge("s", "mid", controllable=False)
        a.edge("mid", "t", assign="v := 1", controllable=False)
        return System(net.build())

    def test_no_delay_in_committed(self):
        sys_ = self.make_committed()
        assert not sys_.can_delay((1,))
        assert sys_.can_delay((0,))

    def test_max_delay_zero_in_committed(self):
        sys_ = self.make_committed()
        state = ConcreteState((1,), sys_.decls.initial_state(), (Fraction(0), Fraction(0)))
        bound, strict = sys_.max_delay(state)
        assert bound == 0


class TestBlockedUpdates:
    """A variable update that is not a transition blocks its move."""

    def make_indexed(self):
        net = NetworkBuilder("indexed")
        net.clock("x")
        net.int_var("i", 0, 3, init=2)
        net.int_array("a", 2, 0, 1)
        net.int_var("v", 0, 1)
        a = net.automaton("A")
        a.location("s", initial=True)
        a.edge("s", "s", assign="a[i] := 1", controllable=False)
        a.edge("s", "s", assign="v := v + 2", controllable=False)
        a.edge("s", "s", assign="a[i - 2] := 1", controllable=False)
        return System(net.build())

    def test_out_of_bounds_index_and_range_block(self):
        sys_ = self.make_indexed()
        sym = sys_.initial_symbolic()
        oob, overflow, ok = sys_.moves_from(sym.locs, sym.vars)
        for move in (oob, overflow):
            assert sys_.apply_move_vars(sym.vars, move) is None
            assert sys_.post(sym, move) is None
            assert sys_.step_plan(sym.locs, sym.vars, move)[0] is None
        after = sys_.post(sym, ok)
        assert after is not None
        assert sys_.decls.state_to_dict(after.vars)["a"] == [1, 0]

    def test_concrete_path_refuses_the_blocked_moves(self):
        sys_ = self.make_indexed()
        state = sys_.initial_concrete()
        options = sys_.move_options(state)
        assert [move.key for move, _ in options] == [(2,)]
        oob, overflow, ok = sys_.moves_from(state.locs, state.vars)
        assert sys_.fire(state, oob) is None
        assert sys_.fire(state, overflow) is None
        assert sys_.fire(state, ok) is not None
