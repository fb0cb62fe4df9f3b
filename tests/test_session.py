"""The sans-IO TestSession core and the SessionConfig surface.

The executor tests already cover verdict semantics end to end; here the
focus is the *session machinery* itself: action/event sequencing, driver
protocol violations, the config value, and exact parity between
``TestExecutor.run()`` and hand-driving the session.
"""

from fractions import Fraction

import pytest

from repro.game import Strategy, solve_reachability_game
from repro.models.smartlight import smartlight_network, smartlight_plant
from repro.semantics.system import System
from repro.tctl import parse_query
from repro.testing import (
    EagerPolicy,
    Finish,
    LazyPolicy,
    RandomPolicy,
    SendInput,
    SessionConfig,
    SessionProtocolError,
    SimulatedImplementation,
    TestExecutor,
    TestSession,
    Wait,
)


@pytest.fixture(scope="module")
def strategy():
    composed = System(smartlight_network())
    res = solve_reachability_game(
        composed, parse_query("control: A<> IUT.Bright"), on_the_fly=False
    )
    return Strategy(res)


@pytest.fixture(scope="module")
def spec_plant():
    return System(smartlight_plant())


def drive(session, imp):
    """Hand-rolled driver: the executor loop, written out in a test."""
    imp.reset()
    action = session.start()
    while not isinstance(action, Finish):
        if isinstance(action, SendInput):
            action = session.on_input_result(
                imp.give_input(action.label, list(action.updates))
            )
            continue
        assert isinstance(action, Wait)
        pending = imp.next_output()
        if pending is not None and pending.delay <= action.deadline:
            d = pending.delay
            label = imp.advance(d)
            if label is None:
                action = session.on_elapsed(d)
            else:
                action = session.on_output(d, label)
        else:
            imp.advance(action.deadline)
            action = session.on_elapsed(action.deadline)
    return action.run


class TestSessionConfig:
    def test_defaults(self):
        cfg = SessionConfig()
        assert cfg.max_iterations == 10_000
        assert cfg.max_states == 256
        assert cfg.relativized is False
        assert cfg.policies is None
        assert cfg.repetitions == 1

    def test_replace(self):
        cfg = SessionConfig().replace(max_states=7)
        assert cfg.max_states == 7
        assert cfg.max_iterations == 10_000

    def test_frozen_and_hashable(self):
        cfg = SessionConfig()
        with pytest.raises(AttributeError):
            cfg.max_states = 3
        assert hash(cfg) == hash(SessionConfig())


class TestSessionMachine:
    def test_hand_driven_matches_executor(self, strategy, spec_plant):
        for policy in (EagerPolicy(), LazyPolicy(), RandomPolicy(3)):
            fresh = (
                type(policy)(3)
                if isinstance(policy, RandomPolicy)
                else type(policy)()
            )
            ex = TestExecutor(
                strategy,
                spec_plant,
                SimulatedImplementation(System(smartlight_plant()), policy),
            )
            run_a = ex.run()
            session = TestSession(strategy, spec_plant)
            run_b = drive(
                session,
                SimulatedImplementation(System(smartlight_plant()), fresh),
            )
            assert run_a.verdict == run_b.verdict
            assert run_a.reason == run_b.reason
            assert str(run_a.trace) == str(run_b.trace)
            assert run_a.iterations == run_b.iterations

    def test_session_finished_state(self, strategy, spec_plant):
        session = TestSession(strategy, spec_plant)
        run = drive(
            session,
            SimulatedImplementation(System(smartlight_plant()), EagerPolicy()),
        )
        assert session.finished
        assert session.run is run
        assert session.iterations == run.iterations

    def test_double_start_rejected(self, strategy, spec_plant):
        session = TestSession(strategy, spec_plant)
        session.start()
        with pytest.raises(SessionProtocolError, match="already started"):
            session.start()

    def test_event_out_of_order(self, strategy, spec_plant):
        session = TestSession(strategy, spec_plant)
        action = session.start()
        # smartlight's strategy opens by waiting, so the machine awaits a
        # Wait outcome — feeding an input result must be rejected.
        assert isinstance(action, Wait)
        with pytest.raises(SessionProtocolError, match="awaits Wait"):
            session.on_input_result(True)
        # ... and after the wait resolves into an input, the reverse.
        action = session.on_elapsed(action.deadline)
        assert isinstance(action, SendInput)
        with pytest.raises(SessionProtocolError, match="awaits SendInput"):
            session.on_output(Fraction(0), "dim")
        with pytest.raises(SessionProtocolError, match="awaits SendInput"):
            session.on_elapsed(Fraction(1))

    def test_delay_beyond_deadline(self, strategy, spec_plant):
        session = TestSession(strategy, spec_plant)
        action = session.start()
        assert isinstance(action, Wait)
        with pytest.raises(SessionProtocolError, match="exceeds the granted"):
            session.on_elapsed(action.deadline + 1)
        with pytest.raises(SessionProtocolError, match="negative"):
            session.on_output(Fraction(-1), "dim")

    def test_events_after_finish_rejected(self, strategy, spec_plant):
        session = TestSession(strategy, spec_plant)
        drive(
            session,
            SimulatedImplementation(System(smartlight_plant()), EagerPolicy()),
        )
        with pytest.raises(SessionProtocolError, match="finished"):
            session.on_elapsed(Fraction(1))

    def test_refused_input_fails(self, strategy, spec_plant):
        session = TestSession(strategy, spec_plant)
        action = session.start()
        assert isinstance(action, Wait)
        action = session.on_elapsed(action.deadline)
        assert isinstance(action, SendInput)
        action = session.on_input_result(False)
        assert isinstance(action, Finish)
        assert action.run.verdict == "fail"
        assert "input-enabledness" in action.run.reason

    def test_iteration_budget(self, strategy, spec_plant):
        session = TestSession(
            strategy, spec_plant, SessionConfig(max_iterations=1)
        )
        imp = SimulatedImplementation(System(smartlight_plant()), LazyPolicy())
        run = drive(session, imp)
        assert run.verdict == "inconclusive"
        assert "iteration budget" in run.reason

    def test_tracked_states_exposed(self, strategy, spec_plant):
        session = TestSession(strategy, spec_plant)
        assert session.tracked_states == 0  # no monitor before start
        session.start()
        assert session.tracked_states >= 1
