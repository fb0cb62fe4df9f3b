"""In-process test execution — the synchronous driver over TestSession.

The tester logic of the paper's Algorithm 3.1 (strategy decisions, spec
monitoring, verdicts) lives in the transport-agnostic
:class:`~repro.testing.session.TestSession`; this module binds it to a
:class:`~repro.testing.implementation.SimulatedImplementation` with a
plain synchronous loop:

* :class:`~repro.testing.session.SendInput` → ``imp.give_input``;
* :class:`~repro.testing.session.Wait` → consult ``imp.next_output``:
  an output due within the deadline becomes ``on_output``, an internal
  step or a quiet deadline becomes ``on_elapsed``;
* :class:`~repro.testing.session.Finish` → the :class:`TestRun`.

The asyncio network server (:mod:`repro.server`) is the other driver
over the same session core — verdicts agree by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..game.strategy import Strategy
from ..semantics.system import System
from .implementation import SimulatedImplementation
from .session import (
    Finish,
    SendInput,
    SessionConfig,
    TestExecutionError,
    TestSession,
    Wait,
)
from .trace import TestRun

__all__ = ["TestExecutionError", "TestExecutor", "execute_test"]


@dataclass
class TestExecutor:
    """Binds together strategy, spec monitor, and implementation.

    A thin synchronous driver over :class:`TestSession`; see the session
    module for the semantics.  Budgets and the monitor flavour ride in
    ``config`` (default: ``SessionConfig()``).
    """

    __test__ = False  # not a pytest test class, despite the name

    strategy: Strategy
    spec_plant: System
    implementation: SimulatedImplementation
    config: Optional[SessionConfig] = None

    def session(self) -> TestSession:
        """A fresh session over this executor's strategy and spec."""
        return TestSession(
            self.strategy, self.spec_plant, self.config or SessionConfig()
        )

    def run(self) -> TestRun:
        session = self.session()
        imp = self.implementation
        imp.reset()
        action = session.start()
        while not isinstance(action, Finish):
            if isinstance(action, SendInput):
                accepted = imp.give_input(action.label, list(action.updates))
                action = session.on_input_result(accepted)
                continue
            assert isinstance(action, Wait)
            pending = imp.next_output()
            if pending is not None and pending.delay <= action.deadline:
                # The implementation acts first (or simultaneously).
                d = pending.delay
                label = imp.advance(d)
                if label is None:
                    # Internal move of the implementation: nothing
                    # observed, but the elapsed time re-enters the
                    # strategy.
                    action = session.on_elapsed(d)
                else:
                    action = session.on_output(d, label)
                continue
            # Quiet until the tester's own schedule.
            imp.advance(action.deadline)
            action = session.on_elapsed(action.deadline)
        return action.run


def execute_test(
    strategy: Strategy,
    spec_plant: System,
    implementation: SimulatedImplementation,
    *,
    config: Optional[SessionConfig] = None,
) -> TestRun:
    """One-shot convenience wrapper around :class:`TestExecutor`."""
    return TestExecutor(
        strategy, spec_plant, implementation, config=config
    ).run()
