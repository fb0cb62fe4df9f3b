"""The transport-agnostic test session: Algorithm 3.1 as a state machine.

Historically the tester side of a conformance test — strategy decisions,
spec monitoring, trace building, verdicts — lived inside
:class:`~repro.testing.executor.TestExecutor`, welded to a synchronous
in-process :class:`~repro.testing.implementation.SimulatedImplementation`.
:class:`TestSession` extracts that core as a *sans-IO* state machine: it
never talks to an implementation itself, it emits :class:`SessionAction`
values describing the one IO step it needs next, and the driver feeds the
outcome back:

* :class:`SendInput` — deliver ``label`` (with value-passing ``updates``)
  to the implementation, then call :meth:`TestSession.on_input_result`;
* :class:`Wait` — let time pass, up to ``deadline`` time units, then
  call :meth:`TestSession.on_output` (an output arrived at ``delay <=
  deadline``) or :meth:`TestSession.on_elapsed` (``delay`` passed
  quietly — partial elapses re-enter the strategy, which is how the
  in-process driver reports an implementation-internal step and how a
  real-time driver reports a timer tick);
* :class:`Finish` — terminal; :attr:`TestSession.run` holds the
  :class:`~repro.testing.trace.TestRun`.

Two thin drivers share this core: the synchronous in-process
:class:`~repro.testing.executor.TestExecutor` and the asyncio network
server (:mod:`repro.server`), which multiplexes many sessions over
JSON-framed sockets.  Verdict parity between them is by construction —
both replay the same event stream into the same machine.

:class:`SessionConfig` is the single bag for the testing layer's knobs
(iteration/state budgets, monitor flavour, output-policy sweeps):
``TestExecutor``, ``execute_test``, ``TestCampaign`` and
``MutationCampaign`` take them only as ``config=SessionConfig(...)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Optional, Tuple

from ..game.strategy import Verdictish
from ..semantics.compose import EstimateLimit
from ..semantics.state import ConcreteState
from ..semantics.system import Move, System
from .trace import FAIL, INCONCLUSIVE, PASS, TestRun, TimedTrace

__all__ = [
    "Finish",
    "SendInput",
    "SessionConfig",
    "SessionProtocolError",
    "TestSession",
    "Wait",
]


class SessionProtocolError(RuntimeError):
    """The driver fed the session an event it was not waiting for."""


@dataclass(frozen=True)
class SessionConfig:
    """Every knob of a test session, in one picklable value.

    ``policies`` and ``repetitions`` only matter to drivers that *build*
    simulated implementations (campaigns, the server's parity harness);
    the session itself is policy-agnostic.  ``None`` policies means
    "driver's default sweep".
    """

    #: Strategy-decision budget; exhausting it is INCONCLUSIVE.
    max_iterations: int = 10_000
    #: Symbolic state-set budget of the spec monitor (estimated monitors
    #: only); exceeding it yields INCONCLUSIVE, never a crash.
    max_states: int = 256
    #: Monitor flavour: plain tioco over the plant spec (default) or the
    #: environment-relativized monitor over the composed arena.
    relativized: bool = False
    #: Output-policy sweep for simulated implementations, by name
    #: (``eager``/``lazy``/``quiescent``/``random:SEED``).
    policies: Optional[Tuple[str, ...]] = None
    #: Runs per (purpose, policy) combination in campaigns.
    repetitions: int = 1

    def replace(self, **overrides) -> "SessionConfig":
        return replace(self, **overrides)


# ----------------------------------------------------------------------
# Actions: what the session needs its driver to do next
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SendInput:
    """Deliver ``label`` to the IUT; answer with ``on_input_result``."""

    label: str
    #: Value-passing payload: ``(name, index_or_None, value)`` triples.
    updates: Tuple[tuple, ...] = ()


@dataclass(frozen=True)
class Wait:
    """Let up to ``deadline`` time units pass; answer with
    ``on_output(delay, label)`` or ``on_elapsed(delay)``, ``delay <=
    deadline``."""

    deadline: Fraction


@dataclass(frozen=True)
class Finish:
    """Terminal action: the verdict is in."""

    run: TestRun


SessionAction = object  # Union[SendInput, Wait, Finish]


class TestExecutionError(RuntimeError):
    """Internal inconsistency during test execution (not a verdict)."""


@dataclass
class TestSession:
    """One tioco test session over the paper's Algorithm 3.1.

    The strategy is defined over the *composed* specification (plant ∥
    environment); only moves that involve a plant automaton cross the
    test interface.  Environment-internal controllable moves merely
    update the tester's own composed state.  Value-passing inputs carry
    the emitting environment edge's shared-variable updates to the
    implementation and the monitor.

    Composed (multi-automaton) plants are driven through the partial
    semantics: the spec monitor auto-selects symbolic state-set tracking
    when the plant internalises synchronizations.  The strategy's *own*
    state tracking stays exact over the closed arena; when the arena
    hides timed syncs from the tester, a lost strategy maps to
    INCONCLUSIVE — never an unsound verdict, since PASS needs the goal
    and FAIL needs a (sound) monitor violation.
    """

    __test__ = False  # not a pytest test class, despite the name

    strategy: object  # Strategy | CooperativeStrategy
    spec_plant: System
    config: SessionConfig = field(default_factory=SessionConfig)

    def __post_init__(self) -> None:
        self.trace = TimedTrace()
        self.run: Optional[TestRun] = None
        self._monitor = None
        self._tester: Optional[ConcreteState] = None
        self._iteration = 0
        self._awaiting: Optional[SessionAction] = None
        self._pending_move: Optional[Move] = None
        self._started = False

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def finished(self) -> bool:
        return self.run is not None

    @property
    def iterations(self) -> int:
        return self._iteration

    @property
    def tracked_states(self) -> int:
        """States the spec monitor currently tracks (budget accounting)."""
        if self._monitor is None:
            return 0
        return self._monitor.state_count

    @property
    def _plant_names(self):
        return {a.name for a in self.spec_plant.automata}

    # ------------------------------------------------------------------
    # Driver API
    # ------------------------------------------------------------------

    def start(self) -> SessionAction:
        """Build the monitor and return the first action."""
        if self._started:
            raise SessionProtocolError("session already started")
        self._started = True
        composed = self.strategy.system
        self._tester = self._settle_tau(composed, composed.initial_concrete())
        try:
            # Monitor construction may already run a hidden-move closure.
            self._monitor = self._build_monitor()
        except EstimateLimit as limit:
            return self._finish(
                TestRun(
                    INCONCLUSIVE,
                    self.trace,
                    f"state-estimate budget: {limit}",
                    0,
                )
            )
        return self._decide_loop()

    def on_input_result(self, accepted: bool) -> SessionAction:
        """The driver delivered the pending input; did the IUT take it?"""
        self._expect(SendInput)
        move = self._pending_move
        action: SendInput = self._awaiting
        self._awaiting = self._pending_move = None
        self.trace.add_action(action.label, "input")
        if not accepted:
            return self._finish(
                TestRun(
                    FAIL,
                    self.trace,
                    f"implementation refused input {action.label}?"
                    f" (violates input-enabledness)",
                )
            )
        try:
            observed = self._observe_input(
                action.label, move, list(action.updates)
            )
        except EstimateLimit as limit:
            return self._estimate_overflow(limit)
        if not observed:
            # The spec refusing its own strategy's input is a tracking
            # contradiction, not an IUT violation (the IUT accepted it).
            return self._tracking_fail(
                self._monitor.violation or "spec refused input"
            )
        composed = self.strategy.system
        nxt = composed.fire(self._tester, move)
        if nxt is None:
            raise TestExecutionError(
                f"strategy fired disabled move {action.label} at {self._tester}"
            )
        self._tester = self._settle_tau(composed, nxt)
        return self._decide_loop()

    def on_output(self, delay: Fraction, label: str) -> SessionAction:
        """An output ``label`` arrived ``delay`` time units into the wait."""
        wait = self._expect(Wait)
        self._check_delay(delay, wait.deadline)
        self._awaiting = None
        self.trace.add_delay(delay)
        try:
            if not self._monitor.advance(delay):
                return self._finish(
                    TestRun(
                        FAIL, self.trace, self._monitor.violation or "quiescence"
                    )
                )
            composed = self.strategy.system
            new_tester = self._delay_tester(composed, self._tester, delay)
            self.trace.add_action(label, "output")
            if not self._observe_output(label):
                return self._finish(
                    TestRun(
                        FAIL, self.trace, self._monitor.violation or "bad output"
                    )
                )
        except EstimateLimit as limit:
            return self._estimate_overflow(limit)
        if new_tester is None:
            return self._tracking_fail("tester time left the spec invariant")
        next_tester = self._tester_output(composed, new_tester, label)
        if next_tester is None:
            return self._tracking_fail(
                f"output {label}! not accepted by composed spec state"
            )
        self._tester = next_tester
        return self._decide_loop()

    def on_elapsed(self, delay: Fraction) -> SessionAction:
        """``delay`` time units passed without an observable action.

        Partial elapses (``delay < deadline``) are legal and re-enter the
        strategy: the in-process driver uses them for implementation-
        internal steps, network drivers for timer ticks.
        """
        wait = self._expect(Wait)
        self._check_delay(delay, wait.deadline)
        self._awaiting = None
        self.trace.add_delay(delay)
        try:
            if not self._monitor.advance(delay):
                return self._finish(
                    TestRun(
                        FAIL,
                        self.trace,
                        self._monitor.violation or "quiescence violation",
                    )
                )
        except EstimateLimit as limit:
            return self._estimate_overflow(limit)
        new_tester = self._delay_tester(
            self.strategy.system, self._tester, delay
        )
        if new_tester is None:
            return self._tracking_fail("tester time left the spec invariant")
        self._tester = new_tester
        return self._decide_loop()

    # ------------------------------------------------------------------
    # The decision loop (between IO points)
    # ------------------------------------------------------------------

    def _decide_loop(self) -> SessionAction:
        strategy = self.strategy
        composed = strategy.system
        while self._iteration < self.config.max_iterations:
            self._iteration += 1
            decision = strategy.decide(self._tester)
            if decision.kind == Verdictish.DONE:
                return self._finish(
                    TestRun(
                        PASS, self.trace, "goal state reached", self._iteration
                    )
                )
            if decision.kind == Verdictish.LOST:
                return self._finish(
                    TestRun(
                        INCONCLUSIVE,
                        self.trace,
                        "tester state left the winning region (internal"
                        " error)",
                        self._iteration,
                    )
                )
            if decision.kind == Verdictish.FIRE:
                move = decision.move
                if not self._involves_plant(move):
                    # Environment-internal controllable move: invisible at
                    # the plant interface; only the tester state changes.
                    nxt = composed.fire(self._tester, move)
                    if nxt is None:
                        raise TestExecutionError(
                            f"strategy fired disabled env move {move.label}"
                            f" at {self._tester}"
                        )
                    self._tester = self._settle_tau(composed, nxt)
                    continue
                self._pending_move = move
                self._awaiting = SendInput(
                    move.label,
                    tuple(self._plant_var_updates(self._tester, move)),
                )
                return self._awaiting
            # WAIT: decision.delay is the strategy's next scheduled action
            # time; None means "wait for the plant" (forced-output region).
            try:
                quiescence = self._monitor.max_quiescence()
            except EstimateLimit as limit:
                return self._estimate_overflow(limit)
            if decision.delay is not None:
                wait_for = decision.delay
            elif quiescence.bound is not None:
                wait_for = quiescence.bound + Fraction(1, 2)
            else:
                return self._finish(
                    TestRun(
                        INCONCLUSIVE,
                        self.trace,
                        "strategy waits forever and spec never forces an"
                        " output",
                    )
                )
            self._awaiting = Wait(wait_for)
            return self._awaiting
        return self._finish(
            TestRun(
                INCONCLUSIVE,
                self.trace,
                "iteration budget exhausted",
                self.config.max_iterations,
            )
        )

    # ------------------------------------------------------------------
    # Monitor plumbing
    # ------------------------------------------------------------------

    def _build_monitor(self):
        from .rtioco import RelativizedMonitor
        from .tioco import TiocoMonitor

        if self.config.relativized:
            return RelativizedMonitor(
                self.strategy.system, max_states=self.config.max_states
            )
        return TiocoMonitor(
            self.spec_plant, max_states=self.config.max_states
        )

    def _observe_input(self, label, move, updates) -> bool:
        if self.config.relativized:
            # The relativized monitor tracks the composed arena, so the
            # tester's own move is the most precise report (value-passing
            # variants sharing a label stay distinguished).
            return self._monitor.observe_move(move)
        return self._monitor.observe(label, "input", updates)

    def _observe_output(self, label) -> bool:
        if self.config.relativized:
            return self._monitor.observe_output(label)
        return self._monitor.observe(label, "output")

    # ------------------------------------------------------------------
    # Helpers (verbatim executor semantics)
    # ------------------------------------------------------------------

    def _expect(self, kind):
        if self.finished:
            raise SessionProtocolError("session already finished")
        if not isinstance(self._awaiting, kind):
            raise SessionProtocolError(
                f"session awaits {type(self._awaiting).__name__}, got a"
                f" {kind.__name__} event"
            )
        return self._awaiting

    @staticmethod
    def _check_delay(delay: Fraction, deadline: Fraction) -> None:
        if delay < 0:
            raise SessionProtocolError(f"negative delay {delay}")
        if delay > deadline:
            raise SessionProtocolError(
                f"delay {delay} exceeds the granted deadline {deadline}"
            )

    def _finish(self, run: TestRun) -> Finish:
        self.run = run
        self._awaiting = None
        return Finish(run)

    def _estimate_overflow(self, limit: EstimateLimit) -> Finish:
        # The composed spec's hidden-move closure blew its budget:
        # no verdict either way, never a crash.
        return self._finish(
            TestRun(
                INCONCLUSIVE, self.trace, f"state-estimate budget: {limit}", 0
            )
        )

    def _tracking_fail(self, reason: str) -> Finish:
        """A failure of the *tester's own* composed-state tracking.

        With a fully observable plant this is a genuine FAIL (the monitor
        checks passed, so the contradiction lies with the implementation).
        When the plant *runs under the partial semantics* (interface
        declared) and hides syncs, the tester's exact arena state may
        simply be stale — hidden moves fired at times it cannot know — so
        the only sound verdict is INCONCLUSIVE: FAIL must come from the
        (set-tracking, hence sound) conformance monitor alone.
        """
        if (
            self.spec_plant.network.interface_declared
            and self.spec_plant.partial_hides_syncs()
        ):
            return self._finish(
                TestRun(
                    INCONCLUSIVE,
                    self.trace,
                    f"tester lost track of the hidden-sync plant ({reason})",
                )
            )
        return self._finish(TestRun(FAIL, self.trace, reason))

    def _involves_plant(self, move: Move) -> bool:
        composed = self.strategy.system
        plant_names = self._plant_names
        return any(
            composed.automata[a_idx].name in plant_names
            for a_idx, _ in move.edges
        )

    def _plant_var_updates(self, tester: ConcreteState, move: Move):
        """Shared-variable effects of the move's environment-side edges.

        Returns ``[(name, index_or_None, value)]`` restricted to variables
        that exist (by name) in the plant specification.
        """
        from ..expr.eval import Context, apply_assignments

        composed = self.strategy.system
        state = tester.vars
        plant_names = self._plant_names
        for a_idx, edge in move.edges:
            if composed.automata[a_idx].name in plant_names:
                continue
            if edge.int_assigns:
                state = apply_assignments(
                    edge.int_assigns, Context(composed.decls, state)
                )
        updates = []
        plant_decls = self.spec_plant.decls
        for name, var in composed.decls.int_vars.items():
            if name not in plant_decls.int_vars:
                continue
            if state[var.slot] != tester.vars[var.slot]:
                updates.append((name, None, state[var.slot]))
        for name, arr in composed.decls.arrays.items():
            if name not in plant_decls.arrays:
                continue
            for k in range(arr.size):
                if state[arr.offset + k] != tester.vars[arr.offset + k]:
                    updates.append((name, k, state[arr.offset + k]))
        return updates

    @staticmethod
    def _settle_tau(composed: System, state: ConcreteState) -> ConcreteState:
        """Resolve committed internal processing in the composed spec."""
        for _ in range(64):
            if composed.can_delay(state.locs):
                return state
            fired = False
            for move in composed.moves_from(state.locs, state.vars):
                if move.direction != "internal":
                    continue
                interval = composed.enabled_interval(state, move)
                if interval is None or not interval.contains(Fraction(0)):
                    continue
                nxt = composed.fire(state, move)
                if nxt is not None:
                    state = nxt
                    fired = True
                    break
            if not fired:
                return state
        raise TestExecutionError("internal-move settling did not converge")

    @classmethod
    def _delay_tester(
        cls, composed: System, tester: ConcreteState, d: Fraction
    ) -> Optional[ConcreteState]:
        if not composed.delay_ok(tester, d):
            return None
        return tester.delayed(d)

    @classmethod
    def _tester_output(
        cls, composed: System, tester: ConcreteState, label: str
    ) -> Optional[ConcreteState]:
        for move in composed.moves_from(tester.locs, tester.vars):
            if move.label != label or move.direction != "output":
                continue
            nxt = composed.fire(tester, move)
            if nxt is not None:
                return cls._settle_tau(composed, nxt)
        return None
