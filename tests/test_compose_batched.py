"""Differential tests: the compiled StateEstimate vs the per-zone reference.

:class:`repro.semantics.compose.StateEstimate` runs every step on plans
compiled once per discrete state (one ``zone_expand`` kernel call per
member and closure wave, one ``zone_successor`` per member and observed
move).  ``tests/estimate_reference.py`` keeps the member-at-a-time LIFO
estimator it replaced, one zone operation per call.  These tests drive
both through identical observation sequences on randomly generated
composed plants and a hand-built hidden-sync network and assert they
agree on every monitor-facing answer — quiescence bounds, enabled
labels, delay/action verdicts (including rescaled rational delays), the
final member *sets* at the closure fixpoint, and :class:`EstimateLimit`
budget overflows — plus the timed-closure memo (recompute exactly once
per state-set change, counted via ``repro.util.counters``).  The
parameter ids ``batched``/``scalar`` name the compiled estimator and the
per-zone reference.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gen import generate_instance
from repro.semantics import StateEstimate, System
from repro.semantics.compose import EstimateLimit
from repro.ta.builder import NetworkBuilder
from repro.testing import (
    EagerPolicy,
    RandomPolicy,
    SimulatedImplementation,
    TiocoMonitor,
)
from repro.util import counters
from tests.estimate_reference import ReferenceEstimate

COMPOSED_FAMILIES = ("chain", "ring", "clientserver", "broadcast")

#: Delay denominators the sessions draw from: halves and thirds force
#: integer rescaling, sevenths force a second lcm bump.
DENOMINATORS = (1, 2, 3, 7)

#: The compiled estimator and the per-zone reference.
IMPLEMENTATIONS = (StateEstimate, ReferenceEstimate)


def estimate_pair(plant_system, **kwargs):
    return tuple(cls(plant_system, **kwargs) for cls in IMPLEMENTATIONS)


def member_sets(estimate):
    """The state set as a comparable set of (locs, vars, zone key)."""
    return {
        (m.locs, m.vars, m.zone.hash_key()) for m in estimate.states
    }


def assert_agree(batched, scalar, context):
    assert batched.max_quiescence() == scalar.max_quiescence(), context
    for direction in ("input", "output"):
        assert batched.enabled_labels(direction) == scalar.enabled_labels(
            direction
        ), f"{context}: {direction} labels"
    # The pruning subsumption retains the antichain of maximal reachable
    # zones, which is traversal-order independent — so not only the
    # answers but the member sets must coincide.
    assert member_sets(batched) == member_sets(scalar), f"{context}: members"


def drive_session(batched, scalar, draw_step, steps=10):
    """Drive both estimates through one drawn observation sequence."""
    for step in range(steps):
        assert_agree(batched, scalar, f"step {step}")
        outputs = batched.enabled_labels("output")
        inputs = batched.enabled_labels("input")
        kind, payload = draw_step(step, inputs, outputs)
        if kind == "output":
            ok_b = batched.observe(payload, "output")
            ok_s = scalar.observe(payload, "output")
        elif kind == "input":
            ok_b = batched.observe(payload, "input")
            ok_s = scalar.observe(payload, "input")
        else:
            ok_b = batched.advance(payload)
            ok_s = scalar.advance(payload)
        assert ok_b == ok_s, f"step {step}: {kind} {payload} verdicts differ"
        if not ok_b:
            break
    assert_agree(batched, scalar, "final")


def draw_session_step(data, estimate):
    """A ``draw_step`` for :func:`drive_session` over Hypothesis data."""

    def draw_step(step, inputs, outputs):
        choices = ["delay"]
        if inputs:
            choices.append("input")
        if outputs:
            choices.append("output")
        kind = data.draw(st.sampled_from(choices), label=f"step{step}")
        if kind == "input":
            return kind, data.draw(st.sampled_from(inputs))
        if kind == "output":
            return kind, data.draw(st.sampled_from(outputs))
        bound, strict = estimate.max_quiescence()
        delay = Fraction(
            data.draw(st.integers(min_value=0, max_value=5)),
            data.draw(st.sampled_from(DENOMINATORS)),
        )
        if bound is not None and (delay > bound or (delay == bound and strict)):
            delay = bound / 2 if strict else bound
        return "delay", delay

    return draw_step


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=1500),
    family=st.sampled_from(COMPOSED_FAMILIES),
    data=st.data(),
)
def test_batched_estimate_agrees_on_generated_plants(seed, family, data):
    instance = generate_instance(seed, family)
    batched, scalar = estimate_pair(System(instance.plant))
    drive_session(batched, scalar, draw_session_step(data, batched))


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_estimate_agrees_on_the_hidden_sync_network(data):
    """The hand-built plant with a hidden sync inside a real time window."""
    batched, scalar = estimate_pair(System(hidden_chain_network()))
    drive_session(batched, scalar, draw_session_step(data, batched))


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=1500),
    family=st.sampled_from(COMPOSED_FAMILIES),
)
def test_budget_overflow_agrees(seed, family):
    """Both paths respect the same post-pruning ``max_states`` budget.

    The retained set at the fixpoint is the antichain of maximal
    reachable zones — identical for both traversal orders — so a budget
    strictly below the antichain size must make *both* implementations
    raise :class:`EstimateLimit` (transient retention may peak at
    different moments, but the fixpoint count is what a budget below it
    can never escape).
    """
    instance = generate_instance(seed, family)
    system = System(instance.plant)
    reference = ReferenceEstimate(system)
    inputs = reference.enabled_labels("input")
    if inputs:
        reference.observe(inputs[0], "input")
    reference.max_quiescence()  # force the timed closure
    fixpoint_size = len(reference._closure)
    if fixpoint_size < 2:
        return  # budget < 1 is unreachable; nothing to overflow
    budget = fixpoint_size - 1
    for cls in IMPLEMENTATIONS:
        estimate = cls(system, max_states=budget)
        with pytest.raises(EstimateLimit):
            for label in inputs[:1]:
                estimate.observe(label, "input")
            estimate.max_quiescence()


# ----------------------------------------------------------------------
# Rescaling
# ----------------------------------------------------------------------


def hidden_chain_network():
    """go? -> hidden sync -> fin!, with a real hidden-instant window."""
    net = NetworkBuilder("chain2")
    net.clock("c0", "c1")
    net.input_channel("go")
    net.output_channel("h", "fin")
    net.interface("go", "fin")
    a = net.automaton("A")
    a.location("Idle", initial=True)
    a.location("Busy", "c0 <= 2")
    a.location("Done")
    a.edge("Idle", "Busy", sync="go?", assign="c0 := 0")
    a.edge("Busy", "Done", sync="h!")
    b = net.automaton("B")
    b.location("Wait", initial=True)
    b.location("Hold", "c1 <= 3")
    b.location("End")
    b.edge("Wait", "Hold", sync="h?", assign="c1 := 0")
    b.edge("Hold", "End", sync="fin!", guard="c1 >= 1")
    return net.build()


def payload_network():
    """``go?`` writes a payload into ``v`` and passes through an urgent
    location; the hidden sync then needs ``v == 2``."""
    net = NetworkBuilder("payload")
    net.clock("c0", "c1")
    net.int_var("v", 0, 3)
    net.input_channel("go")
    net.output_channel("h", "fin")
    net.interface("go", "fin")
    a = net.automaton("A")
    a.location("Idle", initial=True)
    a.location("Prep", urgent=True)
    a.location("Busy", "c0 <= 2")
    a.location("Done")
    a.edge("Idle", "Prep", sync="go?", assign="c0 := 0")
    a.edge("Prep", "Busy")
    a.edge("Busy", "Done", sync="h!", guard="v == 2")
    b = net.automaton("B")
    b.location("Wait", initial=True)
    b.location("Hold", "c1 <= 3")
    b.location("End")
    b.edge("Wait", "Hold", sync="h?", assign="c1 := 0")
    b.edge("Hold", "End", sync="fin!", guard="c1 >= 1")
    return net.build()


@pytest.mark.parametrize("payload", range(4))
def test_estimate_agrees_on_payloads_and_urgent_locations(payload):
    batched, scalar = estimate_pair(System(payload_network()))
    for estimate in (batched, scalar):
        assert estimate.observe("go", "input", [("v", None, payload)])
    assert_agree(batched, scalar, f"payload {payload}")
    quiet = batched.max_quiescence()
    # The urgent location holds no time: the hidden step can only start
    # from Busy, so silence is bounded by c0 <= 2 (then c1 <= 3 once
    # h has fired, which only the payload 2 allows).
    assert quiet == ((Fraction(5), False) if payload == 2 else (Fraction(2), False))
    for delay in (Fraction(1, 2), Fraction(2, 3)):
        assert batched.advance(delay) == scalar.advance(delay)
        assert_agree(batched, scalar, f"payload {payload} after {delay}")


def hidden_choices_network(m: int, window: int = 3):
    """``m`` hidden routing choices, each resetting a different clock.

    Components ``C0..Cm-1`` leave their initial location through one of
    two internalised syncs (``r_i!`` resets ``x_i``, ``s_i!`` resets
    ``y_i``) within a bounded window: redundant internal failover paths
    invisible at the boundary, which pile ``2^m`` pairwise-incomparable
    zones up per discrete state, the closure's worst shape.  The
    observable face is a plain ``go? … fin!`` exchange.
    """
    net = NetworkBuilder(f"choices{m}")
    net.clock(*[f"x{i}" for i in range(m)], *[f"y{i}" for i in range(m)], "cf")
    net.input_channel("go")
    hidden = [name for i in range(m) for name in (f"r{i}", f"s{i}")]
    net.output_channel("fin", *hidden)
    net.interface("go", "fin")
    for i in range(m):
        c = net.automaton(f"C{i}")
        c.location("Busy", f"x{i} <= {window}", initial=True)
        c.location("Done")
        c.edge("Busy", "Done", sync=f"r{i}!", assign=f"x{i} := 0")
        c.edge("Busy", "Done", sync=f"s{i}!", assign=f"y{i} := 0")
    r = net.automaton("R")
    r.location("Idle", initial=True)
    for i in range(m):
        r.edge("Idle", "Idle", sync=f"r{i}?")
        r.edge("Idle", "Idle", sync=f"s{i}?")
    f = net.automaton("F")
    f.location("Wait", initial=True)
    f.location("Armed", "cf <= 6")
    f.location("End")
    f.edge("Wait", "Armed", sync="go?", assign="cf := 0")
    f.edge("Armed", "End", sync="fin!", guard="cf >= 1")
    return net.build()


@pytest.mark.parametrize("m,window", [(2, 4), (3, 3)], ids=["m2w4", "m3w3"])
def test_estimate_agrees_on_hidden_choices(m, window):
    """Closure, rational delays and closure again on a ``2^m``-way
    estimate: both paths agree, and ``fin`` is offered from ``cf >= 1``
    on while the hidden choices stay invisible."""
    batched, scalar = estimate_pair(
        System(hidden_choices_network(m, window)), max_states=2048
    )
    for estimate in (batched, scalar):
        assert estimate.observe("go", "input")
    assert_agree(batched, scalar, "after go")
    elapsed = Fraction(0)
    for delay in (Fraction(1, 2), Fraction(1, 3), Fraction(2, 3)):
        assert batched.advance(delay) and scalar.advance(delay)
        elapsed += delay
        assert_agree(batched, scalar, f"at {elapsed}")
        expected = ["fin"] if elapsed >= 1 else []
        assert batched.enabled_labels("output") == expected
    assert batched.max_quiescence()[0] is not None


def test_estimate_counters_track_closures():
    """The op counters count the closure's kernel calls, and the
    estimator runs no stacked kernel."""
    counters.reset()
    estimate = StateEstimate(
        System(hidden_choices_network(3, 3)), max_states=2048
    )
    estimate.observe("go", "input")
    estimate.max_quiescence()
    counts = counters.export()["counts"]
    assert counts.get("estimate.timed_closures") == 1
    assert counts.get("estimate.expansions", 0) > 0
    assert counts.get("estimate.posts", 0) > 0
    assert not [name for name in counts if name.startswith("stack.")]


# ----------------------------------------------------------------------
# Estimated-monitor sessions
# ----------------------------------------------------------------------


def monitor_session(imp, monitor, steps):
    """Feed a simulated implementation's run to a tioco monitor: its
    outputs as observed, unit delays while the monitor allows
    quiescence.  Every step must be accepted; returns the step count."""
    done = 0
    for _ in range(steps):
        scheduled = imp.next_output()
        if scheduled is None:
            delay = Fraction(1)
            if not monitor.max_quiescence().allows(delay):
                break
            imp.advance(delay)
            assert monitor.advance(delay)
        else:
            label = imp.advance(scheduled.delay)
            assert monitor.advance(scheduled.delay), monitor.violation
            if label is not None:
                assert monitor.observe(label, "output"), monitor.violation
        done += 1
    return done


def generated_session(instance, policy, steps=12):
    """One session on a generated plant, opened by its first input."""
    imp = SimulatedImplementation(System(instance.plant), policy)
    monitor = TiocoMonitor(System(instance.plant))
    inputs = monitor.enabled_labels("input")
    if inputs and imp.give_input(inputs[0]):
        assert monitor.observe(inputs[0], "input")
    return monitor_session(imp, monitor, steps)


@pytest.mark.parametrize("family", ["clientserver", "chain"])
def test_estimated_session(family):
    """Eager conforming implementations of generated composed plants
    pass the estimated monitor."""
    instances = [generate_instance(seed, family) for seed in (0, 2, 4)]
    assert sum(generated_session(i, EagerPolicy()) for i in instances) > 0


@pytest.mark.parametrize("family", ["chain", "ring", "clientserver"])
def test_estimated_conformance_session(family):
    """Conforming implementations that pick their outputs and delays at
    random pass the estimated monitor too."""
    instances = [generate_instance(seed, family) for seed in range(3)]
    steps = [
        generated_session(instance, RandomPolicy(seed))
        for seed, instance in enumerate(instances)
    ]
    assert sum(steps) > 0


def test_estimated_session_hidden_choices():
    """The implementation takes the hidden failover syncs itself; the
    monitor tracks the full ``2^m``-way estimate through delays and the
    final output."""
    network = hidden_choices_network(3, 3)
    imp = SimulatedImplementation(System(network), EagerPolicy())
    monitor = TiocoMonitor(System(network), max_states=2048)
    assert imp.give_input("go")
    assert monitor.observe("go", "input")
    assert monitor_session(imp, monitor, 10) > 0


class TestRescaledDelays:
    def test_quiescence_probes_between_rescaling_delays(self):
        """Quiescence probes between delays that rescale the zones agree
        on both paths, and the bound stays finite."""
        batched, scalar = estimate_pair(
            System(hidden_choices_network(3, 3)), max_states=2048
        )
        for estimate in (batched, scalar):
            assert estimate.observe("go", "input")
        for delay in (Fraction(1, 2), Fraction(1, 3), Fraction(1, 3)):
            assert batched.max_quiescence() == scalar.max_quiescence()
            assert batched.advance(delay) and scalar.advance(delay)
        assert batched.max_quiescence() == scalar.max_quiescence()
        assert batched.max_quiescence()[0] is not None

    def test_rational_delays_agree_through_rescaling(self):
        system = System(hidden_chain_network())
        batched, scalar = estimate_pair(system)
        for estimate in (batched, scalar):
            assert estimate.observe("go", "input")
        for delay in (Fraction(1, 3), Fraction(1, 7), Fraction(5, 6)):
            ok_b = batched.advance(delay)
            ok_s = scalar.advance(delay)
            assert ok_b == ok_s
        assert batched.scale == scalar.scale
        assert batched.scale % 42 == 0
        assert_agree(batched, scalar, "after rescaled delays")

    def test_scale_cap_overflow_agrees(self):
        """Wildly varied denominators overflow both paths identically."""
        primes = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
        outcomes = []
        for cls in IMPLEMENTATIONS:
            estimate = cls(System(hidden_chain_network()))
            estimate.observe("go", "input")
            try:
                for p in primes:
                    estimate.advance(Fraction(1, p))
                outcomes.append(None)
            except EstimateLimit:
                outcomes.append("limit")
        assert outcomes == ["limit", "limit"]


# ----------------------------------------------------------------------
# Timed-closure memoization (the PR's invalidation fix)
# ----------------------------------------------------------------------


class TestEnabledEarlyExit:
    """``enabled_labels`` probes instead of observing.

    Per (discrete state, move) it runs the compiled discrete post on one
    member at a time and stops at the first nonempty one.  Its labels
    must equal those of materialising every member's post one zone
    operation at a time (the reference's ``_post``), and the probe must
    run no closure, no observation and no stacked kernel.
    """

    @staticmethod
    def assert_probe_matches_posts(estimate, context):
        reference = ReferenceEstimate(estimate.system, estimate.mode)
        reference.states, reference.scale = estimate.states, estimate.scale
        for direction in ("input", "output"):
            materialised = {
                move.label
                for member in estimate.states
                for move in estimate.system.moves_from(
                    member.locs, member.vars, estimate.mode
                )
                if move.direction == direction
                and reference._post(member, move) is not None
            }
            assert estimate.enabled_labels(direction) == sorted(
                materialised
            ), f"{context}: {direction} labels"

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=1500),
        family=st.sampled_from(COMPOSED_FAMILIES),
    )
    def test_probe_agrees_with_materialised_posts(self, seed, family):
        instance = generate_instance(seed, family)
        estimate = StateEstimate(System(instance.plant))
        context = f"{family} seed {seed}"
        self.assert_probe_matches_posts(estimate, f"{context} initial")
        inputs = estimate.enabled_labels("input")
        if inputs and estimate.observe(inputs[0], "input"):
            self.assert_probe_matches_posts(
                estimate, f"{context} after {inputs[0]}?"
            )
            if estimate.advance(Fraction(1, 3)):
                self.assert_probe_matches_posts(
                    estimate, f"{context} after 1/3 (rescaled)"
                )

    def test_batched_labels_run_the_probe_kernel_not_the_full_post(self):
        estimate = StateEstimate(System(hidden_chain_network()))
        estimate.observe("go", "input")
        assert estimate.advance(Fraction(1))  # fin! needs c1 >= 1
        counters.reset()
        assert estimate.enabled_labels("output") == ["fin"]
        counts = counters.export()["counts"]
        # One fin! move, enabled in the first member probed.
        assert counts.get("estimate.enable_probes") == 1
        # The probe never materialises successors or closes over them.
        for name in ("estimate.posts", "estimate.closures"):
            assert name not in counts

    def test_scalar_labels_short_circuit_without_the_kernel(self):
        """Members are probed one at a time, up to the first survivor."""
        estimate = StateEstimate(System(hidden_chain_network()))
        estimate.observe("go", "input")
        assert estimate.advance(Fraction(1, 2))  # scale 2
        done = estimate.system.network.location_names
        disabled = [m for m in estimate.states if "A.Done" in done(m.locs)]
        assert estimate.advance(Fraction(2))
        enabled = [m for m in estimate.states if "A.Done" in done(m.locs)]
        assert len(disabled) == 1 and enabled
        assert disabled[0][:2] == enabled[0][:2]  # one discrete state
        # c1 <= 1/2 blocks fin!; c1 >= 2 allows it.
        estimate.states = disabled * 2 + enabled[:1] * 2
        counters.reset()
        assert estimate.enabled_labels("output") == ["fin"]
        counts = counters.export()["counts"]
        # Two blocked probes, then the first survivor ends the scan.
        assert counts.get("estimate.enable_probes") == 3
        assert not [name for name in counts if name.startswith("stack.")]


class TestClosureMemo:
    @pytest.fixture(params=IMPLEMENTATIONS, ids=["batched", "scalar"])
    def estimate(self, request):
        estimate = request.param(System(hidden_chain_network()))
        estimate.observe("go", "input")
        return estimate

    def closures(self):
        return counters.export()["counts"].get("estimate.timed_closures", 0)

    def test_observing_twice_does_no_extra_closure_work(self, estimate):
        counters.reset()
        first = estimate.max_quiescence()
        assert self.closures() == 1
        assert estimate.max_quiescence() == first
        assert estimate.enabled_labels("output") is not None
        assert self.closures() == 1, "second observation recomputed the closure"

    def test_rescaling_keeps_the_memo(self, estimate):
        counters.reset()
        estimate.max_quiescence()
        assert self.closures() == 1
        # advance() with a new denominator rescales states *and* the
        # memoized closure in place instead of recomputing the fixpoint.
        assert estimate.advance(Fraction(1, 3))
        assert self.closures() == 1
        # The state set changed, so the *next* query recomputes — once.
        estimate.max_quiescence()
        estimate.max_quiescence()
        assert self.closures() == 2

    def test_each_state_change_recomputes_exactly_once(self, estimate):
        counters.reset()
        estimate.max_quiescence()
        assert estimate.advance(Fraction(1))
        estimate.max_quiescence()
        outputs = estimate.enabled_labels("output")
        assert outputs == ["fin"]
        assert estimate.observe("fin", "output")
        estimate.max_quiescence()
        estimate.max_quiescence()
        # Three state sets were queried: initial, after the delay, after
        # the output — three closures, no more.
        assert self.closures() == 3
