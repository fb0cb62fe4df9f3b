"""Benchmarks of the state-estimate kernel (PR 5).

Two families:

* **closure** — the timed tau-closure on plants with *hidden routing
  choices*: ``m`` parallel components each take one of two internalised
  syncs resetting different clocks, so ``2^m`` pairwise-incomparable
  zones pile up per discrete state — the closure's worst shape: one
  ``zone_expand`` call per member and wave, and a pairwise subsumption
  scan per admitted zone.
* **session** — end-to-end estimated-monitor conformance sessions on
  generated composed plants (the unit price the sharded differential
  campaign pays per instance), plus the campaign sharding overhead
  itself at ``jobs`` 1 vs 2 on a small instance window.
"""

from fractions import Fraction

import pytest

from repro.gen import generate_instance, run_campaign
from repro.gen.differential import DiffConfig
from repro.par import auto_jobs
from repro.semantics import StateEstimate, System
from repro.ta.builder import NetworkBuilder
from repro.testing import EagerPolicy, SimulatedImplementation, TiocoMonitor
from repro.util import counters


def hidden_choices_network(m: int, window: int = 3):
    """``m`` hidden routing choices, each resetting a different clock.

    Components ``C0..Cm-1`` leave their initial location through one of
    two internalised syncs (``r_i!`` resets ``x_i``, ``s_i!`` resets
    ``y_i``) within a bounded window — redundant internal failover paths
    invisible at the boundary.  The observable face is a plain
    ``go? … fin!`` exchange.
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
def test_bench_estimate_closure(benchmark, m, window):
    """Timed closure + delay + closure + labels on a 2^m-way estimate."""
    network = hidden_choices_network(m, window)

    def run():
        estimate = StateEstimate(System(network), max_states=2048)
        assert estimate.observe("go", "input")
        estimate.max_quiescence()
        assert estimate.advance(Fraction(3, 2))
        estimate.max_quiescence()
        labels = estimate.enabled_labels("output")
        assert labels == ["fin"]
        return estimate.size

    size = benchmark(run)
    benchmark.extra_info["members"] = size


def test_bench_estimate_rescaled_probes(benchmark):
    """Quiescence probes through rescaling delays (memo + rescaled zones)."""
    network = hidden_choices_network(3, 3)

    def run():
        estimate = StateEstimate(System(network), max_states=2048)
        assert estimate.observe("go", "input")
        for delay in (Fraction(1, 2), Fraction(1, 3), Fraction(1, 3)):
            estimate.max_quiescence()
            assert estimate.advance(delay)
        bound, _ = estimate.max_quiescence()
        return bound

    assert benchmark(run) is not None


@pytest.mark.parametrize("family", ["clientserver", "chain"])
def test_bench_estimated_session(benchmark, family):
    """End-to-end estimated-monitor sessions on generated plants."""
    instances = [generate_instance(seed, family) for seed in (0, 2, 4)]

    def run():
        steps = 0
        for instance in instances:
            system = System(instance.plant)
            imp = SimulatedImplementation(system, EagerPolicy())
            monitor = TiocoMonitor(System(instance.plant))
            inputs = monitor.enabled_labels("input")
            if inputs and imp.give_input(inputs[0]):
                assert monitor.observe(inputs[0], "input")
            for _ in range(12):
                scheduled = imp.next_output()
                if scheduled is None:
                    delay = Fraction(1)
                    if not monitor.max_quiescence().allows(delay):
                        break
                    imp.advance(delay)
                    assert monitor.advance(delay)
                    steps += 1
                    continue
                label = imp.advance(scheduled.delay)
                assert monitor.advance(scheduled.delay), monitor.violation
                if label is not None:
                    assert monitor.observe(label, "output"), monitor.violation
                steps += 1
        return steps

    assert benchmark(run) > 0


def test_bench_estimated_session_hidden_choices(benchmark):
    """A monitor session where the estimate dominates the step cost.

    The implementation schedules the hidden failover syncs itself; the
    tioco monitor tracks the full ``2^m``-way estimate through delays and
    the final output — the expensive kind of instance the sharded
    campaign runs, and the end-to-end face of the closure benchmarks.
    """
    network = hidden_choices_network(3, 3)

    def run():
        system = System(network)
        imp = SimulatedImplementation(system, EagerPolicy())
        monitor = TiocoMonitor(System(network), max_states=2048)
        assert imp.give_input("go")
        assert monitor.observe("go", "input")
        steps = 0
        for _ in range(10):
            scheduled = imp.next_output()
            if scheduled is None:
                delay = Fraction(1)
                if not monitor.max_quiescence().allows(delay):
                    break
                imp.advance(delay)
                assert monitor.advance(delay)
                steps += 1
                continue
            label = imp.advance(scheduled.delay)
            assert monitor.advance(scheduled.delay), monitor.violation
            if label is not None:
                assert monitor.observe(label, "output"), monitor.violation
            steps += 1
        return steps

    assert benchmark(run) > 0


@pytest.mark.parametrize("jobs", [1, 2])
def test_bench_campaign_sharded(benchmark, jobs):
    """Campaign throughput at --jobs 1 vs 2 (speedup scales with cores).

    On a single-core runner the two are expected to tie (the sharded
    path's pool overhead is the thing being bounded here); the recorded
    ``cpus`` extra_info says which regime a given JSON measured.
    """
    config = DiffConfig(max_nodes=800, sim_steps=8, conf_steps=8,
                        check_fixpoint=False)

    def run():
        summary = run_campaign(
            count=12,
            seed=4200,
            diff_config=config,
            checks=("estimate", "conformance"),
            zone_trials=0,
            shrink=False,
            jobs=jobs,
        )
        assert summary.ok
        return len(summary.reports)

    assert benchmark(run) == 12
    benchmark.extra_info["cpus"] = auto_jobs()


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
