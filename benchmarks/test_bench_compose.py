"""Benchmarks of the partial-composition subsystem.

Tracks the cost the new subsystem adds per PR (wired into the CI
bench-smoke job, so ``bench_delta.py`` reports regressions):

* partial-move enumeration vs the flat closed product over the reachable
  states of generated chain/ring plants — the overhead of partition
  lookups and hidden/solo classification on the shared move tables;
* a full estimated-monitor conformance session on composed plants — the
  unit price the differential harness pays now that multi-automaton
  families run the tioco/rtioco oracle.
"""

from fractions import Fraction

import pytest

from repro.gen import generate_instance
from repro.graph.explorer import SimulationGraph
from repro.semantics.system import CLOSED, PARTIAL, System
from repro.testing import EagerPolicy, SimulatedImplementation, TiocoMonitor


def _reachable_states(network, max_nodes=600):
    system = System(network)
    graph = SimulationGraph(system, max_nodes=max_nodes)
    graph.explore_all()
    return system, [(node.sym.locs, node.sym.vars) for node in graph.nodes]


def _fresh_systems(family, seeds):
    """(system, states) pairs over arenas; caches are cold per instance."""
    pairs = []
    for seed in seeds:
        instance = generate_instance(seed, family)
        pairs.append(_reachable_states(instance.arena))
    return pairs


@pytest.mark.parametrize("family", ["chain", "ring"])
@pytest.mark.parametrize("mode", [CLOSED, PARTIAL])
def test_bench_move_enumeration(benchmark, family, mode):
    pairs = _fresh_systems(family, range(6))

    def run():
        total = 0
        for system, states in pairs:
            # Empty the per-state memo: the cost of filtering the
            # compiled candidates, not of a cache hit.
            system._moves_cache.clear()
            for locs, vars in states:
                total += len(system.moves_from(locs, vars, mode))
        return total

    assert benchmark(run) > 0
    benchmark.extra_info["states"] = sum(len(s) for _, s in pairs)


@pytest.mark.parametrize("family", ["chain", "ring", "clientserver"])
def test_bench_estimated_conformance_session(benchmark, family):
    instances = [generate_instance(seed, family) for seed in range(3)]

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
