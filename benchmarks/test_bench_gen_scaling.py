"""Scaling benchmarks for the repro.gen subsystem.

Three questions, each a capacity planning input for CI fuzz budgets:

* how fast is pure instance *generation* (must be negligible next to
  solving, or the fuzzer wastes its budget);
* how does *solving* scale with the generated model size (locations for
  the ``random`` family, stages for ``chain`` — stages add clocks, the
  dimension the DBM kernel is most sensitive to);
* what does one full differential *check bundle* cost per instance (the
  unit price of a CI smoke run).
"""

import pytest

from repro.util import counters
from repro.game import TwoPhaseSolver
from repro.gen import GenConfig, generate_instance
from repro.gen.differential import DiffConfig, run_instance_checks
from repro.semantics.system import System
from repro.tctl import parse_query


def test_bench_generation_throughput(benchmark):
    def run():
        hashes = []
        for seed in range(20):
            hashes.append(generate_instance(seed).structural_hash())
        return len(set(hashes))

    assert benchmark(run) >= 19


@pytest.mark.parametrize("locations", [4, 6, 9])
def test_bench_solve_random_by_locations(benchmark, locations):
    config = GenConfig().scaled(max_locations=locations)
    instances = [generate_instance(seed, "random", config) for seed in range(6)]
    queries = [parse_query(instance.query) for instance in instances]

    def run():
        counters.reset()  # per-round: extra_info reflects one round's ops
        verdicts = 0
        for instance, query in zip(instances, queries):
            result = TwoPhaseSolver(System(instance.arena), query).solve()
            verdicts += result.winning
        return verdicts

    assert benchmark(run) >= 0
    snap = counters.snapshot()
    for key in ("dbm.closures", "federation.zones"):
        if key in snap:
            benchmark.extra_info[key] = snap[key]


@pytest.mark.parametrize("stages", [2, 3, 4])
def test_bench_solve_chain_by_stages(benchmark, stages):
    config = GenConfig().scaled(max_automata=stages)
    instances = []
    for seed in range(40):
        instance = generate_instance(seed, "chain", config)
        if len(instance.spec.automata) == stages:
            instances.append(instance)
        if len(instances) == 4:
            break
    queries = [parse_query(instance.query) for instance in instances]

    def run():
        verdicts = 0
        for instance, query in zip(instances, queries):
            result = TwoPhaseSolver(System(instance.arena), query).solve()
            verdicts += result.winning
        return verdicts

    assert benchmark(run) >= 0


def test_bench_differential_bundle(benchmark):
    instances = [generate_instance(seed) for seed in range(4)]
    cfg = DiffConfig(sim_runs=1, sim_steps=20, conf_steps=15)

    def run():
        ok = 0
        for instance in instances:
            report = run_instance_checks(instance, cfg)
            ok += report.ok
        return ok

    assert benchmark(run) == len(instances)
