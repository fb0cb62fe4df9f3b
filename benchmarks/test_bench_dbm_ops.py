"""Ext-D — DBM / federation kernel micro-benchmarks.

The zone kernel dominates solver runtime (the repro band notes "weak DBM
libs" as the main Python risk), so its primitives are benchmarked
directly: closure, intersection, up/down, subtraction, inclusion, and the
Predt operator they compose into.
"""

import random

import pytest

from repro import faults
from repro.dbm import DBM, Federation, le
from repro.dbm import backends as kernel_backends
from repro.dbm import stack as sk
from repro.dbm.backends.base import MovePlan
from repro.game.predt import predt
from repro.util import counters


def random_zone(rng, dim=5, constraints=6):
    zone = DBM.universal(dim)
    for _ in range(constraints):
        i = rng.randrange(dim)
        j = rng.randrange(dim)
        if i == j:
            continue
        value = rng.randint(-6, 14)
        strict = rng.random() < 0.5
        zone = zone.tighten(i, j, (value << 1) | (0 if strict else 1))
        if zone.is_empty():
            return random_zone(rng, dim, constraints)
    return zone


@pytest.fixture(scope="module")
def zone_pool():
    rng = random.Random(2008)
    return [random_zone(rng) for _ in range(64)]


@pytest.fixture(scope="module")
def federation_pool(zone_pool):
    rng = random.Random(443)
    feds = []
    for _ in range(16):
        zones = rng.sample(zone_pool, 3)
        feds.append(Federation(5, zones))
    return feds


def test_bench_from_constraints(benchmark):
    constraints = [(1, 0, le(9)), (0, 1, le(-2)), (2, 1, le(4)), (3, 0, le(20))]
    result = benchmark(DBM.from_constraints, 5, constraints)
    assert not result.is_empty()


def test_bench_intersection(benchmark, zone_pool):
    def run():
        acc = 0
        for a, b in zip(zone_pool, zone_pool[1:]):
            if not a.intersect(b).is_empty():
                acc += 1
        return acc

    assert benchmark(run) >= 0


def test_bench_up_down(benchmark, zone_pool):
    def run():
        for z in zone_pool:
            z.up()
            z.down()

    benchmark(run)


def test_bench_reset(benchmark, zone_pool):
    def run():
        for z in zone_pool:
            z.reset([1, 2])

    benchmark(run)


def test_bench_inclusion(benchmark, zone_pool):
    def run():
        hits = 0
        for a in zone_pool[:16]:
            for b in zone_pool[:16]:
                if a.includes(b):
                    hits += 1
        return hits

    assert benchmark(run) >= 16  # reflexive hits at least


def test_bench_subtraction(benchmark, zone_pool):
    from repro.dbm import subtract_zone

    def run():
        pieces = 0
        for a, b in zip(zone_pool[:24], zone_pool[1:25]):
            pieces += len(subtract_zone(a, b))
        return pieces

    assert benchmark(run) >= 0


def test_bench_federation_subtract(benchmark, federation_pool):
    def run():
        total = 0
        for f1, f2 in zip(federation_pool, federation_pool[1:]):
            total += len(f1.subtract(f2))
        return total

    assert benchmark(run) >= 0


def test_bench_federation_includes(benchmark, federation_pool):
    def run():
        hits = 0
        for f1 in federation_pool[:8]:
            for f2 in federation_pool[:8]:
                if f1.includes(f2):
                    hits += 1
        return hits

    assert benchmark(run) >= 8


def test_bench_predt(benchmark, federation_pool):
    def run():
        total = 0
        for goal, bad in zip(federation_pool[:8], federation_pool[1:9]):
            total += len(predt(goal, bad))
        return total

    assert benchmark(run) >= 0


def test_bench_sample(benchmark, zone_pool):
    def run():
        for z in zone_pool:
            z.sample()

    benchmark(run)


# ----------------------------------------------------------------------
# Kernel microbenches, per active backend
# ----------------------------------------------------------------------
#
# These exercise the kernels the pluggable backends
# (``REPRO_KERNEL_BACKEND``) implement, at the sizes that bracket real
# workloads: k=4 (just past the dispatch threshold), k=32 (a large
# estimate closure), k=256 (stress).  The
# active backend name and the ``dbm.backend_*`` dispatch counters land
# in ``extra_info`` so saved JSONs are comparable across backends.

KERNEL_KS = [4, 32, 256]


def _record_backend(benchmark):
    benchmark.extra_info["kernel_backend"] = kernel_backends.active().name
    for name, value in sorted(counters.export()["counts"].items()):
        if name.startswith("dbm.backend_"):
            benchmark.extra_info[name] = value


@pytest.fixture(scope="module")
def kernel_stacks():
    """Per k: (canonical stack, de-canonicalised raw copy) of dim-5 zones."""
    rng = random.Random(90)
    out = {}
    for k in KERNEL_KS:
        zones = []
        while len(zones) < k:
            zone = random_zone(rng)
            if not zone.is_empty():
                zones.append(zone)
        stack = sk.stack_of(zones)
        raw = stack.copy()
        for _ in range(k):  # random tightenings give close() real work
            x = rng.randrange(k)
            i = rng.randrange(5)
            j = rng.randrange(5)
            if i != j:
                raw[x, i, j] = (rng.randint(-4, 10) << 1) | 1
        out[k] = (stack, raw)
    return out


@pytest.mark.parametrize("k", KERNEL_KS, ids=[f"k{k}" for k in KERNEL_KS])
def test_bench_kernel_close(benchmark, kernel_stacks, k):
    _, raw = kernel_stacks[k]

    def run():
        return sk.close(raw.copy())

    keep = benchmark(run)
    assert keep.shape == (k,)
    _record_backend(benchmark)


# ----------------------------------------------------------------------
# Fault-probe controls
# ----------------------------------------------------------------------
#
# The chaos fabric (repro.faults) plants probes on hot paths — one per
# guarded kernel call, one per server frame.  These paired controls
# price the probe itself: ``disarmed`` is the default no-plan path (a
# module-global load plus an ``is None`` test), ``armed_idle`` arms a
# plan whose only rule matches no benchmarked site, so the per-site
# match cache is exercised without a fault ever firing.  The mode lands
# in ``extra_info`` and ``bench_delta.py`` compares each pair, warning
# when the armed-idle overhead exceeds the noise threshold.

FAULT_MODES = ["disarmed", "armed_idle"]
IDLE_PLAN = "bench.never.fires:*"


def test_bench_fault_probe_disarmed(benchmark):
    """The bare disarmed probe, 1024 back-to-back calls: the price every
    guarded kernel call / server frame pays when no plan is armed.  Not
    paired with an armed mode — a bare-probe microbench would amplify
    the (still nanosecond-scale) armed match path far past the noise
    threshold; the real-work controls below carry that comparison."""
    with faults.injected(None):

        def run():
            fired = 0
            for _ in range(1024):
                if faults.should_fire("dbm.cext.compute"):
                    fired += 1
            return fired

        assert benchmark(run) == 0


@pytest.mark.parametrize("mode", FAULT_MODES)
def test_bench_kernel_close_fault_control(benchmark, kernel_stacks, mode):
    """Real guarded-kernel work (close at k=32) under each probe mode."""
    _, raw = kernel_stacks[32]
    with faults.injected(IDLE_PLAN if mode == "armed_idle" else None):
        keep = benchmark(lambda: sk.close(raw.copy()))
    assert keep.shape == (32,)
    benchmark.extra_info["faults_mode"] = mode
    _record_backend(benchmark)


@pytest.mark.parametrize("k", KERNEL_KS, ids=[f"k{k}" for k in KERNEL_KS])
def test_bench_kernel_hidden_post_step(benchmark, kernel_stacks, k):
    """One hidden move's delayed post over k state-estimate members: a
    ``zone_successor`` call per zone on one compiled plan, as in the
    estimator's closure."""
    stack, _ = kernel_stacks[k]
    zones = list(stack)
    plan = MovePlan(
        ((1, 0, le(12)), (0, 2, le(-1))), ((2, 0), (3, 1)), ((1, 0, le(30)),),
        True,
    )

    def run():
        successor = kernel_backends.active().zone_successor
        return [successor(m, plan) for m in zones]

    posts = benchmark(run)
    assert len(posts) == k
    _record_backend(benchmark)
