"""One benchmark command over three workloads: ``table1``, ``serve``, ``fuzz``.

    python3 perfbench/run.py --workload table1 --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
``--trace 0`` measures the end-to-end metrics with no tracing; their
timings are scaled to a reference host speed by a probe that runs between
ops (see ``perfbench/README.md``).
``--trace 1`` measures the workload untraced for half the time, then for
the other half with the layer wrappers of ``layers.py`` installed, and
reports the per-layer metrics (per op) and the tracing overhead.  Readable lines come first; the last
line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The run fails (exit code 1, ``"correct": false``) when a correctness gate
fails, and exits with code 2 without a result when ``src/repro`` is
missing.  Everything a run writes goes to ``.perfbench_out/``.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

END_TO_END = {
    "throughput_per_s": "1/s",
    "op_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
#: Per-layer metrics, per op, reported by every ``--trace 1`` run (0 where
#: the workload does not use the layer).
PER_LAYER = {
    "dbm.self_ms": "ms", "dbm.calls": "count",
    "dbm.stack.self_ms": "ms", "dbm.stack.calls": "count",
    "semantics.self_ms": "ms", "semantics.calls": "count",
    "semantics.estimate.self_ms": "ms",
    "graph.self_ms": "ms", "graph.nodes": "count",
    "game.fixpoint.self_ms": "ms", "game.predt.self_ms": "ms",
    "game.strategy.self_ms": "ms", "game.update_skip_ratio": "ratio",
    "testing.session.self_ms": "ms", "testing.monitor.self_ms": "ms",
    "testing.iut.self_ms": "ms",
    "serve.cpu_ms_per_session": "ms", "server.wire.self_ms": "ms",
    "server.frames_per_session": "count",
    "par.tasks": "count", "par.busy_share": "ratio", "par.retries": "count",
    "gen.check.solvers.ms": "ms", "gen.check.semantics.ms": "ms",
    "gen.check.conformance.ms": "ms", "gen.check.composition.ms": "ms",
    "gen.check.estimate.ms": "ms", "gen.check.warmstart.ms": "ms",
    "gen.check.kernel.ms": "ms", "gen.check.faults.ms": "ms",
    "gen.generate.ms": "ms", "model.build_ms": "ms",
    "trace.unattributed_ms": "ms", "trace.overhead_pct": "%",
    "host.probe_ms": "ms",
}
SETUP_SAMPLES = 3
#: The host speed every end-to-end timing is scaled to: a host on which
#: one ``common.probe_once_ms`` takes this many ms.
PROBE_REF_MS = 5.0


def make_workload(name: str, seed: int):
    if name == "table1":
        from wl_table1 import Table1

        return Table1(seed)
    if name == "serve":
        from wl_serve import Serve

        return Serve(seed)
    from wl_fuzz import Fuzz

    return Fuzz(seed)


def setup_in_subprocess(workload: str, seed: int) -> tuple:
    """One more set-up sample, in a fresh interpreter: (seconds, probe ms
    right after it)."""
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        check=True, capture_output=True, text=True, timeout=170,
    ).stdout
    sample = json.loads(out.strip().splitlines()[-1])
    return sample["setup_s"], sample["probe_ms"]


def skip_ratio(before: dict, after: dict) -> float:
    def delta(key):
        return after["counts"].get(key, 0) - before["counts"].get(key, 0)

    skipped = delta("solver.update_skipped")
    return skipped / max(1, skipped + delta("solver.updates"))


def per_layer(traced: dict, untraced: dict, before: dict, after: dict,
              probe: float) -> dict:
    import layers

    ops = max(1, traced["ops"])
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    metrics.update(layers.layer_metrics(traced["layer_totals"], ops))
    metrics["game.update_skip_ratio"] = skip_ratio(before, after)
    metrics.update(traced["extra_layer"])
    attributed = layers.attributed_ns(traced["layer_totals"]) / 1e6
    metrics["trace.unattributed_ms"] = (traced["busy_ms"] - attributed) / ops
    metrics["trace.overhead_pct"] = (
        traced["op_p50_ms"] / untraced["op_p50_ms"] - 1
    ) * 100
    metrics["host.probe_ms"] = probe
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("table1", "serve", "fuzz"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: program sources not found under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import common

    # Everything the program writes stays inside the checkout: the
    # compiled-kernel cache of the ``kernel`` check and the temporary
    # directories of the ``faults`` check (inherited by every subprocess).
    os.makedirs(os.path.join(common.OUT, "tmp"), exist_ok=True)
    os.environ["REPRO_KERNEL_CACHE"] = os.path.join(common.OUT, "kernels")
    os.environ["TMPDIR"] = os.path.join(common.OUT, "tmp")
    import layers
    from tracer import Tracer

    setups = SETUP_SAMPLES if args.trace == 0 else 1
    workload = make_workload(args.workload, args.seed)
    try:
        main_setup = time.perf_counter() - T0
        probes = [common.host_probe_ms()]
        if args.setup_only:
            print(json.dumps({"setup_s": main_setup, "probe_ms": probes[0]}))
            return 0
        samples = [(main_setup, probes[0])] + [
            setup_in_subprocess(args.workload, args.seed)
            for _ in range(setups - 1)
        ]
        from repro.util import counters

        phase = args.seconds / 2 if args.trace else args.seconds
        speed = common.HostSpeed()
        result = workload.measure(phase, speed)
        probes.append(common.host_probe_ms())
        traced = None
        if args.trace:
            tracer = Tracer()
            layers.install(tracer)
            before = counters.export()
            traced = workload.measure(phase, common.HostSpeed(), tracer)
            after = counters.export()
            probes.append(common.host_probe_ms())
            os.makedirs(common.OUT, exist_ok=True)
            tracer.dump(os.path.join(
                common.OUT, f"spans-{args.workload}-{args.seed}.json.gz"
            ))
    finally:
        workload.close()

    print(f"perfbench {args.workload} seed={args.seed}"
          f" seconds={args.seconds:g} trace={args.trace}")
    print("  setup samples (s): "
          + ", ".join(f"{s:.3f} (probe {p:.3f} ms)" for s, p in samples))
    print("  host.probe_ms: " + ", ".join(f"{p:.3f}" for p in probes))
    for line in result["lines"]:
        print(line)
    for flag in result["flags"] + (traced["flags"] if traced else []):
        print(f"  FLAG: {flag}")
    attempted = result["attempted"] + (traced["attempted"] if traced else 0)
    failed = result["failed"] + (traced["failed"] if traced else 0)
    if traced is None:
        # Host speed relative to the reference, from the probes taken
        # during the timed window (> 1: this host ran slower); a window too
        # short for two spans falls back to the probes around it.
        slow = statistics.median(speed.samples or probes) / PROBE_REF_MS
        throughput = statistics.median(
            speed.rates or [result["throughput_per_s"]]
        )
        print(f"  as measured: throughput_per_s {throughput:.4f}"
              f" (whole window {result['throughput_per_s']:.4f},"
              f" {len(speed.rates)} spans),"
              f" op_p50_ms {result['op_p50_ms']:.4f},"
              f" setup_s {statistics.median(s for s, _ in samples):.4f};"
              f" host {slow:.3f}x the reference probe time")
        values = {
            "throughput_per_s": throughput * slow,
            "op_p50_ms": result["op_p50_ms"] / slow,
            "setup_s": statistics.median(
                s * PROBE_REF_MS / p for s, p in samples
            ),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        units = END_TO_END
    else:
        for line in traced["lines"]:
            print("  traced" + line)
        values = per_layer(traced, result, before, after,
                           statistics.median(probes))
        units = PER_LAYER
    for name, value in values.items():
        print(f"  {name:28s} {value:14.4f} {units[name]}")
    correct = failed == 0 and attempted > 0
    print(f"  attempted={attempted} failed={failed} correct={correct}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in values.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
