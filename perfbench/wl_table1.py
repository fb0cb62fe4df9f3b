"""``table1``: the paper's Table 1 strategy synthesis, closed loop, 1 thread.

One round is two solves in a seed-chosen order: ``otf`` (on-the-fly
solving of LEP TP2 n=6) and ``exhaustive`` (two-phase solving of LEP TP1
n=3, the solver the server and the campaigns run).  Every solve builds
``System(lep_network(n))`` and parses its query afresh.  The inputs are
the paper's fixed cells; the seed only picks which kind runs first.
"""

from __future__ import annotations

import statistics
import time

import layers
from common import check_work_counts, sample_line, self_peak_rss_mb
from repro.game import solver
from repro.models import lep
from repro.semantics import system
from repro.tctl import query
from repro.util import counters

#: kind -> (test purpose, LEP size, solver class name, expected nodes)
KINDS = {
    "otf": ("TP2", 6, "OnTheFlySolver", 1931),
    "exhaustive": ("TP1", 3, "TwoPhaseSolver", 761),
}
COUNTED = ("solver.updates", "solver.update_skipped", "dbm.closures")


class Table1:
    name = "table1"

    def __init__(self, seed: int):
        self.seed = seed
        self.order = ("otf", "exhaustive") if seed % 2 == 0 else (
            "exhaustive", "otf"
        )
        for kind in self.order:  # warm-up: one op of each kind
            self.solve(kind)

    def solve(self, kind: str):
        """One op; returns (seconds, winning, work counts)."""
        tp, n, solver_name, _ = KINDS[kind]
        before = counters.export()
        start = time.perf_counter()
        # Looked up through the modules at call time, so the layer
        # wrappers of a traced run are the ones called.
        arena = system.System(lep.lep_network(n))
        purpose = query.parse_query(lep.TEST_PURPOSES[tp])
        result = getattr(solver, solver_name)(arena, purpose).solve()
        elapsed = time.perf_counter() - start
        delta = counters.diff(before, counters.export())
        work = {"nodes": result.nodes_explored}
        for key in COUNTED:
            work[key] = delta.get(key, 0)
        return elapsed, result.winning, work

    def measure(self, seconds: float, speed, tracer=None) -> dict:
        times = {kind: [] for kind in KINDS}
        rounds = []
        works = {kind: [] for kind in KINDS}
        attempted = failed = 0
        op = 0
        start = time.perf_counter()
        deadline = start + seconds
        while time.perf_counter() < deadline:
            speed.between_ops(attempted)
            round_s = 0.0
            for kind in self.order:
                op += 1
                if tracer is not None:
                    tracer.op = op
                attempted += 1
                try:
                    elapsed, winning, work = self.solve(kind)
                except Exception as exc:  # a crash is a failed op
                    print(f"table1: {kind} solve raised {exc!r}")
                    failed += 1
                    continue
                round_s += elapsed
                if not winning:
                    failed += 1
                times[kind].append(elapsed * 1000)
                works[kind].append(work)
            rounds.append(round_s * 1000)
        elapsed = time.perf_counter() - start - speed.spent
        counts, flags = {}, []
        for kind, rows in works.items():
            distinct = {tuple(sorted(w.items())) for w in rows}
            if len(distinct) > 1:
                flags.append(f"{kind} work differs between ops: {distinct}")
            if rows:
                counts[kind] = rows[0]
                if rows[0]["nodes"] != KINDS[kind][3]:
                    flags.append(
                        f"{kind} explored {rows[0]['nodes']} nodes,"
                        f" expected {KINDS[kind][3]}"
                    )
        flags += [
            f"{key} work differs from the previous run"
            for key in check_work_counts(self.name, self.seed, counts)
        ]
        solves = sum(len(v) for v in times.values())
        updates = sum(w["solver.updates"] for rows in works.values() for w in rows)
        skipped = sum(
            w["solver.update_skipped"] for rows in works.values() for w in rows
        )
        return {
            "attempted": attempted,
            "failed": failed,
            "ops": solves,
            "throughput_per_s": solves / elapsed,
            "op_p50_ms": statistics.median(rounds) if rounds else 0.0,
            "flags": flags,
            "busy_ms": sum(rounds),
            "peak_rss_mb": self_peak_rss_mb(),
            "layer_totals": (
                layers.layer_totals(tracer.snapshot()) if tracer else {}
            ),
            "extra_layer": {
                "game.update_skip_ratio": skipped / max(1, updates + skipped),
            },
            "lines": [
                sample_line("otf_solve_p50_ms", times["otf"]),
                sample_line("exhaustive_solve_p50_ms", times["exhaustive"]),
                sample_line("op_p50_ms (one round)", rounds),
                f"  work per op: {counts}",
            ],
        }

    def close(self) -> None:
        pass
