"""``serve``: online test sessions over TCP against ``repro.server``.

The server (``TestServer`` with its default configuration: virtual
clock) and the load generator share this process's asyncio loop; they
talk over loopback TCP, so every frame goes through the server's
connection handler, codec and registry.  ``CONNECTIONS`` persistent
connection(s) run back-to-back Smart Light sessions in a closed loop.  A
server in a second process made every frame a wake-up across CPUs, and
the throughput followed the host's wake-up latency: on a 2-vCPU Xeon
virtual machine, alternating 8-second runs gave 187-254 sessions/s with
the server in a subprocess and 259-307 with it in this loop.  One
connection, because with two the sessions of both interleave on the
loop and a session's latency depends on which cell the other one runs
(the median moved 9% between the 45th and the 55th percentile).  The
simulated implementation under test cycles, in a seed-chosen order,
through a fixed 9 x 5 table: the correct plant and the eight Ext-A
mutants, under five output policies.
Every verdict must match ``expected_verdicts.json``; that table comes
from the in-process executor (``python3 perfbench/wl_serve.py`` prints
it again).
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import statistics
import sys
import time

import layers
from common import (
    SRC,
    check_work_counts,
    sample_line,
    self_cpu_s,
    self_peak_rss_mb,
)

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = {"model": "smartlight"}
CONNECTIONS = 1
#: The eight Ext-A Smart Light mutants: name, operator, parameters.
MUTANTS = (
    ("wrong-output-L1", "swap_output_channel",
     {"new_channel": "bright", "automaton": "IUT", "source": "L1", "sync": "dim!"}),
    ("wrong-output-L6", "swap_output_channel",
     {"new_channel": "dim", "automaton": "IUT", "source": "L6", "sync": "bright!"}),
    ("late-L6", "widen_invariant",
     {"automaton": "IUT", "location": "L6", "delta": 2}),
    ("missing-bright-L6", "drop_edge",
     {"automaton": "IUT", "source": "L6", "sync": "bright!"}),
    ("late-L2", "widen_invariant",
     {"automaton": "IUT", "location": "L2", "delta": 2}),
    ("early-L1", "widen_invariant",
     {"automaton": "IUT", "location": "L1", "delta": -1}),
    ("idle-threshold-off-by-one", "shift_guard_constant",
     {"delta": -1, "automaton": "IUT", "source": "Off", "target": "L5"}),
    ("retarget-bright-to-off", "retarget_edge",
     {"new_target": "Off", "automaton": "IUT", "source": "L6", "sync": "bright!"}),
)
POLICIES = ("eager", "lazy", "quiescent", "random:0", "random:1")


def implementations() -> dict:
    """Implementation name -> plant ``System`` (correct one first)."""
    from repro.models.smartlight import smartlight_plant
    from repro.semantics.system import System
    from repro.testing.mutants import MutantSpec

    systems = {"correct": System(smartlight_plant())}
    for name, operator, params in MUTANTS:
        mutant = MutantSpec.make(name, operator, **params).build(
            smartlight_plant()
        )
        systems[name] = System(mutant.network)
    return systems


def make_policy(name: str):
    from repro.testing import EagerPolicy, LazyPolicy, QuiescentPolicy, RandomPolicy

    if name.startswith("random:"):
        return RandomPolicy(int(name.split(":", 1)[1]))
    return {"eager": EagerPolicy, "lazy": LazyPolicy, "quiescent": QuiescentPolicy}[
        name
    ]()


def inprocess_verdicts() -> dict:
    """The 45-cell table from the in-process executor."""
    from repro.server.registry import SpecResolver
    from repro.testing import SimulatedImplementation, TestExecutor

    bundle = SpecResolver().resolve(SPEC)
    table = {}
    for impl, system in implementations().items():
        for policy in POLICIES:
            imp = SimulatedImplementation(system, make_policy(policy))
            run = TestExecutor(bundle.strategy, bundle.plant, imp).run()
            table[f"{impl}/{policy}"] = run.verdict
    return table


def _client_class():
    from repro.server import IUTClient

    class CountingClient(IUTClient):
        """Counts frames and times each send -> next frame round trip."""

        def __init__(self, reader, writer):
            super().__init__(reader, writer)
            self.frames = 0
            self.round_trips: list = []
            self._sent_at = None

        async def _send(self, frame: dict) -> None:
            self.frames += 1
            await super()._send(frame)
            self._sent_at = time.perf_counter()

        async def _read(self):
            frame = await super()._read()
            if frame is not None:
                self.frames += 1
                if self._sent_at is not None:
                    self.round_trips.append(
                        (time.perf_counter() - self._sent_at) * 1000
                    )
                    self._sent_at = None
            return frame

    return CountingClient


class Serve:
    name = "serve"

    def __init__(self, seed: int):
        from repro.testing import SimulatedImplementation

        self.seed = seed
        self.Imp = SimulatedImplementation
        self.Client = _client_class()
        self.systems = implementations()
        with open(os.path.join(HERE, "expected_verdicts.json")) as handle:
            self.expected = json.load(handle)
        self.order = sorted(self.expected)
        random.Random(seed).shuffle(self.order)
        self.server = None
        self.loop = asyncio.new_event_loop()
        try:
            self.loop.run_until_complete(self._start())
        except BaseException:
            self.close()
            raise

    # -- the server, on this process's event loop ------------------------

    async def _start(self) -> None:
        """Start the server and run the first session, which synthesizes
        the strategy bundle."""
        from repro.server import ServerConfig, TestServer

        self.server = TestServer(ServerConfig())
        await self.server.start()
        self.address = self.server.address
        first = await self._one_session("correct/eager")
        if first.get("verdict") != self.expected["correct/eager"]:
            raise RuntimeError(f"first session ended {first!r}")

    async def _stop(self) -> None:
        if self.server is not None:
            server, self.server = self.server, None
            await server.drain(grace=1.0)
            await server.close()
        await self.loop.shutdown_default_executor()

    # -- sessions ---------------------------------------------------------

    async def _one_session(self, cell: str) -> dict:
        async with await self.Client.connect(*self.address) as client:
            return await self._session(client, cell)

    async def _session(self, client, cell: str) -> dict:
        impl, policy = cell.split("/")
        imp = self.Imp(self.systems[impl], make_policy(policy))
        return await client.run_session(imp, SPEC)

    async def _drive(self, seconds: float, speed):
        results = []
        round_trips: list = []
        cursor = [0]
        deadline = time.perf_counter() + seconds

        async def connection():
            async with await self.Client.connect(*self.address) as client:
                client.round_trips = round_trips
                while time.perf_counter() < deadline:
                    speed.between_ops(len(results))
                    cell = self.order[cursor[0] % len(self.order)]
                    cursor[0] += 1
                    frames = client.frames
                    start = time.perf_counter()
                    frame = await self._session(client, cell)
                    elapsed = (time.perf_counter() - start) * 1000
                    results.append((cell, frame, elapsed, client.frames - frames))

        start = time.perf_counter()
        await asyncio.gather(*(connection() for _ in range(CONNECTIONS)))
        return results, round_trips, time.perf_counter() - start - speed.spent

    def measure(self, seconds: float, speed, tracer=None) -> dict:
        cpu = self_cpu_s()
        results, round_trips, elapsed = self.loop.run_until_complete(
            self._drive(seconds, speed)
        )
        cpu = self_cpu_s() - cpu
        totals = layers.layer_totals(tracer.snapshot()) if tracer else {}

        failed = 0
        cells: dict = {}
        histogram: dict = {}
        flags = []
        for cell, frame, _, frames in results:
            verdict = frame.get("verdict") if frame.get("type") == "verdict" else None
            if verdict != self.expected[cell] or frame.get("evicted"):
                failed += 1
                print(f"serve: {cell} ended {frame!r}")
            histogram[verdict] = histogram.get(verdict, 0) + 1
            seen = cells.setdefault(cell, [verdict, frames])
            if seen != [verdict, frames]:
                flags.append(f"{cell} work differs between sessions")
        flags += [
            f"{key} work differs from the previous run"
            for key in check_work_counts(self.name, self.seed, cells)
        ]
        sessions = len(results)
        session_ms = [r[2] for r in results]
        frames_total = sum(r[3] for r in results)
        return {
            "attempted": sessions,
            "failed": failed,
            "ops": sessions,
            "throughput_per_s": sessions / elapsed,
            "op_p50_ms": statistics.median(session_ms) if session_ms else 0.0,
            "flags": flags,
            "busy_ms": cpu * 1000,
            "peak_rss_mb": self_peak_rss_mb(),
            "layer_totals": totals,
            "extra_layer": {
                "serve.cpu_ms_per_session": cpu * 1000 / max(1, sessions),
                "server.frames_per_session": frames_total / max(1, sessions),
            },
            "lines": [
                sample_line("op_p50_ms (one session)", session_ms),
                sample_line("observe (frame round trip)", round_trips),
                f"  connections={CONNECTIONS} sessions={sessions}"
                f" cycles={sessions / len(self.order):.2f} frames={frames_total}"
                f" verdicts={histogram}",
                f"  cpu per session (server and client): "
                f"{cpu * 1000 / max(1, sessions):.3f} ms",
            ],
        }

    def close(self) -> None:
        if self.loop is None:
            return
        try:
            self.loop.run_until_complete(self._stop())
        finally:
            self.loop.close()
            self.loop = None


if __name__ == "__main__":
    sys.path.insert(0, SRC)
    print(json.dumps(inprocess_verdicts(), indent=1, sort_keys=True))
