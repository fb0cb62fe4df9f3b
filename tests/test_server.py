"""The online test server: protocol, clocks, registry, and loopback runs.

The load-bearing property is *verdict parity*: the network server and
the in-process executor are two drivers over the same sans-IO session,
so a loopback run of a simulated implementation must produce exactly the
in-process verdict/reason/trace — for every generator family, including
the INCONCLUSIVE-on-EstimateLimit path.  On top of that: wire robustness
(malformed, truncated, oversized, out-of-order frames cost one session,
never the server), the global state budget with LRU eviction, and
per-session op-counter scoping.
"""

import asyncio
import sys
from fractions import Fraction

import pytest

from repro.gen.networks import DEFAULT_FAMILIES, generate_instance
from repro.semantics import compose
from repro.semantics.system import System
from repro.server import (
    IUTClient,
    ServerConfig,
    TestServer,
    run_remote_test,
)
from repro.server.client import _TERMINAL_WORDS, _terminal
from repro.server.clocks import RealTimeClock, VirtualClock, make_clock
from repro.server.protocol import (
    MAX_FRAME_BYTES,
    ProtocolError,
    decode_frame,
    encode_delay,
    encode_frame,
    parse_delay,
    updates_from_wire,
    updates_to_wire,
)
from repro.server.registry import SessionRegistry, SpecResolver
from repro.testing import (
    EagerPolicy,
    LazyPolicy,
    RandomPolicy,
    SessionConfig,
    SimulatedImplementation,
    execute_test,
)
from repro.util import counters


def sync(coro):
    return asyncio.run(coro)


# ----------------------------------------------------------------------
# Protocol units
# ----------------------------------------------------------------------


class TestProtocol:
    def test_frame_roundtrip(self):
        frame = {"type": "wait", "deadline": "5/2", "session": 3}
        assert decode_frame(encode_frame(frame).rstrip(b"\n")) == frame

    def test_delay_roundtrip(self):
        for d in (Fraction(0), Fraction(7), Fraction(3, 2)):
            assert parse_delay(encode_delay(d)) == d

    def test_delay_rejects_junk(self):
        for bad in (1.5, None, "abc", "-1", "1/0", ["1"]):
            with pytest.raises(ProtocolError):
                parse_delay(bad)

    def test_decode_rejects_non_objects(self):
        for bad in (b"[1,2]", b'"x"', b"42", b"{}", b'{"type": 3}'):
            with pytest.raises(ProtocolError):
                decode_frame(bad)

    def test_decode_rejects_oversized(self):
        huge = encode_frame({"type": "x", "pad": "y" * MAX_FRAME_BYTES})
        with pytest.raises(ProtocolError, match="exceeds"):
            decode_frame(huge)

    def test_decode_does_not_intern(self):
        # Interned strings can outlive every frame (on CPython 3.12 they
        # are never freed), so text a peer chooses must stay private to
        # the frame it came in.
        key = sys.intern("".join(["x-", "unknown"]))
        delay = sys.intern("".join(["37", "/", "12"]))
        line = encode_frame({"type": "quiet", key: 1, "delay": delay})
        frame = decode_frame(line.rstrip(b"\n"))
        assert frame == {"type": "quiet", key: 1, "delay": delay}
        assert frame["delay"] is not delay
        assert all(k is not key for k in frame)

    def test_updates_roundtrip(self):
        updates = [("flag", None, 1), ("buf", 2, 7)]
        assert updates_from_wire(updates_to_wire(updates)) == updates
        assert updates_from_wire(None) == []

    def test_updates_reject_junk(self):
        for bad in ("x", [["a", 0]], [["a", "b", 1]], [[1, None, 2]]):
            with pytest.raises(ProtocolError):
                updates_from_wire(bad)


class TestTerminalFrame:
    def test_known_words_shared_other_text_kept(self):
        size = len(_TERMINAL_WORDS)
        decoded = decode_frame(
            encode_frame(
                {
                    "type": "verdict",
                    "session": 4,
                    "verdict": "fail",
                    "reason": "unexpected output bright! at 3/2",
                    "trace": "1 . touch? . 3/2 . bright!",
                    "x-extra": "y",
                }
            ).rstrip(b"\n")
        )
        frame = _terminal(decoded)
        assert frame == decoded
        for key, value in frame.items():
            if key in _TERMINAL_WORDS:
                assert key is _TERMINAL_WORDS[key]
        assert frame["type"] is _TERMINAL_WORDS["verdict"]
        assert frame["verdict"] is _TERMINAL_WORDS["fail"]
        assert frame["reason"] is decoded["reason"]
        assert frame["trace"] is decoded["trace"]
        assert [k for k in frame if k == "x-extra"][0] is [
            k for k in decoded if k == "x-extra"
        ][0]
        assert len(_TERMINAL_WORDS) == size


class TestClocks:
    def test_make_clock(self):
        assert isinstance(make_clock("virtual"), VirtualClock)
        assert isinstance(make_clock("realtime"), RealTimeClock)
        with pytest.raises(ValueError):
            make_clock("warped")

    def test_virtual_passthrough(self):
        async def recv():
            return {"type": "quiet", "delay": "1"}

        frame = sync(VirtualClock().observe(recv, Fraction(1)))
        assert frame == {"type": "quiet", "delay": "1"}

    def test_virtual_timeout_guard(self):
        async def never():
            await asyncio.sleep(30)

        clock = VirtualClock(observe_timeout=0.01)
        with pytest.raises(ProtocolError, match="no wait frame"):
            sync(clock.observe(never, Fraction(1)))

    def test_realtime_synthesizes_quiet(self):
        async def never():
            await asyncio.sleep(30)

        clock = RealTimeClock(timescale=0.01)
        frame = sync(clock.observe(never, Fraction(2)))
        assert frame == {"type": "quiet", "delay": "2"}

    def test_realtime_stamps_output(self):
        async def fast():
            return {"type": "output", "delay": "999", "label": "a"}

        clock = RealTimeClock(timescale=0.05, resolution=Fraction(1))
        frame = sync(clock.observe(fast, Fraction(10)))
        # The client's claimed delay is ignored; the stamp is measured
        # (instant here) and quantized to the resolution grid.
        assert frame["label"] == "a"
        assert parse_delay(frame["delay"]) == 0

    def test_quantize_clamps(self):
        clock = RealTimeClock(timescale=1.0, resolution=Fraction(1, 2))
        assert clock._quantize(0.77, Fraction(10)) == Fraction(1)
        assert clock._quantize(99.0, Fraction(3)) == Fraction(3)
        assert clock._quantize(-0.1, Fraction(3)) == Fraction(0)


# ----------------------------------------------------------------------
# Registry units
# ----------------------------------------------------------------------


class TestRegistry:
    def test_admit_release(self):
        reg = SessionRegistry(max_sessions=4, max_total_states=100)
        h = reg.admit(lambda reason: None)
        assert len(reg) == 1 and reg.total_states == 1
        reg.release(h)
        assert len(reg) == 0 and reg.total_states == 0
        assert reg.stats.finished == 1

    def test_session_cap_evicts_lru(self):
        evicted = []
        reg = SessionRegistry(max_sessions=2, max_total_states=100)
        a = reg.admit(lambda r: evicted.append(("a", r)))
        b = reg.admit(lambda r: evicted.append(("b", r)))
        reg.touch(a, 1)  # a is now more recent than b
        reg.admit(lambda r: evicted.append(("c", r)))
        assert [name for name, _ in evicted] == ["b"]
        assert "session cap" in evicted[0][1]
        assert b.evicted is not None

    def test_state_budget_evicts_lru(self):
        evicted = []
        reg = SessionRegistry(max_sessions=10, max_total_states=10)
        a = reg.admit(lambda r: evicted.append("a"))
        b = reg.admit(lambda r: evicted.append("b"))
        reg.touch(a, 4)
        reg.touch(b, 4)  # total 8, fits
        assert reg.total_states == 8
        reg.touch(b, 9)  # total 13 > 10: a (LRU) goes
        assert evicted == ["a"]
        assert reg.total_states == 9

    def test_offender_backpressured(self):
        evicted = []
        reg = SessionRegistry(max_sessions=10, max_total_states=10)
        a = reg.admit(lambda r: evicted.append(("a", r)))
        reg.touch(a, 50)  # alone over budget: the offender is cut
        assert [name for name, _ in evicted] == ["a"]
        assert "budget" in evicted[0][1]
        assert len(reg) == 0

    def test_touch_after_eviction_is_noop(self):
        reg = SessionRegistry(max_sessions=10, max_total_states=10)
        a = reg.admit(lambda r: None)
        reg.touch(a, 50)
        reg.touch(a, 3)  # already gone; must not resurrect
        assert len(reg) == 0 and reg.total_states == 0

    def test_resolver_caches(self):
        resolver = SpecResolver()
        b1 = resolver.resolve({"model": "smartlight"})
        b2 = resolver.resolve({"model": "smartlight"})
        assert b1 is b2
        assert len(resolver) == 1

    def test_resolved_bundle_passes_in_process(self):
        """The sans-IO executor alone, on the bundle the server would
        share: the Smart Light plant passes under either policy."""
        from repro.models.smartlight import smartlight_plant
        from repro.testing import TestExecutor

        bundle = SpecResolver().resolve({"model": "smartlight"})
        for policy in (EagerPolicy(), RandomPolicy(1)):
            imp = SimulatedImplementation(System(smartlight_plant()), policy)
            run = TestExecutor(bundle.strategy, bundle.plant, imp).run()
            assert run.verdict == "pass"

    def test_resolver_rejects_junk(self):
        resolver = SpecResolver()
        for bad in (
            {"model": "nope"},
            {"family": "random"},
            {"seed": "x"},
            {},
            "smartlight",
        ):
            with pytest.raises(ProtocolError):
                resolver.resolve(bad)


# ----------------------------------------------------------------------
# Loopback harness
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def server_state():
    """One started server shared by the loopback tests.

    Each test talks to it over fresh connections; sharing the resolver
    across tests also exercises cross-session bundle reuse.
    """
    loop = asyncio.new_event_loop()
    server = TestServer(ServerConfig())
    loop.run_until_complete(server.start())
    yield loop, server
    loop.run_until_complete(server.close())
    loop.close()


def loopback(server_state, imp, spec, *, config=None, profile=False):
    loop, server = server_state
    host, port = server.address

    async def go():
        async with await IUTClient.connect(host, port) as client:
            return await client.run_session(
                imp, spec, config=config, profile=profile
            )

    return loop.run_until_complete(go())


def make_imp(instance, policy):
    return SimulatedImplementation(System(instance.plant), policy)


PARITY_SEEDS = (0, 1, 2)


class TestVerdictParity:
    @pytest.mark.parametrize("family", DEFAULT_FAMILIES)
    def test_family_parity(self, server_state, family):
        """Loopback verdict == in-process verdict, per family, fixed seeds."""
        _, server = server_state
        for seed in PARITY_SEEDS:
            spec = {"family": family, "seed": seed}
            instance = generate_instance(seed, family)
            bundle = server.resolver.resolve(spec)
            for policy in (EagerPolicy(), RandomPolicy(seed & 0xFFFF)):
                fresh = (
                    RandomPolicy(seed & 0xFFFF)
                    if isinstance(policy, RandomPolicy)
                    else EagerPolicy()
                )
                local = execute_test(
                    bundle.strategy, bundle.plant, make_imp(instance, policy)
                )
                frame = loopback(
                    server_state, make_imp(instance, fresh), spec
                )
                assert frame["type"] == "verdict", frame
                assert frame["verdict"] == local.verdict
                assert frame["reason"] == local.reason
                assert frame["iterations"] == local.iterations
                assert frame["trace"] == str(local.trace)

    def test_estimate_limit_parity(self, server_state):
        """A blown state-estimate budget is INCONCLUSIVE on both paths."""
        _, server = server_state
        spec = {"family": "chain", "seed": 0}
        instance = generate_instance(0, "chain")
        bundle = server.resolver.resolve(spec)
        tiny = SessionConfig(max_states=1)
        local = execute_test(
            bundle.strategy,
            bundle.plant,
            make_imp(instance, EagerPolicy()),
            config=tiny,
        )
        assert local.verdict == "inconclusive"
        assert "state-estimate budget" in local.reason
        frame = loopback(
            server_state, make_imp(instance, EagerPolicy()), spec, config=tiny
        )
        assert frame["verdict"] == local.verdict
        assert frame["reason"] == local.reason
        assert frame["iterations"] == local.iterations == 0

    def test_smartlight_all_policies(self, server_state):
        from repro.models.smartlight import smartlight_plant

        _, server = server_state
        spec = {"model": "smartlight"}
        bundle = server.resolver.resolve(spec)
        for policy_factory in (
            EagerPolicy,
            LazyPolicy,
            lambda: RandomPolicy(11),
        ):
            local = execute_test(
                bundle.strategy,
                bundle.plant,
                SimulatedImplementation(
                    System(smartlight_plant()), policy_factory()
                ),
            )
            frame = loopback(
                server_state,
                SimulatedImplementation(
                    System(smartlight_plant()), policy_factory()
                ),
                spec,
            )
            assert (frame["verdict"], frame["reason"], frame["trace"]) == (
                local.verdict,
                local.reason,
                str(local.trace),
            )

    def test_sequential_sessions_one_connection(self, server_state):
        from repro.models.smartlight import smartlight_plant

        loop, server = server_state
        host, port = server.address

        async def go():
            async with await IUTClient.connect(host, port) as client:
                out = []
                for policy in (EagerPolicy(), LazyPolicy()):
                    imp = SimulatedImplementation(
                        System(smartlight_plant()), policy
                    )
                    out.append(
                        await client.run_session(imp, {"model": "smartlight"})
                    )
                return out

        frames = loop.run_until_complete(go())
        assert [f["verdict"] for f in frames] == ["pass", "pass"]
        # Distinct sessions, not one recycled
        assert frames[0]["session"] != frames[1]["session"]


# ----------------------------------------------------------------------
# Wire robustness: one bad peer never hurts the server or its neighbours
# ----------------------------------------------------------------------


def raw_exchange(server_state, payloads):
    """Open a raw connection, ship raw bytes, return all reply lines."""
    loop, server = server_state
    host, port = server.address

    async def go():
        reader, writer = await asyncio.open_connection(host, port)
        for payload in payloads:
            writer.write(payload)
            await writer.drain()
        writer.write_eof()
        lines = []
        while True:
            line = await reader.readline()
            if not line:
                break
            lines.append(decode_frame(line.rstrip(b"\n")))
        writer.close()
        return lines

    return loop.run_until_complete(go())


class TestWireRobustness:
    def check_alive(self, server_state):
        from repro.models.smartlight import smartlight_plant

        imp = SimulatedImplementation(System(smartlight_plant()), EagerPolicy())
        frame = loopback(server_state, imp, {"model": "smartlight"})
        assert frame["verdict"] == "pass"

    def test_malformed_json(self, server_state):
        (reply,) = raw_exchange(server_state, [b"this is not json\n"])
        assert reply["type"] == "error"
        assert "malformed" in reply["message"]
        self.check_alive(server_state)

    def test_truncated_frame(self, server_state):
        (reply,) = raw_exchange(server_state, [b'{"type":"hel'])
        assert reply["type"] == "error"
        self.check_alive(server_state)

    def test_oversized_frame(self, server_state):
        blob = b'{"type":"hello","pad":"' + b"x" * (MAX_FRAME_BYTES + 64)
        (reply,) = raw_exchange(server_state, [blob + b'"}\n'])
        assert reply["type"] == "error"
        assert "exceeds" in reply["message"]
        self.check_alive(server_state)

    def test_out_of_order_frames(self, server_state):
        (reply,) = raw_exchange(
            server_state,
            [encode_frame({"type": "output", "delay": "1", "label": "x"})],
        )
        assert reply["type"] == "error"
        assert "hello" in reply["message"]
        self.check_alive(server_state)

    def test_wrong_answer_to_wait(self, server_state):
        replies = raw_exchange(
            server_state,
            [
                encode_frame(
                    {"type": "hello", "spec": {"model": "smartlight"}}
                ),
                encode_frame({"type": "input-result", "accepted": True}),
            ],
        )
        # ready, the first wait, then the protocol error
        assert replies[0]["type"] == "ready"
        assert replies[-1]["type"] == "error"
        self.check_alive(server_state)

    def test_delay_beyond_deadline(self, server_state):
        replies = raw_exchange(
            server_state,
            [
                encode_frame(
                    {"type": "hello", "spec": {"model": "smartlight"}}
                ),
                encode_frame({"type": "quiet", "delay": "99999"}),
            ],
        )
        assert replies[-1]["type"] == "error"
        assert "deadline" in replies[-1]["message"]
        self.check_alive(server_state)

    def test_bad_spec_is_session_local(self, server_state):
        (reply,) = raw_exchange(
            server_state,
            [encode_frame({"type": "hello", "spec": {"model": "nope"}})],
        )
        assert reply["type"] == "error"
        self.check_alive(server_state)

    def test_bad_peer_does_not_corrupt_neighbour(self, server_state):
        """A session poisoned mid-run leaves a concurrent one untouched."""
        from repro.models.smartlight import smartlight_plant

        loop, server = server_state
        host, port = server.address

        async def bad_peer():
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(
                encode_frame(
                    {"type": "hello", "spec": {"model": "smartlight"}}
                )
            )
            await reader.readline()  # ready
            await reader.readline()  # first server frame
            writer.write(b"garbage mid-session\n")
            line = await reader.readline()
            writer.close()
            return decode_frame(line.rstrip(b"\n"))

        async def good_peer():
            imp = SimulatedImplementation(
                System(smartlight_plant()), LazyPolicy()
            )
            async with await IUTClient.connect(host, port) as client:
                return await client.run_session(imp, {"model": "smartlight"})

        async def both():
            return await asyncio.gather(bad_peer(), good_peer())

        bad, good = loop.run_until_complete(both())
        assert bad["type"] == "error"
        assert good["verdict"] == "pass"


# ----------------------------------------------------------------------
# Budget, eviction, concurrency, counter scoping
# ----------------------------------------------------------------------


def hold_session(host, port):
    """Open a session and park it on its first wait (never answer)."""

    async def go():
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(
            encode_frame({"type": "hello", "spec": {"model": "smartlight"}})
        )
        await reader.readline()  # ready
        await reader.readline()  # first wait
        return reader, writer

    return go


class TestAdmissionControl:
    def test_lru_eviction_over_the_wire(self):
        async def go():
            server = TestServer(
                ServerConfig(max_sessions=2, state_budget=1000)
            )
            await server.start()
            try:
                host, port = server.address
                r1, w1 = await hold_session(host, port)()
                r2, w2 = await hold_session(host, port)()
                # Third session: the first (LRU) one must be evicted.
                r3, w3 = await hold_session(host, port)()
                line = await asyncio.wait_for(r1.readline(), timeout=5)
                frame = decode_frame(line.rstrip(b"\n"))
                for w in (w1, w2, w3):
                    w.close()
                return frame, server.registry.stats.evicted
            finally:
                await server.close()

        frame, evicted = sync(go())
        assert frame["type"] == "verdict"
        assert frame["verdict"] == "inconclusive"
        assert frame.get("evicted") is True
        assert evicted == 1

    def test_state_budget_eviction_over_the_wire(self):
        async def go():
            # chain instances track symbolic estimates; a budget of 3
            # total states forces the older session out as the newer one
            # grows.
            server = TestServer(ServerConfig(state_budget=3))
            await server.start()
            try:
                host, port = server.address
                r1, w1 = await hold_session(host, port)()

                from repro.gen.networks import generate_instance

                instance = generate_instance(0, "chain")
                imp = make_imp(instance, EagerPolicy())
                async with await IUTClient.connect(host, port) as client:
                    frame = await client.run_session(
                        imp, {"family": "chain", "seed": 0}
                    )
                line = await asyncio.wait_for(r1.readline(), timeout=5)
                held = decode_frame(line.rstrip(b"\n"))
                w1.close()
                return held, frame, server.registry.stats.evicted
            finally:
                await server.close()

        held, frame, evicted = sync(go())
        # Either the parked session was evicted (chain grew past the
        # budget) or the runner itself got backpressured — but somebody
        # was, and the server stayed up.
        assert evicted >= 1
        assert held["type"] == "verdict" or frame.get("evicted")

    @staticmethod
    def smartlight_wave(count, config):
        """``count`` Smart Light sessions at once on one server."""
        from repro.models.smartlight import smartlight_plant

        async def go():
            server = TestServer(config)
            await server.start()
            try:
                host, port = server.address

                async def one(i):
                    imp = SimulatedImplementation(
                        System(smartlight_plant()), RandomPolicy(i)
                    )
                    async with await IUTClient.connect(host, port) as client:
                        return await client.run_session(
                            imp, {"model": "smartlight"}
                        )

                frames = await asyncio.gather(*(one(i) for i in range(count)))
                return frames, server.stats()
            finally:
                await server.close()

        return sync(go())

    def test_fifty_concurrent_sessions(self):
        frames, stats = self.smartlight_wave(50, ServerConfig())
        assert len(frames) == 50
        assert all(f["type"] == "verdict" for f in frames)
        assert all(f["verdict"] == "pass" for f in frames)
        assert stats["started"] == 50
        assert stats["finished"] == 50
        assert stats["bundles"] == 1  # one shared strategy, 50 sessions

    @pytest.mark.parametrize("concurrency", [10, 50, 200])
    def test_server_sessions(self, concurrency):
        """``concurrency`` sessions at once, under a global state budget
        of eight states per session (at least 1000), all PASS on one
        shared bundle."""
        frames, stats = self.smartlight_wave(
            concurrency,
            ServerConfig(
                max_sessions=4 * concurrency,
                state_budget=max(1000, concurrency * 8),
            ),
        )
        assert [f["verdict"] for f in frames] == ["pass"] * concurrency
        assert stats["bundles"] == 1

    def test_profile_counter_scoping(self):
        """Per-session profiles capture that session's symbolic ops."""

        async def go():
            server = TestServer(ServerConfig())
            await server.start()
            try:
                host, port = server.address
                instance = generate_instance(0, "chain")

                async def one():
                    imp = make_imp(instance, EagerPolicy())
                    async with await IUTClient.connect(host, port) as client:
                        return await client.run_session(
                            imp,
                            {"family": "chain", "seed": 0},
                            profile=True,
                        )

                return await asyncio.gather(one(), one())
            finally:
                await server.close()

        frames = sync(go())
        for frame in frames:
            assert frame["type"] == "verdict"
            profile = frame["profile"]
            # chain plants run under the symbolic estimate: DBM/zone ops
            # must have been charged to this session's own profile.
            assert profile, "estimated-monitor session produced no ops"
            assert all(v > 0 for v in profile.values())
        # Two sessions over the same spec do identical work: equal
        # profiles prove no cross-session leakage under interleaving.
        assert frames[0]["profile"] == frames[1]["profile"]

    def test_estimated_sessions_keep_the_step_table_bounded(self, monkeypatch):
        """Sessions on one bundle share its plant's estimator step table
        for the life of the server; it stays under its bound."""
        monkeypatch.setattr(compose, "STEP_TABLE_BOUND", 4)
        spec = {"family": "chain", "seed": 0}
        instance = generate_instance(0, "chain")

        async def go():
            server = TestServer(ServerConfig())
            await server.start()
            try:
                host, port = server.address
                sizes = []
                for seed in range(8):
                    imp = make_imp(instance, RandomPolicy(seed))
                    async with await IUTClient.connect(host, port) as client:
                        frame = await client.run_session(imp, spec)
                    assert frame["type"] == "verdict"
                    table = server.resolver.resolve(spec).plant.estimate_steps
                    sizes.append(len(table))
                return sizes
            finally:
                await server.close()

        evicted = counters.snapshot().get("estimate.steps_evicted", 0)
        sizes = sync(go())
        assert 0 < max(sizes) <= 4
        assert counters.snapshot().get("estimate.steps_evicted", 0) > evicted


class TestRunRemoteTest:
    def test_sync_wrapper(self):
        from repro.models.smartlight import smartlight_plant

        async def serve():
            server = TestServer(ServerConfig())
            await server.start()
            return server

        loop = asyncio.new_event_loop()
        server = loop.run_until_complete(serve())
        try:
            host, port = server.address

            def run_client():
                imp = SimulatedImplementation(
                    System(smartlight_plant()), EagerPolicy()
                )
                return run_remote_test(
                    (host, port), imp, {"model": "smartlight"}
                )

            import threading

            out = {}
            t = threading.Thread(
                target=lambda: out.update(frame=run_client())
            )
            t.start()
            deadline = loop.time() + 10
            while t.is_alive() and loop.time() < deadline:
                loop.run_until_complete(asyncio.sleep(0.01))
            t.join(timeout=1)
            assert out["frame"]["verdict"] == "pass"
        finally:
            loop.run_until_complete(server.close())
            loop.close()
