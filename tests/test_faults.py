"""The fault-injection fabric and graceful degradation under it.

Covers the :mod:`repro.faults` plan grammar and determinism, per-site
counters, worker crash/hang recovery in :func:`repro.par.steal_map`
(byte-identical reports when retries absorb the faults, quarantine when
they cannot, prompt KeyboardInterrupt cleanup), persistent-store torn
writes and ``fsck --repair``, server drop/stall/drain over loopback,
and compiled-kernel demotion to the numpy reference.
"""

import asyncio
import json
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from repro import faults
from repro.corpus import CampaignCheckpoint, Corpus, CorpusEntry
from repro.corpus.__main__ import fsck_tree
from repro.dbm import backends as dbm_backends
from repro.dbm.backends.numpy_backend import NumpyBackend
from repro.gen.differential import DiffConfig, check_faults, run_campaign
from repro.gen.networks import generate_instance
from repro.par import steal_map
from repro.util import counters

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


def sync(coro):
    return asyncio.run(coro)


def counts():
    return counters.export()["counts"]


@pytest.fixture(autouse=True)
def _clean_faults(monkeypatch):
    """Disarmed plan, short hangs, fresh counters around every test."""
    monkeypatch.delenv(faults.ENV_VAR, raising=False)
    monkeypatch.setenv(faults.HANG_ENV, "0.2")
    faults.install(None)
    counters.reset()
    yield
    faults.install(None)


# ----------------------------------------------------------------------
# Plan grammar and determinism
# ----------------------------------------------------------------------


class TestFaultPlan:
    def test_parse_describe_roundtrip(self):
        spec = "seed=9;a.b:*;c.d:1,3,5;e:every=4;f.g:p=0.25"
        plan = faults.FaultPlan.parse(spec)
        assert faults.FaultPlan.parse(plan.describe()).describe() == (
            plan.describe()
        )

    @pytest.mark.parametrize(
        "bad",
        ["", "   ", "site", "site:", ":*", "site:every=0", "site:p=1.5",
         "site:p=-0.1", "site:0", "site:x,y", "seed=5"],
    )
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            faults.FaultPlan.parse(bad)

    def test_hit_list_trigger(self):
        plan = faults.FaultPlan.parse("s:2,4")
        fired = [plan.should_fire("s") for _ in range(5)]
        assert fired == [False, True, False, True, False]

    def test_every_trigger(self):
        plan = faults.FaultPlan.parse("s:every=3")
        fired = [plan.should_fire("s") for _ in range(7)]
        assert fired == [False, False, True, False, False, True, False]

    def test_always_trigger_and_prefix_match(self):
        plan = faults.FaultPlan.parse("server.conn:*")
        assert plan.should_fire("server.conn.drop")
        assert plan.should_fire("server.conn.stall")
        assert not plan.should_fire("server.other")
        assert not plan.should_fire("corpus.store.write")

    def test_probabilistic_is_seed_deterministic(self):
        spec = "s:p=0.5;seed=42"
        runs = []
        for _ in range(2):
            plan = faults.FaultPlan.parse(spec)
            runs.append([plan.should_fire("s") for _ in range(128)])
        assert runs[0] == runs[1]
        assert any(runs[0]) and not all(runs[0])
        other = faults.FaultPlan.parse("s:p=0.5;seed=43")
        assert [other.should_fire("s") for _ in range(128)] != runs[0]

    def test_probability_order_independent_across_sites(self):
        # Interleaving hits on other sites must not shift a site's
        # decisions: each is hashed from (seed, site, hit) alone.
        a = faults.FaultPlan.parse("x:p=0.4;y:p=0.4;seed=7")
        b = faults.FaultPlan.parse("x:p=0.4;y:p=0.4;seed=7")
        seq_a = [a.should_fire("x") for _ in range(32)]
        seq_b = []
        for _ in range(32):
            b.should_fire("y")
            seq_b.append(b.should_fire("x"))
        assert seq_a == seq_b

    def test_per_site_counters(self):
        with faults.injected("a.b:*;c.d:2"):
            faults.should_fire("a.b.x")
            faults.should_fire("c.d")
            faults.should_fire("c.d")
        got = counts()
        assert got.get("faults.fired") == 2
        assert got.get("faults.fired.a.b.x") == 1
        assert got.get("faults.fired.c.d") == 1

    def test_disarmed_never_fires(self):
        assert not faults.should_fire("anything.at.all")
        assert "faults.fired" not in counts()

    def test_injected_restores_plan_and_env(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_VAR, "outer.site:*")
        faults.install("outer.site:*")
        with faults.injected("inner.site:*", env=True):
            assert os.environ[faults.ENV_VAR] == "inner.site:*"
            assert faults.should_fire("inner.site")
            assert not faults.should_fire("outer.site")
        assert os.environ[faults.ENV_VAR] == "outer.site:*"
        assert faults.should_fire("outer.site")

    def test_retry_probes_skip_scheduled_triggers(self):
        # scheduled triggers are transient faults: quiet on retries and
        # invisible to the hit counter; `*` is a hard fault and fires.
        plan = faults.FaultPlan.parse("hard:*;soft:1")
        assert plan.should_fire("soft") is True
        assert plan.should_fire("soft", retry=True) is False
        assert plan.hits("soft") == 1
        assert plan.should_fire("hard", retry=True) is True

    def test_fire_raises_injected_fault(self):
        with faults.injected("k:*"):
            with pytest.raises(faults.InjectedFault) as err:
                faults.fire("k")
        assert err.value.site == "k"


# ----------------------------------------------------------------------
# Pool recovery: crash / hang / quarantine / interrupt
# ----------------------------------------------------------------------


def _square(x):
    return x * x


class TestPoolRecovery:
    def test_crash_recovery_report_identical(self):
        base = run_campaign(count=4, seed=0, checks=["semantics"],
                            zone_trials=2, jobs=2)
        # crash:2 — every worker dies claiming its second task, so with
        # 4 tasks on 2 workers at least one death is guaranteed and the
        # requeued tasks land on (fresh) replacement workers.
        with faults.injected("par.worker.crash:2", env=True):
            chaotic = run_campaign(count=4, seed=0, checks=["semantics"],
                                   zone_trials=2, jobs=2)

        def stripped(summary):
            # coverage is volatile (scheduling-dependent memo deltas)
            return [dict(r.to_dict(), coverage=None)
                    for r in summary.reports]

        assert stripped(base) == stripped(chaotic)
        assert counts().get("par.worker_deaths", 0) >= 1

    def test_hang_recovery(self, monkeypatch):
        # the injected hang must outlast task_timeout to look hung
        monkeypatch.setenv(faults.HANG_ENV, "5")
        with faults.injected("par.worker.hang:3", env=True):
            out = steal_map(_square, [(i,) for i in range(6)], jobs=2,
                            retries=2, task_timeout=0.5)
        assert out == [i * i for i in range(6)]
        assert counts().get("par.task_timeouts", 0) >= 1

    def test_error_retry(self):
        with faults.injected("par.worker.error:2", env=True):
            out = steal_map(_square, [(i,) for i in range(4)], jobs=2,
                            retries=2)
        assert out == [0, 1, 4, 9]
        assert counts().get("par.task_retries", 0) >= 1

    def test_poison_task_quarantined(self):
        bad = []
        with faults.injected("par.worker.error:*", env=True):
            out = steal_map(_square, [(i,) for i in range(3)], jobs=2,
                            retries=1,
                            quarantine=lambda i, e: bad.append(i))
        assert out == [None, None, None]
        assert sorted(bad) == [0, 1, 2]
        assert counts().get("par.task_quarantined") == 3

    def test_campaign_quarantine_is_deterministic_harness_fail(self):
        with faults.injected("par.worker.crash:*", env=True):
            one = run_campaign(count=2, seed=5, checks=["semantics"],
                               zone_trials=2, jobs=2)
            two = run_campaign(count=2, seed=5, checks=["semantics"],
                               zone_trials=2, jobs=2)
        for summary in (one, two):
            assert len(summary.reports) == 2
            for report in summary.reports:
                assert [f.name for f in report.failures] == ["harness"]
                assert report.shrunk is None  # harness failures don't shrink
        assert [r.to_dict() for r in one.reports] == [
            dict(r.to_dict(), coverage=one.reports[i].coverage)
            for i, r in enumerate(two.reports)
        ]

    def test_keyboard_interrupt_prompt_cleanup(self, tmp_path):
        script = tmp_path / "ki.py"
        script.write_text(
            "import sys, time\n"
            f"sys.path.insert(0, {SRC!r})\n"
            "from repro.par import steal_map\n"
            "def slow(x):\n"
            "    if x:\n"
            "        time.sleep(30)\n"
            "    return x\n"
            "done = []\n"
            "print('READY', flush=True)\n"
            "try:\n"
            "    steal_map(slow, [(0,), (1,), (2,)], jobs=2,\n"
            "              on_result=lambda i, r: done.append(i))\n"
            "except KeyboardInterrupt:\n"
            "    print('KI', sorted(done), flush=True)\n"
            "    sys.exit(130)\n"
        )
        proc = subprocess.Popen(
            [sys.executable, str(script)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            assert proc.stdout.readline().strip() == "READY"
            time.sleep(1.0)  # let task 0 finish and 1, 2 park in sleep
            started = time.monotonic()
            proc.send_signal(signal.SIGINT)
            out, err = proc.communicate(timeout=10)
            elapsed = time.monotonic() - started
        finally:
            proc.kill()
        # Prompt: the 30s sleepers were terminated, not joined out.
        assert elapsed < 5, (elapsed, out, err)
        assert proc.returncode == 130, (proc.returncode, out, err)
        assert "KI" in out  # completed results journaled before re-raise


# ----------------------------------------------------------------------
# Persistent stores: torn writes, quarantine, fsck
# ----------------------------------------------------------------------


def _entry(n=0):
    return CorpusEntry(
        structural_hash=f"deadbeef{n:08x}", seed=n, family="chain",
        signature=f"sig{n}", statuses={"semantics": "ok"},
    )


class TestStoreDegradation:
    def test_torn_corpus_write_quarantines(self, tmp_path):
        store = Corpus(str(tmp_path))
        with faults.injected("corpus.store.write:1"):
            store.add(_entry(0))
            store.add(_entry(1))  # second write is clean
        assert store.get(_entry(0).structural_hash) is None
        assert store.get(_entry(1).structural_hash) is not None
        assert counts().get("corpus.corrupt_entries", 0) >= 1
        assert list(store)  # iteration skips, never raises

    def test_fsck_repair_roundtrip(self, tmp_path):
        store = Corpus(str(tmp_path))
        with faults.injected("corpus.store.write:1"):
            store.add(_entry(0))
        store.add(_entry(1))
        report = store.fsck()
        assert len(report["corrupt"]) == 1 and report["ok"] == 1
        repaired = store.fsck(repair=True)
        assert repaired["quarantined"] == 1
        assert store.fsck()["corrupt"] == []
        # the torn file is preserved for the post-mortem, out of band
        assert len(os.listdir(store.quarantine_dir())) == 1
        # the slot is writable again
        assert store.add(_entry(0))
        assert store.get(_entry(0).structural_hash) is not None

    def test_checkpoint_torn_tail_self_heals(self, tmp_path):
        path = str(tmp_path / "checkpoint.jsonl")
        from repro.gen.differential import InstanceReport

        def report(i):
            return InstanceReport(i, "chain", f"h{i}", f"inst{i}")

        ck = CampaignCheckpoint(path)
        ck.start({"count": 3, "mutations": []})
        ck.record(0, report(0))
        with faults.injected("corpus.checkpoint.write:1"):
            ck.record(1, report(1))  # torn mid-append
        ck.close()

        resumed = CampaignCheckpoint(path)
        resumed.load()
        assert sorted(resumed.completed()) == [0]  # torn record dropped
        resumed.record(2, report(2))  # append lands after the heal
        resumed.close()
        final = CampaignCheckpoint(path)
        final.load()
        assert sorted(final.completed()) == [0, 2]

    def test_fsck_tree_covers_all_stores(self, tmp_path):
        root = str(tmp_path)
        store = Corpus(root)
        with faults.injected("corpus.store.write:1"):
            store.add(_entry(0))
        # a journal with a rotten middle line
        ck = CampaignCheckpoint(os.path.join(root, "checkpoint.jsonl"))
        ck.start({"count": 3, "mutations": []})
        ck.close()
        with open(ck.path, "a", encoding="utf-8") as handle:
            handle.write("not json\n")
            handle.write('{"kind": "report", "index": 0, "report": {}}\n')
        report = fsck_tree(root)
        assert not report["clean"]
        assert len(report["entries"]["corrupt"]) == 1
        assert report["checkpoint"]["corrupt_line"] == 2
        assert set(report) == {"root", "entries", "checkpoint", "clean"}
        repaired = fsck_tree(root, repair=True)
        assert repaired["clean"] and repaired["checkpoint"]["truncated"]
        after = fsck_tree(root)
        assert after["clean"] and after["checkpoint"]["lines"] == 1

    def test_fsck_cli_exit_codes(self, tmp_path):
        root = str(tmp_path)
        store = Corpus(root)
        with faults.injected("corpus.store.write:1"):
            store.add(_entry(0))
        env = dict(os.environ, PYTHONPATH=SRC)
        dirty = subprocess.run(
            [sys.executable, "-m", "repro.corpus", "--fsck", root],
            capture_output=True, text=True, env=env,
        )
        assert dirty.returncode == 1, dirty.stdout
        repair = subprocess.run(
            [sys.executable, "-m", "repro.corpus", "--fsck", root,
             "--repair"],
            capture_output=True, text=True, env=env,
        )
        assert repair.returncode == 0, repair.stdout
        assert json.loads(repair.stdout)["clean"]

    def test_warm_cache_corrupt_entry_is_cache_miss(self, tmp_path):
        from repro.game.warm import WinSetCache

        cache = WinSetCache(directory=str(tmp_path))
        with faults.injected("warm.cache.write:1"):
            cache.store("spec-key", {"win": [1, 2, 3]})
        fresh = WinSetCache(directory=str(tmp_path))
        assert fresh.load("spec-key") is None  # quarantined, not served
        assert counts().get("solver.warm_corrupt_entries", 0) >= 1


# ----------------------------------------------------------------------
# Server loopback under faults
# ----------------------------------------------------------------------


def _imp():
    from repro.models.smartlight import smartlight_plant
    from repro.semantics.system import System
    from repro.testing.implementation import EagerPolicy, SimulatedImplementation

    return SimulatedImplementation(System(smartlight_plant()), EagerPolicy())


SPEC = {"model": "smartlight"}


class TestServerDegradation:
    def test_idle_timeout_is_fail_sound(self):
        from repro.server.client import IUTClient
        from repro.server.server import ServerConfig, TestServer

        async def go():
            async with TestServer(ServerConfig(idle_timeout=0.3)) as server:
                host, port = server.address
                client = await IUTClient.connect(host, port)
                await client._send({"type": "hello", "spec": SPEC})
                frames = []
                while (frame := await client._read()) is not None:
                    frames.append(frame)
                await client.close()
                assert len(server.registry) == 0
                return frames

        frames = sync(go())
        stalled = [f for f in frames if f.get("stalled")]
        assert stalled and stalled[0]["verdict"] == "inconclusive"
        assert counts().get("server.idle_timeouts") == 1

    def test_ping_pong_heartbeat(self):
        from repro.server.client import IUTClient
        from repro.server.server import ServerConfig, TestServer

        async def go():
            async with TestServer(ServerConfig(idle_timeout=0.5)) as server:
                host, port = server.address
                client = await IUTClient.connect(host, port)
                for _ in range(3):
                    assert (await client.ping())["type"] == "pong"
                frame = await client.run_session(_imp(), SPEC)
                await client.close()
                return frame

        frame = sync(go())
        assert frame["type"] == "verdict" and frame["verdict"] == "pass"
        assert counts().get("server.pings") == 3

    def test_injected_drop_releases_session(self):
        from repro.server.client import IUTClient
        from repro.server.server import ServerConfig, TestServer

        async def go():
            with faults.injected("server.conn.drop:2"):
                async with TestServer(ServerConfig()) as server:
                    host, port = server.address
                    client = await IUTClient.connect(host, port)
                    frame = await client.run_session(_imp(), SPEC)
                    await client.close()
                    for _ in range(50):
                        if (len(server.registry) == 0
                                and server.registry.stats.disconnected):
                            break
                        await asyncio.sleep(0.02)
                    return frame, len(server.registry), server.registry.stats

        frame, live, stats = sync(go())
        assert frame["type"] == "error"
        assert live == 0, "leaked session after mid-frame disconnect"
        assert stats.disconnected == 1
        assert counts().get("server.disconnects") == 1

    def test_injected_stall_hits_idle_deadline(self, monkeypatch):
        from repro.server.client import IUTClient
        from repro.server.server import ServerConfig, TestServer

        # the injected stall must outlast the idle deadline
        monkeypatch.setenv(faults.HANG_ENV, "5")

        async def go():
            with faults.injected("server.conn.stall:2"):
                async with TestServer(
                    ServerConfig(idle_timeout=0.3)
                ) as server:
                    host, port = server.address
                    client = await IUTClient.connect(host, port)
                    frame = await client.run_session(_imp(), SPEC)
                    await client.close()
                    return frame

        frame = sync(go())
        assert frame.get("stalled") and frame["verdict"] == "inconclusive"

    def test_reconnect_with_backoff(self):
        from repro.server.client import run_remote_test
        from repro.server.server import ServerConfig, TestServer

        async def go():
            with faults.injected("server.conn.drop:2"):
                async with TestServer(ServerConfig()) as server:
                    host, port = server.address
                    return await asyncio.to_thread(
                        run_remote_test, (host, port), _imp(), SPEC,
                        retries=2, backoff=0.01,
                    )

        frame = sync(go())
        assert frame["type"] == "verdict" and frame["verdict"] == "pass"
        assert counts().get("client.reconnects", 0) >= 1

    def test_drain_evicts_to_inconclusive(self):
        from repro.server.client import IUTClient
        from repro.server.server import ServerConfig, TestServer

        async def go():
            async with TestServer(ServerConfig(drain_grace=0.3)) as server:
                host, port = server.address
                client = await IUTClient.connect(host, port)
                await client._send({"type": "hello", "spec": SPEC})
                for _ in range(100):
                    if len(server.registry) == 1:
                        break
                    await asyncio.sleep(0.02)
                stats = await server.drain()
                assert len(server.registry) == 0
                frames = []
                while (frame := await client._read()) is not None:
                    frames.append(frame)
                await client.close()
                return stats, frames

        stats, frames = sync(go())
        assert stats["evicted"] == 1
        evicted = [f for f in frames if f.get("evicted")]
        assert evicted and evicted[0]["verdict"] == "inconclusive"
        assert counts().get("server.drains") == 1

    def test_connect_retry_rides_out_late_bind(self):
        from repro.server.client import IUTClient
        from repro.server.server import ServerConfig, TestServer

        async def go():
            # grab a port, release it, connect_retry while the server
            # binds it shortly after
            probe = TestServer(ServerConfig())
            await probe.start()
            host, port = probe.address
            await probe.close()
            server = TestServer(ServerConfig(port=port))

            async def bind_late():
                await asyncio.sleep(0.3)
                await server.start()

            task = asyncio.ensure_future(bind_late())
            client = await IUTClient.connect_retry(
                host, port, attempts=8, base_delay=0.05
            )
            await task
            frame = await client.run_session(_imp(), SPEC)
            await client.close()
            await server.close()
            return frame

        frame = sync(go())
        assert frame["verdict"] == "pass"
        assert counts().get("client.connect_retries", 0) >= 1


# ----------------------------------------------------------------------
# Kernel demotion
# ----------------------------------------------------------------------

COMPILED = [
    name
    for name in dbm_backends.available_backends()
    if name != "numpy" and dbm_backends.resolve(name).compiled
]


class TestKernelDemotion:
    @pytest.mark.skipif(not COMPILED, reason="no compiled backend loads")
    @pytest.mark.parametrize("name", COMPILED)
    def test_demotion_byte_equal_to_numpy(self, name):
        import random

        backend = dbm_backends.resolve(name)
        rng = random.Random(404)
        from repro.gen.zones import random_zone

        zones = []
        while len(zones) < 5:
            zone = random_zone(rng, dim=4, max_constraints=5)
            if not zone.is_empty():
                zones.append(zone)
        reference = NumpyBackend()
        for zone in zones:
            ref_m, got_m = zone.m.copy(), zone.m.copy()
            ref_m[1, 0] = got_m[1, 0] = 3  # (1, <=): maybe inconsistent
            ref_ok = reference.zone_close(ref_m)
            with faults.injected(f"dbm.{name}.compute:*"):
                got_ok = backend.zone_close(got_m)
            assert ref_ok == got_ok
            assert not ref_ok or np.array_equal(ref_m, got_m)
        got = counts()
        assert got.get("dbm.backend_demotions") == len(zones)
        assert got.get(f"faults.fired.dbm.{name}.compute") == len(zones)

    def test_check_faults_green(self):
        for seed in (0, 3):
            instance = generate_instance(seed, None)
            result = check_faults(instance, DiffConfig())
            assert result.status == "ok", result

    def test_check_faults_green_under_ambient_chaos(self):
        with faults.injected(
            "corpus.store.write:every=2;dbm.cext.compute:p=0.5;seed=3"
        ):
            instance = generate_instance(1, None)
            result = check_faults(instance, DiffConfig())
        assert result.status == "ok", result
