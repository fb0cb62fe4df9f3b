"""Tests of the repro.par worker pool and the sharded campaigns.

The determinism contract is the point: a sharded run must be
*indistinguishable* from the serial one in everything the campaign
reports — statuses, per-family counts, failing seeds, shrunk
reproducers — for any ``--jobs`` value, with only wall clock and
profiling counters allowed to vary.  These tests pin that contract at
three levels: the pool primitive, the differential fuzz campaign (CLI
end to end, 50 instances at jobs 1/2/4), and the mutation-detection
campaign.
"""

import json
import multiprocessing
import os

import pytest

from repro.gen import run_campaign
from repro.gen.cli import VOLATILE_REPORT_KEYS, main as cli_main
from repro.gen import differential
from repro.gen.differential import DiffConfig
from repro.models.smartlight import smartlight_network, smartlight_plant
from repro.par import auto_jobs, parse_jobs, resolve_jobs, steal_map
from repro.testing import MutantSpec, MutationCampaign
from repro.util import counters


def planted_zone_failure(monkeypatch) -> str:
    """Make every zone-trial run fail once more, with a detail drawn from
    its random stream; forked pool workers inherit the patch."""
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("the planted failure reaches pool workers only by fork")
    original = differential.check_zone_algebra

    def check(rng, trials):
        return original(rng, trials=trials) + [f"planted {rng.random()!r}"]

    monkeypatch.setattr(differential, "check_zone_algebra", check)
    return "planted "


# ----------------------------------------------------------------------
# Pool primitives
# ----------------------------------------------------------------------


def square(x):
    return x * x


def whoami(_):
    return os.getpid()


def boom(x):
    raise ValueError(f"boom {x}")


def count_and_square(x):
    counters.inc("par.test_ops")
    counters.observe("par.test_sizes", x)
    return x * x


def scaled(x, k):
    return x * k


def boom_at(x, bad):
    if x == bad:
        raise ValueError(f"boom {x}")
    return x


def count_and_scale(x, k):
    counters.inc("par.test_ops")
    counters.observe("par.test_sizes", x * k)
    return x * k


class TestStarmap:
    """``steal_map`` is a star-map: each task tuple is unpacked into
    ``fn(*t)``, so multi-argument tasks keep their meaning in the pool."""

    def test_serial_matches_parallel_in_order(self):
        tasks = [(i, i % 3 + 1) for i in range(23)]
        expected = [scaled(*t) for t in tasks]
        assert steal_map(scaled, tasks, jobs=1) == expected
        assert steal_map(scaled, tasks, jobs=3) == expected

    def test_on_result_fires_once_per_task(self):
        seen = []
        steal_map(
            scaled,
            [(i, 2) for i in range(10)],
            jobs=2,
            on_result=lambda index, result: seen.append(index),
        )
        assert sorted(seen) == list(range(10))

    def test_worker_exception_propagates(self):
        with pytest.raises(ValueError, match="boom 5"):
            steal_map(boom_at, [(i, 5) for i in range(8)], jobs=2)

    def test_counters_identical_to_serial(self):
        tasks = [(i, 3) for i in range(12)]
        counters.reset()
        steal_map(count_and_scale, tasks, jobs=1)
        serial = counters.export()
        counters.reset()
        steal_map(count_and_scale, tasks, jobs=4)
        assert counters.export() == serial
        assert serial["stats"]["par.test_sizes"][1] == 3 * sum(range(12))


class TestStealMap:
    """Work-stealing dispatch must match the serial list comprehension."""

    def test_serial_matches_parallel_in_order(self):
        tasks = [(i,) for i in range(23)]
        serial = steal_map(square, tasks, jobs=1)
        stolen = steal_map(square, tasks, jobs=3)
        assert serial == stolen == [i * i for i in range(23)]

    def test_single_task_stays_in_process(self):
        assert steal_map(square, [(7,)], jobs=8) == [49]
        assert steal_map(whoami, [(0,)], jobs=8) == [os.getpid()]

    def test_on_result_receives_indexed_pairs(self):
        seen = []
        steal_map(
            square,
            [(i,) for i in range(10)],
            jobs=2,
            on_result=lambda index, result: seen.append((index, result)),
        )
        assert sorted(seen) == [(i, i * i) for i in range(10)]

    def test_on_result_indexed_in_serial_mode_too(self):
        seen = []
        steal_map(
            square,
            [(i,) for i in range(5)],
            jobs=1,
            on_result=lambda index, result: seen.append((index, result)),
        )
        assert seen == [(i, i * i) for i in range(5)]

    def test_worker_exception_propagates(self):
        with pytest.raises(ValueError, match="boom"):
            steal_map(boom, [(1,), (2,)], jobs=2)

    def test_counters_identical_to_serial(self):
        counters.reset()
        steal_map(count_and_square, [(i,) for i in range(12)], jobs=1)
        serial = counters.export()
        counters.reset()
        steal_map(count_and_square, [(i,) for i in range(12)], jobs=4)
        assert counters.export() == serial
        assert serial["counts"]["par.test_ops"] == 12

    def test_counters_survive_the_pool(self):
        counters.reset()
        steal_map(count_and_square, [(i,) for i in range(12)], jobs=3)
        exported = counters.export()
        assert exported["counts"]["par.test_ops"] == 12
        count, total, peak = exported["stats"]["par.test_sizes"]
        assert (count, total, peak) == (12, sum(range(12)), 11)


class TestJobsParsing:
    def test_auto_is_at_least_one(self):
        assert auto_jobs() >= 1

    def test_parse(self):
        assert parse_jobs("4") == 4
        assert parse_jobs("auto") == auto_jobs()
        assert parse_jobs(" AUTO ") == auto_jobs()
        with pytest.raises(ValueError):
            parse_jobs("0")
        with pytest.raises(ValueError):
            parse_jobs("many")

    def test_resolve_clamps_to_work(self):
        assert resolve_jobs(8, 3) == 3
        assert resolve_jobs(2, 100) == 2
        assert resolve_jobs(4, 0) == 1


# ----------------------------------------------------------------------
# Sharded differential campaigns: the byte-identical report contract
# ----------------------------------------------------------------------


def stable_payload(path):
    payload = json.loads(path.read_text())
    for key in VOLATILE_REPORT_KEYS:
        assert key in payload
        del payload[key]
    return payload


class TestCampaignDeterminism:
    def test_report_identical_for_jobs_1_2_4(self, tmp_path):
        """A 50-instance campaign report is bitwise-stable across --jobs.

        Same seeds, same statuses, same family counts, stable ordering —
        everything except the declared-volatile keys (elapsed time, the
        jobs value itself, profiling counters)."""
        payloads = []
        for jobs in (1, 2, 4):
            report = tmp_path / f"report-{jobs}.json"
            code = cli_main(
                [
                    "--count", "50",
                    "--seed", "1000",
                    "--zone-trials", "10",
                    "--no-fixpoint",
                    "--jobs", str(jobs),
                    "--report-json", str(report),
                ]
            )
            assert code == 0
            payloads.append(stable_payload(report))
        assert payloads[0] == payloads[1] == payloads[2]
        # And the stable part is *bytewise* stable, not just tree-equal.
        blobs = {json.dumps(p, sort_keys=True) for p in payloads}
        assert len(blobs) == 1

    def test_check_subset_reports_are_jobs_stable(self, tmp_path):
        """A different seed window and check subset is jobs-stable too —
        including the failures block (seeds, shrunk reproducers), should a
        genuine disagreement ever be caught in this window."""
        blobs = []
        for jobs in (1, 3):
            report = tmp_path / f"window-{jobs}.json"
            code = cli_main(
                [
                    "--count", "30",
                    "--seed", "777000",
                    "--zone-trials", "0",
                    "--no-fixpoint",
                    "--checks", "estimate,conformance",
                    "--jobs", str(jobs),
                    "--report-json", str(report),
                ]
            )
            assert code in (0, 1)
            blobs.append(json.dumps(stable_payload(report), sort_keys=True))
        assert blobs[0] == blobs[1]


    def test_zone_trials_identical_for_jobs_1_2_4(self, monkeypatch):
        """Pooled, the zone-algebra trials are one more task; their
        failures and trial count equal the serial run's.  A failure drawn
        from the trials' own random stream is planted before the pool
        forks, so the stream and the failure path are both compared."""
        planted = planted_zone_failure(monkeypatch)
        zone = []
        for jobs in (1, 2, 4):
            summary = run_campaign(
                count=3, seed=31, checks=["semantics"], zone_trials=6,
                shrink=False, jobs=jobs,
            )
            assert not summary.ok
            zone.append((summary.zone_failures, summary.zone_trials))
        assert zone[0][1] == 6 and zone[0][0][-1].startswith(planted)
        assert zone[0] == zone[1] == zone[2]

    def test_partial_run_skips_the_zone_task(self, monkeypatch, tmp_path):
        """A ``stop_after`` partial run neither runs nor reports the zone
        trials, serial or pooled."""
        planted_zone_failure(monkeypatch)
        ran = tmp_path / "zone-trials-ran"
        planted = differential.check_zone_algebra

        def check(rng, trials):
            ran.touch()
            return planted(rng, trials)

        monkeypatch.setattr(differential, "check_zone_algebra", check)
        partial = []
        for jobs in (1, 2):
            summary = run_campaign(
                count=4, seed=31, checks=["semantics"], zone_trials=6,
                shrink=False, jobs=jobs, stop_after=2,
            )
            assert summary.partial and summary.pending == 2
            assert (summary.zone_failures, summary.zone_trials) == ([], 0)
            partial.append(
                [dict(r.to_dict(), coverage=None) for r in summary.reports]
            )
        assert partial[0] == partial[1]
        assert not ran.exists()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_campaign_sharded(self, jobs):
        """A small estimate-and-conformance window runs clean serially
        and over a two-worker pool."""
        config = DiffConfig(
            max_nodes=800, sim_steps=8, conf_steps=8, check_fixpoint=False
        )
        summary = run_campaign(
            count=12,
            seed=4200,
            diff_config=config,
            checks=("estimate", "conformance"),
            zone_trials=0,
            shrink=False,
            jobs=jobs,
        )
        assert summary.ok, summary.format()
        assert len(summary.reports) == 12


# ----------------------------------------------------------------------
# Sharded mutation-detection campaigns
# ----------------------------------------------------------------------

SMARTLIGHT_MUTANTS = [
    MutantSpec.make(
        "wrong-output-L1", "swap_output_channel", new_channel="bright",
        automaton="IUT", source="L1", sync="dim!", expected_caught=True,
    ),
    MutantSpec.make(
        "late-L6", "widen_invariant", automaton="IUT", location="L6",
        delta=2, expected_caught=True,
    ),
    MutantSpec.make(
        "missing-bright-L6", "drop_edge", automaton="IUT", source="L6",
        sync="bright!", expected_caught=True,
    ),
    MutantSpec.make(
        "early-L1", "widen_invariant", automaton="IUT", location="L1",
        delta=-1, expected_caught=False,
    ),
]


@pytest.fixture(scope="module")
def smartlight_campaign():
    return MutationCampaign(
        smartlight_network, smartlight_plant, ["control: A<> IUT.Bright"]
    )


class TestMutationCampaign:
    def test_detection_matches_expectations(self, smartlight_campaign):
        report = smartlight_campaign.run(SMARTLIGHT_MUTANTS, jobs=1)
        assert report.surprises == []
        assert report.killed == 3
        assert "mutation score: 3/4" in report.summary()

    def test_sharded_run_is_identical(self, smartlight_campaign):
        serial = smartlight_campaign.run(SMARTLIGHT_MUTANTS, jobs=1)
        sharded = smartlight_campaign.run(SMARTLIGHT_MUTANTS, jobs=2)
        assert serial.outcomes == sharded.outcomes

    def test_mutant_specs_are_picklable(self):
        import pickle

        for spec in SMARTLIGHT_MUTANTS:
            clone = pickle.loads(pickle.dumps(spec))
            assert clone == spec
            mutant = clone.build(smartlight_plant())
            assert mutant.network._prepared
