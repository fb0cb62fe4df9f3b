"""Tests for strategy serialization (repro.game.export) — future work 2."""

import json

import pytest

from repro.game import (
    PackedStrategy,
    Strategy,
    StrategyFormatError,
    TwoPhaseSolver,
    Verdictish,
    strategy_from_dict,
    strategy_to_dict,
)
from repro.dbm import Federation, ZoneFormatError, federation_from_obj, le, zone_from_obj, zone_to_obj
from repro.game.export import _compact_obj, load_strategy, save_strategy
from repro.models import smartlight
from repro.models.smartlight import smartlight_network, smartlight_plant
from repro.semantics.system import System
from repro.tctl import parse_query
from repro.testing import LazyPolicy, RandomPolicy, SimulatedImplementation, execute_test
from repro.testing.trace import PASS

from tests.zone_strategies import box


@pytest.fixture(scope="module")
def strategy():
    arena = System(smartlight_network())
    result = TwoPhaseSolver(arena, parse_query("control: A<> IUT.Bright")).solve()
    return Strategy(result)


#: Zone records the shared codec must reject: ``x1 >= 5 && x1 <= 3``
#: (no valuation satisfies it), and a clock index past the dimension.
BAD_ZONES = [
    pytest.param([[0, 1, le(-5)], [1, 0, le(3)]], "empty", id="empty"),
    pytest.param([[0, 9, le(1)]], "clock pair", id="out-of-range"),
]


class TestZoneCodec:
    """Strategy files use the shared codec of :mod:`repro.dbm.minform`;
    its round trips over random zones are properties in ``test_warm.py``."""

    def test_dbm_round_trip(self):
        zone = box(3, [(1, 5), (2, 4)])
        assert zone_from_obj(3, zone_to_obj(zone)).equals(zone)

    def test_dbm_wrong_size(self):
        with pytest.raises(ZoneFormatError, match="malformed"):
            zone_from_obj(3, [[0, 1]])

    @pytest.mark.parametrize("record,why", BAD_ZONES)
    def test_rejects_bad_record(self, record, why):
        with pytest.raises(ZoneFormatError, match=why):
            zone_from_obj(3, record)

    def test_federation_round_trip(self):
        fed = Federation(3, [box(3, [(0, 1), (0, 9)]), box(3, [(4, 6), (0, 9)])])
        assert federation_from_obj(3, _compact_obj(fed)).equals(fed)

    def test_federation_compacted_on_save(self):
        fed = Federation(3, [box(3, [(0, 4), (0, 9)]), box(3, [(4, 8), (0, 9)]),
                             box(3, [(2, 6), (0, 9)])])
        obj = _compact_obj(fed)
        assert len(obj) == 2  # the middle zone is covered by the others


class TestFingerprint:
    """A strategy is keyed by the network's ``structural_hash``."""

    def test_stable_across_rebuilds(self, strategy):
        a = System(smartlight_network()).network.structural_hash()
        b = System(smartlight_network()).network.structural_hash()
        assert a == b == strategy_to_dict(strategy)["structural_hash"]

    def test_differs_for_mutants(self):
        from repro.testing.mutants import widen_invariant

        original = smartlight_plant().structural_hash()
        mutated = widen_invariant(smartlight_plant(), "IUT", "L1", 1)
        assert original != mutated.structural_hash()


class TestRoundTrip:
    def test_json_serializable(self, strategy):
        blob = json.dumps(strategy_to_dict(strategy))
        assert len(blob) > 100

    def test_packed_matches_original_decisions(self, strategy):
        from fractions import Fraction

        system = System(smartlight_network())
        packed = strategy_from_dict(system, strategy_to_dict(strategy))
        assert packed.size == strategy.size
        probes = [
            system.initial_concrete(),
            system.initial_concrete().delayed(Fraction(1)),
            system.initial_concrete().delayed(Fraction(25)),
        ]
        for state in probes:
            original = strategy.decide(state)
            restored = packed.decide(state)
            assert original.kind == restored.kind
            assert original.delay == restored.delay
            if original.kind == Verdictish.FIRE:
                assert original.move.label == restored.move.label

    def test_packed_strategy_executes(self, strategy):
        packed = strategy_from_dict(
            System(smartlight_network()), strategy_to_dict(strategy)
        )
        for policy in (LazyPolicy(), RandomPolicy(3)):
            imp = SimulatedImplementation(System(smartlight_plant()), policy)
            run = execute_test(packed, System(smartlight_plant()), imp)
            assert run.verdict == PASS, str(run)

    def test_file_round_trip(self, strategy, tmp_path):
        path = tmp_path / "bright.strategy.json"
        save_strategy(strategy, path)
        packed = load_strategy(System(smartlight_network()), path)
        assert isinstance(packed, PackedStrategy)
        assert packed.size == strategy.size


class TestValidation:
    def test_rejects_wrong_model(self, strategy):
        data = strategy_to_dict(strategy)
        with pytest.raises(StrategyFormatError):
            strategy_from_dict(System(smartlight_plant()), data)

    def test_rejects_tampered_fingerprint(self, strategy):
        data = strategy_to_dict(strategy)
        data["structural_hash"] = "0" * 64
        with pytest.raises(StrategyFormatError):
            strategy_from_dict(System(smartlight_network()), data)

    def test_rejects_changed_declaration(self, strategy, monkeypatch):
        # Same automata and edges, different constant: Tsw=7, not 4.
        monkeypatch.setattr(smartlight, "TSW", 7)
        data = strategy_to_dict(strategy)
        with pytest.raises(StrategyFormatError, match="structural hash"):
            strategy_from_dict(System(smartlight_network()), data)

    @pytest.mark.parametrize("record,why", BAD_ZONES)
    def test_rejects_bad_zone_record(self, strategy, record, why):
        data = strategy_to_dict(strategy)
        data["nodes"][0]["win"] = [record]
        with pytest.raises(StrategyFormatError, match=why):
            strategy_from_dict(System(smartlight_network()), data)

    def test_rejects_unknown_format(self, strategy):
        data = strategy_to_dict(strategy)
        data["format"] = 99
        with pytest.raises(StrategyFormatError):
            strategy_from_dict(System(smartlight_network()), data)
