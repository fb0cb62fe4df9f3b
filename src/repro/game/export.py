"""Strategy serialization — the paper's future-work item 2.

"Building a fully automated strategy-based testing environment, of which
a big concern is efficient strategy representation."  This module gives
winning strategies a compact, portable JSON form:

* zones serialize through the shared minimal-constraint codec of
  :mod:`repro.dbm.minform` (with federation compaction applied first, so
  covered zones are dropped); loading recloses every zone and rejects
  one that is malformed, out of range or empty;
* moves serialize as ``(automaton index, edge position)`` pairs against
  the network's :meth:`~repro.ta.model.Network.structural_hash` (which
  covers declarations too), so a strategy can only be loaded against
  the network it was synthesized for;
* loading reconstructs a :class:`PackedStrategy` whose ``decide`` is the
  same decision engine the synthesizer uses — test execution does not
  care which one it gets.

Typical round trip::

    data = strategy_to_dict(strategy)
    Path("strategy.json").write_text(json.dumps(data))
    ...
    packed = strategy_from_dict(System(network), json.loads(text))
    execute_test(packed, spec_plant, implementation)
"""

from __future__ import annotations

import json
from typing import Dict, List

from ..dbm import Federation, federation_from_obj, federation_to_obj
from ..semantics.system import Move, System
from .solver import NodeWin
from .strategy import ActionDecision, DecisionEngine, NodeStrategy, Strategy


class StrategyFormatError(ValueError):
    """Raised when loading malformed or mismatched strategy data."""


#: Version 2: minimal-constraint zones, keyed by ``structural_hash``.
FORMAT_VERSION = 2


def _edge_position(system: System, a_idx: int, edge) -> int:
    return system.automata[a_idx].edges.index(edge)


def _move_to_obj(system: System, move: Move) -> dict:
    return {
        "label": move.label,
        "direction": move.direction,
        "controllable": move.controllable,
        "edges": [
            [a_idx, _edge_position(system, a_idx, edge)]
            for a_idx, edge in move.edges
        ],
    }


def _move_from_obj(system: System, obj: dict) -> Move:
    edges = tuple(
        (a_idx, system.automata[a_idx].edges[pos]) for a_idx, pos in obj["edges"]
    )
    return Move(obj["label"], obj["direction"], obj["controllable"], edges)


def _compact_obj(fed: Federation) -> list:
    return federation_to_obj(fed.compact())


def strategy_to_dict(strategy: Strategy) -> dict:
    """Serialize a synthesized strategy to plain JSON-compatible data."""
    system = strategy.system
    nodes = []
    for ns in strategy.per_node.values():
        nodes.append(
            {
                "locs": list(ns.node.sym.locs),
                "vars": list(ns.node.sym.vars),
                "win": _compact_obj(ns.win.win),
                "goal": _compact_obj(ns.win.goal),
                "layers": [
                    [step, _compact_obj(fed)] for step, fed in ns.win.layers
                ],
                "actions": [
                    {
                        "step": decision.step,
                        "move": _move_to_obj(system, decision.move),
                        "fed": _compact_obj(decision.fed),
                    }
                    for decision in ns.actions
                ],
            }
        )
    return {
        "format": FORMAT_VERSION,
        "model": system.network.name,
        "structural_hash": system.network.structural_hash(),
        "dim": system.dim,
        "nodes": nodes,
    }


class _PackedAction(ActionDecision):
    """An action decision carrying a reconstructed move (no graph edge)."""

    def __init__(self, step: int, move: Move, fed: Federation):
        object.__setattr__(self, "step", step)
        object.__setattr__(self, "edge", None)
        object.__setattr__(self, "fed", fed)
        object.__setattr__(self, "_move", move)

    @property
    def move(self) -> Move:
        return self._move


class PackedStrategy(DecisionEngine):
    """A strategy reconstructed from serialized data.

    Exposes the same runtime interface as :class:`Strategy` (``decide``,
    ``rank``, ``system``, ``size``), so the test executor accepts it
    unchanged.
    """

    def __init__(self, system: System, nodes: List[NodeStrategy]):
        self.system = system
        self.per_node: Dict[int, NodeStrategy] = dict(enumerate(nodes))
        self._by_key: Dict[tuple, List[NodeStrategy]] = {}
        self._keys: List[tuple] = []
        for idx, ns in enumerate(nodes):
            key = ns.win.key  # type: ignore[attr-defined]
            self._by_key.setdefault(key, []).append(ns)

    @property
    def size(self) -> int:
        return len(self.per_node)


def _node_from_obj(system: System, dim: int, obj: dict) -> NodeStrategy:
    win = NodeWin(
        federation_from_obj(dim, obj["win"]),
        federation_from_obj(dim, obj["goal"]),
        [(step, federation_from_obj(dim, fed)) for step, fed in obj["layers"]],
    )
    win.key = (tuple(obj["locs"]), tuple(obj["vars"]))  # type: ignore[attr-defined]
    actions = [
        _PackedAction(
            a["step"],
            _move_from_obj(system, a["move"]),
            federation_from_obj(dim, a["fed"]),
        )
        for a in obj["actions"]
    ]
    actions.sort(key=lambda a: a.step)
    return NodeStrategy(None, win, actions)


def strategy_from_dict(system: System, data: dict) -> PackedStrategy:
    """Reconstruct a strategy against the network it was saved from."""
    if data.get("format") != FORMAT_VERSION:
        raise StrategyFormatError(
            f"unsupported strategy format {data.get('format')!r}"
        )
    if data.get("structural_hash") != system.network.structural_hash():
        raise StrategyFormatError(
            "strategy structural hash does not match the network: the"
            " strategy was synthesized for a different (or modified) model"
        )
    dim = data["dim"]
    if dim != system.dim:
        raise StrategyFormatError("clock count mismatch")
    try:
        nodes = [_node_from_obj(system, dim, obj) for obj in data["nodes"]]
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise StrategyFormatError(f"malformed strategy record: {exc}") from exc
    return PackedStrategy(system, nodes)


def save_strategy(strategy: Strategy, path) -> None:
    """Write a strategy to a JSON file."""
    with open(path, "w") as handle:
        json.dump(strategy_to_dict(strategy), handle)


def load_strategy(system: System, path) -> PackedStrategy:
    """Load a strategy JSON file against its network."""
    with open(path) as handle:
        data = json.load(handle)
    return strategy_from_dict(system, data)
