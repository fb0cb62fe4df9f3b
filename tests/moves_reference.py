"""The per-state reference enumeration of a network's moves.

:meth:`repro.semantics.system.System.moves_from` builds the ordered move
candidates of each (mode, location vector) once and, per variable state,
only filters them by compiled integer guards.  This is the enumeration
it replaced: every call walks the edge tables, applies the committed
rule and the channel semantics of the mode, evaluates each guard with
the AST-walking reference evaluator (``tests/expr_reference.py``) and
builds fresh :class:`Move` objects.  The differential tests in
``tests/test_expr_compile.py`` check the library against it, move for
move and in order; nothing in ``src/`` uses it.
"""

import itertools
from typing import Dict, List, Tuple

from repro.expr.eval import Context
from repro.semantics.system import OPEN, PARTIAL, Move, System
from repro.ta.model import Edge

from tests.expr_reference import evaluate_bool


def enumerate_moves(
    system: System, locs: Tuple[int, ...], vars: Tuple[int, ...], mode: str
) -> List[Move]:
    ctx = Context(system.decls, vars)
    committed = system.has_committed(locs)
    network = system.network
    boundary = network.boundary
    moves: List[Move] = []

    def guard_ok(edge: Edge) -> bool:
        return all(evaluate_bool(atom, ctx) for atom in edge.guard_split.int_atoms)

    def committed_ok(indices) -> bool:
        if not committed:
            return True
        return any(
            system.automata[a].location_list[locs[a]].committed for a in indices
        )

    for a_idx, per_loc in enumerate(system._internal):
        for edge in per_loc.get(locs[a_idx], ()):
            if committed_ok((a_idx,)) and guard_ok(edge):
                moves.append(
                    Move("tau", "internal", edge.controllable, ((a_idx, edge),))
                )
    for channel_name, channel in network.channels.items():
        emitters = system._emit.get(channel_name) or {}
        receivers = system._recv.get(channel_name) or {}
        if not emitters and not receivers:
            continue
        if channel.broadcast:
            if mode == OPEN:
                moves.extend(
                    _solo(channel, emitters, receivers, locs, guard_ok, committed_ok)
                )
                continue
            hidden = mode == PARTIAL and channel_name not in boundary
            moves.extend(
                _broadcast(
                    channel_name, emitters, receivers, locs, guard_ok,
                    committed_ok, "internal" if hidden else "output",
                )
            )
            if mode == PARTIAL and not hidden:
                moves.extend(
                    _broadcast_input(
                        channel_name, receivers, locs, guard_ok, committed_ok
                    )
                )
            continue
        pairable = network.channel_pairable(channel_name)
        if mode == OPEN or (mode == PARTIAL and not pairable):
            if mode == PARTIAL and channel_name not in boundary:
                continue
            moves.extend(
                _solo(channel, emitters, receivers, locs, guard_ok, committed_ok)
            )
            continue
        if mode == PARTIAL and channel_name not in boundary:
            direction, controllable = "internal", False
        else:
            direction = _direction(channel.kind)
            controllable = channel.controllable
        for i, send_by_loc in emitters.items():
            for e_send in send_by_loc.get(locs[i], ()):
                if not guard_ok(e_send):
                    continue
                for j, recv_by_loc in receivers.items():
                    if i == j:
                        continue
                    for e_recv in recv_by_loc.get(locs[j], ()):
                        if committed_ok((i, j)) and guard_ok(e_recv):
                            moves.append(
                                Move(
                                    channel_name, direction, controllable,
                                    ((i, e_send), (j, e_recv)),
                                )
                            )
    return moves


def _direction(kind: str) -> str:
    return kind if kind in ("input", "output") else "internal"


def _solo(channel, emitters, receivers, locs, guard_ok, committed_ok) -> List[Move]:
    if channel.broadcast:
        emit_dir, recv_dir = "output", "input"
        emit_ctl, recv_ctl = False, True
    else:
        emit_dir = recv_dir = _direction(channel.kind)
        emit_ctl = recv_ctl = channel.controllable
    moves = []
    for table, direction, controllable in (
        (emitters, emit_dir, emit_ctl),
        (receivers, recv_dir, recv_ctl),
    ):
        for a_idx, by_loc in table.items():
            for edge in by_loc.get(locs[a_idx], ()):
                if committed_ok((a_idx,)) and guard_ok(edge):
                    moves.append(
                        Move(channel.name, direction, controllable, ((a_idx, edge),))
                    )
    return moves


def _broadcast(
    channel_name, emitters, receivers, locs, guard_ok, committed_ok, direction
) -> List[Move]:
    moves = []
    for i, send_by_loc in emitters.items():
        for e_send in send_by_loc.get(locs[i], ()):
            if not guard_ok(e_send):
                continue
            per_automaton: Dict[int, List[Edge]] = {}
            for j, recv_by_loc in receivers.items():
                if i == j:
                    continue
                for e_recv in recv_by_loc.get(locs[j], ()):
                    if guard_ok(e_recv):
                        per_automaton.setdefault(j, []).append(e_recv)
            indices = sorted(per_automaton)
            if not committed_ok((i,) + tuple(indices)):
                continue
            for combo in itertools.product(*(per_automaton[j] for j in indices)):
                moves.append(
                    Move(
                        channel_name, direction, False,
                        ((i, e_send),) + tuple(zip(indices, combo)),
                    )
                )
    return moves


def _broadcast_input(channel_name, receivers, locs, guard_ok, committed_ok) -> List[Move]:
    per_automaton: Dict[int, List[Edge]] = {}
    for j, recv_by_loc in receivers.items():
        for e_recv in recv_by_loc.get(locs[j], ()):
            if guard_ok(e_recv):
                per_automaton.setdefault(j, []).append(e_recv)
    indices = sorted(per_automaton)
    if not indices or not committed_ok(tuple(indices)):
        return []
    return [
        Move(channel_name, "input", True, tuple(zip(indices, combo)))
        for combo in itertools.product(*(per_automaton[j] for j in indices))
    ]
