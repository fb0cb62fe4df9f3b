"""Which calls into the program each layer's spans wrap, and the metrics.

The layers are this repository's modules.  :func:`install` wraps, from
outside, the public entry points listed in ``perfbench/README.md``; each
span's self time is charged to its layer.  :func:`layer_metrics` turns a
:meth:`Tracer.snapshot` into the per-layer metric names of
``BENCHMARK.json`` (per op).
"""

from __future__ import annotations

import importlib

SEMANTICS_METHODS = (
    "post", "pred", "delay_closure", "moves_from", "fire",
    "enabled_interval", "delay_ok", "max_delay",
)
ESTIMATE_METHODS = (
    "advance", "observe", "observe_move", "max_quiescence", "enabled_labels",
)
MONITOR_METHODS = ("advance", "observe", "max_quiescence")
SESSION_METHODS = ("start", "on_input_result", "on_output", "on_elapsed")

#: The eight differential checks of the ``fuzz`` workload, by name.
CHECK_NAMES = (
    "solvers", "semantics", "conformance", "composition",
    "estimate", "warmstart", "kernel", "faults",
)

#: Layers summed as self time (ms per op).
SELF_TIME_LAYERS = (
    "dbm", "dbm.stack", "semantics", "semantics.estimate", "graph",
    "game.fixpoint", "game.predt", "game.strategy",
    "testing.session", "testing.monitor", "testing.iut",
    "server.wire", "model",
)


def install(tracer) -> None:
    """Wrap every layer boundary."""
    from repro.dbm import DBM, Federation
    from repro.dbm import stack
    from repro.game.solver import OnTheFlySolver, TwoPhaseSolver
    from repro.game.strategy import DecisionEngine
    from repro.gen import differential, networks
    from repro.graph.explorer import SimulationGraph
    from repro.models import lep
    from repro.par import pool
    from repro.semantics.compose import StateEstimate
    from repro.semantics.system import System
    from repro.server import protocol, registry
    from repro.tctl import query
    from repro.testing.implementation import SimulatedImplementation
    from repro.testing.rtioco import RelativizedMonitor
    from repro.testing.session import TestSession
    from repro.testing.tioco import SpecMonitorBase, TiocoMonitor

    predt = importlib.import_module("repro.game.predt")

    tracer.patch_public_methods(DBM, "dbm")
    tracer.patch_public_methods(Federation, "dbm")
    for name, value in list(vars(stack).items()):
        if (
            not name.startswith("_")
            and callable(value)
            and getattr(value, "__module__", None) == stack.__name__
        ):
            tracer.patch_function(stack, name, "dbm.stack")
    for name in SEMANTICS_METHODS:
        tracer.patch_method(System, name, "semantics")
    for name in ESTIMATE_METHODS:
        tracer.patch_method(StateEstimate, name, "semantics.estimate")
    tracer.patch_method(SimulationGraph, "expand", "graph")
    tracer.patch_method(TwoPhaseSolver, "solve", "game.fixpoint")
    tracer.patch_method(OnTheFlySolver, "solve", "game.fixpoint")
    tracer.patch_function(predt, "predt_mixed", "game.predt")
    tracer.patch_method(DecisionEngine, "decide", "game.strategy")
    for name in SESSION_METHODS:
        tracer.patch_method(
            TestSession, name, "testing.session", op_from_self=True
        )
    for cls in (SpecMonitorBase, TiocoMonitor, RelativizedMonitor):
        for name in MONITOR_METHODS:
            tracer.patch_method(cls, name, "testing.monitor")
    tracer.patch_public_methods(SimulatedImplementation, "testing.iut")
    tracer.patch_method(registry.SpecResolver, "resolve", "server.wire")
    tracer.patch_function(protocol, "encode_frame", "server.wire")
    tracer.patch_function(protocol, "decode_frame", "server.wire")
    tracer.patch_function(pool, "steal_map", "par")
    for name in CHECK_NAMES:
        differential.CHECKS[name] = tracer.wrap(
            differential.CHECKS[name], f"gen.check.{name}", "gen.check"
        )
    tracer.patch_function(networks, "generate_instance", "gen.generate")
    tracer.patch_function(lep, "lep_network", "model")
    tracer.patch_method(System, "__init__", "model")
    tracer.patch_function(query, "parse_query", "model")


def layer_totals(snapshot: dict) -> dict:
    """Per layer: [calls, self ns]; per check span: inclusive ns."""
    out: dict = {}
    for name, (layer, calls, self_ns, total_ns) in snapshot.items():
        row = out.setdefault(layer, [0, 0])
        row[0] += calls
        row[1] += self_ns
        if layer in ("gen.check", "gen.generate"):
            out[name] = total_ns
    return out


def merge_totals(into: dict, other: dict) -> dict:
    """Add one :func:`layer_totals` result to another, in place."""
    for key, value in other.items():
        if isinstance(value, list):
            row = into.setdefault(key, [0, 0])
            row[0] += value[0]
            row[1] += value[1]
        else:
            into[key] = into.get(key, 0) + value
    return into


def layer_metrics(totals: dict, ops: int) -> dict:
    """The per-layer metrics of ``BENCHMARK.json`` from summed totals."""
    ops = max(ops, 1)

    def self_ms(layer: str) -> float:
        return totals.get(layer, [0, 0])[1] / 1e6 / ops

    def calls(layer: str) -> float:
        return totals.get(layer, [0, 0])[0] / ops

    metrics = {
        "dbm.self_ms": self_ms("dbm"),
        "dbm.calls": calls("dbm"),
        "dbm.stack.self_ms": self_ms("dbm.stack"),
        "dbm.stack.calls": calls("dbm.stack"),
        "semantics.self_ms": self_ms("semantics"),
        "semantics.calls": calls("semantics"),
        "semantics.estimate.self_ms": self_ms("semantics.estimate"),
        "graph.self_ms": self_ms("graph"),
        "graph.nodes": calls("graph"),
        "game.fixpoint.self_ms": self_ms("game.fixpoint"),
        "game.predt.self_ms": self_ms("game.predt"),
        "game.strategy.self_ms": self_ms("game.strategy"),
        "testing.session.self_ms": self_ms("testing.session"),
        "testing.monitor.self_ms": self_ms("testing.monitor"),
        "testing.iut.self_ms": self_ms("testing.iut"),
        "server.wire.self_ms": self_ms("server.wire"),
        "model.build_ms": self_ms("model"),
        "gen.generate.ms": totals.get(
            "repro.gen.networks.generate_instance", 0
        ) / 1e6 / ops,
    }
    for name in CHECK_NAMES:
        metrics[f"gen.check.{name}.ms"] = (
            totals.get(f"gen.check.{name}", 0) / 1e6 / ops
        )
    return metrics


def attributed_ns(totals: dict) -> int:
    """All self time charged to some layer (gen spans included)."""
    return sum(v[1] for v in totals.values() if isinstance(v, list))
