#!/usr/bin/env python
"""Cooperative testing — the paper's future-work item 4.

When a test purpose admits no winning strategy (the plant can always
dodge), the paper proposes a "small retreat": steer toward the goal and
rely on the plant's cooperation.  Verdicts: pass when the goal is
reached, fail only on genuine tioco violations, inconclusive when the
plant declines to cooperate.

The demo system: a server that answers each request with ``grant!`` or
``deny!``, its own choice — so "force a grant" is not winnable, but a
cooperative server grants immediately.

Run:  python examples/cooperative_testing.py
"""

from repro import (
    SessionConfig,
    System,
    execute_test,
    parse_query,
    solve_cooperative,
)
from repro.game.solver import solve_reachability_game
from repro.ta import NetworkBuilder
from repro.testing import EagerPolicy, SimulatedImplementation


def server_arena():
    net = NetworkBuilder("server")
    net.clock("x")
    net.input_channel("request")
    net.output_channel("grant", "deny")
    s = net.automaton("S")
    s.location("idle", initial=True)
    s.location("busy", invariant="x <= 3")
    s.location("granted")
    s.edge("idle", "busy", sync="request?", assign="x := 0")
    s.edge("busy", "granted", guard="x >= 1", sync="grant!")
    s.edge("busy", "idle", guard="x >= 1", sync="deny!")
    s.edge("granted", "granted", sync="request?")
    s.edge("busy", "busy", sync="request?")
    c = net.automaton("C")
    c.location("c", initial=True)
    c.edge("c", "c", sync="request!")
    c.edge("c", "c", sync="grant?")
    c.edge("c", "c", sync="deny?")
    return net.build()


def server_plant():
    net = NetworkBuilder("server-plant")
    net.clock("x")
    net.input_channel("request")
    net.output_channel("grant", "deny")
    s = net.automaton("S")
    s.location("idle", initial=True)
    s.location("busy", invariant="x <= 3")
    s.location("granted")
    s.edge("idle", "busy", sync="request?", assign="x := 0")
    s.edge("busy", "granted", guard="x >= 1", sync="grant!")
    s.edge("busy", "idle", guard="x >= 1", sync="deny!")
    s.edge("granted", "granted", sync="request?")
    s.edge("busy", "busy", sync="request?")
    return net.build()


class GrantingPolicy(EagerPolicy):
    """A cooperative server: grants whenever it can."""

    def choose(self, state, options, forced_by):
        grants = [o for o in options if o[0].label == "grant"]
        return super().choose(state, grants or options, forced_by)


class DenyingPolicy(EagerPolicy):
    """An uncooperative (but conforming!) server: always denies."""

    def choose(self, state, options, forced_by):
        denies = [o for o in options if o[0].label == "deny"]
        return super().choose(state, denies or options, forced_by)


def main():
    arena = System(server_arena())
    plant = System(server_plant())
    purpose = parse_query("control: A<> S.granted")

    result = solve_reachability_game(arena, purpose)
    print(f"purpose {purpose}: winning strategy exists = {result.winning}")
    print("  (the server chooses grant/deny itself: not controllable)\n")

    print("falling back to cooperative testing...")
    coop = solve_cooperative(arena, purpose)
    print(f"  goal cooperatively reachable: {coop.goal_reachable}\n")

    for name, policy in [
        ("cooperative server (grants)", GrantingPolicy()),
        ("uncooperative server (denies)", DenyingPolicy()),
    ]:
        imp = SimulatedImplementation(System(server_plant()), policy)
        run = execute_test(
            coop, plant, imp, config=SessionConfig(max_iterations=30)
        )
        print(f"  {name:32s}: {run}")

    print("\nnote: the uncooperative run is INCONCLUSIVE, not FAIL —")
    print("denying is conforming behaviour; soundness is preserved.")


if __name__ == "__main__":
    main()
