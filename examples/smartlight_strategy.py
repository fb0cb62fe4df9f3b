#!/usr/bin/env python
"""The paper's running example end to end (Fig. 2, 3, and 5).

* builds the Smart Light plant TIOGA (Fig. 2) and user TA (Fig. 3);
* checks the test purpose ``control: A<> IUT.Bright`` with both solver
  variants and synthesizes the winning strategy — the analogue of the
  UPPAAL-TIGA output shown in the paper's Fig. 5;
* prints the strategy in Fig. 5 style;
* executes it as a test case against conforming implementations with
  different output policies, showing the timed traces.

Run:  python examples/smartlight_strategy.py
"""

from repro import Strategy, System, execute_test, parse_query
from repro.game import OnTheFlySolver, TwoPhaseSolver
from repro.models.smartlight import smartlight_network, smartlight_plant
from repro.testing import (
    EagerPolicy,
    LazyPolicy,
    QuiescentPolicy,
    RandomPolicy,
    SimulatedImplementation,
)
from repro.util import stopwatch

PURPOSE = "control: A<> IUT.Bright"


def main():
    arena = System(smartlight_network())
    plant = System(smartlight_plant())
    query = parse_query(PURPOSE)

    print("model: Smart Light (Fig. 2/3), Tidle=20, Tsw=4, Tp<=2, Treact=1")
    print(f"test purpose: {PURPOSE}\n")

    for name, solver_cls in (("two-phase", TwoPhaseSolver),
                             ("on-the-fly", OnTheFlySolver)):
        with stopwatch() as timer:
            result = solver_cls(System(smartlight_network()), query).solve()
        print(
            f"{name:11s}: winning={result.winning}"
            f"  symbolic states={result.nodes_explored}"
            f"  fixpoint steps={result.steps}"
            f"  time={timer.seconds * 1000:.1f} ms"
        )

    result = TwoPhaseSolver(arena, query).solve()
    strategy = Strategy(result)

    print(f"\nwinning strategy ({strategy.size} symbolic states), Fig. 5 style:")
    print("-" * 72)
    print(strategy.describe())
    print("-" * 72)

    print("\ntest executions against conforming implementations:")
    policies = [
        ("eager (answers asap)", EagerPolicy()),
        ("lazy (answers at the deadline)", LazyPolicy()),
        ("quiescent (silent unless forced)", QuiescentPolicy()),
        ("random seed 1", RandomPolicy(1)),
        ("random seed 7", RandomPolicy(7)),
    ]
    for name, policy in policies:
        imp = SimulatedImplementation(System(smartlight_plant()), policy)
        run = execute_test(strategy, plant, imp)
        print(f"  {name:34s} {run}")


if __name__ == "__main__":
    main()
