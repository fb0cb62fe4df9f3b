#!/usr/bin/env python
"""The Leader Election Protocol case study — regenerates the paper's
Table 1 (strategy-generation time and memory for TP1/TP2/TP3, n nodes).

The paper reports, for test purposes TP1/TP2/TP3 and n = 3..8 LEP nodes,
the time (s) and memory (MB) of winning-strategy generation with
UPPAAL-TIGA, with "/" marking out-of-memory cells.  This script prints
that table, then regenerates it with this library's solvers: the
on-the-fly solver over n = 3..8 and the exhaustive (two-phase) solver
over a smaller range, each under a per-cell time budget.  Cells over
budget print as "/" exactly like the paper's out-of-memory cells.  It
ends with the qualitative claims the reproduction must satisfy (the
shape checks) and one on-the-fly cell past the paper's range, TP2 n=12.

Run:  python examples/lep_case_study.py [--full] [--budget SECONDS]

``--full`` extends the exhaustive sweep to n = 3..8 (expect the larger n
to take minutes or hit the budget — that blow-up IS the result).

The harness functions (``solve_cell``, ``generate_table``, the two
renderers and ``shape_checks``) are importable by path; the tier-1 suite
runs ``shape_checks`` on a quick n = 3..5 sweep.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.game import OnTheFlySolver, TwoPhaseSolver
from repro.graph import ExplorationLimit
from repro.models.lep import TEST_PURPOSES, lep_network
from repro.semantics.system import System
from repro.tctl import parse_query
from repro.util import Measurement, format_table, measure

#: The paper's Table 1 (DATE 2008), for shape comparison in reports.
PAPER_TIME = {
    "TP1": {3: 0.03, 4: 0.14, 5: 0.7, 6: 3.1, 7: 11.1, 8: 33.5},
    "TP2": {3: 0.81, 4: 2.13, 5: 8.4, 6: 67.1, 7: 452.0, 8: None},
    "TP3": {3: 0.89, 4: 2.79, 5: 25.9, 6: 73.2, 7: 453.8, 8: None},
}
PAPER_MEMORY = {
    "TP1": {3: 0.1, 4: 4, 5: 9, 6: 28, 7: 85, 8: 242},
    "TP2": {3: 11.2, 4: 33, 5: 88, 6: 462, 7: 2977, 8: None},
    "TP3": {3: 11.9, 4: 40, 5: 289, 6: 578, 7: 3015, 8: None},
}


@dataclass
class Cell:
    tp: str
    n: int
    measurement: Measurement

    @property
    def winning(self) -> Optional[bool]:
        result = self.measurement.result
        return None if result is None else result.winning

    @property
    def nodes(self) -> Optional[int]:
        result = self.measurement.result
        return None if result is None else result.nodes_explored


def solve_cell(
    tp: str,
    n: int,
    *,
    on_the_fly: bool = True,
    time_limit: Optional[float] = 60.0,
    max_nodes: Optional[int] = None,
    track_memory: bool = True,
) -> Cell:
    """Generate the winning strategy for one (TP, n) cell.

    The time is always that of an untraced solve.  With
    ``track_memory`` the peak heap comes from a second solve, on a fresh
    model, under tracemalloc, which slows a solve 2.5-3.5x and so must
    stay out of the time column.  That solve has no time limit: the
    same solve already finished within it untraced.
    """
    query = parse_query(TEST_PURPOSES[tp])
    solver_cls = OnTheFlySolver if on_the_fly else TwoPhaseSolver

    def solve(limit: Optional[float]):
        system = System(lep_network(n))
        return lambda: solver_cls(
            system, query, time_limit=limit, max_nodes=max_nodes
        ).solve()

    swallow = (ExplorationLimit, MemoryError)
    timed = measure(solve(time_limit), track_memory=False, swallow=swallow)
    if not track_memory or timed.failed:
        return Cell(tp, n, timed)
    memory = measure(solve(None), track_memory=True, swallow=swallow)
    return Cell(
        tp,
        n,
        Measurement(timed.seconds, memory.peak_mb, timed.result, timed.error),
    )


def generate_table(
    sizes: List[int],
    *,
    on_the_fly: bool = True,
    time_limit: Optional[float] = 60.0,
    max_nodes: Optional[int] = None,
    track_memory: bool = True,
) -> Dict[str, Dict[int, Cell]]:
    """One :func:`solve_cell` per test purpose and size."""
    return {
        tp: {
            n: solve_cell(
                tp,
                n,
                on_the_fly=on_the_fly,
                time_limit=time_limit,
                max_nodes=max_nodes,
                track_memory=track_memory,
            )
            for n in sizes
        }
        for tp in TEST_PURPOSES
    }


def render_table(cells: Dict[str, Dict[int, Cell]], title: str) -> str:
    sizes = sorted(next(iter(cells.values())).keys())
    rows = []
    for tp in ("TP1", "TP2", "TP3"):
        time_cells = [cells[tp][n].measurement.cell() for n in sizes]
        rows.append((f"{tp} time(s)", time_cells))
    for tp in ("TP1", "TP2", "TP3"):
        mem_cells = [cells[tp][n].measurement.memory_cell() for n in sizes]
        rows.append((f"{tp} mem(MB)", mem_cells))
    return format_table(title, [f"n={n}" for n in sizes], rows)


def render_paper_table() -> str:
    sizes = [3, 4, 5, 6, 7, 8]

    def row(label: str, column: Dict[int, Optional[float]]):
        return label, ["/" if column[n] is None else str(column[n]) for n in sizes]

    rows = [row(f"{tp} time(s)", PAPER_TIME[tp]) for tp in ("TP1", "TP2", "TP3")]
    rows += [row(f"{tp} mem(MB)", PAPER_MEMORY[tp]) for tp in ("TP1", "TP2", "TP3")]
    return format_table(
        "Paper Table 1 (UPPAAL-TIGA, 2.4GHz dual-core, 4GB)",
        [f"n={n}" for n in sizes],
        rows,
    )


def shape_checks(cells: Dict[str, Dict[int, Cell]]) -> List[str]:
    """The qualitative claims the reproduction must satisfy."""
    failures = []
    sizes = sorted(next(iter(cells.values())).keys())
    # 1. Every solved cell reports a winning game (paper: all TPs true).
    for tp, row in cells.items():
        for n, cell in row.items():
            if cell.winning is False:
                failures.append(f"{tp} n={n}: purpose unexpectedly not winning")
    # 2. TP2/TP3 are markedly harder than TP1 at the same n.
    for n in sizes:
        tp1 = cells["TP1"][n]
        for tp in ("TP2", "TP3"):
            other = cells[tp][n]
            if tp1.nodes and other.nodes and other.nodes < tp1.nodes:
                failures.append(f"{tp} n={n}: explored fewer nodes than TP1")
    # 3. Work grows with n for TP2 (super-linear state-space growth).
    tp2 = [cells["TP2"][n] for n in sizes]
    nodes = [c.nodes for c in tp2 if c.nodes is not None]
    if len(nodes) >= 3 and not all(a < b for a, b in zip(nodes, nodes[1:])):
        failures.append("TP2: node counts not monotonically increasing in n")
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--full", action="store_true",
                        help="run the exhaustive solver on the full 3..8 range")
    parser.add_argument("--budget", type=float, default=60.0,
                        help="per-cell time budget in seconds (default 60)")
    args = parser.parse_args()

    print(render_paper_table())
    print()

    otf_sizes = [3, 4, 5, 6, 7, 8]
    print("running on-the-fly solver (SOTFTG analogue), this takes ~1 min...")
    otf = generate_table(otf_sizes, on_the_fly=True, time_limit=args.budget)
    print(render_table(
        otf, f"Reproduction, on-the-fly solver (budget {args.budget:.0f}s/cell)"
    ))
    print()

    full_sizes = otf_sizes if args.full else [3, 4, 5]
    print(f"running exhaustive solver on n={full_sizes} "
          f"(full winning sets; the paper-style blow-up)...")
    full = generate_table(full_sizes, on_the_fly=False, time_limit=args.budget)
    print(render_table(
        full, f"Reproduction, exhaustive solver (budget {args.budget:.0f}s/cell)"
    ))

    print("\nshape checks (the qualitative Table 1 claims):")
    failures = shape_checks(otf)
    if failures:
        for failure in failures:
            print(f"  FAIL {failure}")
        return 1
    print("  ok: all purposes winning on every solved cell")
    print("  ok: TP2/TP3 substantially harder than TP1 at every n")
    print("  ok: TP2 work grows monotonically (super-linearly) with n")
    print("\nnode counts (explored symbolic states), on-the-fly:")
    for tp in ("TP1", "TP2", "TP3"):
        counts = ", ".join(
            f"n={n}: {otf[tp][n].nodes if otf[tp][n].nodes is not None else '/'}"
            for n in otf_sizes
        )
        print(f"  {tp}: {counts}")

    # Past the paper's range: TP2 ran out of 4 GB at n=8 under
    # UPPAAL-TIGA.  Time only: a tracemalloc solve would triple it.
    big = solve_cell("TP2", 12, time_limit=args.budget, track_memory=False)
    nodes = "/" if big.nodes is None else f"{big.nodes:,}"
    print(f"\nTP2 n=12, on-the-fly: {big.measurement.cell()} s, {nodes} nodes,"
          f" winning={big.winning}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
