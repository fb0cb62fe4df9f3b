"""Shared harness for the paper's Table 1 (LEP strategy generation).

The paper reports, for test purposes TP1/TP2/TP3 and n = 3..8 LEP nodes,
the time (s) and memory (MB) of winning-strategy generation with
UPPAAL-TIGA, with "/" marking out-of-memory cells.  This module
regenerates that table with our solver, marking cells that exceed a
time/node budget with "/" in the same way.

Used both by ``benchmarks/test_bench_table1_lep.py`` (pytest-benchmark
timings per cell) and ``examples/lep_case_study.py`` (full table print).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.graph import ExplorationLimit
from repro.game import TwoPhaseSolver, OnTheFlySolver
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
    cells: Dict[str, Dict[int, Cell]] = {}
    for tp in TEST_PURPOSES:
        cells[tp] = {}
        for n in sizes:
            cells[tp][n] = solve_cell(
                tp,
                n,
                on_the_fly=on_the_fly,
                time_limit=time_limit,
                max_nodes=max_nodes,
                track_memory=track_memory,
            )
    return cells


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
    rows = []
    for tp in ("TP1", "TP2", "TP3"):
        rows.append(
            (
                f"{tp} time(s)",
                [
                    "/" if PAPER_TIME[tp][n] is None else str(PAPER_TIME[tp][n])
                    for n in sizes
                ],
            )
        )
    for tp in ("TP1", "TP2", "TP3"):
        rows.append(
            (
                f"{tp} mem(MB)",
                [
                    "/" if PAPER_MEMORY[tp][n] is None else str(PAPER_MEMORY[tp][n])
                    for n in sizes
                ],
            )
        )
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
