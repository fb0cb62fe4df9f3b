"""Table 1 — LEP winning-strategy generation (paper §4).

Reproduces the paper's benchmark: strategy generation time and memory for
test purposes TP1/TP2/TP3 over n = 3..8 LEP nodes.

Absolute numbers are not comparable (CPython interpreter vs the 2008 C++
UPPAAL-TIGA and a reconstructed model), but the shape is reproduced and
asserted:

* all three purposes are winning for every solved n;
* TP2/TP3 are substantially harder than TP1 at the same n;
* TP2/TP3 work grows super-linearly in n;
* cells over budget are reported as "/" exactly like the paper's
  out-of-memory cells.

Run with ``pytest benchmarks/ --benchmark-only``.  The full 3..8 table
(including "/" cells) is regenerated by ``examples/lep_case_study.py``.
"""

import pytest

from benchmarks.table1 import render_table, shape_checks, solve_cell
from repro.util import counters


def _attach_counters(benchmark):
    """Op-level profile of the run: closures, updates, federation sizes."""
    snap = counters.snapshot()
    for key in (
        "dbm.closures",
        "solver.updates",
        "solver.update_skipped",
        "federation.zones",
    ):
        if key in snap:
            benchmark.extra_info[key] = snap[key]

#: On-the-fly solving handles the paper's full range on a laptop;
#: exhaustive (two-phase) solving blows up like the paper's numbers do.
OTF_SIZES = [3, 4, 5, 6, 7, 8]
FULL_SIZES = [3, 4]


@pytest.mark.parametrize("n", OTF_SIZES)
@pytest.mark.parametrize("tp", ["TP1", "TP2", "TP3"])
def test_table1_cell_on_the_fly(benchmark, tp, n):
    """One Table 1 cell: strategy generation with the SOTFTG analogue."""

    def run():
        counters.reset()
        return solve_cell(
            tp, n, on_the_fly=True, time_limit=120, track_memory=False
        )

    cell = benchmark.pedantic(run, rounds=1, iterations=1)
    assert not cell.measurement.failed
    assert cell.winning
    benchmark.extra_info["nodes"] = cell.nodes
    benchmark.extra_info["winning"] = cell.winning
    _attach_counters(benchmark)


@pytest.mark.parametrize("n", FULL_SIZES)
@pytest.mark.parametrize("tp", ["TP1", "TP2", "TP3"])
def test_table1_cell_exhaustive(benchmark, tp, n):
    """The exhaustive variant (full winning-set computation, like a
    verification run): shows the paper's blow-up already at small n."""

    def run():
        counters.reset()
        return solve_cell(
            tp, n, on_the_fly=False, time_limit=120, track_memory=False
        )

    cell = benchmark.pedantic(run, rounds=1, iterations=1)
    assert not cell.measurement.failed
    assert cell.winning
    benchmark.extra_info["nodes"] = cell.nodes
    _attach_counters(benchmark)


def test_table1_shape(tmp_path):
    """The qualitative Table 1 claims, asserted on a quick 3..5 sweep."""
    from benchmarks.table1 import generate_table

    cells = generate_table([3, 4, 5], on_the_fly=True, time_limit=60,
                           track_memory=False)
    failures = shape_checks(cells)
    assert not failures, "\n".join(failures)
    print()
    print(render_table(cells, "Table 1 (reproduction, on-the-fly, n=3..5)"))
