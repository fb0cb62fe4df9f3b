"""``repro.util.counters``: per-thread tables, process totals, scoping."""

import threading

from repro.util import counters


def bump_in_thread(name: str, n: int = 1) -> None:
    thread = threading.Thread(target=counters.inc, args=(name, n))
    thread.start()
    thread.join()


def test_capture_keeps_other_threads_bumps_out_of_scope():
    counters.reset()
    scoped = {}
    with counters.capture(scoped):
        counters.inc("test.mine")
        bump_in_thread("test.theirs")
        counters.inc("test.mine")
    assert scoped == {"test.mine": 2}
    totals = counters.export()["counts"]
    assert totals["test.mine"] == 2
    assert totals["test.theirs"] == 1


def test_totals_sum_threads_and_reset_clears_them():
    counters.reset()
    counters.inc("test.shared", 2)
    bump_in_thread("test.shared", 3)
    counters.observe("test.size", 4)
    assert counters.export()["counts"]["test.shared"] == 5
    assert counters.snapshot()["test.size"] == {
        "count": 1, "mean": 4.0, "max": 4,
    }
    counters.reset()
    assert counters.export() == {"counts": {}, "stats": {}}


def test_merge_folds_into_the_totals():
    counters.reset()
    counters.inc("test.merged")
    counters.merge({
        "counts": {"test.merged": 2},
        "stats": {"test.size": [2, 10, 7]},
    })
    exported = counters.export()
    assert exported["counts"]["test.merged"] == 3
    assert exported["stats"]["test.size"] == [2, 10, 7]
