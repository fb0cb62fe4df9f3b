"""Compare two pytest-benchmark JSON files and emit a markdown delta.

Used by the CI bench-smoke job: the previous successful run's
``BENCH_<sha>.json`` is downloaded and compared against the current
one, and the speedup/regression table lands in the job summary.

Fail-soft by design: exit code is always 0 (a missing baseline or a
noisy runner must not break CI); regressions beyond the threshold are
surfaced as a loud warning line instead.

Usage::

    python benchmarks/bench_delta.py PREV.json CURRENT.json [--threshold 0.2]
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict


def load_medians(path: str) -> Dict[str, float]:
    with open(path) as handle:
        data = json.load(handle)
    return {b["name"]: b["stats"]["median"] for b in data.get("benchmarks", [])}


def load_extra_info(path: str) -> Dict[str, dict]:
    with open(path) as handle:
        data = json.load(handle)
    return {
        b["name"]: b.get("extra_info") or {}
        for b in data.get("benchmarks", [])
    }


def _no_baseline_table(cur: Dict[str, float], reason: str) -> None:
    """Explicit current-only table when there is nothing to compare to.

    A first run on a branch, an expired artifact, or an empty baseline
    file all land here; rendering the current medians (instead of one
    silent "skipping" line) keeps the job summary useful and makes the
    missing baseline impossible to miss.
    """
    print("## Benchmark delta: no baseline")
    print()
    print(f"{reason} — current run only, no comparison.")
    print()
    if not cur:
        print("(current run contains no benchmarks either)")
        return
    print("| benchmark | current (ms) | baseline |")
    print("|---|---:|---|")
    for name in sorted(cur):
        print(f"| `{name}` | {cur[name] * 1000:.2f} | _none_ |")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("previous", help="baseline benchmark JSON")
    parser.add_argument("current", help="current benchmark JSON")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.2,
        help="per-benchmark slowdown fraction that triggers a warning",
    )
    args = parser.parse_args(argv)

    try:
        cur = load_medians(args.current)
    except (OSError, ValueError, KeyError) as exc:
        print(f"bench-delta: could not load current run ({exc}); skipping")
        return 0
    try:
        prev = load_medians(args.previous)
    except (OSError, ValueError, KeyError) as exc:
        _no_baseline_table(cur, f"baseline unreadable ({exc})")
        return 0

    shared = sorted(set(prev) & set(cur))
    if not shared:
        reason = (
            "baseline file contains no benchmarks"
            if not prev
            else "no overlapping benchmarks with the baseline"
        )
        _no_baseline_table(cur, reason)
        return 0

    rows = []
    ratios = []
    regressions = []
    for name in shared:
        before, after = prev[name], cur[name]
        if before <= 0 or after <= 0:
            continue
        speedup = before / after
        ratios.append(speedup)
        rows.append((name, before, after, speedup))
        if after > before * (1 + args.threshold):
            regressions.append((name, speedup))

    ratios.sort()
    median = ratios[len(ratios) // 2] if ratios else 1.0

    print("## Benchmark delta vs previous run")
    print()
    print(f"{len(rows)} shared benchmarks, median speedup **{median:.2f}x** ")
    print()
    print("| benchmark | before (ms) | after (ms) | speedup |")
    print("|---|---:|---:|---:|")
    for name, before, after, speedup in sorted(rows, key=lambda r: r[3]):
        marker = " ⚠️" if after > before * (1 + args.threshold) else ""
        print(
            f"| `{name}` | {before * 1000:.2f} | {after * 1000:.2f} |"
            f" {speedup:.2f}x{marker} |"
        )
    print()
    if regressions:
        worst = min(regressions, key=lambda r: r[1])
        print(
            f"**WARNING**: {len(regressions)} benchmark(s) regressed more than"
            f" {args.threshold:.0%} (worst: `{worst[0]}` at {worst[1]:.2f}x)."
            f" Fail-soft: not failing the job; investigate before merging."
        )
    else:
        print("No regressions beyond the threshold.")

    # Win-set cache effectiveness, when the run recorded it (the warm
    # benchmarks attach the solver.warm_* counters as extra_info).
    try:
        extras = load_extra_info(args.current)
    except (OSError, ValueError, KeyError):
        extras = {}
    warm_rows = [
        (name, {k: v for k, v in sorted(info.items())
                if k.startswith("solver.warm_")})
        for name, info in sorted(extras.items())
    ]
    warm_rows = [(name, info) for name, info in warm_rows if info]
    if warm_rows:
        print()
        print("### Warm-cache counters (current run)")
        print()
        print("| benchmark | counters |")
        print("|---|---|")
        for name, info in warm_rows:
            cells = ", ".join(
                f"{key.split('solver.', 1)[1]}={value}"
                for key, value in info.items()
            )
            print(f"| `{name}` | {cells} |")

    # Kernel-backend selection, when the run recorded it (the kernel
    # microbenches attach the active backend name plus the
    # dbm.backend_* selection/fallback/demotion counters as extra_info).
    backend_rows = []
    for name, info in sorted(extras.items()):
        cells = {
            k: v
            for k, v in sorted(info.items())
            if k == "kernel_backend" or k.startswith("dbm.backend_")
        }
        if cells:
            backend_rows.append((name, cells))
    if backend_rows:
        print()
        print("### Kernel backend (current run)")
        print()
        print("| benchmark | backend | backend counters |")
        print("|---|---|---|")
        for name, info in backend_rows:
            backend = info.pop("kernel_backend", "?")
            cells = ", ".join(
                f"{key.split('dbm.', 1)[1]}={value}"
                for key, value in info.items()
            )
            print(f"| `{name}` | {backend} | {cells or '—'} |")

    # Fault-probe overhead, when the run recorded it (the chaos-control
    # benchmarks tag themselves with a faults_mode extra_info).  Each
    # armed_idle/disarmed pair shares a name modulo the mode token;
    # armed-but-never-firing probes are supposed to cost nothing, so a
    # pair whose ratio exceeds the regression threshold gets the same
    # loud fail-soft warning as a timing regression.
    pairs: Dict[str, Dict[str, str]] = {}
    for name, info in sorted(extras.items()):
        mode = info.get("faults_mode")
        if mode in ("disarmed", "armed_idle"):
            pairs.setdefault(name.replace(mode, "*"), {})[mode] = name
    probe_rows = []
    for base, modes in sorted(pairs.items()):
        if not {"disarmed", "armed_idle"} <= set(modes):
            continue
        disarmed = cur.get(modes["disarmed"], 0.0)
        armed = cur.get(modes["armed_idle"], 0.0)
        if disarmed > 0 and armed > 0:
            probe_rows.append((base, disarmed, armed, armed / disarmed))
    if probe_rows:
        print()
        print("### Fault-probe overhead (armed-idle vs disarmed, current run)")
        print()
        print("| benchmark | disarmed (ms) | armed idle (ms) | overhead |")
        print("|---|---:|---:|---:|")
        for base, disarmed, armed, ratio in probe_rows:
            marker = " ⚠️" if ratio > 1 + args.threshold else ""
            print(
                f"| `{base}` | {disarmed * 1000:.3f} | {armed * 1000:.3f} |"
                f" {ratio:.2f}x{marker} |"
            )
        print()
        noisy = [r for r in probe_rows if r[3] > 1 + args.threshold]
        if noisy:
            worst = max(noisy, key=lambda r: r[3])
            print(
                f"**WARNING**: armed-idle fault probes exceed the"
                f" {args.threshold:.0%} noise threshold on {len(noisy)}"
                f" pair(s) (worst: `{worst[0]}` at {worst[3]:.2f}x)."
                f" Disarmed sites must stay ~free; investigate the probe."
            )
        else:
            print("Armed-idle fault probes are within noise of the"
                  " disarmed path.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
