"""Differential fuzzing CLI: ``python -m repro.gen.cli --count 200 --seed 0``.

Generates instances round-robin over the scenario families and runs the
differential oracle checks of :mod:`repro.gen.differential` on each, plus
a batch of zone-algebra trials.  Exit code 0 means zero disagreements;
any disagreement is printed with its reproducing seed, family, structural
hash, and (unless ``--no-shrink``) a shrunk reproducer.

With ``--corpus DIR`` the campaign becomes part of the persistent
coverage-guided fabric (:mod:`repro.corpus`): finished instances are
inserted into the on-disk corpus keyed by structural hash, a mutation
budget is spent on the rarest-signature corpus entries (appended to the
base instances as ``mutate_instance`` tasks), and progress is journaled
so an interrupted run — ``Ctrl-C`` (exit 130) or ``--stop-after N``
(exit 3) — continues with ``--resume`` and still produces the
byte-identical report an uninterrupted run would have, for any
``--jobs`` value on either side.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict
from typing import List, Optional

from ..corpus import (
    CampaignCheckpoint,
    CheckpointMismatch,
    Corpus,
    campaign_fingerprint,
    fingerprint_core,
    plan_mutations,
)
from .. import faults
from ..dbm import backends as dbm_backends
from ..par import parse_jobs
from ..util import counters
from .differential import CHECKS, DiffConfig, run_campaign
from .networks import DEFAULT_FAMILIES, GenConfig


def _parse_list(value: str, known, what: str) -> List[str]:
    names = [part.strip() for part in value.split(",") if part.strip()]
    for name in names:
        if name not in known:
            raise SystemExit(
                f"unknown {what} {name!r}; known: {', '.join(known)}"
            )
    if not names:
        raise SystemExit(f"no {what} selected")
    return names


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.gen.cli",
        description="Differentially fuzz the solvers, semantics, and"
        " conformance monitors on random timed I/O game networks.",
    )
    parser.add_argument("--count", type=int, default=50, help="instances to run")
    parser.add_argument("--seed", type=int, default=0, help="base seed")
    parser.add_argument(
        "--families",
        default=",".join(DEFAULT_FAMILIES),
        help=f"comma-separated families (default: all of {', '.join(DEFAULT_FAMILIES)})",
    )
    parser.add_argument(
        "--checks",
        default=",".join(CHECKS),
        help=f"comma-separated checks (default: {', '.join(CHECKS)})",
    )
    parser.add_argument(
        "--zone-trials", type=int, default=40, help="zone-algebra trials"
    )
    parser.add_argument(
        "--max-nodes",
        type=int,
        default=4000,
        help="exploration budget per solver (larger instances are skipped)",
    )
    parser.add_argument(
        "--steps", type=int, default=30, help="steps per simulated run"
    )
    parser.add_argument(
        "--max-estimate-states",
        type=int,
        default=256,
        help="symbolic state-set budget of the conformance monitors and"
        " estimate differential (raise it so hidden-move-rich instances"
        " run instead of SKIPping on EstimateLimit)",
    )
    parser.add_argument(
        "--no-fixpoint",
        action="store_true",
        help="skip the per-node fixpoint re-check (faster)",
    )
    parser.add_argument(
        "--no-shrink", action="store_true", help="report failures unshrunk"
    )
    parser.add_argument(
        "--fail-fast", action="store_true", help="stop at the first disagreement"
    )
    parser.add_argument(
        "--max-locations",
        type=int,
        default=None,
        help="override GenConfig.max_locations (scaling experiments)",
    )
    parser.add_argument(
        "--jobs",
        default="1",
        metavar="N|auto",
        help="shard the campaign across N worker processes ('auto' ="
        " usable CPUs).  The report is byte-identical for every value"
        " given the same --seed/--count (statuses, family counts, failing"
        " seeds, shrunk reproducers); only elapsed time and profiling"
        " counters vary",
    )
    parser.add_argument(
        "--corpus",
        metavar="DIR",
        default=None,
        help="persistent corpus directory: insert finished instances"
        " (keyed by structural hash), schedule mutations of the rarest"
        " coverage signatures, and journal progress for --resume",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="continue the interrupted campaign journaled in --corpus"
        " (the mutation plan is replayed from the checkpoint, so the"
        " completed report is byte-identical to an uninterrupted run)",
    )
    parser.add_argument(
        "--mutations",
        type=int,
        default=None,
        metavar="N",
        help="mutation budget spent on rare corpus entries (default:"
        " count // 4, capped at 50; 0 disables; needs --corpus)",
    )
    parser.add_argument(
        "--stop-after",
        type=int,
        default=None,
        metavar="N",
        help="process at most N pending tasks, checkpoint, and exit 3"
        " (a controlled interrupt: CI smoke and the resume tests use it)",
    )
    parser.add_argument(
        "--report-json",
        metavar="PATH",
        default=None,
        help="write a machine-readable campaign report (failing seeds,"
        " families, structural hashes) to PATH — uploaded as a CI artifact"
        " by the nightly deep-fuzz job",
    )
    parser.add_argument(
        "--kernel-backend",
        choices=["numpy", "cext", "auto"],
        default=None,
        metavar="NAME",
        help="dispatch hot DBM kernels through this backend for the whole"
        " campaign (numpy|cext|auto; default: the"
        " REPRO_KERNEL_BACKEND environment variable, else auto: cext,"
        " then numpy)."
        " Results are backend-independent — the always-on 'kernel' check"
        " enforces exactness — so this is a speed/soak knob",
    )
    parser.add_argument(
        "--faults",
        metavar="SPEC",
        default=None,
        help="arm a deterministic fault-injection plan for the campaign"
        " (see repro.faults), exported as REPRO_FAULTS so pool workers"
        " self-arm; e.g. 'par.worker.crash:3;corpus.store.write:every=7'."
        " When retries absorb every injected fault the report is"
        " byte-identical to the fault-free run",
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    return parser


#: Keys of the report payload that legitimately vary between runs of the
#: same campaign (wall clock; worker count; per-worker memo-cache hit
#: rates showing up in the profiling counters; corpus growth — per-run
#: coverage deltas depend on process-global memo caches, so what counts
#: as a "new" entry is scheduling-dependent).  Everything else is
#: byte-identical for a fixed --seed/--count, whatever --jobs says — the
#: determinism tests compare payloads with these keys stripped.
VOLATILE_REPORT_KEYS = ("elapsed_seconds", "jobs", "counters", "corpus")


def _diff_config_from_args(args) -> DiffConfig:
    """The check-effort knobs, CLI → :class:`DiffConfig`."""
    return DiffConfig(
        max_nodes=args.max_nodes,
        sim_steps=args.steps,
        conf_steps=args.steps,
        check_fixpoint=not args.no_fixpoint,
        max_estimate_states=args.max_estimate_states,
    )


def _report_payload(
    summary, args, elapsed: float, jobs: int, mutations: int,
    corpus_stats: Optional[dict],
) -> dict:
    """The JSON artifact of a campaign: everything needed to reproduce."""
    return {
        "ok": summary.ok,
        "partial": summary.partial,
        "count": args.count,
        "seed": args.seed,
        "families": args.families,
        "checks": args.checks,
        "max_locations": args.max_locations,
        #: Mutation tasks appended after the base instances — frozen at
        #: plan time (or replayed from the checkpoint), so deterministic
        #: across --jobs and across interrupt/resume.
        "mutations": mutations,
        "elapsed_seconds": round(elapsed, 3),
        "jobs": jobs,
        # Op-level profiling aggregated across the pool (workers export
        # their counter state, the parent merges) — without the merge
        # these would silently read zero under --jobs > 1.
        "counters": {
            name: value for name, value in sorted(counters.snapshot().items())
        },
        # Volatile corpus snapshot stats (None without --corpus).
        "corpus": corpus_stats,
        "counts": summary.counts(),
        # Per-family oracle coverage (nightly artifacts track that the
        # conformance check really runs on multi-automaton plants).
        "family_counts": summary.counts_by_family(),
        "zone_trials": summary.zone_trials,
        "zone_failures": summary.zone_failures,
        "failures": [
            {
                "seed": report.seed,
                "family": report.family,
                "mutation_seed": report.mutation_seed,
                "structural_hash": report.structural_hash,
                "description": report.description,
                "checks": [
                    {"name": result.name, "detail": result.detail}
                    for result in report.failures
                ],
                "shrunk": report.shrunk,
                "reproduce": report.reproducer(),
            }
            for report in summary.failed_reports
        ],
    }


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.kernel_backend:
        # Via the environment (not set_backend) so campaign worker
        # processes inherit the same selection.
        os.environ[dbm_backends.ENV_VAR] = args.kernel_backend
        dbm_backends.set_backend(None)
    if args.faults:
        # Arm here and via the environment: pool workers self-arm from
        # REPRO_FAULTS at their first injection probe.
        try:
            faults.install(args.faults)
        except ValueError as err:
            raise SystemExit(f"--faults: {err}")
        os.environ[faults.ENV_VAR] = args.faults
    families = _parse_list(args.families, DEFAULT_FAMILIES, "family")
    checks = _parse_list(args.checks, CHECKS, "check")
    try:
        jobs = parse_jobs(args.jobs)
    except ValueError as err:
        raise SystemExit(str(err))
    gen_config = GenConfig()
    if args.max_locations is not None:
        gen_config = gen_config.scaled(max_locations=args.max_locations)
    diff_config = _diff_config_from_args(args)

    # ------------------------------------------------------------------
    # Corpus / checkpoint wiring
    # ------------------------------------------------------------------
    if args.resume and not args.corpus:
        raise SystemExit("--resume requires --corpus DIR")
    corpus: Optional[Corpus] = None
    checkpoint: Optional[CampaignCheckpoint] = None
    mutation_tasks = []
    if args.corpus:
        corpus = Corpus(args.corpus)
        checkpoint = CampaignCheckpoint(
            os.path.join(args.corpus, "checkpoint.jsonl")
        )
        core = fingerprint_core(
            campaign_fingerprint(
                args.count, args.seed, families, checks,
                asdict(gen_config), asdict(diff_config), (),
            )
        )
        if args.resume and checkpoint.exists():
            try:
                checkpoint.load(expected_core=core)
            except CheckpointMismatch as err:
                raise SystemExit(str(err))
            # The plan replays from the journal header — never re-planned
            # against the (possibly grown) corpus — so the resumed run
            # completes the *same* campaign it interrupts.
            mutation_tasks = checkpoint.mutations()
            print(
                f"resuming: {len(checkpoint.completed())} tasks journaled,"
                f" {len(mutation_tasks)} scheduled mutations",
                file=sys.stderr,
            )
        else:
            budget = (
                args.mutations
                if args.mutations is not None
                else min(50, args.count // 4)
            )
            mutation_tasks = plan_mutations(corpus, budget)
            checkpoint.start(
                campaign_fingerprint(
                    args.count, args.seed, families, checks,
                    asdict(gen_config), asdict(diff_config), mutation_tasks,
                )
            )

    started = time.monotonic()
    counters.reset()
    total = args.count + len(mutation_tasks)
    done = 0

    def progress(report) -> None:
        nonlocal done
        done += 1
        if args.verbose:
            status = "ok" if report.ok else "FAIL"
            print(f"[{done}/{total}] {status} {report.description}")
        elif done % 25 == 0:
            print(f"... {done}/{total} instances", file=sys.stderr)

    try:
        summary = run_campaign(
            count=args.count,
            seed=args.seed,
            families=families,
            gen_config=gen_config,
            diff_config=diff_config,
            checks=checks,
            zone_trials=args.zone_trials,
            shrink=not args.no_shrink,
            fail_fast=args.fail_fast,
            on_report=progress,
            jobs=jobs,
            mutations=[tuple(task) for task in mutation_tasks],
            checkpoint=checkpoint,
            stop_after=args.stop_after,
        )
    except KeyboardInterrupt:
        if checkpoint is not None:
            checkpoint.close()
            print(
                "\ninterrupted — progress journaled; continue with"
                " --corpus DIR --resume",
                file=sys.stderr,
            )
            return 130
        raise
    elapsed = time.monotonic() - started

    corpus_stats: Optional[dict] = None
    if corpus is not None and checkpoint is not None:
        if summary.partial:
            checkpoint.close()  # journal stays for --resume
        else:
            inserted = sum(
                1 for report in summary.reports if corpus.add_report(report)
            )
            checkpoint.finalize()
            corpus_stats = dict(corpus.stats())
            corpus_stats["dir"] = args.corpus
            corpus_stats["new_entries"] = inserted

    print(summary.format(verbose=False))
    print(f"elapsed: {elapsed:.1f}s (jobs={jobs})")
    if args.report_json:
        with open(args.report_json, "w", encoding="utf-8") as handle:
            json.dump(
                _report_payload(
                    summary, args, elapsed, jobs, len(mutation_tasks),
                    corpus_stats,
                ),
                handle,
                indent=2,
            )
            handle.write("\n")
        print(f"report written to {args.report_json}")
    if summary.partial:
        return 3
    return 0 if summary.ok else 1


if __name__ == "__main__":
    sys.exit(main())
