"""Crash-safe campaign checkpointing: an append-only JSONL journal.

One file, ``checkpoint.jsonl`` inside the corpus directory.  The first
line is a header carrying the campaign *fingerprint* — everything the
task list derives from (count, seed, families, checks, config knobs)
plus the planned mutation tasks themselves.  Every line after it is one
finished task: ``{"index": i, "report": {...}}``, appended and flushed
as results land, in completion order.

Two properties matter:

* **The plan is frozen in the header.**  A resumed run rebuilds its
  task list from the recorded mutation plan, not by re-planning against
  the corpus — so the corpus may grow between interrupt and resume
  without changing what the interrupted campaign means, and the resumed
  report is byte-identical to an uninterrupted run at the snapshot the
  plan was made from.
* **Torn tails are survivable.**  A process killed mid-append leaves at
  most one truncated last line; loading tolerates (and drops) exactly
  that, then the task re-runs.  Anything else malformed — or a header
  that does not match the resuming campaign's arguments — raises
  :class:`CheckpointMismatch` rather than silently mixing campaigns.

The journal is transient: :meth:`finalize` removes it once the campaign
completes (that is also the moment results graduate into the corpus).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from .. import faults
from ..gen.differential import InstanceReport
from .schedule import MutationTask, tasks_from_lists

_KIND_HEADER = "header"
_KIND_REPORT = "report"


class CheckpointMismatch(RuntimeError):
    """The journal on disk belongs to a different campaign."""


@dataclass
class JournalScan:
    """What :func:`scan_journal` found: the valid prefix and the damage."""

    rows: List[Dict[str, object]]  # header first, then report rows
    good_bytes: int  # length of the valid prefix
    size: int  # length of the whole file
    torn_tail: bool  # last line unparseable: a mid-append kill
    corrupt_line: Optional[int]  # 1-based first bad line before the tail


def scan_journal(path: str) -> JournalScan:
    """Scan a journal up to its first bad line.

    Line 1 must be a header and every later line a report row.  An
    unparseable *last* line is a torn tail, survivable by design; any
    other bad line is corruption, and the scan stops before it.
    """
    with open(path, "rb") as handle:
        raw = handle.read()
    lines = raw.decode("utf-8").split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    scan = JournalScan([], 0, len(raw), False, None)
    for pos, line in enumerate(lines):
        try:
            row = json.loads(line)
        except ValueError:
            if pos == len(lines) - 1:
                scan.torn_tail = True
            else:
                scan.corrupt_line = pos + 1
            break
        kind = _KIND_HEADER if pos == 0 else _KIND_REPORT
        if not isinstance(row, dict) or row.get("kind") != kind:
            scan.corrupt_line = pos + 1
            break
        scan.rows.append(row)
        scan.good_bytes += len(line.encode("utf-8")) + 1
    return scan


def campaign_fingerprint(
    count: int,
    seed: int,
    families: Sequence[str],
    checks: Optional[Sequence[str]],
    gen_config: Optional[dict],
    diff_config: Optional[dict],
    mutations: Sequence[MutationTask],
) -> Dict[str, object]:
    """The JSON-safe identity of a campaign, mutation plan included."""
    return {
        "count": count,
        "seed": seed,
        "families": list(families),
        "checks": list(checks) if checks is not None else None,
        "gen_config": gen_config,
        "diff_config": diff_config,
        "mutations": [task.to_list() for task in mutations],
    }


def fingerprint_core(fingerprint: Dict[str, object]) -> Dict[str, object]:
    """The argument-derived part (everything except the mutation plan)."""
    return {k: v for k, v in fingerprint.items() if k != "mutations"}


class CampaignCheckpoint:
    """The journal handle :func:`repro.gen.run_campaign` records into."""

    def __init__(self, path: str):
        self.path = path
        self.fingerprint: Optional[Dict[str, object]] = None
        self._completed: Dict[int, InstanceReport] = {}
        self._handle = None
        self._torn_at: Optional[int] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def exists(self) -> bool:
        return os.path.exists(self.path)

    def start(self, fingerprint: Dict[str, object]) -> None:
        """Begin a fresh journal (truncating any stale one)."""
        self.fingerprint = fingerprint
        self._completed = {}
        os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
        self._handle = open(self.path, "w", encoding="utf-8")
        self._append({"kind": _KIND_HEADER, "fingerprint": fingerprint})

    def load(
        self, expected_core: Optional[Dict[str, object]] = None
    ) -> Dict[str, object]:
        """Read an existing journal; returns the recorded fingerprint.

        ``expected_core`` (from the resuming run's arguments) must match
        the header's argument-derived part, or the journal belongs to a
        different campaign and resuming would corrupt both.
        """
        scan = scan_journal(self.path)
        if scan.corrupt_line is not None:
            raise CheckpointMismatch(
                f"{self.path}: malformed journal line {scan.corrupt_line}"
            )
        if not scan.rows:
            raise CheckpointMismatch(f"{self.path}: empty journal")
        fingerprint = scan.rows[0]["fingerprint"]
        completed = {
            int(row["index"]): InstanceReport.from_dict(row["report"])
            for row in scan.rows[1:]
        }
        if expected_core is not None:
            core = fingerprint_core(fingerprint)
            if core != expected_core:
                mismatched = sorted(
                    key
                    for key in set(core) | set(expected_core)
                    if core.get(key) != expected_core.get(key)
                )
                raise CheckpointMismatch(
                    f"{self.path}: journal belongs to a different campaign"
                    f" (differs in: {', '.join(mismatched)})"
                )
        if scan.good_bytes < scan.size:
            # Drop the torn tail *on disk* before appending, or the
            # next record would merge into the half-written line — lost
            # on the next load and malformed (a middle line) on the one
            # after that.
            with open(self.path, "r+b") as handle:
                handle.truncate(scan.good_bytes)
        self.fingerprint = fingerprint
        self._completed = completed
        self._handle = open(self.path, "a", encoding="utf-8")
        return fingerprint

    def finalize(self) -> None:
        """The campaign completed: close and remove the journal."""
        self.close()
        try:
            os.remove(self.path)
        except FileNotFoundError:
            pass

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    # ------------------------------------------------------------------
    # The run_campaign protocol
    # ------------------------------------------------------------------

    def record(self, index: int, report: InstanceReport) -> None:
        """Journal one finished task (flushed: survives a kill)."""
        self._completed[index] = report
        self._append(
            {"kind": _KIND_REPORT, "index": index, "report": report.to_dict()}
        )

    def completed(self) -> Dict[int, InstanceReport]:
        return dict(self._completed)

    def mutations(self) -> List[MutationTask]:
        """The mutation plan frozen in the header."""
        if self.fingerprint is None:
            return []
        return tasks_from_lists(self.fingerprint.get("mutations", []))

    # ------------------------------------------------------------------

    def _append(self, row: Dict[str, object]) -> None:
        if self._handle is None:  # pragma: no cover - misuse guard
            raise RuntimeError("checkpoint not started or loaded")
        if self._torn_at is not None:
            # A previous append was injected-torn; a real tear can only
            # ever sit at the tail, so the next successful append first
            # truncates it away (exactly what crash recovery does).
            self._handle.truncate(self._torn_at)
            self._handle.seek(self._torn_at)
            self._torn_at = None
        line = json.dumps(row, sort_keys=True, separators=(",", ":")) + "\n"
        if faults.should_fire("corpus.checkpoint.write"):
            # Injected mid-append kill: flush half a line and stop, the
            # exact torn tail :meth:`load` is contracted to survive.
            self._torn_at = self._handle.tell()
            self._handle.write(line[: max(1, len(line) // 2)])
            self._handle.flush()
            os.fsync(self._handle.fileno())
            return
        self._handle.write(line)
        self._handle.flush()
        os.fsync(self._handle.fileno())
