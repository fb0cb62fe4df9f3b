"""The on-disk seed corpus: one JSON file per structural hash.

Layout (everything human-diffable, nothing binary)::

    DIR/
      entries/
        <structural_hash>.json    # one CorpusEntry
      checkpoint.jsonl            # in-flight campaign journal (transient)

An entry records how to *regenerate* an instance — the seed/family pair
(plus the mutation seed for corpus-scheduled mutants) — never the
network itself: regeneration from integers is the repo-wide determinism
contract, and it keeps entries a few hundred bytes.  Alongside the
reproducer the entry keeps the instance's **coverage signature**: a
digest of the oracle outcomes and the log2-bucketed op-counter profile
(solver iterations, closure counts, estimate sizes — whatever
:mod:`repro.util.counters` saw).  The scheduler ranks entries by how
rare their signature is in the corpus and mutates the rare ones first.

Entries are keyed by :meth:`Network.structural_hash`, so structurally
identical instances (different seeds converging on the same network)
collapse into one entry and re-running a campaign over a populated
corpus only adds genuinely new shapes.  Files carry no timestamps and
iteration is sorted, so a corpus directory is byte-stable under
re-insertion of the same entries — CI can diff artifacts run to run.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from ..util import counters
from ..util.checked import CorruptFile, checksum, read_checked, write_atomic

#: Coverage counters are log2-bucketed before hashing: ``867`` and
#: ``901`` closures are the same behaviour, ``8`` and ``8000`` are not.
#: Buckets absorb run-to-run jitter (memo caches, scheduling) that raw
#: counts would turn into spurious "new coverage".


def _bucket(value: int) -> int:
    if value <= 0:
        return 0
    return value.bit_length()


def coverage_signature(
    family: str,
    statuses: Dict[str, str],
    coverage: Optional[Dict[str, int]],
) -> str:
    """Digest of what an instance *did*: outcomes + bucketed op profile."""
    payload = {
        "family": family,
        "statuses": dict(sorted(statuses.items())),
        "profile": {
            name: _bucket(delta)
            for name, delta in sorted((coverage or {}).items())
        },
    }
    return checksum(payload)  # the same canonical-JSON digest


@dataclass
class CorpusEntry:
    """One interesting instance, reproducible from its integers."""

    structural_hash: str
    seed: int
    family: str
    signature: str  # coverage_signature(...)
    mutation_seed: Optional[int] = None
    statuses: Dict[str, str] = field(default_factory=dict)
    #: Raw (unbucketed) counter deltas, kept for human inspection and
    #: coverage dashboards; the signature alone drives scheduling.
    coverage: Dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "CorpusEntry":
        return cls(
            structural_hash=payload["structural_hash"],
            seed=payload["seed"],
            family=payload["family"],
            signature=payload["signature"],
            mutation_seed=payload.get("mutation_seed"),
            statuses=dict(payload.get("statuses", {})),
            coverage=dict(payload.get("coverage", {})),
        )

    def reproducer(self) -> str:
        if self.mutation_seed is None:
            return f"generate_instance({self.seed}, {self.family!r})"
        return (
            f"mutate_instance({self.seed}, {self.family!r},"
            f" {self.mutation_seed})"
        )


class Corpus:
    """A directory of :class:`CorpusEntry` files keyed by structural hash."""

    def __init__(self, root: str):
        self.root = root
        self.entries_dir = os.path.join(root, "entries")
        os.makedirs(self.entries_dir, exist_ok=True)

    # ------------------------------------------------------------------
    # Single entries
    # ------------------------------------------------------------------

    def _path(self, structural_hash: str) -> str:
        return os.path.join(self.entries_dir, f"{structural_hash}.json")

    def get(self, structural_hash: str) -> Optional[CorpusEntry]:
        try:
            return _load(self._path(structural_hash))[1]
        except FileNotFoundError:
            return None
        except CorruptFile:
            counters.inc("corpus.corrupt_entries")
            return None

    def add(self, entry: CorpusEntry) -> bool:
        """Insert an entry; first writer per structural hash wins.

        Returns True when the entry was new.  Keeping the first recorded
        reproducer (rather than overwriting with the latest) makes the
        corpus stable under re-runs: the same campaign over the same
        corpus is a no-op.
        """
        path = self._path(entry.structural_hash)
        if os.path.exists(path):
            return False
        payload = entry.to_dict()
        payload["checksum"] = checksum(payload)
        write_atomic(path, _serialize(payload), "corpus.store.write")
        return True

    def add_report(self, report) -> bool:
        """Insert a campaign :class:`InstanceReport` as a corpus entry."""
        statuses = {r.name: r.status for r in report.results}
        entry = CorpusEntry(
            structural_hash=report.structural_hash,
            seed=report.seed,
            family=report.family,
            signature=coverage_signature(
                report.family, statuses, report.coverage
            ),
            mutation_seed=report.mutation_seed,
            statuses=statuses,
            coverage=dict(report.coverage or {}),
        )
        return self.add(entry)

    # ------------------------------------------------------------------
    # Whole-corpus views
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return sum(
            1
            for name in os.listdir(self.entries_dir)
            if name.endswith(".json")
        )

    def __iter__(self) -> Iterator[CorpusEntry]:
        """Entries in sorted filename order (deterministic).

        Corrupt entries — torn writes, bit rot, checksum mismatches —
        are skipped with a ``corpus.corrupt_entries`` counter bump, so
        one bad file never aborts a campaign; ``fsck`` reports and
        quarantines them out of band.
        """
        for name in sorted(os.listdir(self.entries_dir)):
            if not name.endswith(".json"):
                continue
            try:
                yield _load(os.path.join(self.entries_dir, name))[1]
            except CorruptFile:
                counters.inc("corpus.corrupt_entries")

    def entries(self) -> List[CorpusEntry]:
        return list(self)

    def signature_counts(self) -> Dict[str, int]:
        """signature -> number of entries carrying it (rarity basis)."""
        counts: Dict[str, int] = {}
        for entry in self:
            counts[entry.signature] = counts.get(entry.signature, 0) + 1
        return counts

    def stats(self) -> Dict[str, int]:
        entries = self.entries()
        return {
            "entries": len(entries),
            "signatures": len({e.signature for e in entries}),
            "families": len({e.family for e in entries}),
        }

    # ------------------------------------------------------------------
    # Verification
    # ------------------------------------------------------------------

    def quarantine_dir(self) -> str:
        return os.path.join(self.root, "quarantine")

    def fsck(self, repair: bool = False) -> Dict[str, object]:
        """Verify every entry file; optionally repair the directory.

        Returns ``{"checked", "ok", "corrupt", "missing_checksum",
        "quarantined", "upgraded"}`` where ``corrupt`` lists unreadable
        or checksum-failing files.  With ``repair=True``, corrupt files
        move to ``<root>/quarantine/`` (preserved for forensics, out of
        the campaign's way) and legacy entries without a checksum are
        rewritten with one.
        """
        corrupt: List[str] = []
        legacy: Dict[str, Dict[str, object]] = {}
        checked = 0
        for name in sorted(os.listdir(self.entries_dir)):
            if not name.endswith(".json"):
                continue
            checked += 1
            try:
                payload, _ = _load(os.path.join(self.entries_dir, name))
            except CorruptFile:
                corrupt.append(name)
                continue
            if "checksum" not in payload:
                legacy[name] = payload
        quarantined = upgraded = 0
        if repair:
            if corrupt:
                os.makedirs(self.quarantine_dir(), exist_ok=True)
            for name in corrupt:
                os.replace(
                    os.path.join(self.entries_dir, name),
                    os.path.join(self.quarantine_dir(), name),
                )
                quarantined += 1
            for name, payload in legacy.items():
                payload["checksum"] = checksum(payload)
                write_atomic(
                    os.path.join(self.entries_dir, name), _serialize(payload)
                )
                upgraded += 1
        return {
            "checked": checked,
            "ok": checked - len(corrupt),
            "corrupt": corrupt,
            "missing_checksum": list(legacy),
            "quarantined": quarantined,
            "upgraded": upgraded,
        }


def _serialize(payload: Dict[str, object]) -> str:
    """An entry file's text: sorted keys, one-space indent, newline."""
    return json.dumps(payload, sort_keys=True, indent=1, ensure_ascii=False) + "\n"


def _load(path: str) -> Tuple[Dict[str, object], CorpusEntry]:
    """Read and verify one entry file; :class:`CorruptFile` on rot.

    Entries written before checksums (no ``checksum`` key) still load;
    ``fsck --repair`` upgrades them in place.
    """
    payload = read_checked(path)
    try:
        return payload, CorpusEntry.from_dict(payload)
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptFile(f"{path}: {exc}") from exc
