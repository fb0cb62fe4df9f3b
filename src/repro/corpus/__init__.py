"""repro.corpus — the persistent, coverage-guided fuzzing corpus.

Turns the one-shot differential campaigns of :mod:`repro.gen` into a
test *fabric* that accumulates across runs:

* :mod:`repro.corpus.store` — an on-disk corpus keyed by
  ``Network.structural_hash``; each entry is a reproducer (seed, family,
  optional mutation seed) plus a coverage signature digesting the
  instance's oracle outcomes and op-counter profile;
* :mod:`repro.corpus.schedule` — the deterministic scheduler: rank
  entries by signature rarity and spend the mutation budget on the rare
  ones, via the NetSpec-level mutation operators
  (:func:`repro.gen.networks.mutate_instance`);
* :mod:`repro.corpus.checkpoint` — an append-only JSONL journal that
  makes campaigns resumable (``python -m repro.gen.cli --corpus DIR
  --resume``) with the report byte-identical to an uninterrupted run.

The corpus directory is plain JSON throughout — diffable, mergeable,
and cheap enough to round-trip as a CI artifact between nightly runs.
"""

from .checkpoint import (
    CampaignCheckpoint,
    CheckpointMismatch,
    campaign_fingerprint,
    fingerprint_core,
)
from .merge import MergeStats, merge_corpora
from .schedule import (
    MutationTask,
    derive_mutation_seed,
    plan_mutations,
    tasks_from_lists,
)
from .store import Corpus, CorpusEntry, coverage_signature

__all__ = [
    "CampaignCheckpoint",
    "CheckpointMismatch",
    "campaign_fingerprint",
    "fingerprint_core",
    "Corpus",
    "CorpusEntry",
    "coverage_signature",
    "MergeStats",
    "merge_corpora",
    "MutationTask",
    "derive_mutation_seed",
    "plan_mutations",
    "tasks_from_lists",
]
