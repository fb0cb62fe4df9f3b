"""``python -m repro.corpus`` — corpus maintenance from the shell.

Two verbs::

    python -m repro.corpus --merge-into DEST SRC [SRC ...]
    python -m repro.corpus --fsck DIR [--repair]

``--merge-into`` unions the source corpus directories into DEST (first
writer wins per structural hash; see :mod:`repro.corpus.merge`).

``--fsck`` verifies the two stores of a corpus directory by running the
loaders the campaigns use: entry files through
:func:`repro.util.checked.read_checked` (parse + checksum), and the
in-flight checkpoint journal through
:func:`repro.corpus.checkpoint.scan_journal` (header, line integrity,
torn-tail status).  With ``--repair``, corrupt entry files move to
``DIR/quarantine/``, legacy entries gain checksums, and a journal with a
malformed *middle* line is truncated back to its last valid prefix
(every journaled result before the damage survives; the rest re-runs on
resume).  A win-set cache directory is not audited: its loader already
renames a bad entry ``.corrupt`` and counts a cache miss.  Exit status:
0 when clean or fully repaired, 1 when corruption remains.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .checkpoint import scan_journal
from .merge import merge_corpora
from .store import Corpus


def _fsck_checkpoint(path: str, repair: bool) -> dict:
    """Validate a checkpoint journal; optionally truncate to the last
    valid prefix when a middle line is rotten."""
    if not os.path.exists(path):
        return {"present": False, "lines": 0, "torn_tail": False,
                "corrupt_line": None, "truncated": False}
    scan = scan_journal(path)
    truncated = scan.corrupt_line is not None and repair
    if truncated:
        with open(path, "r+b") as handle:
            handle.truncate(scan.good_bytes)
    return {
        "present": True,
        "lines": len(scan.rows),
        "torn_tail": scan.torn_tail,
        "corrupt_line": scan.corrupt_line,
        "truncated": truncated,
    }


def fsck_tree(root: str, repair: bool = False) -> dict:
    """fsck every store under a corpus directory; see module docstring."""
    report = {
        "root": root,
        "entries": Corpus(root).fsck(repair=repair),
        "checkpoint": _fsck_checkpoint(
            os.path.join(root, "checkpoint.jsonl"), repair
        ),
    }
    report["clean"] = not (
        (report["entries"]["corrupt"] and not repair)
        or (
            report["checkpoint"]["corrupt_line"] is not None
            and not report["checkpoint"]["truncated"]
        )
    )
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.corpus",
        description="Corpus maintenance (merge shard corpora, fsck stores)",
    )
    verbs = parser.add_mutually_exclusive_group(required=True)
    verbs.add_argument(
        "--merge-into",
        metavar="DEST",
        help="destination corpus directory (created if missing)",
    )
    verbs.add_argument(
        "--fsck",
        metavar="DIR",
        help="verify entry checksums and the checkpoint journal",
    )
    parser.add_argument(
        "--repair",
        action="store_true",
        help="with --fsck: quarantine corrupt files, add missing checksums,"
        " truncate a damaged journal to its valid prefix",
    )
    parser.add_argument(
        "sources",
        nargs="*",
        metavar="SRC",
        help="source corpus directories to union into DEST",
    )
    args = parser.parse_args(argv)
    if args.fsck:
        if args.sources:
            parser.error("--fsck takes no source directories")
        report = fsck_tree(args.fsck, repair=args.repair)
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0 if report["clean"] else 1
    if args.repair:
        parser.error("--repair only applies to --fsck")
    if not args.sources:
        parser.error("--merge-into requires at least one SRC")
    stats = merge_corpora(args.merge_into, args.sources)
    out = stats.to_dict()
    out["dest"] = args.merge_into
    out["dest_stats"] = Corpus(args.merge_into).stats()
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
