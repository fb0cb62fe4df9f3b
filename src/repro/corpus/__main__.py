"""``python -m repro.corpus`` — corpus maintenance from the shell.

Two verbs::

    python -m repro.corpus --merge-into DEST SRC [SRC ...]
    python -m repro.corpus --fsck DIR [--repair]

``--merge-into`` unions the source corpus directories into DEST (first
writer wins per structural hash; see :mod:`repro.corpus.merge`).

``--fsck`` verifies every persistent artifact under a corpus directory:
entry files (parse + checksum), the in-flight checkpoint journal
(header, line integrity, torn-tail status), and a win-set cache kept
there (``DIR/warm-cache``, entry ``sha`` checksums).  With ``--repair``,
corrupt entry files move to ``DIR/quarantine/``, corrupt warm-cache
entries are renamed ``.corrupt``, legacy entries gain checksums, and a
journal with a malformed *middle* line is truncated back to its last
valid prefix (every journaled result before the damage survives; the
rest re-runs on resume).  Exit status: 0 when clean or fully repaired,
1 when corruption remains.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .merge import merge_corpora
from .store import Corpus


def _fsck_checkpoint(path: str, repair: bool) -> dict:
    """Validate a checkpoint journal; optionally truncate to the last
    valid prefix when a middle line is rotten."""
    out = {
        "present": os.path.exists(path),
        "lines": 0,
        "torn_tail": False,
        "corrupt_line": None,
        "truncated": False,
    }
    if not out["present"]:
        return out
    with open(path, "r", encoding="utf-8") as handle:
        data = handle.read()
    lines = data.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    good_bytes = 0
    for pos, line in enumerate(lines):
        try:
            row = json.loads(line)
            if pos == 0 and row.get("kind") != "header":
                raise ValueError("first line is not a campaign header")
        except ValueError:
            if pos == len(lines) - 1:
                out["torn_tail"] = True  # survivable by design
            else:
                out["corrupt_line"] = pos + 1
            break
        good_bytes += len(line.encode("utf-8")) + 1
        out["lines"] += 1
    if out["corrupt_line"] is not None and repair:
        with open(path, "r+", encoding="utf-8") as handle:
            handle.truncate(good_bytes)
        out["truncated"] = True
    return out


def _fsck_warm_cache(directory: str, repair: bool) -> dict:
    """Verify warm-cache entry files (parse + recorded ``sha``)."""
    out = {"present": os.path.isdir(directory), "checked": 0, "corrupt": []}
    if not out["present"]:
        return out
    from ..game.warm import WinSetCache

    for dirpath, _dirnames, filenames in os.walk(directory):
        for name in sorted(filenames):
            if not name.endswith(".json"):
                continue
            out["checked"] += 1
            path = os.path.join(dirpath, name)
            try:
                with open(path, encoding="utf-8") as handle:
                    entry = json.load(handle)
                if not isinstance(entry, dict):
                    raise ValueError("not a JSON object")
                recorded = entry.get("sha")
                if recorded is not None and recorded != (
                    WinSetCache._entry_sha(entry)
                ):
                    raise ValueError("checksum mismatch")
            except (OSError, ValueError):
                rel = os.path.relpath(path, directory)
                out["corrupt"].append(rel)
                if repair:
                    try:
                        os.replace(path, path + ".corrupt")
                    except OSError:
                        pass
    return out


def fsck_tree(root: str, repair: bool = False) -> dict:
    """fsck every store under a corpus directory; see module docstring."""
    report = {
        "root": root,
        "entries": Corpus(root).fsck(repair=repair),
        "checkpoint": _fsck_checkpoint(
            os.path.join(root, "checkpoint.jsonl"), repair
        ),
        "warm_cache": _fsck_warm_cache(
            os.path.join(root, "warm-cache"), repair
        ),
    }
    remaining = bool(report["entries"]["corrupt"]) and not repair
    remaining = remaining or (
        report["checkpoint"]["corrupt_line"] is not None
        and not report["checkpoint"]["truncated"]
    )
    remaining = remaining or (
        bool(report["warm_cache"]["corrupt"]) and not repair
    )
    report["clean"] = not remaining
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
        help="verify entry checksums, checkpoint journal, and warm cache",
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
