"""Checked JSON files: the one checksum, atomic write and verified read.

Every store the repo persists (corpus entries, win-set cache entries)
is a JSON object carrying a ``checksum`` of the rest of its keys.
Writers serialize the text themselves (each store keeps its own
layout), then land it with :func:`write_atomic`; readers go through
:func:`read_checked` and decide their own policy for a
:class:`CorruptFile` (skip, quarantine, count a miss).
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, Optional

from .. import faults


class CorruptFile(ValueError):
    """A persisted JSON file failed to parse or verify."""


def checksum(payload: Dict[str, object]) -> str:
    """Checksum of a payload (its ``checksum`` key excluded)."""
    body = {k: v for k, v in payload.items() if k != "checksum"}
    blob = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def write_atomic(path: str, text: str, fault_site: Optional[str] = None) -> None:
    """Write ``text`` to ``path`` through a pid-suffixed tmp file.

    Readers never see a half-written file: the tmp file is renamed over
    ``path`` only once complete, and unlinked if anything fails.  When
    the :mod:`repro.faults` site ``fault_site`` fires, half the text
    lands instead — the torn write a crashed writer without the rename
    would leave, which :func:`read_checked` must catch.
    """
    if fault_site is not None and faults.should_fire(fault_site):
        text = text[: max(1, len(text) // 2)]
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def read_checked(path: str) -> Dict[str, object]:
    """Parse a JSON object file and verify its recorded checksum.

    A file without a ``checksum`` key (written before checksums) passes
    unverified.  Raises :class:`CorruptFile` on a parse failure, a
    non-object, or a mismatch; ``OSError`` (a missing file included)
    propagates unchanged.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except ValueError as exc:
        raise CorruptFile(f"{path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise CorruptFile(f"{path}: not a JSON object")
    recorded = payload.get("checksum")
    if recorded is not None and recorded != checksum(payload):
        raise CorruptFile(f"{path}: checksum mismatch")
    return payload
