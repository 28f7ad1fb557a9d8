"""Sweep journals: crash-safe progress records enabling ``--resume``.

A sweep that dies mid-plan (OOM kill, SIGKILL, power loss) has already
paid for every completed cell; the journal is what makes that work
recoverable *as a unit of progress*, not just as loose cache entries.
Keyed by a digest of the ordered plan (so resuming a *different* plan can
never skip cells), it records one line per completed cell -- ``executed``
and ``hit`` cells are *complete* (their bytes are in the store), ``error``
cells are recorded but re-run on resume.

The journal lives under ``<store root>/sweeps/``, outside the store's
versioned entry tree, so ``repro cache verify``/``clear`` never mistake it
for a content-addressed entry.  Every append rewrites the file atomically
(tempfile + ``os.replace``) so a crash at any instant leaves a valid
journal: either the record landed or it didn't -- never a torn line.  A
fully successful sweep removes its journal; only interrupted or failing
sweeps leave one behind.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, Optional, Sequence

from repro.cache.store import atomic_write_bytes

#: Schema tag of the journal header line.
JOURNAL_SCHEMA = "repro-sweep-journal/v1"

#: Journal statuses that mean "this cell's result is in the store".
COMPLETE_STATUSES = frozenset({"executed", "hit"})


def plan_digest(keys: Sequence[str]) -> str:
    """Content address of one plan: sha256 over its ordered cell keys.

    Order matters -- the same cells in a different order are a different
    plan document (different trajectory), though their cells still resume.
    """
    digest = hashlib.sha256()
    for key in keys:
        digest.update(key.encode("ascii"))
        digest.update(b"\n")
    return digest.hexdigest()


class SweepJournal:
    """One plan's append-only completion journal (JSONL, atomic rewrites)."""

    def __init__(self, path: str, digest: str, total_cells: int):
        self.path = path
        self.digest = digest
        self.total_cells = total_cells
        #: ``key -> status`` for every journaled cell.
        self.statuses: Dict[str, str] = {}
        #: ``key -> error record`` for journaled ``error`` cells.
        self.errors: Dict[str, dict] = {}

    @classmethod
    def for_plan(cls, store_root: str,
                 keys: Sequence[str]) -> "SweepJournal":
        digest = plan_digest(keys)
        path = os.path.join(store_root, "sweeps", f"{digest}.jsonl")
        journal = cls(path=path, digest=digest, total_cells=len(keys))
        journal._load()
        return journal

    def _load(self) -> None:
        """Read any existing journal; tolerate a missing or foreign file.

        A header whose digest disagrees (hash collision on the name is
        impossible; a hand-edited file is not) is ignored wholesale rather
        than trusted partially.
        """
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                lines = handle.read().splitlines()
        except (OSError, UnicodeDecodeError):
            return
        if not lines:
            return
        try:
            header = json.loads(lines[0])
        except json.JSONDecodeError:
            return
        if (header.get("schema") != JOURNAL_SCHEMA
                or header.get("digest") != self.digest):
            return
        for line in lines[1:]:
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue  # never possible via atomic writes; be tolerant
            key = record.get("key")
            status = record.get("status")
            if not isinstance(key, str) or not isinstance(status, str):
                continue
            self.statuses[key] = status
            if status == "error":
                self.errors[key] = dict(record.get("error") or {})
            else:
                self.errors.pop(key, None)

    # -- queries ------------------------------------------------------------------------

    def complete(self, key: str) -> bool:
        """Whether *key* is journaled with its result safely in the store."""
        return self.statuses.get(key) in COMPLETE_STATUSES

    # -- mutation -----------------------------------------------------------------------

    def record(self, key: str, status: str,
               error: Optional[dict] = None) -> None:
        """Journal one cell outcome and persist the whole file atomically.

        Record *after* the cell's bytes are in the store: a journaled cell
        is a promise that resume can serve it without re-executing.
        """
        self.statuses[key] = status
        if status == "error" and error is not None:
            self.errors[key] = dict(error)
        else:
            self.errors.pop(key, None)
        self._write()

    def _write(self) -> None:
        lines = [json.dumps({"schema": JOURNAL_SCHEMA, "digest": self.digest,
                             "cells": self.total_cells},
                            sort_keys=True)]
        for key in sorted(self.statuses):
            record: dict = {"key": key, "status": self.statuses[key]}
            if key in self.errors:
                record["error"] = self.errors[key]
            lines.append(json.dumps(record, sort_keys=True))
        atomic_write_bytes(self.path,
                           ("\n".join(lines) + "\n").encode("utf-8"))

    def remove(self) -> None:
        """Delete the journal (the sweep completed with no error cells)."""
        try:
            os.remove(self.path)
        except OSError:
            pass
