"""The campaign result store: append-only JSONL, keyed by fingerprint.

One line per completed run.  Restarting a campaign against the same store
skips every fingerprint already present, so an interrupted campaign
resumes without duplicate work; a run killed mid-write leaves at most one
truncated final line, which the loader tolerates (it is re-run on resume).

``path=None`` gives an in-memory store with the same interface — for
callers that do not want artifacts on disk.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any

from repro.experiments.runner import canonical_record

__all__ = ["ResultStore"]


class ResultStore:
    """Append-only JSONL result store with fingerprint-keyed lookup."""

    def __init__(self, path: str | os.PathLike | None) -> None:
        self.path = Path(path) if path is not None else None
        self._memory: list[dict[str, Any]] = []
        self._tail_is_clean = False  # until proven newline-terminated

    # -- writing ---------------------------------------------------------

    def _heal_torn_tail(self) -> None:
        """Drop a torn final line (a kill mid-write) before appending.

        Without this, the first record appended on resume would be glued
        onto the torn tail, corrupting *both* lines.  The torn record was
        never complete, so truncating it simply makes its run eligible to
        execute again.
        """
        try:
            with open(self.path, "rb+") as fh:
                data = fh.read()
                if not data or data.endswith(b"\n"):
                    return
                fh.truncate(data.rfind(b"\n") + 1)  # 0 if no newline at all
        except FileNotFoundError:
            return

    def append(self, record: dict[str, Any]) -> None:
        if self.path is None:
            self._memory.append(record)
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if not self._tail_is_clean:
            self._heal_torn_tail()
            self._tail_is_clean = True
        line = json.dumps(record, sort_keys=True, separators=(",", ":"))
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
            fh.flush()

    # -- reading ---------------------------------------------------------

    def records(self) -> list[dict[str, Any]]:
        """All parseable records, in file order.

        A truncated final line (a run killed mid-write) is skipped; a
        corrupt line anywhere else raises, because silently dropping
        completed work would make resume re-run it and the store would
        hold conflicting duplicates.
        """
        if self.path is None:
            return list(self._memory)
        if not self.path.exists():
            return []
        out: list[dict[str, Any]] = []
        with open(self.path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        for i, line in enumerate(lines):
            if not line.strip():
                continue
            try:
                out.append(json.loads(line))
            except json.JSONDecodeError as exc:
                if i == len(lines) - 1:
                    break  # torn tail write from an interrupted campaign
                raise ValueError(
                    f"{self.path}: corrupt record on line {i + 1}") from exc
        return out

    def by_fingerprint(self) -> dict[str, dict[str, Any]]:
        """fingerprint -> record; on duplicates the last write wins."""
        return {r["fingerprint"]: r for r in self.records()
                if "fingerprint" in r}

    def fingerprints(self) -> set[str]:
        return set(self.by_fingerprint())

    def __len__(self) -> int:
        return len(self.by_fingerprint())

    # -- determinism helpers --------------------------------------------

    def canonical_records(self) -> dict[str, dict[str, Any]]:
        """fingerprint -> record stripped of volatile (timing) fields.

        Two stores produced by the same campaign — regardless of worker
        count, run order, or resume boundaries — compare equal here.
        """
        return {fp: canonical_record(r)
                for fp, r in self.by_fingerprint().items()}
