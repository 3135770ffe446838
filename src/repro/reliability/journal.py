"""Append-only JSONL checkpoint journal for crash-test campaigns.

The paper's Table 1 took "6 machine-months"; a run that long *will* be
interrupted.  The campaign engine journals every finished trial so an
interrupted campaign resumes without re-running completed work.

Format — one JSON object per line:

* line 1, the **header**: ``{"kind": "header", "version": 1,
  "fingerprint": {...}}``.  The fingerprint captures every parameter
  that shapes the seed schedule (crashes per cell, systems, fault
  types, base seed, attempt bound, config overrides).  Resuming with a
  different fingerprint raises :class:`CampaignResumeError` — silently
  merging two different campaigns would fabricate results.
* **trial** lines: ``{"kind": "trial", "system": ..., "fault": ...,
  "attempt": ..., "seed": ..., "result": {...}, "crc": "xxxxxxxx"}``
  where ``crc`` is the CRC-32 of the rest of the record in canonical
  JSON.  A truncated, garbled, or checksum-failing line is *skipped
  with a* :class:`JournalWarning` and its trial re-runs — a corrupt
  checkpoint can cost time, never correctness.

Duplicate trial keys keep the **last** valid line: a trial re-run after
its original line was damaged appends a fresh record that supersedes it.

**Line order is free.**  Trials are appended as workers deliver them,
so two journals of one campaign list the same consumed trials in
different orders, and either may also hold speculative trials that
landed past a cell's stopping point (a resume never asks for those).
A journal is read as a map from trial key to result, never as a log.
"""

from __future__ import annotations

import json
import os
import warnings
import zlib
from typing import IO, Optional

JOURNAL_VERSION = 1

#: A trial's identity within one campaign: (system, fault value, attempt).
TrialKey = tuple


class JournalWarning(UserWarning):
    """A checkpoint line was unusable and its trial will re-run."""


class CampaignResumeError(ValueError):
    """The journal belongs to a differently-parameterized campaign."""


def _canonical(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def _crc(record: dict) -> str:
    """CRC-32 (hex) of a record's canonical JSON, sans the crc field."""
    body = {k: v for k, v in record.items() if k != "crc"}
    return format(zlib.crc32(_canonical(body).encode()) & 0xFFFFFFFF, "08x")


def read_trials(path: str) -> dict:
    """CRC-checked read of a journal's trial records, sans fingerprint.

    For offline tools (``repro forensics``) that inspect a finished
    journal rather than resume the campaign that wrote it: the header's
    fingerprint is ignored instead of validated.  Returns
    ``{(system, fault, attempt): (seed, result_dict)}`` with the same
    last-wins dedup and corrupt-line skipping as :meth:`CampaignJournal.load`.
    """
    reader = CampaignJournal(path, fingerprint={})
    entries: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            record = reader._parse_line(line, lineno)
            if record is None or record.get("kind") == "header":
                continue
            key = (record["system"], record["fault"], record["attempt"])
            entries[key] = (record["seed"], record["result"])
    return entries


class CampaignJournal:
    """Reader/writer for one campaign's checkpoint file."""

    def __init__(self, path: str, fingerprint: dict):
        self.path = str(path)
        self.fingerprint = fingerprint
        self.skipped_lines = 0
        self._fh: Optional[IO[str]] = None

    # -- reading -----------------------------------------------------------

    def load(self) -> dict:
        """Parse the journal into ``{trial_key: (seed, result_dict)}``.

        Missing file -> empty.  Bad lines are counted in
        ``skipped_lines`` and warned about; their trials simply re-run.
        """
        entries: dict = {}
        if not os.path.exists(self.path):
            return entries
        with open(self.path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                record = self._parse_line(line, lineno)
                if record is None:
                    continue
                if record.get("kind") == "header":
                    self._check_header(record)
                    continue
                key = (record["system"], record["fault"], record["attempt"])
                entries[key] = (record["seed"], record["result"])
        return entries

    def _parse_line(self, line: str, lineno: int) -> Optional[dict]:
        try:
            record = json.loads(line)
        except ValueError:
            self._skip(lineno, "unparseable JSON (truncated write?)")
            return None
        if not isinstance(record, dict) or "kind" not in record:
            self._skip(lineno, "not a journal record")
            return None
        if record["kind"] == "header":
            return record
        if record.get("crc") != _crc(record):
            self._skip(lineno, "checksum mismatch")
            return None
        missing = {"system", "fault", "attempt", "seed", "result"} - set(record)
        if missing:
            self._skip(lineno, f"missing fields {sorted(missing)}")
            return None
        return record

    def _check_header(self, record: dict) -> None:
        if record.get("version") != JOURNAL_VERSION:
            raise CampaignResumeError(
                f"{self.path}: journal version {record.get('version')!r}, "
                f"this engine writes {JOURNAL_VERSION}"
            )
        theirs = record.get("fingerprint")
        if theirs != self.fingerprint:
            raise CampaignResumeError(
                f"{self.path}: checkpoint is from a different campaign "
                f"(journal {theirs!r} != requested {self.fingerprint!r}); "
                "refusing to merge"
            )

    def _skip(self, lineno: int, why: str) -> None:
        self.skipped_lines += 1
        warnings.warn(
            f"{self.path}:{lineno}: skipping corrupt checkpoint line ({why}); "
            "the trial will re-run",
            JournalWarning,
            stacklevel=4,
        )

    # -- writing -----------------------------------------------------------

    def open_for_append(self) -> None:
        fresh = not os.path.exists(self.path) or os.path.getsize(self.path) == 0
        self._fh = open(self.path, "a", encoding="utf-8")
        if fresh:
            header = {
                "kind": "header",
                "version": JOURNAL_VERSION,
                "fingerprint": self.fingerprint,
            }
            self._fh.write(_canonical(header) + "\n")
            self._fh.flush()

    def append_trial(self, key: TrialKey, seed: int, result_dict: dict) -> None:
        assert self._fh is not None, "open_for_append first"
        system, fault, attempt = key
        record = {
            "kind": "trial",
            "system": system,
            "fault": fault,
            "attempt": attempt,
            "seed": seed,
            "result": result_dict,
        }
        record["crc"] = _crc(record)
        self._fh.write(_canonical(record) + "\n")
        self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None
