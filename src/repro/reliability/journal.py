"""Append-only JSONL checkpoint journal for crash-test campaigns.

The paper's Table 1 took "6 machine-months"; a run that long *will* be
interrupted.  The campaign engine journals every finished trial so an
interrupted campaign resumes without re-running completed work.

Format — one JSON object per line:

* line 1, the **header**: ``{"kind": "header", "version": 2,
  "fingerprint": {...}}``.  The fingerprint captures every parameter
  that shapes the seed schedule (crashes per cell, systems, fault
  types, base seed, attempt bound, config overrides).  Resuming with a
  different fingerprint raises :class:`CampaignResumeError` — silently
  merging two different campaigns would fabricate results — and so does
  a damaged header in front of trial lines.
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
different orders.  A journal is read as a map from trial key to
result, never as a log.
"""

from __future__ import annotations

import json
import os
import warnings
import zlib
from typing import IO, Optional

JOURNAL_VERSION = 2

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
    return CampaignJournal(path, fingerprint={})._read(check_header=False)


class CampaignJournal:
    """Reader/writer for one campaign's checkpoint file."""

    def __init__(self, path: str, fingerprint: dict):
        self.path = str(path)
        self.fingerprint = fingerprint
        self.skipped_lines = 0
        #: :meth:`load` found this campaign's header (else
        #: :meth:`open_for_append` writes one).
        self._headed = False
        #: The file's last line has no newline (a write cut short).
        self._torn = False
        self._fh: Optional[IO[str]] = None

    # -- reading -----------------------------------------------------------

    def load(self) -> dict:
        """Parse the journal into ``{trial_key: (seed, result_dict)}``.

        Missing file -> empty.  Bad lines are counted in
        ``skipped_lines`` and warned about; their trials simply re-run.
        Trial records with no valid header to vouch for them raise
        :class:`CampaignResumeError`: nothing says which campaign they
        belong to.  A journal with no valid record at all starts afresh.
        """
        if not os.path.exists(self.path):
            return {}
        entries = self._read(check_header=True)
        if entries and not self._headed:
            raise CampaignResumeError(
                f"{self.path}: {len(entries)} trial record(s) but no valid header; "
                "cannot tell which campaign wrote them, refusing to merge"
            )
        return entries

    def _read(self, *, check_header: bool) -> dict:
        """Every usable trial line, last one per key wins; a header is
        validated against the fingerprint when ``check_header``."""
        entries: dict = {}
        with open(self.path, "rb") as fh:
            for lineno, raw in enumerate(fh, start=1):
                self._torn = not raw.endswith(b"\n")
                if not raw.strip():
                    continue
                record = self._parse_line(raw, lineno)
                if record is None:
                    continue
                if record.get("kind") == "header":
                    if check_header:
                        self._check_header(record)
                        self._headed = True
                    continue
                key = (record["system"], record["fault"], record["attempt"])
                entries[key] = (record["seed"], record["result"])
        return entries

    def _parse_line(self, raw: bytes, lineno: int) -> Optional[dict]:
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError:
            self._skip(lineno, "not UTF-8 (a write torn inside a character?)")
            return None
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
            stacklevel=5,
        )

    # -- writing -----------------------------------------------------------

    def open_for_append(self) -> None:
        """Open for appending trials, after :meth:`load`; a journal that
        had no valid header gets one first."""
        self._fh = open(self.path, "a", encoding="utf-8")
        if self._torn:
            self._fh.write("\n")  # the next record starts a line of its own
        if not self._headed:
            self._headed = True
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
