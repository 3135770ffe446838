"""Typed findings: what the dissect verifier reports instead of raising.

The parser (:mod:`repro.fs.dissect.parser`) never throws on a corrupt
image — every anomaly becomes a :class:`Finding` with a
:class:`FindingKind`, a location, and a human-readable detail line, and
the whole scan is summarized in a :class:`DissectReport` carrying the
canonical SHA-256 of the image it examined.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field


class FindingKind(enum.Enum):
    """The taxonomy of structural anomalies the verifier can report."""

    #: The image is not even block-shaped (short, or not a whole number
    #: of blocks).
    TRUNCATED_IMAGE = "truncated_image"
    #: Superblock (primary or backup) magic is wrong.
    BAD_MAGIC = "bad_magic"
    #: Superblock layout version is not one this verifier understands.
    BAD_VERSION = "bad_version"
    #: Magic and version parse but the header checksum does not match —
    #: the signature of a torn or half-stale superblock page.
    TORN_PAGE = "torn_page"
    #: Geometry words out of range / overlapping, or the region summary
    #: table disagrees with the geometry words.
    BAD_GEOMETRY = "bad_geometry"
    #: An inode slot that is neither all-zero (never used) nor a valid
    #: record (bad magic or impossible type).
    MANGLED_INODE = "mangled_inode"
    #: A block pointer outside the data region.
    BAD_POINTER = "bad_pointer"
    #: Two inodes (or two slots of one inode) claim the same block.
    DUPLICATE_CLAIM = "duplicate_claim"
    #: An inode's size and its mapped block count disagree (a block is
    #: mapped wholly beyond end-of-file, or size exceeds capacity).
    SIZE_MISMATCH = "size_mismatch"
    #: A directory entry referencing a free, mangled, or out-of-range
    #: inode.
    DANGLING_DIRENT = "dangling_dirent"
    #: A nonzero directory slot that does not parse as a record.
    GARBLED_DIRENT = "garbled_dirent"
    #: "." or ".." missing or pointing at the wrong inode.
    BAD_DOT_ENTRY = "bad_dot_entry"
    #: Two live entries of one directory carry the same name.
    DUPLICATE_NAME = "duplicate_name"
    #: An inode's ``nlink`` differs from the directory entries the walk
    #: found referencing it (compared only when at least one was found).
    LINK_COUNT_MISMATCH = "link_count_mismatch"
    #: The directory graph revisits an inode (a cycle or an illegal
    #: hard-linked directory).
    DIRECTORY_CYCLE = "directory_cycle"
    #: An allocated inode unreachable from the root directory.
    UNREACHABLE_INODE = "unreachable_inode"
    #: The allocation bitmap disagrees with the blocks actually claimed.
    BITMAP_DISAGREEMENT = "bitmap_disagreement"
    #: The parser hit an internal error it could not classify (always a
    #: verifier bug; surfaced as a finding so the scan still returns).
    PARSER_ERROR = "parser_error"


@dataclass(frozen=True)
class Finding:
    """One structural anomaly at one place in the image."""

    kind: FindingKind
    where: str  #: e.g. "superblock", "inode 7", "dir 2 block 11"
    detail: str
    block: int | None = None  #: block number, when the anomaly has one

    def to_json_dict(self) -> dict:
        data = {"kind": self.kind.value, "where": self.where, "detail": self.detail}
        if self.block is not None:
            data["block"] = self.block
        return data

    @classmethod
    def from_json_dict(cls, data: dict) -> "Finding":
        return cls(
            kind=FindingKind(data["kind"]),
            where=data["where"],
            detail=data["detail"],
            block=data.get("block"),
        )

    def __str__(self) -> str:
        return f"[{self.kind.value}] {self.where}: {self.detail}"


#: Findings beyond this are dropped (with a note): a totally garbage
#: image must not produce an unbounded report.
MAX_FINDINGS = 256


@dataclass
class DissectReport:
    """Everything one scan of one image produced."""

    image_sha256: str = ""
    findings: list = field(default_factory=list)
    #: True when a usable superblock (primary or backup) was found and
    #: the full walk ran; False when the scan had to stop at phase 1.
    walk_completed: bool = False
    blocks_total: int = 0
    inodes_scanned: int = 0
    inodes_allocated: int = 0
    directories_walked: int = 0
    findings_dropped: int = 0

    @property
    def clean(self) -> bool:
        """No structural anomalies at all."""
        return not self.findings

    def add(self, finding: Finding) -> None:
        """Record one finding, enforcing the report-size bound."""
        if len(self.findings) >= MAX_FINDINGS:
            self.findings_dropped += 1
            return
        self.findings.append(finding)

    def counts_by_kind(self) -> dict:
        """``{kind value: count}`` over the findings, sorted by key."""
        counts: dict = {}
        for finding in self.findings:
            counts[finding.kind.value] = counts.get(finding.kind.value, 0) + 1
        return dict(sorted(counts.items()))

    def to_json_dict(self) -> dict:
        return {
            "image_sha256": self.image_sha256,
            "findings": [f.to_json_dict() for f in self.findings],
            "walk_completed": self.walk_completed,
            "blocks_total": self.blocks_total,
            "inodes_scanned": self.inodes_scanned,
            "inodes_allocated": self.inodes_allocated,
            "directories_walked": self.directories_walked,
            "findings_dropped": self.findings_dropped,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "DissectReport":
        report = cls(**{k: v for k, v in data.items() if k != "findings"})
        report.findings = [Finding.from_json_dict(f) for f in data["findings"]]
        return report

    def to_json(self) -> str:
        """Canonical JSON (sorted keys, no whitespace)."""
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))

    def format(self) -> str:
        """Human-readable scan summary."""
        lines = [
            f"image sha256    {self.image_sha256}",
            f"blocks          {self.blocks_total}",
            f"inodes          {self.inodes_allocated} allocated / {self.inodes_scanned} scanned",
            f"directories     {self.directories_walked} walked"
            + ("" if self.walk_completed else "  (walk aborted: no usable superblock)"),
            f"findings        {len(self.findings)}"
            + (f" (+{self.findings_dropped} dropped)" if self.findings_dropped else ""),
        ]
        for kind, count in self.counts_by_kind().items():
            lines.append(f"    {kind:<22} {count}")
        for finding in self.findings[:20]:
            lines.append(f"  {finding}")
        if len(self.findings) > 20:
            lines.append(f"  ... {len(self.findings) - 20} more")
        lines.append(f"verdict         {'CLEAN' if self.clean else 'CORRUPT'}")
        return "\n".join(lines)
