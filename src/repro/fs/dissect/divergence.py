"""fsck-vs-dissect verdict comparison: the second-opinion protocol.

The campaign's corruption counts historically rested on one judge:
``repro.fs.fsck``, which shares its serializers with the kernel it is
judging.  The dissect verifier is the independent second opinion, and a
*divergence* between the two verdicts is itself a first-class finding:

* **fsck claimed the file system was repaired** (not unrecoverable) but
  the dissect walk of the very image fsck blessed still finds structural
  anomalies — fsck's repair was incomplete, or the two disagree about
  the format (a serializer bug one of them shares with the kernel);
* **fsck gave up** (unrecoverable) but the dissect walk parses the image
  clean — fsck's own parsing is the broken side.

To preserve the verifier's independence this module never imports
``repro.fs.fsck``; callers hand over fsck's verdict as plain values.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.fs.dissect.findings import DissectReport
from repro.fs.dissect.parser import dissect_image


@dataclass
class DivergenceReport:
    """One fsck-vs-dissect comparison over one post-recovery image."""

    #: True when the two judges agree about whether the image is usable.
    agreed: bool
    #: fsck's claim: the file system is consistent after its repairs.
    fsck_consistent: bool
    #: The dissect walk found no structural anomalies.
    dissect_clean: bool
    fsck_fix_count: int = 0
    dissect_finding_count: int = 0
    image_sha256: str = ""
    #: Human-readable reasons, nonempty exactly when ``agreed`` is False.
    details: list = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "agreed": self.agreed,
            "fsck_consistent": self.fsck_consistent,
            "dissect_clean": self.dissect_clean,
            "fsck_fix_count": self.fsck_fix_count,
            "dissect_finding_count": self.dissect_finding_count,
            "image_sha256": self.image_sha256,
            "details": list(self.details),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "DivergenceReport":
        return cls(**data)

    def format(self) -> str:
        """One-paragraph human-readable summary."""
        if self.agreed:
            state = "clean" if self.dissect_clean else "corrupt"
            return (
                f"fsck and dissect agree (image {state}; fsck fixed "
                f"{self.fsck_fix_count}, dissect found {self.dissect_finding_count})"
            )
        lines = ["FSCK/DISSECT DIVERGENCE:"]
        lines += [f"  {reason}" for reason in self.details]
        lines.append(f"  image sha256 {self.image_sha256}")
        return "\n".join(lines)


def fsck_acknowledged(where: str, fixes) -> bool:
    """True when fsck's own fix list names location ``where``.

    fsck sometimes repairs a structure only partially and says so — an
    orphaned directory reconnected into ``lost+found`` keeps its missing
    dot entries because there is no room to recreate them, and the fix
    list records exactly that.  The independent verifier then flags the
    same defect at the same location.  That is *agreement with
    disclosure*, not divergence: both judges saw the damage and said so.
    A finding only counts against fsck when it sits at a location fsck's
    report never mentioned.  Fix messages all lead with the location
    (``"dir 4: ..."``, ``"inode 7: ..."``, ``"superblock: ..."``) and
    finding locations lead with the same token (``"dir 4"``,
    ``"dir 4 block 11"``), so the match is a prefix check on that token.

    ``where`` is the finding's location string; ``fixes`` is fsck's fix
    message list, passed as plain values so this module stays free of
    any ``repro.fs.fsck`` import (the second opinion's independence).
    """
    parts = str(where).split()
    if not parts:
        return False
    if len(parts) >= 2 and parts[1].isdigit():
        token = f"{parts[0]} {parts[1]}:"
    else:
        token = f"{parts[0]}:"
    return any(fix.startswith(token) for fix in fixes)


def compare_verdicts(
    *,
    fsck_unrecoverable: bool,
    fsck_fix_count: int,
    report: DissectReport,
) -> DivergenceReport:
    """Compare fsck's verdict on a disk with the dissect scan of its image.

    The dissect scan must have run on the image *as fsck left it* (fsck
    repairs in place, so the comparison is "did the repair actually
    restore structural consistency", not "did both see the same damage").
    """
    fsck_consistent = not fsck_unrecoverable
    dissect_clean = report.clean
    details: list = []
    if fsck_consistent and not dissect_clean:
        counts = ", ".join(
            f"{kind} x{n}" for kind, n in report.counts_by_kind().items()
        )
        details.append(
            f"fsck reported the file system repaired ({fsck_fix_count} fixes) "
            f"but dissect still finds: {counts}"
        )
    elif not fsck_consistent and dissect_clean:
        details.append(
            "fsck declared the file system unrecoverable but the dissect walk "
            "parses the image clean"
        )
    if not report.walk_completed and fsck_consistent:
        # No usable superblock for the independent parser even though
        # fsck claims it repaired one: a format-level disagreement.
        details.append(
            "dissect found no usable superblock on an image fsck claims it repaired"
        )
    return DivergenceReport(
        agreed=not details,
        fsck_consistent=fsck_consistent,
        dissect_clean=dissect_clean,
        fsck_fix_count=fsck_fix_count,
        dissect_finding_count=len(report.findings),
        image_sha256=report.image_sha256,
        details=details,
    )


def second_opinion(image: bytes, fsck, *, disclosed: bool = False):
    """Dissect ``image`` as fsck left it and compare the two verdicts.

    ``fsck`` is fsck's report, read by attribute (``unrecoverable``,
    ``fix_count``, ``fixes``) so this package still never imports
    ``repro.fs.fsck``.  With ``disclosed``, findings at a location fsck's
    own fix list names (:func:`fsck_acknowledged`) do not count against
    it.  Returns ``(DissectReport, DivergenceReport)``; the report always
    carries every finding.
    """
    report = dissect_image(image)
    judged = report
    if disclosed:
        undisclosed = [
            finding
            for finding in report.findings
            if not fsck_acknowledged(finding.where, fsck.fixes)
        ]
        judged = replace(report, findings=undisclosed)
    divergence = compare_verdicts(
        fsck_unrecoverable=fsck.unrecoverable,
        fsck_fix_count=fsck.fix_count,
        report=judged,
    )
    return report, divergence
