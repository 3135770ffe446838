"""An independent on-disk-format verifier: static analysis of disk images.

This package is a dissect-style read-only parser for RIOF disk images —
the second, independent opinion on every corruption count the campaigns
report.  ``repro.fs.ufs`` is otherwise judged only by ``repro.fs.fsck``,
and the two share their serializers (``repro.fs.ondisk``): a bug in the
shared format code is invisible to both.  This package therefore shares
**zero code** with the kernel-side file system stack:

* its record layouts are declared from scratch in a cstruct-style DSL
  (:mod:`repro.fs.dissect.cstructs`, :mod:`repro.fs.dissect.layout`);
* its Fletcher-32 is its own implementation;
* it imports none of ``repro.fs.{ufs,cache,writeback,fsck,ondisk}`` —
  a property enforced mechanically by a module-graph test.

Public surface:

* :func:`dissect_image` — an image in (flat ``bytes`` or a disk's
  sparse snapshot), typed :class:`DissectReport` out; never raises on
  image content;
* :func:`second_opinion` / :func:`compare_verdicts` /
  :class:`DivergenceReport` — the fsck-vs-dissect second-opinion protocol;
* :func:`snapshot` / :func:`install` / :func:`dump_image` /
  :func:`load_image` / :func:`image_sha256` — disk images as
  digest-verified artifacts.
"""

from repro.fs.dissect.divergence import (
    DivergenceReport,
    compare_verdicts,
    second_opinion,
)
from repro.fs.dissect.findings import (
    DissectReport,
    Finding,
    FindingKind,
    MAX_FINDINGS,
)
from repro.fs.dissect.image import (
    IMAGE_MAGIC,
    ImageFormatError,
    dump_image,
    image_sha256,
    install,
    load_image,
    snapshot,
)
from repro.fs.dissect.parser import dissect_image

__all__ = [
    "DivergenceReport",
    "DissectReport",
    "Finding",
    "FindingKind",
    "IMAGE_MAGIC",
    "ImageFormatError",
    "MAX_FINDINGS",
    "compare_verdicts",
    "dissect_image",
    "dump_image",
    "image_sha256",
    "install",
    "load_image",
    "second_opinion",
    "snapshot",
]
