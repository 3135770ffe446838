"""Seeded corruption fuzzing of the dissect parser.

The verifier's contract is that :func:`repro.fs.dissect.dissect_image`
never raises on image *content*: any corruption — random bit flips,
byte smashes, truncation, garbage — produces typed findings, never an
exception and never an internal :data:`FindingKind.PARSER_ERROR`.

The corpus is a pure function of the seed, so a failing case is
reproducible from its parametrized test id alone.  Each corrupt image is
also dissected as a :class:`~repro.util.sparse.SparseBytes` cut at seeded
offsets — the form a disk snapshot takes — and must read the same.
"""

from __future__ import annotations

import random

import pytest

from repro.fs.dissect import DissectReport, FindingKind, dissect_image
from repro.util.sparse import SparseBytes
from tests.test_dissect import build_flushed_image

_BASE: bytes | None = None


def base_image() -> bytes:
    """One clean flushed image shared by the whole corpus."""
    global _BASE
    if _BASE is None:
        _BASE = bytes(build_flushed_image())
    return _BASE


def sparsify(flat: bytes, cuts=(), *, tail_run: bool = False) -> SparseBytes:
    """``flat`` as a sparse value: each stretch between ``cuts`` becomes a
    run trimmed to its first and last non-zero byte (so runs start and end
    anywhere, not on blocks), or a gap when it is all zeros.  ``tail_run``
    carries the last stretch's run to the very end of the image."""
    bounds = [0, *sorted(set(c for c in cuts if 0 < c < len(flat))), len(flat)]
    runs = []
    for start, stop in zip(bounds, bounds[1:]):
        piece = flat[start:stop]
        last = tail_run and stop == len(flat)
        body = piece.lstrip(b"\x00")
        if not body:
            if last and piece:
                runs.append((start, piece))
            continue
        first = start + len(piece) - len(body)
        runs.append((first, flat[first:stop] if last else body.rstrip(b"\x00")))
    return SparseBytes(len(flat), runs)


def sparse_wrapper(data: bytes, seed: int) -> SparseBytes:
    """``data`` as a disk snapshot might hold it, cut at seeded offsets."""
    rng = random.Random(seed)
    cuts = [rng.randrange(len(data) + 1) for _ in range(32)]
    return sparsify(data, cuts, tail_run=seed % 2 == 1)


def corrupt(data: bytes, seed: int) -> bytes:
    """Seeded corruption: bit flips, byte smashes, runs, truncation.

    Deterministic — byte-identical output for the same ``(data, seed)``.
    """
    rng = random.Random(seed)
    out = bytearray(data)
    for _ in range(rng.randrange(1, 64)):
        mode = rng.random()
        at = rng.randrange(len(out))
        if mode < 0.45:
            out[at] ^= 1 << rng.randrange(8)
        elif mode < 0.85:
            out[at] = rng.randrange(256)
        else:
            run = min(rng.randrange(1, 512), len(out) - at)
            out[at : at + run] = bytes(rng.randrange(256) for _ in range(run))
    if rng.random() < 0.2:
        out = out[: rng.randrange(len(out) + 1)]
    return bytes(out)


def assert_well_formed(report: DissectReport) -> None:
    """Whatever the input, the report is typed and internally coherent."""
    assert isinstance(report, DissectReport)
    for finding in report.findings:
        assert isinstance(finding.kind, FindingKind)
        assert finding.where and finding.detail
    assert finding_is_not_internal_error(report)
    assert len(report.image_sha256) == 64
    assert report.findings_dropped >= 0


def finding_is_not_internal_error(report: DissectReport) -> bool:
    return all(f.kind != FindingKind.PARSER_ERROR for f in report.findings)


@pytest.mark.parametrize("seed", range(60))
def test_seeded_corruption_never_raises(seed):
    """dissect never raises and never degrades to PARSER_ERROR — and
    tells the same story when the image comes sparse."""
    mutant = corrupt(base_image(), seed)
    report = dissect_image(mutant)
    assert_well_formed(report)
    sparse = dissect_image(sparse_wrapper(mutant, seed))
    assert_well_formed(sparse)
    assert sparse.to_json() == report.to_json()


@pytest.mark.parametrize("seed", range(10))
def test_corruption_is_a_pure_function_of_the_seed(seed):
    image = base_image()
    assert corrupt(image, seed) == corrupt(image, seed)


@pytest.mark.parametrize("seed", range(10))
def test_same_corrupt_image_scans_identically(seed):
    mutant = corrupt(base_image(), seed)
    assert dissect_image(mutant).to_json() == dissect_image(mutant).to_json()


@pytest.mark.parametrize(
    "payload",
    [
        b"",
        b"\x00",
        b"RIOF",
        b"\x00" * 8192,
        b"\xff" * (8192 * 4),
        b"\xa5" * (8192 * 2 + 17),
        bytes(range(256)) * 64,
    ],
    ids=["empty", "one-byte", "magic-only", "one-zero-block", "ones", "odd-size", "ramp"],
)
def test_degenerate_inputs_never_raise(payload):
    assert_well_formed(dissect_image(payload))
    assert_well_formed(dissect_image(sparse_wrapper(payload, len(payload))))


def test_superblock_targeted_fuzz_never_raises():
    """Hammer the first block specifically — the richest parse surface."""
    image = bytearray(base_image())
    rng = random.Random(0x510)
    for _ in range(200):
        mutant = bytearray(image)
        for _ in range(rng.randrange(1, 16)):
            mutant[rng.randrange(8192)] = rng.randrange(256)
        assert_well_formed(dissect_image(bytes(mutant)))


def test_bitmap_and_inode_targeted_fuzz_never_raises():
    """Hammer the metadata regions the walk trusts most."""
    from tests.test_dissect import read_sb

    image = bytearray(base_image())
    sb = read_sb(image)
    rng = random.Random(0xB17)
    lo = sb.bitmap_start * 8192
    hi = (sb.inode_start + sb.inode_blocks) * 8192
    for _ in range(200):
        mutant = bytearray(image)
        for _ in range(rng.randrange(1, 24)):
            mutant[rng.randrange(lo, hi)] = rng.randrange(256)
        assert_well_formed(dissect_image(bytes(mutant)))
