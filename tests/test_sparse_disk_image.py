"""Sparse disk image == flat disk image, for every judge of the disk.

``SimulatedDisk.snapshot()`` (what ``repro.fs.dissect.snapshot`` returns)
and ``TieredStore.materialize()`` are :class:`~repro.util.sparse.SparseBytes`:
the extents or blobs that hold something, gaps for the rest.  Dissect,
``image_sha256``, ``dump_image`` and ``install`` read an image through
``len`` and plain slices only, so the flat ``bytes`` of the same image is
the oracle: same digest, same report, same file, same platter — at the
cost of what the device holds, not of its size.  (The memory side of the
same equivalence is ``tests/test_sparse_image.py``.)
"""

from __future__ import annotations

import contextlib
import hashlib
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from repro.backend.audit import remote_recovery_audit
from repro.disk.device import EXTENT_SECTORS, SimulatedDisk
from repro.fs.dissect import (
    Finding,
    FindingKind,
    dissect_image,
    dump_image,
    image_sha256,
    install,
    load_image,
    parser,
    snapshot,
)
from repro.fs.dissect.image import WINDOW
from repro.fs.types import BLOCK_SIZE
from repro.server import AckJournal
from repro.system import build_system, system_spec_for
from repro.util.sparse import SparseBytes
from tests.test_dissect_fuzz import base_image, sparsify


@st.composite
def sparse_images(draw):
    """A real file-system image, perhaps smashed or truncated, as a
    ``(SparseBytes, bytes)`` pair cut at random byte offsets."""
    flat = bytearray(base_image())
    for _ in range(draw(st.integers(0, 3))):
        flat[draw(st.integers(0, len(flat) - 1))] = draw(st.integers(0, 255))
    if draw(st.integers(0, 9)) == 0:
        flat = flat[: draw(st.integers(0, len(flat)))]
    flat = bytes(flat)
    cuts = draw(st.lists(st.integers(0, len(flat)), max_size=48))
    return sparsify(flat, cuts, tail_run=draw(st.booleans())), flat


class TestSparsify:
    def test_runs_leave_blocks_and_gaps_may_be_empty(self):
        flat = bytes(5) + b"ab" + bytes(3) + b"cd" + bytes(4)
        sparse = sparsify(flat, [7, 9])
        assert list(sparse.runs()) == [(5, b"ab"), (10, b"cd")]
        assert bytes(sparse) == flat
        adjacent = sparsify(flat, [6])  # "a" | "b...cd": a gap of length zero
        assert [offset for offset, _ in adjacent.runs()] == [5, 6]
        end = sparsify(flat, [9], tail_run=True)
        offset, data = list(end.runs())[-1]
        assert offset + len(data) == len(flat) and bytes(end) == flat


@given(sparse_images())
@settings(max_examples=40, deadline=None)
def test_sparse_and_flat_images_hash_and_dissect_alike(pair):
    sparse, flat = pair
    assert bytes(sparse) == flat
    assert image_sha256(sparse) == image_sha256(flat) == hashlib.sha256(flat).hexdigest()
    assert dissect_image(sparse).to_json_dict() == dissect_image(flat).to_json_dict()


@contextlib.contextmanager
def counting_walks():
    """The images ``dissect_image`` walks (memo misses and flat images)
    while the block runs."""
    walks = []
    walk = parser._dissect
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(parser, "_dissect", lambda data: walks.append(data) or walk(data))
        yield walks


@given(sparse_images())
@settings(max_examples=40, deadline=None)
def test_a_memo_hit_is_a_fresh_scan_the_caller_owns(pair):
    """A sparse image seen before is not walked again: the hit equals a
    walk of the flat image (which bypasses the memo), and a caller
    scribbling on its report changes no later answer."""
    sparse, flat = pair
    with counting_walks() as walks:
        first = dissect_image(sparse)
        walks.clear()
        again = dissect_image(SparseBytes(len(sparse), list(sparse.runs())))  # same runs, new value
        assert walks == []
        fresh = dissect_image(flat)
        dissect_image(flat)
        assert len(walks) == 2  # flat: walked every time
    assert again.to_json() == first.to_json() == fresh.to_json()
    again.findings.append(Finding(FindingKind.PARSER_ERROR, "image", "scribbled"))
    again.walk_completed = not again.walk_completed
    again.inodes_scanned += 1
    first.findings.clear()
    assert dissect_image(sparse).to_json() == fresh.to_json()


def test_the_memo_is_bounded_and_forgets_the_least_recent():
    images = [
        SparseBytes(2 * BLOCK_SIZE, [(BLOCK_SIZE, seed.to_bytes(2, "little"))])
        for seed in range(1, parser.MEMO_CAPACITY + 3)
    ]
    for image in images[: parser.MEMO_CAPACITY]:
        dissect_image(image)
    dissect_image(images[0])  # now the most recently used
    for image in images[parser.MEMO_CAPACITY :]:
        dissect_image(image)
    assert len(parser._memo) == parser.MEMO_CAPACITY
    with counting_walks() as walks:
        dissect_image(images[0])  # kept
        dissect_image(images[1])  # the least recently used: dropped, walked again
    assert len(walks) == 1 and walks[0] is images[1]
    assert len(parser._memo) == parser.MEMO_CAPACITY


def multi_window_image() -> tuple[SparseBytes, bytes]:
    """Four and a bit windows: a run straddling a window edge, one ending
    the image, and a window that is all gap."""
    length = 4 * WINDOW + 4099
    runs = [
        (10, b"head"),
        (WINDOW - 3, b"across-the-edge"),
        (3 * WINDOW + 500, bytes(range(256)) * 2),
        (length - 77, b"\x01" * 77),
    ]
    flat = bytearray(length)
    for offset, data in runs:
        flat[offset : offset + len(data)] = data
    return SparseBytes(length, runs), bytes(flat)


def test_dump_and_load_round_trip_a_sparse_image(tmp_path):
    sparse, flat = multi_window_image()
    sparse_path, flat_path = tmp_path / "sparse.img", tmp_path / "flat.img"
    digest = dump_image(str(sparse_path), sparse, meta={"label": "x"})
    assert digest == dump_image(str(flat_path), flat, meta={"label": "x"})
    assert sparse_path.read_bytes() == flat_path.read_bytes()
    payload, meta = load_image(str(sparse_path))
    assert payload == flat and meta["sha256"] == digest == hashlib.sha256(flat).hexdigest()


def test_install_then_snapshot_round_trips_over_stale_contents():
    sectors = 4 * EXTENT_SECTORS
    extent = EXTENT_SECTORS * 512
    flat = bytearray(sectors * 512)
    flat[100:200] = b"\x07" * 100
    flat[2 * extent - 5 : 2 * extent + 5] = b"\x09" * 10  # straddles two extents
    image = sparsify(bytes(flat), [150, 2 * extent])
    disk = SimulatedDisk("t", sectors)
    disk.poke(0, b"\xee" * (sectors * 512))  # every extent holds something stale
    install(disk, image)
    got = snapshot(disk)
    assert isinstance(got, SparseBytes) and got == image == bytes(flat)
    assert [offset for offset, _ in got.runs()] == [0, extent, 2 * extent]
    assert list(got.gaps()) == [(3 * extent, 4 * extent)]


def test_the_snapshot_is_a_value_later_writes_do_not_show():
    disk = SimulatedDisk("t", 2 * EXTENT_SECTORS)
    disk.poke(3, b"\x05" * 512)
    before = snapshot(disk)
    disk.poke(3, b"\x06" * 512)
    disk.poke(EXTENT_SECTORS, b"\x07" * 512)
    assert before[3 * 512 : 4 * 512] == b"\x05" * 512 and list(before.gaps())[-1][1] == len(before)
    assert snapshot(disk)[3 * 512 : 4 * 512] == b"\x06" * 512


# -- what a judge of a 2048-block device may allocate --------------------------

DEVICE_BLOCKS = 2048
DEVICE_BYTES = DEVICE_BLOCKS * BLOCK_SIZE


def populated(**spec):
    """A flushed 16 MiB ``disk`` system with a directory of small files."""
    system = build_system(system_spec_for("disk", fs_blocks=DEVICE_BLOCKS, **spec))
    system.vfs.mkdir("/d")
    for i in range(20):
        fd = system.vfs.open(f"/d/f{i}", create=True)
        system.vfs.write(fd, bytes([i + 1]) * (3 * BLOCK_SIZE + i))
        system.vfs.close(fd)
    system.settle()
    return system


def traced_peak(func):
    """``(func(), bytes newly allocated at func's peak)``."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = func()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_dissecting_a_device_allocates_a_fraction_of_it():
    """The flat snapshot alone was the whole device (16 MiB here)."""
    system = populated()
    report, peak = traced_peak(lambda: dissect_image(snapshot(system.disk)))
    assert report.clean and report.blocks_total == DEVICE_BLOCKS
    assert peak < DEVICE_BYTES // 4, f"dissect peaked at {peak / 2**20:.1f} MiB"


def test_the_remote_audit_allocates_a_fraction_of_the_device():
    """Materialising filled a flat device and copied it (32 MiB here); the
    seal hashed a third flat copy of the local disk."""
    system = populated(backend="tiered")
    check, peak = traced_peak(lambda: remote_recovery_audit(system, AckJournal()))
    assert check.ok and check.image_sha256 == system.backing.local_image_sha256()
    assert peak < DEVICE_BYTES // 4, f"the remote audit peaked at {peak / 2**20:.1f} MiB"
