"""Disk images as dumpable, loadable, digest-verified forensic artifacts.

An image file is a self-describing container:

    RIOIMG1\\n
    {"num_bytes": ..., "sector_size": ..., "sha256": ..., ...}\\n
    <raw bytes>

The JSON metadata line carries the canonical SHA-256 of the payload, so
a loaded image proves it is the image that was dumped — the property the
campaign journals rely on when they record ``image_sha256`` next to a
trial's findings.  ``snapshot``/``install`` bridge to any disk-like
object exposing ``snapshot``/``poke``/``num_sectors``/``sector_size``
(duck typing, so this module stays import-independent of ``repro.disk``).

An image in memory is any bytes-like value with ``len`` and plain
slicing: flat ``bytes`` (read from a file) or the disk's sparse snapshot,
which holds only the extents ever written.  Everything here reads it one
window at a time, so neither hashing nor dumping builds the flat device.
"""

from __future__ import annotations

import hashlib
import json

IMAGE_MAGIC = b"RIOIMG1\n"

#: Bytes per slice when an image is hashed or written out: one disk
#: extent, so a slice of a disk snapshot is a view of one run or fresh
#: zeros, and the transient cost is one extent whatever the device size.
WINDOW = 64 * 1024


class ImageFormatError(Exception):
    """An image file that is not a valid RIOIMG1 container."""


def _windows(data):
    """The image as consecutive slices of at most :data:`WINDOW` bytes."""
    for start in range(0, len(data), WINDOW):
        yield data[start : start + WINDOW]


def image_sha256(data) -> str:
    """The canonical digest of a raw image, flat or sparse: sha256 over
    the same bytes, taken a window at a time."""
    digest = hashlib.sha256()
    for window in _windows(data):
        digest.update(window)
    return digest.hexdigest()


def snapshot(disk):
    """The whole device as a sparse image (``disk.snapshot()``)."""
    return disk.snapshot()


def install(disk, data) -> None:
    """Write a raw image onto a simulated disk (sizes must match)."""
    expected = disk.num_sectors * disk.sector_size
    if len(data) != expected:
        raise ImageFormatError(
            f"image is {len(data)} bytes, disk holds {expected}"
        )
    disk.poke(0, data)


def dump_image(path: str, data, *, sector_size: int = 512, meta: dict | None = None) -> str:
    """Write an image container to ``path``; returns the payload digest."""
    digest = image_sha256(data)
    header = {
        "num_bytes": len(data),
        "sector_size": sector_size,
        "sha256": digest,
    }
    if meta:
        header.update(meta)
    with open(path, "wb") as fh:
        fh.write(IMAGE_MAGIC)
        fh.write(json.dumps(header, sort_keys=True).encode() + b"\n")
        for window in _windows(data):
            fh.write(window)
    return digest


def load_image(path: str) -> tuple[bytes, dict]:
    """Read an image container; returns ``(payload, metadata)``.

    Raises :class:`ImageFormatError` on a bad magic line, undecodable
    metadata (not UTF-8 JSON, a ``num_bytes`` that is not a non-negative
    integer, a ``sha256`` that is not a string), a short payload, or a
    digest mismatch.
    """
    with open(path, "rb") as fh:
        magic = fh.read(len(IMAGE_MAGIC))
        if magic != IMAGE_MAGIC:
            raise ImageFormatError(f"{path}: not a RIOIMG1 container")
        meta_line = fh.readline()
        try:
            meta = json.loads(meta_line.decode("utf-8"))
        except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError both
            raise ImageFormatError(f"{path}: bad metadata line: {exc}") from None
        if not isinstance(meta, dict) or "num_bytes" not in meta or "sha256" not in meta:
            raise ImageFormatError(f"{path}: metadata missing num_bytes/sha256")
        num_bytes = meta["num_bytes"]
        if type(num_bytes) is not int or num_bytes < 0:
            raise ImageFormatError(f"{path}: num_bytes {num_bytes!r} is not a byte count")
        if not isinstance(meta["sha256"], str):
            raise ImageFormatError(f"{path}: sha256 {meta['sha256']!r} is not a hex digest")
        data = fh.read(num_bytes)
    if len(data) != num_bytes:
        raise ImageFormatError(f"{path}: payload truncated ({len(data)} of {num_bytes} bytes)")
    digest = image_sha256(data)
    if digest != meta["sha256"]:
        raise ImageFormatError(
            f"{path}: payload digest {digest[:16]}... does not match "
            f"recorded {meta['sha256'][:16]}..."
        )
    return data, meta
