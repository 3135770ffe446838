"""A byte string that is mostly zeros and never materialises them.

A 16 MB machine with thirty resident frames has a 16 MB memory image of
which a quarter megabyte is content.  :class:`SparseBytes` is that image
as a value: a length plus the non-zero stretches, so taking it, writing
it to a disk and reading recovery state back out of it all cost what is
resident, not what the machine could hold.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterable, Iterator


class SparseBytes:
    """``length`` bytes given as sorted, non-overlapping ``(offset, data)``
    runs; every byte outside a run reads as zero.

    Immutable, and it keeps the buffers it is handed rather than copying
    them: the caller must not mutate them afterwards.  Plain slices have
    exactly :class:`bytes` slicing semantics — clamped at both ends,
    empty when out of range — and return a bytes-like: a zero-copy
    ``memoryview`` when the slice lies inside one run, fresh ``bytes``
    (zeros joined with run pieces) otherwise.
    """

    __slots__ = ("_length", "_offsets", "_chunks")

    def __init__(self, length: int, runs: Iterable[tuple[int, bytes]] = ()) -> None:
        if length < 0:
            raise ValueError("negative length")
        self._length = length
        self._offsets: list[int] = []
        self._chunks: list[bytes] = []
        end = 0
        for offset, data in runs:
            if not len(data):
                continue
            if offset < end:
                raise ValueError("runs must be sorted and must not overlap")
            end = offset + len(data)
            self._offsets.append(offset)
            self._chunks.append(data)
        if end > length:
            raise ValueError("run extends past the end")

    def __len__(self) -> int:
        return self._length

    def runs(self) -> Iterator[tuple[int, bytes]]:
        """``(offset, data)`` of every run, in order."""
        return zip(self._offsets, self._chunks)

    def gaps(self) -> Iterator[tuple[int, int]]:
        """``(start, stop)`` of every stretch no run covers, in order."""
        pos = 0
        for offset, data in self.runs():
            if offset > pos:
                yield pos, offset
            pos = offset + len(data)
        if pos < self._length:
            yield pos, self._length

    def __getitem__(self, key: slice) -> bytes | memoryview:
        if not isinstance(key, slice):
            raise TypeError("SparseBytes takes plain slices only")
        start, stop, step = key.indices(self._length)
        if step != 1:
            raise ValueError("SparseBytes takes plain slices only")
        if stop <= start:
            return b""
        offsets, chunks = self._offsets, self._chunks
        index = bisect_right(offsets, start) - 1  # the run at or before start
        if index < 0:
            index = 0
        else:
            offset, end = offsets[index], offsets[index] + len(chunks[index])
            if stop <= end:
                return memoryview(chunks[index])[start - offset : stop - offset]
            if start >= end:
                index += 1  # start lies in the gap after that run
        parts = []
        pos = start
        while index < len(offsets) and offsets[index] < stop:
            offset, chunk = offsets[index], chunks[index]
            if offset > pos:
                parts.append(bytes(offset - pos))
                pos = offset
            piece = memoryview(chunk)[pos - offset : stop - offset]
            parts.append(piece)
            pos += len(piece)
            index += 1
        if pos < stop:
            parts.append(bytes(stop - pos))
        return b"".join(parts)

    def __bytes__(self) -> bytes:
        return bytes(self[:])

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (SparseBytes, bytes, bytearray, memoryview)):
            return bytes(self) == bytes(other)
        return NotImplemented

    __hash__ = None  # compares by content against mutable buffers

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        held = sum(len(chunk) for chunk in self._chunks)
        return f"SparseBytes({self._length} B, {len(self._chunks)} runs holding {held} B)"
