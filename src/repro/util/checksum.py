"""Checksums used for corruption detection.

The paper's detection apparatus (section 3.2) "maintains a checksum of each
memory block in the file cache"; unintentional changes show up as an
inconsistent checksum.  We use Fletcher-32, which is cheap, has no
cryptographic pretensions (matching 1996 practice — the Recovery Box used a
similar scheme) and detects the byte-level corruptions our fault injector
produces.
"""

from __future__ import annotations

import struct
from itertools import accumulate


def fletcher32(data: bytes | bytearray | memoryview) -> int:
    """Return the Fletcher-32 checksum of ``data``.

    Operates on 16-bit little-endian words; an odd trailing byte is
    zero-padded, which is the conventional behaviour.  Words are consumed
    in blocks small enough that the sums cannot overflow before reduction
    (360 words is the classical bound); within a block the running sums
    are exact integer arithmetic, so the blockwise formulation below —
    ``sum2`` grows by every prefix sum of the block — produces bit-
    identical results to the word-at-a-time loop while letting the
    per-word work happen in C (``struct.unpack`` + ``accumulate``).
    """
    buf = memoryview(data).cast("B")  # contiguous input is read in place
    if len(buf) % 2:
        buf = bytes(buf) + b"\x00"
    length = len(buf) // 2
    sum1 = 0xFFFF
    sum2 = 0xFFFF
    index = 0
    while index < length:
        count = min(359, length - index)
        words = struct.unpack_from(f"<{count}H", buf, 2 * index)
        index += count
        # prefixes[i] = w_0 + ... + w_i; adding sum1*count + sum(prefixes)
        # to sum2 equals count iterations of (sum1 += w; sum2 += sum1).
        prefixes = tuple(accumulate(words))
        sum2 += sum1 * count + sum(prefixes)
        sum1 += prefixes[-1]
        sum1 = (sum1 & 0xFFFF) + (sum1 >> 16)
        sum2 = (sum2 & 0xFFFF) + (sum2 >> 16)
    sum1 = (sum1 & 0xFFFF) + (sum1 >> 16)
    sum2 = (sum2 & 0xFFFF) + (sum2 >> 16)
    return (sum2 << 16) | sum1
