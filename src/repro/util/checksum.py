"""Checksums used for corruption detection.

The paper's detection apparatus (section 3.2) "maintains a checksum of each
memory block in the file cache"; unintentional changes show up as an
inconsistent checksum.  We use Fletcher-32, which is cheap, has no
cryptographic pretensions (matching 1996 practice — the Recovery Box used a
similar scheme) and detects the byte-level corruptions our fault injector
produces.
"""

from __future__ import annotations

_M = 0xFFFF
_M_SQUARED = _M * _M
#: Bytes folded per step.  32 768 words keep a piece's plain word sum
#: below 2**32 - 1 (the lane trick below needs that) and bound the
#: temporaries to a few times this size whatever the input length.
_PIECE_BYTES = 1 << 16
#: 0x0000FFFF repeated: selects the even 16-bit words into 32-bit lanes.
_EVEN_WORDS = int.from_bytes(b"\xff\xff\x00\x00" * (_PIECE_BYTES // 4), "little")
_LANE_MODULUS = (1 << 32) - 1


def fletcher32(data: bytes | bytearray | memoryview) -> int:
    """Return the Fletcher-32 checksum of ``data``.

    Operates on 16-bit little-endian words; an odd trailing byte is
    zero-padded, which is the conventional behaviour.  The result is
    bit-identical to the word-at-a-time loop (``sum1 += w; sum2 += sum1``
    from ``0xFFFF``, end-around-carry folds), but no step is per word.
    Modulo ``M = 65535`` the loop computes, over words ``w_0 .. w_(n-1)``,

    * ``sum1 = S``            with ``S = sum(w_i)``
    * ``sum2 = n*S - T``      with ``T = sum(i * w_i)``

    (the ``0xFFFF`` start is ``0 mod M``; the fold never produces 0 from a
    non-zero sum, so a residue of 0 reads ``0xFFFF``).  Both fall out of
    ``X = int.from_bytes(piece, "little") = sum(w_i * 2**(16*i))``:

    * adding ``X``'s even and odd words in 32-bit lanes and reducing
      ``mod 2**32 - 1`` (where ``2**32 = 1``) sums the lanes: that is
      ``S``, exactly, while ``n < 65536``;
    * ``2**16 = 1 + M``, so ``2**(16*i) = 1 + i*M (mod M*M)`` and
      ``X = S + M*T (mod M*M)``, which yields ``T mod M``.

    A handful of big-integer operations per piece, all in C; pieces chain
    through ``sum2 += n * sum1`` exactly as the loop would carry on.
    """
    buf = memoryview(data).cast("B")  # contiguous input is read in place
    sum1 = sum2 = 0  # residues mod M
    for start in range(0, len(buf), _PIECE_BYTES):
        piece = buf[start : start + _PIECE_BYTES]
        count = (len(piece) + 1) >> 1
        x = int.from_bytes(piece, "little")
        s = ((x & _EVEN_WORDS) + ((x >> 16) & _EVEN_WORDS)) % _LANE_MODULUS
        t = (x - s) % _M_SQUARED // _M
        sum2 = (sum2 + count * (sum1 + s) - t) % _M
        sum1 = (sum1 + s) % _M
    return ((sum2 or _M) << 16) | (sum1 or _M)
