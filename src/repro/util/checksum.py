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


def fletcher_sums(data: bytes | bytearray | memoryview) -> tuple[int, int]:
    """Return ``(S mod M, T mod M)`` with ``S = sum(w_i)`` and
    ``T = sum(i * w_i)`` over the 16-bit little-endian words ``w_0 ..
    w_(n-1)`` of ``data`` (``i`` counted from the start of ``data``; an
    odd trailing byte is zero-padded; ``M = 65535``).

    These two sums are all Fletcher-32 keeps of its input — see
    :func:`fletcher32`, which folds them, and :func:`fletcher32_adjust`,
    which needs them for a changed range only.  Both fall out of
    ``X = int.from_bytes(piece, "little") = sum(w_i * 2**(16*i))``:

    * adding ``X``'s even and odd words in 32-bit lanes and reducing
      ``mod 2**32 - 1`` (where ``2**32 = 1``) sums the lanes: that is
      ``S``, exactly, while ``n < 65536``;
    * ``2**16 = 1 + M``, so ``2**(16*i) = 1 + i*M (mod M*M)`` and
      ``X = S + M*T (mod M*M)``, which yields ``T mod M``.

    A handful of big-integer operations per piece, all in C, no step per
    word; a piece that starts at word ``base`` adds ``base * s + t``.
    """
    buf = memoryview(data).cast("B")  # contiguous input is read in place
    total_s = total_t = 0
    for start in range(0, len(buf), _PIECE_BYTES):
        x = int.from_bytes(buf[start : start + _PIECE_BYTES], "little")
        s = ((x & _EVEN_WORDS) + ((x >> 16) & _EVEN_WORDS)) % _LANE_MODULUS
        total_t += (start >> 1) * s + (x - s) % _M_SQUARED // _M
        total_s += s
    return total_s % _M, total_t % _M


def fletcher32(data: bytes | bytearray | memoryview) -> int:
    """Return the Fletcher-32 checksum of ``data``.

    Operates on 16-bit little-endian words; an odd trailing byte is
    zero-padded, which is the conventional behaviour.  The result is
    bit-identical to the word-at-a-time loop (``sum1 += w; sum2 += sum1``
    from ``0xFFFF``, end-around-carry folds): modulo ``M = 65535`` that
    loop computes, over ``n`` words,

    * ``sum1 = S``            with ``S = sum(w_i)``
    * ``sum2 = n*S - T``      with ``T = sum(i * w_i)``

    (the ``0xFFFF`` start is ``0 mod M``; the fold never produces 0 from a
    non-zero sum, so a residue of 0 reads ``0xFFFF``), and ``S`` and ``T``
    are :func:`fletcher_sums`.
    """
    buf = memoryview(data).cast("B")
    s, t = fletcher_sums(buf)
    return (((((len(buf) + 1) >> 1) * s - t) % _M or _M) << 16) | (s or _M)


def fletcher32_adjust(
    checksum: int,
    nwords: int,
    word_index: int,
    old: tuple[int, int],
    new: tuple[int, int],
) -> int:
    """Return the Fletcher-32 of an ``nwords``-word buffer whose checksum
    was ``checksum`` after the words from ``word_index`` on changed from
    a run with sums ``old`` to an equally long run with sums ``new``
    (:func:`fletcher_sums` of the run before and after).

    ``S`` and ``T`` are linear in the words, so the change moves them by
    ``dS = s_new - s_old`` and ``dT = word_index*dS + (t_new - t_old)``
    (the run's local word ``i`` is the buffer's ``word_index + i``);
    ``sum1`` moves by ``dS`` and ``sum2 = n*S - T`` by ``n*dS - dT``.
    Bit-identical to :func:`fletcher32` of the changed buffer — the
    stored ``0xFFFF`` is the residue 0 it stands for.
    """
    ds = new[0] - old[0]
    dt = word_index * ds + new[1] - old[1]
    sum1 = ((checksum & _M) + ds) % _M
    sum2 = ((checksum >> 16) + nwords * ds - dt) % _M
    return ((sum2 or _M) << 16) | (sum1 or _M)
