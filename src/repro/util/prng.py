"""Deterministic pseudo-random generators.

The paper's memTest workload is driven by "a pseudo-random number generator"
so that, after a crash, the workload can be *replayed* to the exact point of
the crash and the correct contents of every file reconstructed.  That
property demands a PRNG that is fully deterministic given a seed and whose
state can be advanced op by op; we implement a small, self-contained 64-bit
SplitMix64/xorshift combination rather than relying on ``random.Random``
internals staying stable across Python versions.
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1


def _splitmix64(state: int) -> tuple[int, int]:
    """Advance a SplitMix64 state; return ``(new_state, output)``."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


class DeterministicRandom:
    """A seeded, replayable 64-bit PRNG with a tiny ``random``-like API."""

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64
        # Warm up so that small seeds do not produce correlated streams.
        for _ in range(2):
            self._state, _ = _splitmix64(self._state)

    def next_u64(self) -> int:
        self._state, out = _splitmix64(self._state)
        return out

    def randrange(self, stop: int) -> int:
        """Return an integer in ``[0, stop)``; ``stop`` must be positive."""
        if stop <= 0:
            raise ValueError("randrange stop must be positive")
        return self.next_u64() % stop

    def randint(self, low: int, high: int) -> int:
        """Return an integer in ``[low, high]`` inclusive."""
        if high < low:
            raise ValueError("randint requires low <= high")
        return low + self.randrange(high - low + 1)

    def random(self) -> float:
        """Return a float in ``[0, 1)``."""
        return (self.next_u64() >> 11) / float(1 << 53)

    def choice(self, seq):
        if not seq:
            raise ValueError("choice from empty sequence")
        return seq[self.randrange(len(seq))]

    def weighted_choice(self, items, weights):
        """Pick from ``items`` with the given relative ``weights``."""
        if len(items) != len(weights) or not items:
            raise ValueError("items and weights must be equal-length, non-empty")
        total = float(sum(weights))
        point = self.random() * total
        acc = 0.0
        for item, weight in zip(items, weights):
            acc += weight
            if point < acc:
                return item
        return items[-1]

    def shuffle(self, seq: list) -> None:
        """Fisher-Yates shuffle in place."""
        for i in range(len(seq) - 1, 0, -1):
            j = self.randrange(i + 1)
            seq[i], seq[j] = seq[j], seq[i]

    def bytes(self, n: int) -> bytes:
        """Return ``n`` pseudo-random bytes."""
        out = bytearray()
        while len(out) < n:
            out += self.next_u64().to_bytes(8, "little")
        return bytes(out[:n])

    def fork(self, tag: int) -> "DeterministicRandom":
        """Return an independent child stream keyed by ``tag``."""
        return DeterministicRandom(self._state ^ (tag * 0x9E3779B97F4A7C15) ^ 0xA5A5A5A5)


#: Blocks (8-byte words) generated per step of :func:`pattern_bytes`; the
#: step's temporaries are a few integers of ``16 * _RUN`` bytes each.
_RUN = 1024
_LANE_BYTES = 16
#: One 128-bit lane per block: all-ones in each lane's low 64 bits, the
#: value 1 in every lane, and the lane index 0, 1, 2, ... in every lane.
_LOW64 = int.from_bytes((b"\xff" * 8).ljust(_LANE_BYTES, b"\0") * _RUN, "little")
_ONES = int.from_bytes(b"\x01".ljust(_LANE_BYTES, b"\0") * _RUN, "little")
_RAMP = int.from_bytes(
    b"".join(i.to_bytes(_LANE_BYTES, "little") for i in range(_RUN)), "little"
)


def pattern_bytes(file_key: int, offset: int, length: int) -> bytes:
    """Deterministic file contents used by memTest.

    Every byte of every file is a pure function of ``(file_key, offset)``,
    so the expected contents of any byte range can be recomputed at any time
    without storing the data — exactly the property memTest needs to check a
    restored file cache image against ground truth.

    Block ``b`` (bytes ``8b .. 8b+7``) is the SplitMix64 output for state
    ``file_key * 0x100000001B3 + b``, little-endian.  The states of a run
    of blocks are consecutive integers, so a run is mixed at once: each
    state sits in the low half of its own 128-bit lane of one big integer.
    A 64-bit value times a 64-bit constant cannot carry out of a 128-bit
    lane, so one multiplication multiplies every lane; masking with
    ``_LOW64`` is the ``& (2**64 - 1)`` of every lane (including the wrap
    of a state past ``2**64``) and clears what a right shift drags in from
    the lane above.  The low halves are then gathered with a strided copy.
    """
    if length <= 0:
        return b""
    first = offset // 8
    blocks = (offset + length - 1) // 8 - first + 1
    state = file_key * 0x100000001B3 + 0x9E3779B97F4A7C15 + first
    low, ones, ramp = _LOW64, _ONES, _RAMP
    out = bytearray(blocks * 8)
    for done in range(0, blocks, _RUN):
        run = min(_RUN, blocks - done)
        if run < _RUN:  # the last, short run: that many lanes only
            keep = (1 << 8 * _LANE_BYTES * run) - 1
            low, ones, ramp = low & keep, ones & keep, ramp & keep
        z = (ones * ((state + done) & _MASK64) + ramp) & low
        z = ((z ^ (z >> 30) & low) * 0xBF58476D1CE4E5B9) & low
        z = ((z ^ (z >> 27) & low) * 0x94D049BB133111EB) & low
        z ^= (z >> 31) & low
        lanes = memoryview(z.to_bytes(_LANE_BYTES * run, "little")).cast("Q")
        out[done * 8 : (done + run) * 8] = lanes[::2].tobytes()
    skip = offset - first * 8
    return bytes(memoryview(out)[skip : skip + length])
