"""Tests for checksums and the deterministic PRNG.

``fletcher32`` and ``pattern_bytes`` are closed forms (a few big-integer
operations per piece); the word-at-a-time definitions they must equal are
written out here, literally, as the oracles.
"""

import tracemalloc

import pytest
from hypothesis import given, strategies as st

from repro.util import DeterministicRandom, fletcher32, pattern_bytes
from repro.util.prng import _splitmix64

MASK64 = (1 << 64) - 1


def fletcher32_oracle(data) -> int:
    """Fletcher-32, one 16-bit little-endian word at a time, folding the
    end-around carry every word (odd trailing byte zero-padded)."""
    data = bytes(data)
    if len(data) % 2:
        data += b"\x00"
    sum1 = sum2 = 0xFFFF
    for i in range(0, len(data), 2):
        sum1 += data[i] | (data[i + 1] << 8)
        sum2 += sum1
        sum1 = (sum1 & 0xFFFF) + (sum1 >> 16)
        sum2 = (sum2 & 0xFFFF) + (sum2 >> 16)
    sum1 = (sum1 & 0xFFFF) + (sum1 >> 16)
    sum2 = (sum2 & 0xFFFF) + (sum2 >> 16)
    return (sum2 << 16) | sum1


def pattern_oracle(file_key: int, offset: int, length: int) -> bytes:
    """memTest contents, one byte at a time: byte ``p`` of a file is byte
    ``p % 8`` of SplitMix64(file_key * 0x100000001B3 + p // 8)."""
    out = bytearray()
    for pos in range(offset, offset + length):
        _, word = _splitmix64((file_key * 0x100000001B3 + pos // 8) & MASK64)
        out.append(word >> 8 * (pos % 8) & 0xFF)
    return bytes(out)


def key_wrapping_at(block: int) -> int:
    """A file key whose SplitMix64 state passes 2**64 at ``block``."""
    inverse = pow(0x100000001B3, -1, 1 << 64)
    return (-0x9E3779B97F4A7C15 - block) * inverse & MASK64


def peak_extra_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestFletcher32:
    def test_known_properties(self):
        assert fletcher32(b"") == fletcher32(b"")
        assert fletcher32(b"abcde") != fletcher32(b"abcdf")

    def test_detects_single_bit_flip(self):
        data = bytearray(b"The Rio file cache" * 10)
        original = fletcher32(data)
        data[7] ^= 0x10
        assert fletcher32(data) != original

    def test_accepts_buffer_types(self):
        assert fletcher32(b"xyz") == fletcher32(bytearray(b"xyz")) == fletcher32(memoryview(b"xyz"))

    @given(st.binary(min_size=0, max_size=4096))
    def test_deterministic(self, data):
        assert fletcher32(data) == fletcher32(data)

    @given(st.binary(min_size=1, max_size=512), st.integers(0, 7))
    def test_any_one_bit_flip_detected(self, data, bit):
        mutated = bytearray(data)
        mutated[len(data) // 2] ^= 1 << bit
        assert fletcher32(bytes(mutated)) != fletcher32(data)

    @given(st.binary(min_size=0, max_size=3000))
    def test_equals_the_word_loop(self, data):
        assert fletcher32(data) == fletcher32_oracle(data)

    @pytest.mark.parametrize(
        "length",
        # 0, 1, 2, odd; either side of the classical 359/360-word block;
        # a page; either side of the 64 KiB piece; several pieces, odd.
        [0, 1, 2, 3, 717, 718, 719, 720, 721, 722, 8192, 65535, 65536, 65537, 200_000, 200_001],
    )
    @pytest.mark.parametrize("fill", [b"\x00", b"\xff", None])
    def test_pinned_lengths_and_fills(self, length, fill):
        if fill is None:
            data = DeterministicRandom(length).bytes(length)
        else:
            data = fill * length
        expected = fletcher32_oracle(data)
        assert fletcher32(data) == expected
        assert fletcher32(bytearray(data)) == expected
        assert fletcher32(memoryview(data)) == expected
        if length:
            flipped = bytearray(data)
            flipped[length // 2] ^= 0x04
            assert fletcher32(flipped) == fletcher32_oracle(flipped) != expected

    def test_zero_residues_read_ffff(self):
        """The carry fold never yields 0 from a 0xFFFF start."""
        assert fletcher32(b"") == 0xFFFFFFFF
        assert fletcher32(bytes(8192)) == 0xFFFFFFFF
        assert fletcher32(b"\xff\xff") == fletcher32_oracle(b"\xff\xff") == 0xFFFFFFFF

    def test_memoryview_of_a_slice_is_read_in_place(self):
        backing = DeterministicRandom(9).bytes(20_000)
        view = memoryview(backing)[3:19_000]
        assert fletcher32(view) == fletcher32_oracle(backing[3:19_000])

    def test_temporaries_are_bounded(self):
        """A 4 MiB input is folded in 64 KiB pieces: the working set is a
        few pieces, not a few copies of the input."""
        data = bytes(4 << 20)
        assert peak_extra_bytes(lambda: fletcher32(data)) < 1 << 20


class TestDeterministicRandom:
    def test_same_seed_same_stream(self):
        a = DeterministicRandom(42)
        b = DeterministicRandom(42)
        assert [a.next_u64() for _ in range(20)] == [b.next_u64() for _ in range(20)]

    def test_different_seeds_differ(self):
        assert DeterministicRandom(1).next_u64() != DeterministicRandom(2).next_u64()

    def test_randint_bounds(self):
        rng = DeterministicRandom(7)
        values = [rng.randint(3, 9) for _ in range(200)]
        assert min(values) >= 3 and max(values) <= 9
        assert set(values) == set(range(3, 10))

    def test_randrange_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            DeterministicRandom(0).randrange(0)

    def test_random_in_unit_interval(self):
        rng = DeterministicRandom(11)
        for _ in range(100):
            x = rng.random()
            assert 0.0 <= x < 1.0

    def test_choice_and_weighted_choice(self):
        rng = DeterministicRandom(5)
        assert rng.choice([10]) == 10
        picks = {rng.weighted_choice(["a", "b"], [0.0, 1.0]) for _ in range(50)}
        assert picks == {"b"}

    def test_weighted_choice_validates(self):
        rng = DeterministicRandom(5)
        with pytest.raises(ValueError):
            rng.weighted_choice(["a"], [1, 2])

    def test_shuffle_is_permutation(self):
        rng = DeterministicRandom(9)
        seq = list(range(30))
        shuffled = list(seq)
        rng.shuffle(shuffled)
        assert sorted(shuffled) == seq

    def test_bytes_length(self):
        rng = DeterministicRandom(3)
        for n in (0, 1, 7, 8, 9, 100):
            assert len(rng.bytes(n)) == n

    def test_fork_independent(self):
        rng = DeterministicRandom(1)
        child_a = rng.fork(1)
        child_b = rng.fork(2)
        assert child_a.next_u64() != child_b.next_u64()


class TestPatternBytes:
    def test_deterministic(self):
        assert pattern_bytes(5, 100, 64) == pattern_bytes(5, 100, 64)

    def test_different_keys_differ(self):
        assert pattern_bytes(1, 0, 32) != pattern_bytes(2, 0, 32)

    def test_zero_length(self):
        assert pattern_bytes(1, 0, 0) == b""

    @given(
        st.integers(0, 2**32),
        st.integers(0, 10_000),
        st.integers(1, 300),
        st.integers(1, 300),
    )
    def test_concatenation_property(self, key, offset, len_a, len_b):
        """Contents are a pure function of (key, offset): splits concatenate."""
        whole = pattern_bytes(key, offset, len_a + len_b)
        parts = pattern_bytes(key, offset, len_a) + pattern_bytes(key, offset + len_a, len_b)
        assert whole == parts

    @given(
        st.one_of(st.integers(0, 2**16), st.integers(0, 2**64 - 1)),
        st.integers(0, 100_000),
        st.integers(0, 700),
    )
    def test_equals_the_per_byte_generator(self, key, offset, length):
        assert pattern_bytes(key, offset, length) == pattern_oracle(key, offset, length)

    @pytest.mark.parametrize(
        "offset, length",
        [
            (0, 1), (7, 1), (7, 2), (0, 8), (3, 13),
            (0, 8192), (5, 8192), (0, 8193), (8 * 1024 - 3, 11),  # the 1024-block run edge
            (0, 32768), (13, 40_001),
        ],
    )
    def test_pinned_ranges(self, offset, length):
        assert pattern_bytes(77, offset, length) == pattern_oracle(77, offset, length)

    @pytest.mark.parametrize("wrap_block", [0, 1, 5, 1023, 1024, 1500])
    def test_state_wrapping_inside_the_run(self, wrap_block):
        key = key_wrapping_at(wrap_block)
        assert (key * 0x100000001B3 + 0x9E3779B97F4A7C15 + wrap_block) & MASK64 == 0
        assert pattern_bytes(key, 3, 16_000) == pattern_oracle(key, 3, 16_000)

    def test_temporaries_are_bounded(self):
        """4 MiB of pattern is generated run by run: peak = the output,
        the buffer it is sliced from, and one run's worth of integers."""
        size = 4 << 20
        assert peak_extra_bytes(lambda: pattern_bytes(5, 3, size)) < 2 * size + (1 << 20)

    @given(st.integers(0, 2**32), st.integers(0, 1000), st.integers(1, 100))
    def test_subrange_property(self, key, offset, length):
        """Reading a subrange equals slicing the containing range."""
        outer = pattern_bytes(key, 0, offset + length)
        assert pattern_bytes(key, offset, length) == outer[offset : offset + length]
