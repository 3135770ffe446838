"""Small shared utilities: checksums, deterministic PRNGs, byte packing."""

from repro.util.checksum import fletcher32, fletcher32_adjust, fletcher_sums
from repro.util.prng import DeterministicRandom, pattern_bytes

__all__ = [
    "fletcher32",
    "fletcher32_adjust",
    "fletcher_sums",
    "DeterministicRandom",
    "pattern_bytes",
]
