"""Write-age analysis: how long does newly written data live?

Section 1: delayed-write systems hold data in memory for up to 30
seconds, but "1/3 to 2/3 of newly written data lives longer than 30
seconds [Baker91, Hartman93], so a large fraction of writes must
eventually be written through to disk under this policy".

This module traces byte-writes and deletions/overwrites on a running
system and computes the survival function of write age: what fraction of
written bytes is still live (not deleted, not overwritten) after T
seconds — why a 30-second delay buys limited traffic reduction while
Rio's delay-until-overflow lets the maximum number of files "die in
memory".
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class WriteAgeTrace:
    """Record writes and deaths; answer survival questions."""

    #: (birth_ns, death_ns or None, length) per written extent.
    extents: list = field(default_factory=list)
    _live: dict = field(default_factory=dict)  # (file, offset-page) -> index

    def record_write(self, file_id, offset: int, length: int, now_ns: int) -> None:
        """A write of [offset, offset+length); overwrites kill older data."""
        key = (file_id, offset, length)
        previous = self._live.pop(key, None)
        if previous is not None:
            birth, _, plen = self.extents[previous]
            self.extents[previous] = (birth, now_ns, plen)
        self.extents.append((now_ns, None, length))
        self._live[key] = len(self.extents) - 1

    def record_delete(self, file_id, now_ns: int) -> None:
        """The whole file dies."""
        for key in [k for k in self._live if k[0] == file_id]:
            index = self._live.pop(key)
            birth, _, length = self.extents[index]
            self.extents[index] = (birth, now_ns, length)

    def survival_fraction(self, age_seconds: float, end_ns: int) -> float:
        """Fraction of written bytes still live ``age_seconds`` after
        being written (among writes old enough to judge)."""
        age_ns = int(age_seconds * 1e9)
        judged = survived = 0
        for birth, death, length in self.extents:
            if end_ns - birth < age_ns:
                continue  # too young to judge
            judged += length
            lifetime = (death if death is not None else end_ns) - birth
            if lifetime >= age_ns:
                survived += length
        return survived / judged if judged else 0.0

    def bytes_dead_within(self, age_seconds: float) -> int:
        """Bytes that died (deleted/overwritten) within ``age_seconds`` —
        the traffic a delayed-write policy with that delay avoids."""
        age_ns = int(age_seconds * 1e9)
        return sum(
            length
            for birth, death, length in self.extents
            if death is not None and death - birth < age_ns
        )


def write_age_survival(trace: WriteAgeTrace, end_ns: int, ages=(1, 5, 15, 30, 60, 120)) -> dict:
    """Survival fractions at several thresholds."""
    return {age: trace.survival_fraction(age, end_ns) for age in ages}
