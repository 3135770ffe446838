"""The eight rows of Table 2: their labels, and their SystemSpecs."""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.system import SystemSpec


@dataclass(frozen=True)
class Table2System:
    key: str
    label: str
    data_permanent: str


TABLE2_SYSTEMS: tuple[Table2System, ...] = (
    Table2System("mfs", "Memory File System", "never"),
    Table2System(
        "ufs_delayed", "UFS with delayed data and metadata", "after 0-30 seconds, asynchronous"
    ),
    Table2System("advfs", "AdvFS (log metadata updates)", "after 0-30 seconds, asynchronous"),
    Table2System(
        "ufs", "UFS", "data after 64 KB, asynchronous; metadata synchronous"
    ),
    Table2System(
        "wt_close", "UFS with write-through after each close", "after close, synchronous"
    ),
    Table2System(
        "wt_write", "UFS with write-through after each write", "after write, synchronous"
    ),
    Table2System("rio_noprot", "Rio without protection", "after write, synchronous"),
    Table2System("rio_prot", "Rio with protection", "after write, synchronous"),
)

TABLE2_KEYS = tuple(s.key for s in TABLE2_SYSTEMS)


def spec_for_row(key: str, base: SystemSpec | None = None) -> SystemSpec:
    """The SystemSpec for one Table 2 row (any name of
    :data:`repro.system.SYSTEMS`; unknown names raise ``ValueError``).

    Performance runs disable the detection checksums (experimental
    apparatus of the reliability study, not part of the measured system).
    """
    return replace(base or SystemSpec(), name=key, checksums=False)
