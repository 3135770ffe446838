"""Structural consistency after *fault-induced* crashes.

The crash-consistency property tests force clean crashes; here the crash
comes from real injected faults — wild stores, heap corruption, deadlocks
— which is the adversarial case: the dying kernel may have written
garbage anywhere it could reach.  The invariant is weaker than Rio's
no-data-loss (corrupted data is corrupted) but still strong: after
recovery the on-disk file system must be *structurally* consistent, and
remain usable.
"""

import pytest

from repro.faults import FaultType
from repro.fs.dissect import dissect_image, snapshot
from repro.reliability import CrashTestConfig, run_crash_test

CASES = [
    ("disk", FaultType.KERNEL_TEXT),
    ("disk", FaultType.COPY_OVERRUN),
    ("disk", FaultType.ALLOCATION),
    ("rio_noprot", FaultType.KERNEL_HEAP),
    ("rio_noprot", FaultType.COPY_OVERRUN),
    ("rio_prot", FaultType.POINTER),
    ("rio_prot", FaultType.ALLOCATION),
    ("rio_prot", FaultType.OFF_BY_ONE),
]


@pytest.mark.parametrize("system_name,fault_type", CASES, ids=lambda v: getattr(v, "value", v))
def test_structure_survives_fault_induced_crash(system_name, fault_type):
    crashes_seen = 0
    for seed in range(200, 212):
        result = run_crash_test(
            CrashTestConfig(
                system=system_name, fault_type=fault_type, seed=seed, keep_system=True
            )
        )
        if not result.crashed or result.recovery_failed:
            continue
        crashes_seen += 1
        system = result._system
        report = dissect_image(snapshot(system.disk))
        assert report.clean, (seed, report.findings[:6])
        # The recovered system is usable.
        fd = system.vfs.open("/post-fault-probe", create=True)
        system.vfs.write(fd, b"still alive")
        system.vfs.close(fd)
        if crashes_seen >= 3:
            break
    assert crashes_seen >= 1, "no usable crashes collected in 12 seeds"
