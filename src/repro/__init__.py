"""repro — a reproduction of "The Rio File Cache: Surviving Operating
System Crashes" (Chen et al., ASPLOS 1996).

The package builds the paper's entire experimental stack as a
deterministic simulation: an Alpha-like machine (physical memory, MMU
with a KSEG window, a mini-ISA data plane), a Unix-like kernel with the
Digital Unix buffer cache / UBC split, UFS with fsck, AdvFS journaling,
MFS, a 13-type fault injector, the memTest / Andrew / cp+rm / Sdet
workloads, and harnesses that regenerate Table 1 (reliability) and
Table 2 (performance).

Quick start::

    from repro import SystemSpec, build_system

    # A system under test is a name in repro.system.SYSTEMS.
    system = build_system(SystemSpec("rio_prot"))
    fd = system.vfs.open("/hello", create=True)
    system.vfs.write(fd, b"files in memory, safe as disk")
    system.vfs.close(fd)

    system.crash("power stayed on, kernel didn't")
    report = system.reboot()          # warm reboot: dump, restore, fsck
    fd = system.vfs.open("/hello")
    assert system.vfs.read(fd, 64) == b"files in memory, safe as disk"
"""

from repro.core import ProtectionMode, RioConfig
from repro.errors import ReproError, SystemCrash
from repro.hw import Machine, MachineConfig
from repro.kernel import Kernel, KernelConfig
from repro.system import RebootReport, System, SystemSpec, build_system

__version__ = "1.0.0"

__all__ = [
    "ProtectionMode",
    "RioConfig",
    "ReproError",
    "SystemCrash",
    "Machine",
    "MachineConfig",
    "Kernel",
    "KernelConfig",
    "RebootReport",
    "System",
    "SystemSpec",
    "build_system",
    "__version__",
]
