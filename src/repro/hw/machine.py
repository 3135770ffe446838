"""The machine: memory + MMU + bus + clock + disks, and the crash lifecycle.

The fault-injection campaign needs a precise model of what happens to each
component across a crash and reboot:

* **Physical memory** keeps its contents across a reset (Alpha semantics,
  section 5).  ``reset(preserve_memory=False)`` models the PC behaviour
  that made warm reboot impossible for the Harp designers.
* **The MMU** is rebuilt from scratch on reset — mappings and protection
  state are CPU state, not memory state.
* **Disks** keep their contents; a sector being written at the instant of
  the crash is torn (disk semantics live in :mod:`repro.disk`).
* **The clock** keeps running: reboot takes (virtual) time.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.errors import CrashedMachineError
from repro.hw.bus import MemoryBus
from repro.hw.clock import Clock, NS_PER_SEC
from repro.hw.memory import PhysicalMemory
from repro.hw.mmu import MMU
from repro.obs.events import FlightRecorder


@dataclass
class MachineConfig:
    """Sizing knobs for the simulated workstation.

    The paper's machines had 128 MB with an 80 MB UBC; the default here
    is scaled down so campaigns run quickly.  Every system under test
    runs the default; the hardware tests size bare machines smaller.
    The page size is not a knob: it is :data:`~repro.hw.memory.PAGE_SIZE`.
    """

    memory_bytes: int = 16 * 1024 * 1024
    #: Virtual time a (re)boot consumes before the system is usable.
    boot_time_ns: int = 30 * NS_PER_SEC
    #: Engage the hot-path execution engine (soft TLB + zero-copy word
    #: accesses on the bus, predecoded kernel text + dispatch table in the
    #: interpreter).  Observable behaviour is bit-identical either way;
    #: the reference path exists for differential testing.  The default
    #: honours the ``RIO_FAST_PATH`` environment variable (``0``/``off``/
    #: ``false`` disable it) so whole suites can be flipped wholesale.
    fast_path: bool = field(default_factory=lambda: _fast_path_default())


def _fast_path_default() -> bool:
    return os.environ.get("RIO_FAST_PATH", "1").lower() not in ("0", "off", "false")


@dataclass
class CrashRecord:
    """What the campaign needs to know about one crash."""

    time_ns: int
    reason: str
    kind: str  # "machine_check" | "protection_trap" | "panic" | "watchdog" | "forced"


class Machine:
    """A simulated workstation with an explicit crash / reset lifecycle.

    ``memory`` may be an existing :class:`PhysicalMemory` — section 5 asks
    that "if the system board fails, it should be possible to move the
    memory board to a different system without losing power or data";
    passing a transplanted board models exactly that.
    """

    def __init__(
        self,
        config: MachineConfig | None = None,
        clock: Clock | None = None,
        memory: PhysicalMemory | None = None,
    ) -> None:
        self.config = config or MachineConfig()
        self.clock = clock or Clock()
        if memory is not None and memory.size != self.config.memory_bytes:
            raise ValueError("transplanted memory board does not fit this machine")
        self.memory = memory or PhysicalMemory(self.config.memory_bytes)
        self.disks: dict[str, object] = {}
        self.crash_log: list[CrashRecord] = []
        #: The flight recorder (see :mod:`repro.obs`): one per machine,
        #: disabled by default, surviving resets so a single stream spans
        #: a crash and the warm reboot that recovers from it.
        self.recorder = FlightRecorder(self.clock)
        self._power_on_cpu()
        self.reset_count = 0

    def _power_on_cpu(self) -> None:
        """Build a fresh MMU and bus (up, not crashed) on the memory board
        and wire the flight recorder to both."""
        self.memory.unwatch_all()  # a crashed write window leaves its watch
        self.mmu = MMU(self.memory)
        self.bus = MemoryBus(self.mmu, fast_path=self.config.fast_path)
        self.mmu.recorder = self.recorder
        self.bus.recorder = self.recorder

    @property
    def crashed(self) -> bool:
        """Is the machine down?  The state lives on the bus, where every
        access tests it (``MemoryBus.crashed``)."""
        return self.bus.crashed

    @crashed.setter
    def crashed(self, value: bool) -> None:
        self.bus.crashed = value

    # -- device management ------------------------------------------------

    def attach_disk(self, name: str, disk) -> None:
        """Attach a disk (see :mod:`repro.disk`) under a device name."""
        self.disks[name] = disk
        disk.attach(self.clock)

    # -- crash / reset lifecycle -------------------------------------------

    def crash(self, reason: str, kind: str = "panic") -> None:
        """Bring the machine down.

        After this call all bus accesses raise
        :class:`~repro.errors.CrashedMachineError`; memory contents are
        frozen exactly as they were, which is precisely the state the warm
        reboot will recover.  In-flight disk writes are torn.
        """
        if self.crashed:
            return
        self.crashed = True
        self.crash_log.append(CrashRecord(self.clock.now_ns, reason, kind))
        rec = self.recorder
        if rec.enabled:
            # ``go_down`` emits the richer classified event (with
            # panic_code) first; this one marks the machine actually
            # stopping, after any dying-kernel sync activity.
            rec.emit("crash", "machine-down", kind=kind, reason=reason)
        for disk in self.disks.values():
            disk.crash()

    def reset(self, preserve_memory: bool = True) -> None:
        """Reset the machine so a new kernel can boot.

        ``preserve_memory=True`` is the Alpha behaviour that warm reboot
        requires; ``False`` models PCs that scrub RAM during reset.
        """
        self.reset_count += 1
        if not preserve_memory:
            self.memory.erase()
        # CPU state (the MMU, including the ABOX bit) does not survive reset.
        # The flight recorder does: it is observer state, not machine state,
        # and a trial's stream must span the crash and the recovery.
        self._power_on_cpu()
        for disk in self.disks.values():
            disk.reset()
        self.clock.drop_kernel_listeners()  # the old kernel's, not the disks'
        self.clock.consume(self.config.boot_time_ns)

    def require_up(self) -> None:
        if self.crashed:
            raise CrashedMachineError("machine is down")
