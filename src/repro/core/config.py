"""Rio configuration: the systems evaluated in the paper."""

from __future__ import annotations

import enum
from dataclasses import dataclass


class ProtectionMode(enum.Enum):
    """How (whether) the file cache is protected from wild kernel stores."""

    #: No protection at all — "Rio without protection" relies on warm
    #: reboot alone.
    NONE = "none"
    #: Page-table write protection with KSEG forced through the TLB (the
    #: ABOX control-register method; essentially free).
    VM_KSEG = "vm_kseg"
    #: Code patching: a check inserted before every kernel store, for CPUs
    #: that cannot force physical addresses through the TLB (20-50% slower).
    CODE_PATCHING = "code_patching"


@dataclass
class RioConfig:
    """What the Rio cache itself reads (section 2.3).  Warm reboot and the
    write-off of reliability disk writes are not options: every system
    with a Rio cache has both (see :data:`repro.system.SYSTEMS`)."""

    protection: ProtectionMode = ProtectionMode.VM_KSEG
    #: Atomic metadata updates via shadow pages (section 2.3, third change).
    shadow_metadata: bool = True
    #: Maintain per-buffer detection checksums in the registry (the
    #: experimental apparatus of section 3.2; off for performance runs).
    maintain_checksums: bool = True
