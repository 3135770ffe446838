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
    """Toggles mapping to the paper's design points (section 2.3)."""

    protection: ProtectionMode = ProtectionMode.VM_KSEG
    #: Keep the registry and perform warm reboots.
    warm_reboot: bool = True
    #: Turn off reliability-induced disk writes (bwrite/bawrite -> bdwrite,
    #: sync/fsync return immediately, panic does not flush).
    reliability_writes_off: bool = True
    #: Atomic metadata updates via shadow pages (section 2.3, third change).
    shadow_metadata: bool = True
    #: Maintain per-buffer detection checksums in the registry (the
    #: experimental apparatus of section 3.2; off for performance runs).
    maintain_checksums: bool = True

    @classmethod
    def without_protection(cls, **overrides) -> "RioConfig":
        """The paper's "Rio without protection" system."""
        return cls(protection=ProtectionMode.NONE, **overrides)

    @classmethod
    def with_protection(cls, **overrides) -> "RioConfig":
        """The paper's "Rio with protection" system."""
        return cls(protection=ProtectionMode.VM_KSEG, **overrides)
