"""Fault injection: the paper's 13 fault types (section 3.1).

Three categories, injected at the level where they are mechanistic:

* **Bit flips** in kernel text, heap and stack — literal bit flips in the
  simulated physical memory holding those regions.
* **Instruction-level faults** (destination/source register corruption,
  deleted branches, deleted random instructions) — decode/mutate/re-encode
  of real instruction words in the kernel text image; the corrupted
  routine thereafter runs on the interpreter, and whatever the mutated
  code does — wild stores, infinite loops, illegal fetches — simply
  happens.
* **High-level programming-error imitations** (initialization, pointer,
  allocation management, copy overrun, off-by-one, synchronization) —
  text mutations where the paper defines them that way, and hooks in
  kmalloc / bcopy / the lock manager where the paper patched those
  procedures.

Faults are *armed* by :class:`~repro.faults.injector.FaultInjector`; their
consequences unfold as the workload executes the corrupted code.

A second, orthogonal fault family lives in
:mod:`repro.faults.capabilities`: debugfs-style *chaos capabilities*
(allocation failure, queue overflow, disk-full, slow IO, fail-Nth,
object-store failure and outage) declared by :class:`ChaosSpec`s, with
probability/interval/times knobs and per-client/session/routine scoping,
aimed at the service tier rather than kernel text.
"""

from repro.faults.types import FaultType, FAULT_CATEGORIES
from repro.faults.injector import FaultInjector, InjectionRecord
from repro.faults.capabilities import (
    CAPABILITY_NAMES,
    REQUEST_SCOPED,
    ChaosCapability,
    ChaosRegistry,
    ChaosScope,
    ChaosSpec,
)

__all__ = [
    "FaultType",
    "FAULT_CATEGORIES",
    "FaultInjector",
    "InjectionRecord",
    "CAPABILITY_NAMES",
    "REQUEST_SCOPED",
    "ChaosCapability",
    "ChaosRegistry",
    "ChaosScope",
    "ChaosSpec",
]
