"""The simulated kernel: address space, heap, locks, syscalls, daemons.

The control plane is Python (with explicit sanity checks that panic, as a
production kernel's do); the data plane runs as mini-ISA code through the
memory bus (see :mod:`repro.isa`).  Critical kernel data structures —
buffer headers, the run queue, vnode chains, allocation headers — live as
real bytes in the kernel heap region of simulated physical memory, so bit
flips and allocation faults corrupt real state with mechanistic
consequences.
"""

from repro.kernel.layout import FramePool
from repro.kernel.kmalloc import KernelHeap
from repro.kernel.locks import Lock, LockManager
from repro.kernel.klib import KLib
from repro.kernel.kernel import Kernel, KernelConfig

__all__ = [
    "FramePool",
    "KernelHeap",
    "Lock",
    "LockManager",
    "KLib",
    "Kernel",
    "KernelConfig",
]
