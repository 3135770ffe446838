"""klib: the kernel's data-movement entry points.

Every call goes through the ISA machinery (native fast path for pristine
routines, interpreted execution for corrupted ones) and charges virtual
CPU time for the instructions executed.  This is also where two of the
paper's high-level faults hook in:

* **copy overrun** — ``bcopy`` consults :attr:`KLib.overrun_hook` and may
  copy more bytes than asked ("modifying the kernel's bcopy procedure to
  occasionally increase the number of bytes it copies").

Under code-patching protection the text image itself carries the inserted
address checks (see :mod:`repro.isa.analysis.patch`), every routine runs
on the interpreter, and the 20-50% slowdown of section 2.1 emerges from
the extra instructions actually executed — nothing is surcharged here.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.hw.bus import AccessContext, KERNEL_CONTEXT
from repro.hw.clock import Clock
from repro.isa.interpreter import CallResult, Interpreter


class KLib:
    """Kernel library routines over the interpreter."""

    def __init__(
        self,
        interpreter: Interpreter,
        clock: Clock,
        stack_top: int,
        ns_per_instruction: float = 10.0,
    ) -> None:
        self.interp = interpreter
        self.clock = clock
        self.stack_top = stack_top
        self.ns_per_instruction = ns_per_instruction
        #: Copy-overrun fault hook: ``hook(length) -> possibly larger length``.
        self.overrun_hook: Optional[Callable[[int], int]] = None
        #: When False (reliability campaigns), no CPU time is charged.
        self.charge_time = True
        self.stat_instructions = 0

    # -- internals -----------------------------------------------------------

    def _run(
        self,
        name: str,
        args: list[int],
        ctx: AccessContext,
        max_steps: int | None = None,
    ) -> CallResult:
        result = self.interp.call(name, args, ctx=ctx, sp=self.stack_top, max_steps=max_steps)
        steps = result.steps
        self.stat_instructions += steps
        if self.charge_time and steps:
            self.clock.consume(int(steps * self.ns_per_instruction))
        return result

    # -- public routines -------------------------------------------------------

    def bcopy(
        self,
        src: int,
        dst: int,
        length: int,
        ctx: AccessContext = KERNEL_CONTEXT,
    ) -> int:
        """Copy ``length`` bytes — possibly more, if an overrun fault fires."""
        if self.overrun_hook is not None:
            length = self.overrun_hook(length)
        return self._run("bcopy", [src, dst, length], ctx).value

    def cache_copy(
        self,
        hdr: int,
        src: int,
        offset: int,
        length: int,
        ctx: AccessContext = KERNEL_CONTEXT,
    ) -> int:
        """Copy through a buffer header (magic + bounds checked in the ISA)."""
        return self._run("cache_copy", [hdr, src, offset, length], ctx).value

    def sched_tick(self, head_ptr: int, ctx: AccessContext = KERNEL_CONTEXT) -> None:
        self._run("sched_tick", [head_ptr], ctx, max_steps=100_000)

    def vnode_scan(self, table: int, nbuckets: int, ctx: AccessContext = KERNEL_CONTEXT) -> None:
        self._run("vnode_scan", [table, nbuckets], ctx, max_steps=100_000)
