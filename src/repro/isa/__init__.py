"""A small Alpha-flavoured ISA, assembler and interpreter.

Why a mini-ISA at all?  The paper's fault injector corrupts the *running
kernel's machine code*: it flips bits in kernel text, changes source and
destination registers of instructions, deletes branches, and so on
(section 3.1).  Reproducing those faults honestly requires kernel code that
is really encoded as instructions in simulated memory and really executed —
otherwise "delete the most recent instruction that modifies the base
register of a store" has no meaning and the reproduction degenerates into
sampling outcome probabilities.

So the kernel's data-movement plane (``bcopy``, ``bzero``, the buffer/UBC
write paths) and a body of background kernel activity (list manipulation,
scheduler tick) are written in assembly for the ISA defined here, loaded
into the simulated machine's kernel text segment at boot, and executed by
:class:`~repro.isa.interpreter.Interpreter` through the memory bus — which
means wild stores from corrupted code meet exactly the same MMU protection
as legitimate stores.

For speed, routines whose text is *pristine* (never touched by the fault
injector) may execute via registered native equivalents that issue the
same bus traffic and return the same step count; any routine whose text
has been mutated always runs on the interpreter.
"""

from repro.isa.encoding import (
    Instruction,
    Op,
    REG_NAMES,
    REG_NUMBERS,
    decode,
    encode,
)
from repro.isa.assembler import AssemblyError, assemble
from repro.isa.text import KernelText, Routine
from repro.isa.interpreter import Interpreter

__all__ = [
    "Instruction",
    "Op",
    "REG_NAMES",
    "REG_NUMBERS",
    "decode",
    "encode",
    "AssemblyError",
    "assemble",
    "KernelText",
    "Routine",
    "Interpreter",
]
