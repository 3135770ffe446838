"""Binary analysis of the assembled kernel text, for section 2.1's code
patching.

* :mod:`~repro.isa.analysis.disasm` — a strict disassembler, the inverse
  of :func:`repro.isa.encoding.decode`, with label recovery and
  reassemblable output;
* :mod:`~repro.isa.analysis.patch` — the code-patching pass: an address
  check, around a spilled scratch register, injected before every store.

``repro analyze`` prints both per routine.  See ``docs/INTERNALS.md``
("ISA static analysis & code patching").
"""

from repro.isa.analysis.disasm import (
    DisassemblyError,
    Disassembly,
    DisasmLine,
    disassemble_words,
)
from repro.isa.analysis.patch import (
    CodePatcher,
    PatchError,
    RoutinePatchReport,
    patch_routine,
)

__all__ = [
    "CodePatcher",
    "DisasmLine",
    "Disassembly",
    "DisassemblyError",
    "PatchError",
    "RoutinePatchReport",
    "disassemble_words",
    "patch_routine",
]
