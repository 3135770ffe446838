"""Binary static analysis over assembled kernel routines.

The pipeline layers, bottom to top:

* :mod:`~repro.isa.analysis.disasm` — a strict disassembler, the inverse
  of :func:`repro.isa.encoding.decode`, with label recovery and
  reassemblable output;
* :mod:`~repro.isa.analysis.cfg` — basic blocks and the control-flow
  graph;
* :mod:`~repro.isa.analysis.dataflow` — reaching definitions, liveness
  and a symbolic value analysis (with stack-slot tracking);
* :mod:`~repro.isa.analysis.patch` — the real code-patching pass: an
  address check injected before every store, with liveness-chosen
  scratch registers and dataflow-proven check elision;
* :mod:`~repro.isa.analysis.lint` — consistency checks over the same IR,
  printed per routine by ``repro analyze`` and held clean over the
  shipped text by tier-1.

See ``docs/INTERNALS.md`` ("ISA static analysis & code patching").
"""

from repro.isa.analysis.cfg import CFG, BasicBlock, build_cfg
from repro.isa.analysis.dataflow import (
    Liveness,
    ReachingDefs,
    RewalkAnalysis,
    Val,
    ValueAnalysis,
)
from repro.isa.analysis.disasm import (
    DisassemblyError,
    Disassembly,
    DisasmLine,
    disassemble_routine,
    disassemble_words,
)
from repro.isa.analysis.lint import Finding, lint_routines, lint_source, lint_words
from repro.isa.analysis.patch import (
    CodePatcher,
    PatchError,
    RoutinePatchReport,
    StoreDecision,
    patch_routine,
)

__all__ = [
    "BasicBlock",
    "CFG",
    "CodePatcher",
    "DisasmLine",
    "Disassembly",
    "DisassemblyError",
    "Finding",
    "Liveness",
    "PatchError",
    "ReachingDefs",
    "RewalkAnalysis",
    "RoutinePatchReport",
    "StoreDecision",
    "Val",
    "ValueAnalysis",
    "build_cfg",
    "disassemble_routine",
    "disassemble_words",
    "lint_routines",
    "lint_source",
    "lint_words",
    "patch_routine",
]
