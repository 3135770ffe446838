"""A lint suite over the kernel-text IR.

Each pass runs on the disassembly/CFG/dataflow of one routine and yields
:class:`Finding`\\ s.  The suite must run clean over every shipped routine
(``tests/test_isa_analysis.py::TestLint`` holds it to that) — the passes encode the
invariants the interpreter, the patcher and the crash model rely on:

* ``unreachable``       — basic blocks no path from the entry reaches;
* ``no-exit-loop``      — a loop with no exit edge and no terminator
                          (would spin until the watchdog fires);
* ``undefined-read``    — a register read whose reaching definitions
                          include routine entry, for a register that
                          carries no value at entry;
* ``stack-discipline``  — ``ret`` with the stack pointer not restored to
                          its entry value, a provably clobbered return
                          address, or control falling off the end of the
                          routine;
* ``panic-code``        — a ``panic`` whose error code has no message in
                          :data:`~repro.isa.interpreter.PANIC_MESSAGES`;
* ``reserved-register`` — use of ``at``/``gp``, which the code patcher
                          owns;
* ``undisassemblable``  — text the strict disassembler rejects (for lint
                          over in-memory, possibly corrupted routines).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.isa.analysis.cfg import CFG, build_cfg
from repro.isa.analysis.dataflow import (
    ENTRY,
    ENTRY_DEFINED,
    ReachingDefs,
    Val,
    ValueAnalysis,
    inst_uses,
)
from repro.isa.analysis.disasm import DisassemblyError, disassemble_words
from repro.isa.analysis.patch import RESERVED_REGS, inst_regs
from repro.isa.assembler import assemble
from repro.isa.encoding import REG_NAMES, Op
from repro.isa.interpreter import PANIC_MESSAGES

ALL_PASSES = (
    "unreachable",
    "no-exit-loop",
    "undefined-read",
    "stack-discipline",
    "panic-code",
    "reserved-register",
)


@dataclass(frozen=True)
class Finding:
    """One lint diagnostic."""

    routine: str
    check: str
    index: int  #: word index the finding anchors to (-1 = whole routine)
    message: str

    def __str__(self) -> str:
        where = f"word {self.index}" if self.index >= 0 else "routine"
        return f"{self.routine}: [{self.check}] {where}: {self.message}"


def _lint_unreachable(cfg: CFG) -> Iterable[Finding]:
    reachable = cfg.reachable()
    for start, block in sorted(cfg.blocks.items()):
        if start not in reachable:
            yield Finding(
                cfg.dis.name,
                "unreachable",
                start,
                f"block [{block.start}, {block.end}) is unreachable from the entry",
            )


def _lint_no_exit_loop(cfg: CFG) -> Iterable[Finding]:
    for component in cfg.loops_without_exit():
        yield Finding(
            cfg.dis.name,
            "no-exit-loop",
            component[0],
            "loop over blocks "
            + ", ".join(str(s) for s in component)
            + " has no exit edge (watchdog bait)",
        )


def _lint_undefined_read(cfg: CFG) -> Iterable[Finding]:
    reaching = ReachingDefs(cfg)
    reachable_indices = {
        i for start in cfg.reachable() for i in cfg.blocks[start].indices
    }
    for line in cfg.dis.lines:
        if line.index not in reachable_indices:
            continue  # covered by the unreachable pass
        for reg in sorted(inst_uses(line.inst)):
            if reg in ENTRY_DEFINED:
                continue
            if ENTRY in reaching.defs_of(line.index, reg):
                name = REG_NAMES.get(reg, f"r{reg}")
                yield Finding(
                    cfg.dis.name,
                    "undefined-read",
                    line.index,
                    f"{name} may be read before any definition ({line.text!r})",
                )


def _lint_stack_discipline(cfg: CFG) -> Iterable[Finding]:
    if cfg.falls_off_end:
        yield Finding(
            cfg.dis.name,
            "stack-discipline",
            cfg.dis.num_words - 1,
            "control can fall off the end of the routine",
        )
    values = ValueAnalysis(cfg)
    reachable_indices = {
        i for start in cfg.reachable() for i in cfg.blocks[start].indices
    }
    for line in cfg.dis.lines:
        if line.inst.op is not Op.RET or line.index not in reachable_indices:
            continue
        sp = values.value_before(line.index, 30)
        if sp is not None and sp != Val(30, 0):
            yield Finding(
                cfg.dis.name,
                "stack-discipline",
                line.index,
                f"ret with sp = {sp} (frame not popped)",
            )
        target = values.value_before(line.index, line.inst.rb)
        if target is not None and target != Val(26, 0):
            name = REG_NAMES.get(line.inst.rb, f"r{line.inst.rb}")
            yield Finding(
                cfg.dis.name,
                "stack-discipline",
                line.index,
                f"ret through {name} = {target}, not the entry return address",
            )


def _lint_panic_code(cfg: CFG) -> Iterable[Finding]:
    for line in cfg.dis.lines:
        if line.inst.op is Op.PANIC and line.inst.imm not in PANIC_MESSAGES:
            yield Finding(
                cfg.dis.name,
                "panic-code",
                line.index,
                f"panic #{line.inst.imm} has no entry in PANIC_MESSAGES",
            )


def _lint_reserved_register(cfg: CFG) -> Iterable[Finding]:
    for line in cfg.dis.lines:
        for reg in sorted(inst_regs(line.inst) & RESERVED_REGS):
            name = REG_NAMES.get(reg, f"r{reg}")
            yield Finding(
                cfg.dis.name,
                "reserved-register",
                line.index,
                f"{name} is reserved for the code patcher ({line.text!r})",
            )


_PASSES = {
    "unreachable": _lint_unreachable,
    "no-exit-loop": _lint_no_exit_loop,
    "undefined-read": _lint_undefined_read,
    "stack-discipline": _lint_stack_discipline,
    "panic-code": _lint_panic_code,
    "reserved-register": _lint_reserved_register,
}


def lint_words(
    name: str,
    words: list[int],
    labels: dict[str, int] | None = None,
    passes: Iterable[str] = ALL_PASSES,
) -> list[Finding]:
    """Run the lint passes over one routine body."""
    try:
        dis = disassemble_words(words, labels=labels, name=name)
    except DisassemblyError as exc:
        return [Finding(name, "undisassemblable", -1, str(exc))]
    cfg = build_cfg(dis)
    findings: list[Finding] = []
    for pass_name in passes:
        findings.extend(_PASSES[pass_name](cfg))
    return findings


def lint_source(
    name: str, source: str, passes: Iterable[str] = ALL_PASSES
) -> list[Finding]:
    """Assemble one routine source and lint the result."""
    words, labels = assemble(source)
    return lint_words(name, words, labels=labels, passes=passes)


def lint_routines(sources: dict[str, str] | None = None) -> list[Finding]:
    """Lint every kernel routine (the shipped set by default)."""
    if sources is None:
        from repro.isa.routines import ROUTINE_SOURCES

        sources = ROUTINE_SOURCES
    findings: list[Finding] = []
    for name, source in sources.items():
        findings.extend(lint_source(name, source))
    return findings
