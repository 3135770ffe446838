"""A strict disassembler: the inverse of :func:`repro.isa.encoding.decode`.

Where :func:`decode` is deliberately lenient (fault-corrupted words must
still execute, or crash, the way hardware would), the disassembler is the
opposite: it refuses words that are not the canonical encoding of an
assemblable statement.  That strictness is what makes it useful — the
code patcher only rewrites text it can faithfully round-trip, and
``DisassemblyError`` on kernel text is itself a corruption signal.

Round-trip guarantee: for any assembled routine,
``assemble(disassemble_words(words, labels).source) == (words, labels)``
up to label *names* (offsets are preserved exactly; recovered labels are
named ``L<index>`` when no name is provided).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ReproError
from repro.isa.encoding import (
    BRANCH_OPS,
    MEMORY_FORMAT_OPS,
    OPERATE_OPS,
    REG_NAMES,
    Instruction,
    Op,
    decode,
    encode,
    sext16,
)


class DisassemblyError(ReproError):
    """A word is not the canonical encoding of any assembly statement."""


@dataclass(frozen=True)
class DisasmLine:
    """One disassembled instruction."""

    index: int  #: word offset from the start of the routine
    word: int
    inst: Instruction
    text: str  #: the assembly statement, without any label prefix
    target: int | None = None  #: branch target index, for branch ops


@dataclass
class Disassembly:
    """A fully disassembled routine."""

    name: str
    lines: list[DisasmLine]
    labels: dict[str, int]  #: label name -> word index

    @property
    def source(self) -> str:
        """Reassemblable assembly source (labels on their own lines)."""
        by_index: dict[int, list[str]] = {}
        for label, index in self.labels.items():
            by_index.setdefault(index, []).append(label)
        out: list[str] = []
        for line in self.lines:
            for label in sorted(by_index.get(line.index, [])):
                out.append(f"{label}:")
            out.append(f"    {line.text}")
        for label in sorted(by_index.get(len(self.lines), [])):
            out.append(f"{label}:")
        return "\n".join(out) + "\n"


def _reg(num: int) -> str:
    return REG_NAMES.get(num, f"r{num}")


def _check(cond: bool, index: int, word: int, why: str) -> None:
    if not cond:
        raise DisassemblyError(f"word {index} ({word:#010x}): {why}")


def _render(index: int, word: int, inst: Instruction, label_of: dict[int, str]):
    """Return ``(text, target)`` for one canonical instruction."""
    op = inst.op
    _check(op is not None, index, word, f"illegal opcode {inst.opcode:#x}")
    name = op.name.lower()

    if op in MEMORY_FORMAT_OPS:
        return f"{name} {_reg(inst.ra)}, {sext16(inst.imm)}({_reg(inst.rb)})", None

    if op in OPERATE_OPS:
        return f"{name} {_reg(inst.ra)}, {_reg(inst.rb)}, {_reg(inst.rc)}", None

    if op in BRANCH_OPS:
        _check(inst.rb == 31, index, word, "branch with nonzero rb field")
        target = index + 1 + sext16(inst.imm)
        label = label_of.get(target)
        _check(label is not None, index, word, f"branch to unlabelled index {target}")
        if op is Op.BR and inst.ra == 31:
            return f"br {label}", target
        return f"{name} {_reg(inst.ra)}, {label}", target

    if op is Op.JSR:
        _check(inst.imm == 0, index, word, "jsr with nonzero displacement field")
        return f"jsr {_reg(inst.ra)}, ({_reg(inst.rb)})", None

    if op is Op.RET:
        _check(inst.ra == 31 and inst.imm == 0, index, word, "noncanonical ret")
        return ("ret" if inst.rb == 26 else f"ret ({_reg(inst.rb)})"), None

    if op is Op.PANIC:
        _check(inst.ra == 31 and inst.rb == 31, index, word, "noncanonical panic")
        return f"panic #{inst.imm}", None

    if op in (Op.HALT, Op.NOP):
        _check(
            inst.ra == 31 and inst.rb == 31 and inst.imm == 0,
            index,
            word,
            f"noncanonical {name}",
        )
        return name, None

    raise DisassemblyError(f"word {index} ({word:#010x}): unrenderable op {op!r}")


def disassemble_words(
    words: list[int],
    labels: dict[str, int] | None = None,
    name: str = "<words>",
) -> Disassembly:
    """Disassemble a routine body.

    ``labels`` maps known label names to word indices (as returned by
    :func:`repro.isa.assembler.assemble`); branch targets without a known
    label get a recovered ``L<index>`` name.  Raises
    :class:`DisassemblyError` on illegal opcodes, noncanonical encodings,
    or branches leaving the routine.
    """
    insts = [decode(word) for word in words]

    # Pass 1: canonicality + collect branch targets so labels exist.
    label_of: dict[int, str] = {}
    for lbl, index in (labels or {}).items():
        if not 0 <= index <= len(words):
            raise DisassemblyError(f"label {lbl!r} index {index} out of range")
        label_of[index] = lbl
    for index, (word, inst) in enumerate(zip(words, insts)):
        op = inst.op
        _check(op is not None, index, word, f"illegal opcode {inst.opcode:#x}")
        if op in BRANCH_OPS:
            target = index + 1 + sext16(inst.imm)
            _check(
                0 <= target < len(words),
                index,
                word,
                f"branch leaves routine (target index {target})",
            )
            label_of.setdefault(target, f"L{target}")
        if op in OPERATE_OPS:
            _check(
                encode(inst) == word, index, word, "nonzero function-code bits"
            )

    # Pass 2: render.
    lines = []
    for index, (word, inst) in enumerate(zip(words, insts)):
        text, target = _render(index, word, inst, label_of)
        lines.append(DisasmLine(index=index, word=word, inst=inst, text=text, target=target))
    return Disassembly(
        name=name,
        lines=lines,
        labels={lbl: index for index, lbl in label_of.items()},
    )

