"""A two-pass assembler for the mini-ISA.

Supports the syntax used by the kernel routine sources in
:mod:`repro.isa.routines`::

    routine_entry:               ; labels end with ':'
        lda   t0, 8(zero)        ; ra <- rb + imm
        ldq   t2, 0(a0)          ; memory ops: reg, disp(base)
        addq  a2, t0, a2         ; operate ops: ra, rb, rc
        beq   a2, done           ; branches target labels
        br    loop               ; unconditional (link register omitted)
        jsr   ra, (pv)           ; call through register
        ret                      ; return via ra
        panic #12                ; consistency check failure, error code 12
        halt

Comments start with ``;`` (``#`` is reserved for panic codes).
Displacements may be decimal (optionally negative) or ``0x`` hex.
"""

from __future__ import annotations

import functools
import re

from repro.errors import ReproError
from repro.isa.encoding import (
    BRANCH_OPS,
    MEMORY_FORMAT_OPS,
    OPERATE_OPS,
    Instruction,
    Op,
    REG_NUMBERS,
    encode,
)


class AssemblyError(ReproError):
    """Raised for malformed assembly source."""


_LABEL_RE = re.compile(r"^([A-Za-z_][\w.]*):$")
_MEM_OPERAND_RE = re.compile(r"^(-?(?:0x[0-9a-fA-F]+|\d+))\(([\w$]+)\)$")


def _parse_int(token: str) -> int:
    token = token.strip()
    negative = token.startswith("-")
    if negative:
        token = token[1:]
    value = int(token, 16) if token.lower().startswith("0x") else int(token)
    return -value if negative else value


def _reg(token: str, line_no: int) -> int:
    token = token.strip().lower()
    if token not in REG_NUMBERS:
        raise AssemblyError(f"line {line_no}: unknown register {token!r}")
    return REG_NUMBERS[token]


def _split_operands(rest: str) -> list[str]:
    return [part.strip() for part in rest.split(",")] if rest.strip() else []


def assemble(source: str) -> tuple[list[int], dict[str, int]]:
    """Assemble ``source``; return ``(words, labels)``.

    ``labels`` maps label name to instruction index (word offset from the
    start of the assembled block).  Both are the caller's own to rewrite
    and extend (the code patcher and :class:`KernelText` do): assembly is
    a pure function of the text, so the build product is kept frozen per
    source and copied out — every boot assembles the same six routines.
    """
    words, labels = _assemble(source)
    return list(words), dict(labels)


@functools.lru_cache(maxsize=64)
def _assemble(source: str) -> tuple[tuple[int, ...], tuple[tuple[str, int], ...]]:
    # Pass 1: strip comments, collect labels and raw statements.
    statements: list[tuple[int, str, str]] = []  # (line_no, mnemonic, rest)
    labels: dict[str, int] = {}
    for line_no, raw in enumerate(source.splitlines(), start=1):
        line = raw.split(";", 1)[0].strip()
        if not line:
            continue
        while True:
            match = _LABEL_RE.match(line.split(None, 1)[0]) if line else None
            if match:
                label = match.group(1)
                if label in labels:
                    raise AssemblyError(f"line {line_no}: duplicate label {label!r}")
                labels[label] = len(statements)
                line = line.split(None, 1)[1].strip() if len(line.split(None, 1)) > 1 else ""
                if not line:
                    break
            else:
                break
        if not line:
            continue
        parts = line.split(None, 1)
        mnemonic = parts[0].lower()
        rest = parts[1] if len(parts) > 1 else ""
        statements.append((line_no, mnemonic, rest))

    # Pass 2: encode.
    words: list[int] = []
    for index, (line_no, mnemonic, rest) in enumerate(statements):
        words.append(encode(_encode_statement(index, line_no, mnemonic, rest, labels)))
    return tuple(words), tuple(labels.items())


def _encode_statement(
    index: int, line_no: int, mnemonic: str, rest: str, labels: dict[str, int]
) -> Instruction:
    operands = _split_operands(rest)

    if mnemonic == "panic":
        if len(operands) != 1 or not operands[0].startswith("#"):
            raise AssemblyError(f"line {line_no}: panic requires '#code'")
        return Instruction(opcode=Op.PANIC, ra=31, rb=31, imm=_parse_int(operands[0][1:]) & 0xFFFF)

    if mnemonic in ("halt", "nop"):
        if operands:
            raise AssemblyError(f"line {line_no}: {mnemonic} takes no operands")
        return Instruction(opcode=Op[mnemonic.upper()], ra=31, rb=31)

    if mnemonic == "ret":
        # ret | ret (rb)
        if not operands:
            return Instruction(opcode=Op.RET, ra=31, rb=REG_NUMBERS["ra"])
        match = re.match(r"^\(([\w$]+)\)$", operands[0])
        if len(operands) != 1 or not match:
            raise AssemblyError(f"line {line_no}: ret takes '(reg)'")
        return Instruction(opcode=Op.RET, ra=31, rb=_reg(match.group(1), line_no))

    if mnemonic == "jsr":
        # jsr ra, (rb)
        if len(operands) != 2:
            raise AssemblyError(f"line {line_no}: jsr takes 'ra, (rb)'")
        match = re.match(r"^\(([\w$]+)\)$", operands[1])
        if not match:
            raise AssemblyError(f"line {line_no}: jsr target must be '(reg)'")
        return Instruction(opcode=Op.JSR, ra=_reg(operands[0], line_no), rb=_reg(match.group(1), line_no))

    try:
        op = Op[mnemonic.upper()]
    except KeyError:
        raise AssemblyError(f"line {line_no}: unknown mnemonic {mnemonic!r}") from None

    if op in MEMORY_FORMAT_OPS:
        if len(operands) != 2:
            raise AssemblyError(f"line {line_no}: {mnemonic} takes 'reg, disp(base)'")
        match = _MEM_OPERAND_RE.match(operands[1])
        if not match:
            raise AssemblyError(f"line {line_no}: bad memory operand {operands[1]!r}")
        disp = _parse_int(match.group(1))
        if not -0x8000 <= disp <= 0x7FFF:
            raise AssemblyError(f"line {line_no}: displacement {disp} out of range")
        return Instruction(
            opcode=op,
            ra=_reg(operands[0], line_no),
            rb=_reg(match.group(2), line_no),
            imm=disp & 0xFFFF,
        )

    if op in OPERATE_OPS:
        if len(operands) != 3:
            raise AssemblyError(f"line {line_no}: {mnemonic} takes 'ra, rb, rc'")
        return Instruction(
            opcode=op,
            ra=_reg(operands[0], line_no),
            rb=_reg(operands[1], line_no),
            rc=_reg(operands[2], line_no),
        )

    if op in BRANCH_OPS:
        if op is Op.BR and len(operands) == 1:
            link, target = "zero", operands[0]
        elif len(operands) == 2:
            link, target = operands
        else:
            raise AssemblyError(f"line {line_no}: {mnemonic} takes 'reg, label'")
        if target not in labels:
            raise AssemblyError(f"line {line_no}: undefined label {target!r}")
        disp = labels[target] - (index + 1)
        if not -0x8000 <= disp <= 0x7FFF:
            raise AssemblyError(f"line {line_no}: branch to {target!r} out of range")
        return Instruction(opcode=op, ra=_reg(link, line_no), rb=31, imm=disp & 0xFFFF)

    raise AssemblyError(f"line {line_no}: cannot encode {mnemonic!r}")
