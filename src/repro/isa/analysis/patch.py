"""Code patching: rewrite kernel text with an address check before stores.

This is Rio's fallback protection (section 2.1) implemented the way a
real binary patcher would do it — on the assembled instruction stream,
with branch relocation — rather than as a per-store surcharge.  Two
registers are reserved for the inserted sequences, in the style of
software-fault-isolation sandboxing [Wahbe93]:

* ``gp`` (r29) holds the address of a one-quadword *descriptor* the
  interpreter loads at call entry; the descriptor holds the protection
  threshold (the lowest KSEG address of the sequestered registry region,
  which sits at the top of physical memory).
* ``at`` (r28) is the assembler temporary that receives each computed
  effective address.

Before every ``stb``/``stq`` the patcher inserts::

    stq    S, -8(sp)       ; spill the scratch register to the redzone
    ldq    S, 0(gp)        ; S = threshold
    lda    at, disp(rb)    ; at = effective address of the store
    cmpult at, S, S        ; S = (at < threshold)
    bne    S, +1           ; in-bounds: skip the trap
    panic  #42             ; PATCH_TRAP_CODE -> ProtectionTrap(address=at)
    ldq    S, -8(sp)       ; reload the scratch register

``S`` is ``t11`` (r25), or ``t10`` (r24) when the store's base is
``t11``.  That is seven words and six executed instructions per store,
and no store goes unchecked: the paper's "address check before every
kernel store".
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ReproError
from repro.isa.analysis.disasm import disassemble_words
from repro.isa.encoding import (
    BRANCH_OPS,
    LOAD_OPS,
    OPERATE_OPS,
    STORE_OPS,
    Instruction,
    Op,
    encode,
    sext16,
)
from repro.isa.interpreter import PATCH_TRAP_CODE

#: Registers the check sequences use implicitly; routines must not touch
#: them (:func:`patch_routine` raises :class:`PatchError` on any that does).
RESERVED_REGS = frozenset({28, 29})


class PatchError(ReproError):
    """The routine cannot be safely patched."""


@dataclass
class RoutinePatchReport:
    name: str
    original_words: int
    patched_words: int
    stores: int = 0  #: stores in the routine, each now behind a check

    @property
    def added_words(self) -> int:
        return self.patched_words - self.original_words


def _check_sequence(store: Instruction) -> list[Instruction]:
    scratch = 24 if store.rb == 25 else 25
    slot = (-8) & 0xFFFF
    return [
        Instruction(opcode=Op.STQ, ra=scratch, rb=30, imm=slot),
        Instruction(opcode=Op.LDQ, ra=scratch, rb=29, imm=0),
        Instruction(opcode=Op.LDA, ra=28, rb=store.rb, imm=sext16(store.imm) & 0xFFFF),
        Instruction(opcode=Op.CMPULT, ra=28, rb=scratch, rc=scratch),
        Instruction(opcode=Op.BNE, ra=scratch, rb=31, imm=1),
        Instruction(opcode=Op.PANIC, ra=31, rb=31, imm=PATCH_TRAP_CODE),
        Instruction(opcode=Op.LDQ, ra=scratch, rb=30, imm=slot),
    ]


def patch_routine(
    name: str,
    words: list[int],
    labels: dict[str, int] | None = None,
) -> tuple[list[int], dict[str, int], RoutinePatchReport]:
    """Rewrite one routine body; returns ``(words, labels, report)``.

    Branch displacements are relocated; a branch whose target instruction
    grew a check sequence lands at the *start* of the sequence, so checks
    cannot be jumped over.
    """
    dis = disassemble_words(words, labels=labels, name=name)
    for line in dis.lines:
        if inst_regs(line.inst) & RESERVED_REGS:
            raise PatchError(
                f"{name}: word {line.index} uses reserved register "
                f"(at/gp are dedicated to the patcher)"
            )

    # Emit, remembering where each original instruction and its check
    # sequence landed.
    new_insts: list[Instruction] = []
    group_start: list[int] = []  # new index of instruction i's group
    final_pos: list[int] = []  # new index of original instruction i
    stores = 0
    for line in dis.lines:
        group_start.append(len(new_insts))
        if line.inst.is_store:
            new_insts.extend(_check_sequence(line.inst))
            stores += 1
        final_pos.append(len(new_insts))
        new_insts.append(line.inst)

    # Relocate branches (the intra-check `bne +1` needs none: both ends
    # of its hop are inside the same group).
    for i, line in enumerate(dis.lines):
        inst = new_insts[final_pos[i]]
        if inst.op in BRANCH_OPS:
            disp = group_start[line.target] - (final_pos[i] + 1)
            if not -0x8000 <= disp <= 0x7FFF:
                raise PatchError(f"{name}: relocated branch at word {i} out of range")
            new_insts[final_pos[i]] = Instruction(
                opcode=inst.opcode, ra=inst.ra, rb=inst.rb, imm=disp & 0xFFFF
            )
    new_words = [encode(inst) for inst in new_insts]

    new_labels = {
        lbl: (group_start[index] if index < len(words) else len(new_words))
        for lbl, index in (labels or {}).items()
    }
    report = RoutinePatchReport(
        name=name,
        original_words=len(words),
        patched_words=len(new_words),
        stores=stores,
    )
    return new_words, new_labels, report


def inst_uses(inst: Instruction) -> set[int]:
    """Registers an instruction reads (the hardwired zero excluded)."""
    op = inst.op
    uses: set[int] = set()
    if op in OPERATE_OPS:
        uses = {inst.ra, inst.rb}
    elif op in (Op.LDA, *LOAD_OPS):
        uses = {inst.rb}
    elif op in STORE_OPS:
        uses = {inst.ra, inst.rb}
    elif op in BRANCH_OPS and op is not Op.BR:
        uses = {inst.ra}
    elif op in (Op.JSR, Op.RET):
        uses = {inst.rb}
    return uses - {31}


def inst_regs(inst: Instruction) -> set[int]:
    """Every register an instruction names (reads or writes)."""
    regs = inst_uses(inst)
    target = inst.writes_register()
    if target is not None:
        regs.add(target)
    return regs


class CodePatcher:
    """A :class:`~repro.isa.text.KernelText` transform inserting store
    checks into every routine, collecting per-routine reports."""

    def __init__(self) -> None:
        self.reports: dict[str, RoutinePatchReport] = {}

    def __call__(
        self, name: str, words: list[int], labels: dict[str, int]
    ) -> tuple[list[int], dict[str, int]]:
        new_words, new_labels, report = patch_routine(name, words, labels)
        self.reports[name] = report
        return new_words, new_labels
