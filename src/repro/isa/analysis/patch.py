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

    ldq    S, 0(gp)        ; S = threshold
    lda    at, disp(rb)    ; at = effective address of the store
    cmpult at, S, S        ; S = (at < threshold)
    bne    S, +1           ; in-bounds: skip the trap
    panic  #42             ; PATCH_TRAP_CODE -> ProtectionTrap(address=at)

``S`` is a *dead* register chosen by liveness analysis (4 executed
instructions per store).  Without the optimizer — or when no register is
provably dead — ``S`` is a scratch register spilled to the stack redzone
and reloaded (6 executed instructions), the naive sandboxing sequence.

The elision pass then drops checks the dataflow results prove redundant:

* **stack-relative** stores (spills like ``stq ra, 0(sp)`` in
  ``cache_copy``), whose targets are frame-local and nowhere near the
  protected region;
* **rewalked** stores dominated by a checked store through the same
  pointer at an equal-or-higher displacement (the check is one-sided, so
  a lower address through a certified pointer cannot newly trap).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ReproError
from repro.isa.analysis.cfg import CFG, build_cfg
from repro.isa.analysis.dataflow import (
    Liveness,
    RewalkAnalysis,
    ValueAnalysis,
    inst_def,
    inst_uses,
)
from repro.isa.analysis.disasm import disassemble_words
from repro.isa.encoding import (
    BRANCH_OPS,
    Instruction,
    Op,
    encode,
    sext16,
)
from repro.isa.interpreter import PATCH_TRAP_CODE

#: Registers the check sequences use implicitly; routines must not touch
#: them (they never do — lint enforces it).
RESERVED_REGS = frozenset({28, 29})

#: Frame-local band: a store whose target is entry-sp + k with k in this
#: range is a spill/reload slot, provably below the protected region.
STACK_BAND = range(-16384, 32)

#: Dead-register preference: temporaries first, then v0, then saved regs.
_SCRATCH_ORDER = (
    list(range(1, 9)) + list(range(22, 26)) + [0] + list(range(9, 15)) + [15]
)


class PatchError(ReproError):
    """The routine cannot be safely patched."""


@dataclass
class StoreDecision:
    """What the patcher did about one store instruction."""

    index: int  #: original word index of the store
    action: str  #: "checked" | "elided_stack" | "elided_rewalk"
    scratch: int | None = None  #: the threshold register used, if checked
    spilled: bool = False  #: True when the scratch had to be spilled


@dataclass
class RoutinePatchReport:
    name: str
    original_words: int
    patched_words: int
    stores: int = 0
    checked: int = 0
    spilled: int = 0
    elided_stack: int = 0
    elided_rewalk: int = 0
    decisions: list[StoreDecision] = field(default_factory=list)

    @property
    def added_words(self) -> int:
        return self.patched_words - self.original_words


def _check_sequence(store: Instruction, scratch: int, spill: bool) -> list[Instruction]:
    disp = sext16(store.imm)
    seq = [
        Instruction(opcode=Op.LDQ, ra=scratch, rb=29, imm=0),
        Instruction(opcode=Op.LDA, ra=28, rb=store.rb, imm=disp & 0xFFFF),
        Instruction(opcode=Op.CMPULT, ra=28, rb=scratch, rc=scratch),
        Instruction(opcode=Op.BNE, ra=scratch, rb=31, imm=1),
        Instruction(opcode=Op.PANIC, ra=31, rb=31, imm=PATCH_TRAP_CODE),
    ]
    if spill:
        seq.insert(0, Instruction(opcode=Op.STQ, ra=scratch, rb=30, imm=(-8) & 0xFFFF))
        seq.append(Instruction(opcode=Op.LDQ, ra=scratch, rb=30, imm=(-8) & 0xFFFF))
    return seq


def _decide(cfg: CFG, optimize: bool) -> list[StoreDecision]:
    lines = cfg.dis.lines
    values = ValueAnalysis(cfg)
    rewalk = RewalkAnalysis(cfg) if optimize else None
    liveness = Liveness(cfg) if optimize else None

    decisions: list[StoreDecision] = []
    for line in lines:
        if not line.inst.is_store:
            continue
        if optimize:
            target = values.store_target(line.index)
            if target is not None and target.base == 30 and target.off in STACK_BAND:
                decisions.append(StoreDecision(line.index, "elided_stack"))
                continue
            if rewalk.covered(line.index):
                decisions.append(StoreDecision(line.index, "elided_rewalk"))
                continue
            dead = liveness.dead_at(line.index) - RESERVED_REGS - {30, line.inst.rb}
            for candidate in _SCRATCH_ORDER:
                if candidate in dead:
                    decisions.append(
                        StoreDecision(line.index, "checked", scratch=candidate)
                    )
                    break
            else:  # no provably-dead register: fall back to spilling
                scratch = 24 if line.inst.rb == 25 else 25
                decisions.append(
                    StoreDecision(line.index, "checked", scratch=scratch, spilled=True)
                )
        else:
            scratch = 24 if line.inst.rb == 25 else 25
            decisions.append(
                StoreDecision(line.index, "checked", scratch=scratch, spilled=True)
            )
    return decisions


def patch_routine(
    name: str,
    words: list[int],
    labels: dict[str, int] | None = None,
    optimize: bool = True,
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
    cfg = build_cfg(dis)
    decisions = {d.index: d for d in _decide(cfg, optimize)}

    # Emit, remembering where each original instruction and its check
    # sequence landed.
    new_insts: list[Instruction] = []
    group_start: list[int] = []  # new index of instruction i's group
    final_pos: list[int] = []  # new index of original instruction i
    for line in dis.lines:
        group_start.append(len(new_insts))
        decision = decisions.get(line.index)
        if decision is not None and decision.action == "checked":
            new_insts.extend(
                _check_sequence(line.inst, decision.scratch, decision.spilled)
            )
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
        decisions=sorted(decisions.values(), key=lambda d: d.index),
    )
    for decision in report.decisions:
        report.stores += 1
        if decision.action == "checked":
            report.checked += 1
            report.spilled += decision.spilled
        elif decision.action == "elided_stack":
            report.elided_stack += 1
        else:
            report.elided_rewalk += 1
    return new_words, new_labels, report


def inst_regs(inst: Instruction) -> set[int]:
    """Every register an instruction names (reads or writes)."""
    regs = set(inst_uses(inst))
    target = inst_def(inst)
    if target is not None:
        regs.add(target)
    return regs


class CodePatcher:
    """A :class:`~repro.isa.text.KernelText` transform inserting store
    checks into every routine, collecting per-routine reports."""

    def __init__(self, optimize: bool = True) -> None:
        self.optimize = optimize
        self.reports: dict[str, RoutinePatchReport] = {}

    def __call__(
        self, name: str, words: list[int], labels: dict[str, int]
    ) -> tuple[list[int], dict[str, int]]:
        new_words, new_labels, report = patch_routine(
            name, words, labels, optimize=self.optimize
        )
        self.reports[name] = report
        return new_words, new_labels
