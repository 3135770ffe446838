"""Register dataflow over the CFG: reaching definitions and a symbolic
value analysis, the two questions :mod:`~repro.isa.analysis.lint` asks.

Both are classic iterative fixpoint analyses.  Routines are tiny
(tens of words), so results are materialized per instruction rather than
per block — callers index by word offset.

The value analysis tracks each register as an offset from the *entry*
value of some register (``Val(base=30, off=-32)`` is "entry sp minus 32"),
as a compile-time constant (``base is None``), or as unknown (``None``).
Stack slots addressed relative to entry sp are tracked through
spill/reload pairs; stores through non-stack pointers are assumed not to
alias the stack, which holds by construction in this kernel (the stack
region is disjoint from heap, staging and cache regions).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa.analysis.cfg import CFG
from repro.isa.encoding import (
    BRANCH_OPS,
    LOAD_OPS,
    OPERATE_OPS,
    STORE_OPS,
    Instruction,
    Op,
    sext16,
)

#: Definition site meaning "held this value at routine entry".
ENTRY = -1

#: Registers carrying meaningful values at entry: arguments a0-a5, the
#: return address (ra), the patch descriptor pointer (gp), the stack
#: pointer (sp), and the hardwired zero.
ENTRY_DEFINED = frozenset({16, 17, 18, 19, 20, 21, 26, 29, 30, 31})


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


def inst_def(inst: Instruction) -> int | None:
    """The register an instruction writes, or ``None``."""
    return inst.writes_register()


# ---------------------------------------------------------------------------
# Reaching definitions
# ---------------------------------------------------------------------------


class ReachingDefs:
    """For each instruction, which definition sites can reach each use.

    A definition site is a word index, or :data:`ENTRY` for the value a
    register held when the routine was called.
    """

    def __init__(self, cfg: CFG) -> None:
        self.cfg = cfg
        lines = cfg.dis.lines
        entry_defs = frozenset((reg, ENTRY) for reg in range(31))

        def transfer(defs: set, start: int, end: int) -> set:
            out = set(defs)
            for i in range(start, end):
                target = inst_def(lines[i].inst)
                if target is not None:
                    out = {(reg, site) for reg, site in out if reg != target}
                    out.add((target, i))
            return out

        block_in: dict[int, set] = {s: set() for s in cfg.blocks}
        block_in[cfg.entry] = set(entry_defs)
        changed = True
        while changed:
            changed = False
            for start, block in cfg.blocks.items():
                acc = set(entry_defs) if start == cfg.entry else set()
                for pred in block.preds:
                    acc |= transfer(
                        block_in[pred], cfg.blocks[pred].start, cfg.blocks[pred].end
                    )
                if acc != block_in[start]:
                    block_in[start] = acc
                    changed = True

        #: reaching-definition sets *before* each instruction.
        self.before: list[set] = [set() for _ in lines]
        for start, block in cfg.blocks.items():
            defs = set(block_in[start])
            for i in range(block.start, block.end):
                self.before[i] = set(defs)
                defs = transfer(defs, i, i + 1)

    def defs_of(self, index: int, reg: int) -> set[int]:
        """Definition sites of ``reg`` that reach instruction ``index``."""
        return {site for r, site in self.before[index] if r == reg}


# ---------------------------------------------------------------------------
# Symbolic value analysis
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Val:
    """``base is None``: the constant ``off``.  Otherwise: the value the
    register ``base`` held at routine entry, plus ``off``."""

    base: int | None
    off: int

    def __add__(self, delta: int) -> "Val":
        return Val(self.base, self.off + delta)

    def __str__(self) -> str:
        if self.base is None:
            return f"{self.off:#x}"
        from repro.isa.encoding import REG_NAMES

        reg = REG_NAMES.get(self.base, f"r{self.base}")
        return f"{reg}0{self.off:+d}" if self.off else f"{reg}0"


def _join(a: Val | None, b: Val | None) -> Val | None:
    return a if a == b else None


class ValueAnalysis:
    """Forward symbolic evaluation; ``None`` is the unknown (top) value.

    Results: ``before[i]`` maps register -> :class:`Val` for every
    register with a known symbolic value just before instruction ``i``.
    """

    def __init__(self, cfg: CFG) -> None:
        self.cfg = cfg
        lines = cfg.dis.lines
        entry_regs = {reg: Val(reg, 0) for reg in range(31)}
        entry_regs[31] = Val(None, 0)
        entry_state = (entry_regs, {})

        def transfer_one(regs: dict, slots: dict, inst: Instruction):
            regs = dict(regs)
            slots = dict(slots)
            op = inst.op

            def get(reg: int) -> Val | None:
                return Val(None, 0) if reg == 31 else regs.get(reg)

            def put(reg: int, value: Val | None) -> None:
                if reg == 31:
                    return
                if value is None:
                    regs.pop(reg, None)
                else:
                    regs[reg] = value

            if op is Op.LDA:
                base = get(inst.rb)
                put(inst.ra, None if base is None else base + sext16(inst.imm))
            elif op in STORE_OPS:
                base = get(inst.rb)
                if base is not None and base.base == 30 and op is Op.STQ:
                    slots[base.off + sext16(inst.imm)] = get(inst.ra)
                # Non-stack stores are assumed not to alias stack slots
                # (the kernel stack region is disjoint by construction).
            elif op in LOAD_OPS:
                base = get(inst.rb)
                value = None
                if op is Op.LDQ and base is not None and base.base == 30:
                    value = slots.get(base.off + sext16(inst.imm))
                put(inst.ra, value)
            elif op in OPERATE_OPS:
                a, b = get(inst.ra), get(inst.rb)
                value: Val | None = None
                if op is Op.ADDQ:
                    if a is not None and b is not None and b.base is None:
                        value = a + b.off
                    elif a is not None and b is not None and a.base is None:
                        value = b + a.off
                elif op is Op.SUBQ:
                    if a is not None and b is not None and b.base is None:
                        value = a + (-b.off)
                elif op is Op.BIS:
                    if inst.rb == 31:
                        value = a
                    elif inst.ra == 31:
                        value = b
                put(inst.rc, value)
            elif op in (Op.BR, Op.JSR):
                put(inst.ra, None)
                if op is Op.JSR:  # a callee may clobber anything
                    regs = {}
                    slots = {}
            return regs, slots

        def transfer_block(state, start: int, end: int):
            regs, slots = state
            for i in range(start, end):
                regs, slots = transfer_one(regs, slots, lines[i].inst)
            return regs, slots

        def join_states(a, b):
            if a is None:
                return b
            if b is None:
                return a
            regs = {
                reg: a[0][reg]
                for reg in a[0].keys() & b[0].keys()
                if _join(a[0][reg], b[0].get(reg)) is not None
            }
            slots = {
                off: a[1][off]
                for off in a[1].keys() & b[1].keys()
                if _join(a[1][off], b[1].get(off)) is not None
            }
            return regs, slots

        block_in: dict[int, tuple | None] = {s: None for s in cfg.blocks}
        block_in[cfg.entry] = entry_state
        changed = True
        while changed:
            changed = False
            for start, block in cfg.blocks.items():
                acc = entry_state if start == cfg.entry else None
                for pred in block.preds:
                    if block_in[pred] is None:
                        continue
                    pred_block = cfg.blocks[pred]
                    acc = join_states(
                        acc,
                        transfer_block(block_in[pred], pred_block.start, pred_block.end),
                    )
                if acc is not None and acc != block_in[start]:
                    block_in[start] = acc
                    changed = True

        self.before: list[dict] = [{} for _ in lines]
        for start, block in cfg.blocks.items():
            state = block_in[start]
            if state is None:  # unreachable block: nothing known
                continue
            regs, slots = state
            for i in range(block.start, block.end):
                self.before[i] = dict(regs)
                regs, slots = transfer_one(regs, slots, lines[i].inst)

    def value_before(self, index: int, reg: int) -> Val | None:
        if reg == 31:
            return Val(None, 0)
        return self.before[index].get(reg)
