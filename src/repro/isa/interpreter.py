"""The instruction interpreter.

Executes routines from the kernel text image through the memory bus, which
means every load, store and instruction fetch is subject to MMU translation
and protection — wild stores from fault-corrupted code trap or corrupt in
exactly the way hardware would arrange.

Crash surfaces, matching section 3.3's observation that production kernels
stop quickly after a fault:

* fetch or data access to an illegal address → :class:`MachineCheck`;
* store to a protected page → :class:`ProtectionTrap` (Rio's mechanism);
* undecodable opcode or a ``HALT`` outside the sentinel →
  :class:`IllegalInstruction` / :class:`KernelPanic`;
* a ``PANIC`` instruction (assembly-level consistency check) →
  :class:`KernelPanic` with its error code;
* exceeding the step budget (e.g. a deleted loop exit) →
  :class:`WatchdogTimeout`.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.errors import (
    ConfigurationError,
    CrashedMachineError,
    IllegalInstruction,
    KernelPanic,
    MachineCheck,
    ProtectionTrap,
    WatchdogTimeout,
)
from repro.hw.bus import AccessContext, KERNEL_CONTEXT, MemoryBus
from repro.isa.encoding import (
    BRANCH_OPS,
    MASK64,
    OPERATE_OPS,
    Op,
    decode,
    sext16,
    to_signed64,
)
from repro.isa.text import KernelText, Routine, WORD_BYTES

#: The PANIC code the code patcher plants behind its address checks: not a
#: consistency failure but Rio's protection firing, so the interpreter
#: raises :class:`~repro.errors.ProtectionTrap` (a corruption *prevented*)
#: rather than :class:`~repro.errors.KernelPanic`.
PATCH_TRAP_CODE = 42

#: Error-code → message table for PANIC instructions; gives the campaign the
#: "distinct kernel consistency error messages" flavour of the paper.
PANIC_MESSAGES = {
    21: "cache_copy: bad buffer header magic",
    22: "cache_copy: write beyond buffer end",
    31: "sched_tick: runqueue corrupted",
    33: "vnode_scan: vnode chain corrupted",
    34: "vnode_scan: refcount overflow",
    41: "lock: lock order violation",
    PATCH_TRAP_CODE: "code patch: store to protected address",
    99: "unexpected halt in kernel text",
}


# -- predecode ----------------------------------------------------------
#
# The fast engine decodes each kernel-text page once into a list of small
# tuples — one per 32-bit word — whose first element indexes a dispatch
# table of per-op handlers and whose remaining elements are the fully
# unpacked operands (registers, sign-extended immediates, branch byte
# displacements).  An undecodable word predecodes to a "raise
# IllegalInstruction" entry, so a corrupted page keeps its lazy-fault
# semantics: the trap fires only if and when the word is executed.

(
    _K_HALT,
    _K_NOP,
    _K_ILL,
    _K_PANIC,
    _K_LDA,
    _K_LDB,
    _K_LDQ,
    _K_STB,
    _K_STQ,
    _K_ADDQ,
    _K_SUBQ,
    _K_MULQ,
    _K_AND,
    _K_BIS,
    _K_XOR,
    _K_SLL,
    _K_SRL,
    _K_CMPEQ,
    _K_CMPLT,
    _K_CMPLE,
    _K_CMPULT,
    _K_CMPULE,
    _K_BR,
    _K_BEQ,
    _K_BNE,
    _K_BLT,
    _K_BGE,
    _K_BGT,
    _K_BLE,
    _K_JSR,
    _K_RET,
) = range(31)
_NUM_KINDS = 31

_NOP_ENTRY = (_K_NOP,)
_HALT_ENTRY = (_K_HALT,)

_ALU_KIND = {
    Op.ADDQ: _K_ADDQ,
    Op.SUBQ: _K_SUBQ,
    Op.MULQ: _K_MULQ,
    Op.AND: _K_AND,
    Op.BIS: _K_BIS,
    Op.XOR: _K_XOR,
    Op.SLL: _K_SLL,
    Op.SRL: _K_SRL,
    Op.CMPEQ: _K_CMPEQ,
    Op.CMPLT: _K_CMPLT,
    Op.CMPLE: _K_CMPLE,
    Op.CMPULT: _K_CMPULT,
    Op.CMPULE: _K_CMPULE,
}
_BRANCH_KIND = {
    Op.BEQ: _K_BEQ,
    Op.BNE: _K_BNE,
    Op.BLT: _K_BLT,
    Op.BGE: _K_BGE,
    Op.BGT: _K_BGT,
    Op.BLE: _K_BLE,
}


def _predecode_word(word: int) -> tuple:
    """One 32-bit word -> its dispatch entry (mirrors :func:`decode`)."""
    opcode = (word >> 26) & 0x3F
    try:
        op = Op(opcode)
    except ValueError:
        return (_K_ILL, opcode)
    ra = (word >> 21) & 0x1F
    rb = (word >> 16) & 0x1F
    if op in OPERATE_OPS:
        rc = word & 0x1F
        if rc == 31:  # r31 ignores writes and ALU ops have no other effect
            return _NOP_ENTRY
        return (_ALU_KIND[op], rc, ra, rb)
    imm = word & 0xFFFF
    if op is Op.LDA:
        if ra == 31:
            return _NOP_ENTRY
        return (_K_LDA, ra, rb, sext16(imm))
    if op is Op.LDB:
        return (_K_LDB, ra, rb, sext16(imm))
    if op is Op.LDQ:
        return (_K_LDQ, ra, rb, sext16(imm))
    if op is Op.STB:
        return (_K_STB, ra, rb, sext16(imm))
    if op is Op.STQ:
        return (_K_STQ, ra, rb, sext16(imm))
    if op is Op.BR:
        return (_K_BR, ra, sext16(imm) * WORD_BYTES)
    if op in BRANCH_OPS:
        return (_BRANCH_KIND[op], ra, sext16(imm) * WORD_BYTES)
    if op is Op.JSR:
        return (_K_JSR, ra, rb)
    if op is Op.RET:
        return (_K_RET, rb)
    if op is Op.PANIC:
        return (_K_PANIC, imm)
    if op is Op.NOP:
        return _NOP_ENTRY
    return _HALT_ENTRY  # Op.HALT


#: Word -> entry memo shared across interpreters: campaign trials rebuild
#: the same text image thousands of times, so predecoding a page is mostly
#: memo hits.  Entries are immutable tuples, safe to share; the cap bounds
#: pollution from predecoding random data pages after wild jumps.
_WORD_MEMO: dict[int, tuple] = {}
_WORD_MEMO_CAP = 1 << 16


def _predecode_words(words) -> list[tuple]:
    memo = _WORD_MEMO
    entries = []
    append = entries.append
    for word in words:
        entry = memo.get(word)
        if entry is None:
            entry = _predecode_word(word)
            if len(memo) < _WORD_MEMO_CAP:
                memo[word] = entry
        append(entry)
    return entries


class _HaltSignal(Exception):
    """Internal: the fast engine's HALT-at-sentinel unwind."""


#: The software watchdog: instructions one call may execute before it
#: is declared hung (a call may pass a tighter ``max_steps``).
MAX_STEPS = 500_000


def watchdog(name: str, budget: int) -> WatchdogTimeout:
    """The hang every engine raises when ``name`` would run instruction
    ``budget + 1``."""
    return WatchdogTimeout(f"watchdog: {name} exceeded {budget} steps")


@dataclass
class CallResult:
    value: int
    steps: int
    interpreted: bool


class Interpreter:
    """Runs kernel routines, natively when pristine, interpreted otherwise."""

    def __init__(self, bus: MemoryBus, text: KernelText) -> None:
        self.bus = bus
        self.text = text
        #: When True, even pristine routines are interpreted (used by tests
        #: and the code-patching overhead bench).
        self.force_interpret = False
        #: Address of the code patcher's descriptor quadword, loaded into
        #: ``gp`` (r29) at every call — see :mod:`repro.isa.analysis.patch`.
        self.global_pointer = 0
        #: Predecode cache: virtual page base -> (pfn, frame generation,
        #: entries).  Entries revalidate against the frame's
        #: ``PhysicalMemory`` generation on every fetch, so a bit flipped
        #: into an already-predecoded text page forces a re-decode of
        #: exactly that page before its next instruction executes.
        self._predecode: dict[int, tuple[int, int, list]] = {}
        self._predecode_cap = 64
        self._dispatch: list | None = None
        self._regs = [0] * 32
        #: Per-call cell read by the dispatch closures: [ctx, sentinel].
        self._st: list = [KERNEL_CONTEXT, 0]

    def run(
        self,
        name: str,
        args: list[int],
        ctx: AccessContext = KERNEL_CONTEXT,
        sp: int = 0,
        max_steps: int = MAX_STEPS,
    ) -> tuple[int, int]:
        """Invoke routine ``name``; ``(value, steps)``, ``steps`` being the
        instructions executed, which the kernel charges for.  A native
        returns the count its assembly would have, so the charge does
        not depend on the route."""
        routine = self._routine(name, args)
        if self._runs_native(routine):
            return routine.native(self.bus, args, ctx, max_steps)
        return self._interpret(name, args, ctx, sp, max_steps)

    def call(
        self,
        name: str,
        args: list[int] | tuple[int, ...] = (),
        ctx: AccessContext = KERNEL_CONTEXT,
        sp: int = 0,
        max_steps: int = MAX_STEPS,
    ) -> CallResult:
        """:meth:`run` with the engine that ran it."""
        args = list(args)
        interpreted = not self._runs_native(self._routine(name, args))
        value, steps = self.run(name, args, ctx, sp, max_steps)
        return CallResult(value=value, steps=steps, interpreted=interpreted)

    def _routine(self, name: str, args: list[int]) -> Routine:
        try:
            routine = self.text.routines[name]
        except KeyError:
            known = ", ".join(sorted(self.text.routines))
            raise ConfigurationError(
                f"unknown kernel routine {name!r}; known routines: {known}"
            ) from None
        if len(args) > 6:
            raise ValueError("at most 6 register arguments supported")
        return routine

    def _runs_native(self, routine: Routine) -> bool:
        """The one rule for native versus interpreted: a pristine routine
        with a native body runs it, unless every call is interpreted."""
        return routine.pristine and routine.native is not None and not self.force_interpret

    # -- the interpreter proper ------------------------------------------

    def _interpret(
        self,
        name: str,
        args: list[int],
        ctx: AccessContext,
        sp: int,
        budget: int,
    ) -> tuple[int, int]:
        """Pick an engine: the bus-level knob decides.  ``(value, steps)``."""
        if self.bus.fast_path:
            return self._interpret_fast(name, args, ctx, sp, budget)
        return self._interpret_ref(name, args, ctx, sp, budget)

    def _interpret_ref(
        self,
        name: str,
        args: list[int],
        ctx: AccessContext,
        sp: int,
        budget: int,
    ) -> tuple[int, int]:
        regs = [0] * 32
        for i, arg in enumerate(args):
            regs[16 + i] = arg & MASK64
        regs[29] = self.global_pointer & MASK64
        regs[30] = sp & MASK64
        sentinel = self.text.sentinel_vaddr
        regs[26] = sentinel
        pc = self.text.entry_vaddr(name)
        steps = 0

        def set_reg(index: int, value: int) -> None:
            if index != 31:
                regs[index] = value & MASK64

        while True:
            if steps >= budget:
                raise watchdog(name, budget)
            steps += 1
            if pc % WORD_BYTES:
                raise MachineCheck(f"unaligned instruction fetch at {pc:#x}")
            word = int.from_bytes(self.bus.load(pc, WORD_BYTES, ctx), "little")
            inst = decode(word)
            op = inst.op
            next_pc = pc + WORD_BYTES

            if op is None:
                raise IllegalInstruction(f"illegal opcode {inst.opcode:#x} at pc {pc:#x}")

            if op is Op.HALT:
                if pc == sentinel:
                    return regs[0], steps
                raise KernelPanic(PANIC_MESSAGES[99], code=99)

            if op is Op.NOP:
                pass
            elif op is Op.PANIC:
                code = inst.imm
                if code == PATCH_TRAP_CODE:
                    # The patcher's inline check fired: the store target
                    # (still in ``at``) is inside the protected region.
                    raise ProtectionTrap(
                        PANIC_MESSAGES[PATCH_TRAP_CODE], address=regs[28]
                    )
                raise KernelPanic(
                    PANIC_MESSAGES.get(code, f"kernel consistency check #{code}"),
                    code=code,
                )
            elif op is Op.LDA:
                set_reg(inst.ra, regs[inst.rb] + sext16(inst.imm))
            elif op is Op.LDB:
                addr = (regs[inst.rb] + sext16(inst.imm)) & MASK64
                set_reg(inst.ra, self.bus.load(addr, 1, ctx)[0])
            elif op is Op.LDQ:
                addr = (regs[inst.rb] + sext16(inst.imm)) & MASK64
                set_reg(inst.ra, int.from_bytes(self.bus.load(addr, 8, ctx), "little"))
            elif op is Op.STB:
                addr = (regs[inst.rb] + sext16(inst.imm)) & MASK64
                self.bus.store(addr, bytes([regs[inst.ra] & 0xFF]), ctx)
            elif op is Op.STQ:
                addr = (regs[inst.rb] + sext16(inst.imm)) & MASK64
                self.bus.store(addr, regs[inst.ra].to_bytes(8, "little"), ctx)
            elif op is Op.ADDQ:
                set_reg(inst.rc, regs[inst.ra] + regs[inst.rb])
            elif op is Op.SUBQ:
                set_reg(inst.rc, regs[inst.ra] - regs[inst.rb])
            elif op is Op.MULQ:
                set_reg(inst.rc, regs[inst.ra] * regs[inst.rb])
            elif op is Op.AND:
                set_reg(inst.rc, regs[inst.ra] & regs[inst.rb])
            elif op is Op.BIS:
                set_reg(inst.rc, regs[inst.ra] | regs[inst.rb])
            elif op is Op.XOR:
                set_reg(inst.rc, regs[inst.ra] ^ regs[inst.rb])
            elif op is Op.SLL:
                set_reg(inst.rc, regs[inst.ra] << (regs[inst.rb] & 63))
            elif op is Op.SRL:
                set_reg(inst.rc, regs[inst.ra] >> (regs[inst.rb] & 63))
            elif op is Op.CMPEQ:
                set_reg(inst.rc, int(regs[inst.ra] == regs[inst.rb]))
            elif op is Op.CMPLT:
                set_reg(inst.rc, int(to_signed64(regs[inst.ra]) < to_signed64(regs[inst.rb])))
            elif op is Op.CMPLE:
                set_reg(inst.rc, int(to_signed64(regs[inst.ra]) <= to_signed64(regs[inst.rb])))
            elif op is Op.CMPULT:
                set_reg(inst.rc, int(regs[inst.ra] < regs[inst.rb]))
            elif op is Op.CMPULE:
                set_reg(inst.rc, int(regs[inst.ra] <= regs[inst.rb]))
            elif op is Op.BR:
                set_reg(inst.ra, next_pc)
                pc = next_pc + sext16(inst.imm) * WORD_BYTES
                continue
            elif op in (Op.BEQ, Op.BNE, Op.BLT, Op.BGE, Op.BGT, Op.BLE):
                value = regs[inst.ra]
                signed = to_signed64(value)
                taken = {
                    Op.BEQ: value == 0,
                    Op.BNE: value != 0,
                    Op.BLT: signed < 0,
                    Op.BGE: signed >= 0,
                    Op.BGT: signed > 0,
                    Op.BLE: signed <= 0,
                }[op]
                if taken:
                    pc = next_pc + sext16(inst.imm) * WORD_BYTES
                    continue
            elif op is Op.JSR:
                target = regs[inst.rb]
                set_reg(inst.ra, next_pc)
                pc = target
                continue
            elif op is Op.RET:
                pc = regs[inst.rb]
                continue
            else:  # pragma: no cover - all ops handled above
                raise IllegalInstruction(f"unhandled opcode {op!r}")
            pc = next_pc

    # -- the fast engine --------------------------------------------------

    def _text_page(self, pc: int) -> tuple[int, int, int, int, int, list]:
        """Translate ``pc``'s page and return its predecoded entries.

        Returns ``(page_lo, page_hi, pfn, mem_gen, mmu_gen, entries)``
        where ``page_lo``/``page_hi`` bound the virtual page.  Raises the
        same :class:`MachineCheck` the reference fetch would (the
        translation is the MMU's own, called with the faulting ``pc``).
        """
        bus = self.bus
        memory = bus.memory
        ps = memory.page_size
        mmu = bus.mmu
        mmu_gen = mmu.generation
        paddr = mmu.translate(pc, write=False)
        off = paddr % ps
        pfn = (paddr - off) // ps
        page_lo = pc - off
        mem_gen = memory._page_gens[pfn]
        cached = self._predecode.get(page_lo)
        if cached is not None and cached[0] == pfn and cached[1] == mem_gen:
            entries = cached[2]
        else:
            words = struct.unpack(f"<{ps // WORD_BYTES}I", memory.frame(pfn))
            entries = _predecode_words(words)
            if len(self._predecode) >= self._predecode_cap:
                self._predecode.clear()
            self._predecode[page_lo] = (pfn, mem_gen, entries)
        return page_lo, page_lo + ps, pfn, mem_gen, mmu_gen, entries

    def _build_dispatch(self) -> list:
        """The dispatch table: one bound handler per predecode kind.

        Handlers close over the interpreter's persistent register file and
        the per-call state cell; each takes ``(entry, next_pc)`` and
        returns the next pc.  Built once per interpreter (calls never
        nest: handlers only touch the bus, which never re-enters here).
        """
        regs = self._regs
        st = self._st  # [ctx, sentinel] — refreshed by every call
        bus = self.bus
        load_u64 = bus.load_u64
        load_u8 = bus.load_u8
        store_u64 = bus.store_u64
        store_u8 = bus.store_u8
        M = MASK64

        def h_halt(e, npc):
            if npc - WORD_BYTES == st[1]:
                raise _HaltSignal
            raise KernelPanic(PANIC_MESSAGES[99], code=99)

        def h_nop(e, npc):
            return npc

        def h_ill(e, npc):
            raise IllegalInstruction(
                f"illegal opcode {e[1]:#x} at pc {npc - WORD_BYTES:#x}"
            )

        def h_panic(e, npc):
            code = e[1]
            if code == PATCH_TRAP_CODE:
                raise ProtectionTrap(
                    PANIC_MESSAGES[PATCH_TRAP_CODE], address=regs[28]
                )
            raise KernelPanic(
                PANIC_MESSAGES.get(code, f"kernel consistency check #{code}"),
                code=code,
            )

        def h_lda(e, npc):
            regs[e[1]] = (regs[e[2]] + e[3]) & M
            return npc

        def h_ldb(e, npc):
            value = load_u8((regs[e[2]] + e[3]) & M, st[0])
            if e[1] != 31:
                regs[e[1]] = value
            return npc

        def h_ldq(e, npc):
            value = load_u64((regs[e[2]] + e[3]) & M, st[0])
            if e[1] != 31:
                regs[e[1]] = value
            return npc

        def h_stb(e, npc):
            store_u8((regs[e[2]] + e[3]) & M, regs[e[1]], st[0])
            return npc

        def h_stq(e, npc):
            store_u64((regs[e[2]] + e[3]) & M, regs[e[1]], st[0])
            return npc

        def h_addq(e, npc):
            regs[e[1]] = (regs[e[2]] + regs[e[3]]) & M
            return npc

        def h_subq(e, npc):
            regs[e[1]] = (regs[e[2]] - regs[e[3]]) & M
            return npc

        def h_mulq(e, npc):
            regs[e[1]] = (regs[e[2]] * regs[e[3]]) & M
            return npc

        def h_and(e, npc):
            regs[e[1]] = regs[e[2]] & regs[e[3]]
            return npc

        def h_bis(e, npc):
            regs[e[1]] = regs[e[2]] | regs[e[3]]
            return npc

        def h_xor(e, npc):
            regs[e[1]] = regs[e[2]] ^ regs[e[3]]
            return npc

        def h_sll(e, npc):
            regs[e[1]] = (regs[e[2]] << (regs[e[3]] & 63)) & M
            return npc

        def h_srl(e, npc):
            regs[e[1]] = regs[e[2]] >> (regs[e[3]] & 63)
            return npc

        def h_cmpeq(e, npc):
            regs[e[1]] = 1 if regs[e[2]] == regs[e[3]] else 0
            return npc

        def h_cmplt(e, npc):
            a, b = regs[e[2]], regs[e[3]]
            if a >> 63:
                a -= 1 << 64
            if b >> 63:
                b -= 1 << 64
            regs[e[1]] = 1 if a < b else 0
            return npc

        def h_cmple(e, npc):
            a, b = regs[e[2]], regs[e[3]]
            if a >> 63:
                a -= 1 << 64
            if b >> 63:
                b -= 1 << 64
            regs[e[1]] = 1 if a <= b else 0
            return npc

        def h_cmpult(e, npc):
            regs[e[1]] = 1 if regs[e[2]] < regs[e[3]] else 0
            return npc

        def h_cmpule(e, npc):
            regs[e[1]] = 1 if regs[e[2]] <= regs[e[3]] else 0
            return npc

        def h_br(e, npc):
            if e[1] != 31:
                regs[e[1]] = npc & M
            return npc + e[2]

        def h_beq(e, npc):
            return npc + e[2] if regs[e[1]] == 0 else npc

        def h_bne(e, npc):
            return npc + e[2] if regs[e[1]] != 0 else npc

        def h_blt(e, npc):
            return npc + e[2] if regs[e[1]] >> 63 else npc

        def h_bge(e, npc):
            return npc if regs[e[1]] >> 63 else npc + e[2]

        def h_bgt(e, npc):
            value = regs[e[1]]
            return npc + e[2] if value and not value >> 63 else npc

        def h_ble(e, npc):
            value = regs[e[1]]
            return npc + e[2] if value == 0 or value >> 63 else npc

        def h_jsr(e, npc):
            target = regs[e[2]]
            if e[1] != 31:
                regs[e[1]] = npc & M
            return target

        def h_ret(e, npc):
            return regs[e[1]]

        table = [None] * _NUM_KINDS
        table[_K_HALT] = h_halt
        table[_K_NOP] = h_nop
        table[_K_ILL] = h_ill
        table[_K_PANIC] = h_panic
        table[_K_LDA] = h_lda
        table[_K_LDB] = h_ldb
        table[_K_LDQ] = h_ldq
        table[_K_STB] = h_stb
        table[_K_STQ] = h_stq
        table[_K_ADDQ] = h_addq
        table[_K_SUBQ] = h_subq
        table[_K_MULQ] = h_mulq
        table[_K_AND] = h_and
        table[_K_BIS] = h_bis
        table[_K_XOR] = h_xor
        table[_K_SLL] = h_sll
        table[_K_SRL] = h_srl
        table[_K_CMPEQ] = h_cmpeq
        table[_K_CMPLT] = h_cmplt
        table[_K_CMPLE] = h_cmple
        table[_K_CMPULT] = h_cmpult
        table[_K_CMPULE] = h_cmpule
        table[_K_BR] = h_br
        table[_K_BEQ] = h_beq
        table[_K_BNE] = h_bne
        table[_K_BLT] = h_blt
        table[_K_BGE] = h_bge
        table[_K_BGT] = h_bgt
        table[_K_BLE] = h_ble
        table[_K_JSR] = h_jsr
        table[_K_RET] = h_ret
        return table

    def _interpret_fast(
        self,
        name: str,
        args: list[int],
        ctx: AccessContext,
        sp: int,
        budget: int,
    ) -> tuple[int, int]:
        """The hot path: predecoded pages + dispatch table.

        Observable behaviour is bit-identical to :meth:`_interpret_ref`:
        same return values and step counts, ``BusStats`` totals
        (fetch loads are batched into the stats on exit), and the same
        trap types, messages and ordering.  Fetch validity is re-checked
        every instruction against the MMU and frame generation counters,
        so remaps, protection flips and text corruption (even by the
        executing code's own wild stores) take effect exactly where the
        reference engine would see them.
        """
        bus = self.bus
        memory = bus.memory
        mmu = bus.mmu
        dispatch = self._dispatch
        if dispatch is None:
            dispatch = self._dispatch = self._build_dispatch()
        regs = self._regs
        for i in range(32):
            regs[i] = 0
        for i, arg in enumerate(args):
            regs[16 + i] = arg & MASK64
        regs[29] = self.global_pointer & MASK64
        regs[30] = sp & MASK64
        sentinel = self.text.sentinel_vaddr
        regs[26] = sentinel
        st = self._st
        st[0] = ctx
        st[1] = sentinel
        pc = self.text.entry_vaddr(name)
        steps = 0
        fetches = 0
        page_gens = memory._page_gens
        page_lo = 0
        page_hi = 0
        pfn = 0
        mem_gen = -1
        mmu_gen = -1
        entries: list = []
        try:
            while True:
                if steps >= budget:
                    raise watchdog(name, budget)
                steps += 1
                if pc & 3:
                    raise MachineCheck(f"unaligned instruction fetch at {pc:#x}")
                if (
                    page_lo <= pc < page_hi
                    and page_gens[pfn] == mem_gen
                    and mmu.generation == mmu_gen
                ):
                    fetches += 1
                else:
                    # Same order as a reference fetch through bus.load:
                    # crash guard, then the stats bump, then translation.
                    if bus.crashed:
                        raise CrashedMachineError("memory access on crashed machine")
                    fetches += 1
                    page_lo, page_hi, pfn, mem_gen, mmu_gen, entries = (
                        self._text_page(pc)
                    )
                entry = entries[(pc - page_lo) >> 2]
                pc = dispatch[entry[0]](entry, pc + 4)
        except _HaltSignal:
            return regs[0], steps
        finally:
            # The reference engine pays one 4-byte bus load per fetch;
            # settle the identical totals in one batch (also on the
            # exception path, so a crashing run's stats match too).
            bus.settle(loads=fetches, bytes_loaded=fetches * WORD_BYTES)
