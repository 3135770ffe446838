"""The fault injector.

Faults are armed against a booted kernel; their consequences unfold as
the workload runs corrupted code.  "Unless otherwise stated, we inject 20
faults for each run to increase the chances that a fault will be
triggered."

Where the simulation's scale differs from the paper's hardware, the knobs
in :class:`FaultParams` compensate and say so:

* hook intervals (kmalloc / bcopy / locks) default far below the paper's
  every-1000-4000-calls because a simulated run executes far fewer calls
  before its operation budget than a real kernel executes in 15 seconds;
* heap and stack bit flips are biased toward *live* bytes (allocated
  blocks; the active stack frames) because our kernel's heap and stack
  are far emptier than a real kernel's — flipping uniformly over the
  region would mostly hit dead space that no real kernel has.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import CrashedMachineError, SystemCrash
from repro.faults.types import FaultType
from repro.hw.clock import NS_PER_MS
from repro.isa.encoding import (
    BRANCH_OPS,
    Instruction,
    LOAD_OPS,
    Op,
    OPERATE_OPS,
    STORE_OPS,
)
from repro.util.prng import DeterministicRandom

#: Off-by-one mutations: strict <-> non-strict comparisons/branches.
_OFF_BY_ONE_SWAPS = {
    Op.CMPLT: Op.CMPLE,
    Op.CMPLE: Op.CMPLT,
    Op.CMPULT: Op.CMPULE,
    Op.CMPULE: Op.CMPULT,
    Op.BLT: Op.BLE,
    Op.BLE: Op.BLT,
    Op.BGT: Op.BGE,
    Op.BGE: Op.BGT,
}

_CONDITIONAL_BRANCHES = frozenset(BRANCH_OPS) - {Op.BR}


@dataclass
class FaultParams:
    """Tuning knobs for the injector."""

    #: Faults injected per run for the text/data mutation types.
    faults_per_run: int = 20
    #: Premature-free interval: one fault every N kmalloc calls.  (The
    #: paper used every 1000-4000 malloc calls ≈ one firing per 15 s run;
    #: this interval yields a comparable one-to-few firings per simulated
    #: run.)
    kmalloc_interval: tuple = (40, 160)
    #: Premature-free delay, as in the paper: "sleeps 0-256 ms".
    premature_free_delay_ms: tuple = (0, 256)
    #: Copy-overrun interval: one fault every N bcopy calls.
    bcopy_interval: tuple = (100, 400)
    #: Lock-elision interval: one fault every N lock operations.
    lock_interval: tuple = (20, 80)
    #: Live-stack window (bytes below the stack top) for stack bit flips.
    stack_window: int = 512


@dataclass
class InjectionRecord:
    """Log of what one injection call armed/mutated."""

    fault_type: FaultType
    details: list[str] = field(default_factory=list)

    def add(self, detail: str) -> None:
        self.details.append(detail)


class FaultInjector:
    """Arms one fault type against a kernel."""

    def __init__(self, kernel, seed: int, params: FaultParams | None = None) -> None:
        self.kernel = kernel
        self.rng = DeterministicRandom(seed)
        self.params = params or FaultParams()
        self._pending_frees: list[tuple[int, int]] = []  # (due_ns, addr)
        self._clock_hooked = False

    # -- dispatch ----------------------------------------------------------

    def inject(self, fault_type: FaultType) -> InjectionRecord:
        """Arm one fault type against the kernel; returns what was done."""
        record = InjectionRecord(fault_type)
        handler = {
            FaultType.KERNEL_TEXT: self._inject_text_flips,
            FaultType.KERNEL_HEAP: self._inject_heap_flips,
            FaultType.KERNEL_STACK: self._inject_stack_flips,
            FaultType.DESTINATION_REG: self._inject_dst_reg,
            FaultType.SOURCE_REG: self._inject_src_reg,
            FaultType.DELETE_BRANCH: self._inject_delete_branch,
            FaultType.DELETE_RANDOM_INST: self._inject_delete_inst,
            FaultType.INITIALIZATION: self._inject_initialization,
            FaultType.POINTER: self._inject_pointer,
            FaultType.ALLOCATION: self._inject_allocation,
            FaultType.COPY_OVERRUN: self._inject_copy_overrun,
            FaultType.OFF_BY_ONE: self._inject_off_by_one,
            FaultType.SYNCHRONIZATION: self._inject_synchronization,
        }[fault_type]
        handler(record)
        rec = self.kernel.recorder
        if rec.enabled:
            rec.emit(
                "fault", "inject",
                fault_type=str(fault_type.value),
                details=list(record.details),
            )
        return record

    # -- bit flips ---------------------------------------------------------------

    def _inject_text_flips(self, record: InjectionRecord) -> None:
        text = self.kernel.text
        for _ in range(self.params.faults_per_run):
            index = self.rng.randint(1, len(text.words) - 1)  # skip sentinel
            bit = self.rng.randrange(32)
            word = text.read_word(index) ^ (1 << bit)
            text.write_word(index, word)
            record.add(f"text word {index} bit {bit}")

    def _live_heap_targets(self) -> list[tuple[int, int]]:
        """(vaddr, length) spans of live heap bytes, headers included."""
        heap = self.kernel.heap
        spans = []
        for addr, size in heap._live.items():
            spans.append((addr - 16, size))  # header + payload
        return spans

    def _inject_heap_flips(self, record: InjectionRecord) -> None:
        spans = self._live_heap_targets()
        for _ in range(self.params.faults_per_run):
            if not spans:
                return
            vaddr, size = spans[self.rng.randrange(len(spans))]
            offset = self.rng.randrange(size)
            paddr = self.kernel.mmu.translate(vaddr + offset, write=False)
            bit = self.rng.randrange(8)
            self.kernel.memory.flip_bit(paddr, bit)
            record.add(f"heap {vaddr + offset:#x} bit {bit}")

    def _inject_stack_flips(self, record: InjectionRecord) -> None:
        stack_top = self.kernel.klib.stack_top
        window = self.params.stack_window
        for _ in range(self.params.faults_per_run):
            vaddr = stack_top - self.rng.randint(1, window)
            paddr = self.kernel.mmu.translate(vaddr, write=False)
            bit = self.rng.randrange(8)
            self.kernel.memory.flip_bit(paddr, bit)
            record.add(f"stack {vaddr:#x} bit {bit}")

    # -- instruction-level faults -------------------------------------------------

    def _instruction_indices(self, predicate) -> list[int]:
        text = self.kernel.text
        return [
            index
            for index in range(1, len(text.words))
            if predicate(text.read_instruction(index))
        ]

    def _mutate_instructions(self, record, predicate, mutate, label: str) -> None:
        candidates = self._instruction_indices(predicate)
        if not candidates:
            return
        for _ in range(self.params.faults_per_run):
            index = self.rng.choice(candidates)
            inst = self.kernel.text.read_instruction(index)
            mutated = mutate(inst)
            if mutated is not None:
                self.kernel.text.write_instruction(index, mutated)
                record.add(f"{label} at word {index}: {inst} -> {mutated}")

    def _inject_dst_reg(self, record: InjectionRecord) -> None:
        """Corrupt assignment destinations (paper: "corrupt assignment
        statements by changing the ... destination register")."""

        def mutate(inst: Instruction) -> Instruction | None:
            new_reg = self.rng.randrange(31)  # exclude r31 (a no-op dest)
            op = inst.op
            if op in OPERATE_OPS:
                return Instruction(inst.opcode, inst.ra, inst.rb, rc=new_reg)
            if op in (Op.LDA, Op.LDB, Op.LDQ):
                return Instruction(inst.opcode, new_reg, inst.rb, imm=inst.imm)
            return None

        self._mutate_instructions(
            record,
            lambda i: i.writes_register() is not None and not i.is_branch,
            mutate,
            "dst reg",
        )

    def _inject_src_reg(self, record: InjectionRecord) -> None:
        def mutate(inst: Instruction) -> Instruction | None:
            new_reg = self.rng.randrange(32)
            op = inst.op
            if op in OPERATE_OPS:
                if self.rng.random() < 0.5:
                    return Instruction(inst.opcode, new_reg, inst.rb, rc=inst.rc)
                return Instruction(inst.opcode, inst.ra, new_reg, rc=inst.rc)
            if op in LOAD_OPS or op in STORE_OPS or op is Op.LDA:
                return Instruction(inst.opcode, inst.ra, new_reg, imm=inst.imm)
            return None

        self._mutate_instructions(
            record,
            lambda i: i.op in OPERATE_OPS or i.is_load or i.is_store or i.op is Op.LDA,
            mutate,
            "src reg",
        )

    def _inject_delete_branch(self, record: InjectionRecord) -> None:
        nop = Instruction(Op.NOP, 31, 31)
        self._mutate_instructions(
            record,
            lambda i: i.op in _CONDITIONAL_BRANCHES,
            lambda i: nop,
            "delete branch",
        )

    def _inject_delete_inst(self, record: InjectionRecord) -> None:
        nop = Instruction(Op.NOP, 31, 31)
        self._mutate_instructions(
            record,
            lambda i: i.op not in (Op.HALT, Op.NOP),
            lambda i: nop,
            "delete inst",
        )

    def _inject_initialization(self, record: InjectionRecord) -> None:
        """Delete register initialisation in routine prologues."""
        text = self.kernel.text
        nop = Instruction(Op.NOP, 31, 31)
        prologue: list[int] = []
        for routine in text.routines.values():
            for index in range(
                routine.start_index, min(routine.start_index + 6, routine.start_index + routine.num_words)
            ):
                inst = text.read_instruction(index)
                if inst.writes_register() is not None and not inst.is_branch:
                    prologue.append(index)
        if not prologue:
            return
        for _ in range(self.params.faults_per_run):
            index = self.rng.choice(prologue)
            record.add(f"initialization: NOP at word {index}")
            text.write_instruction(index, nop)

    def _inject_pointer(self, record: InjectionRecord) -> None:
        """Find a load/store base register and delete the most recent
        prior instruction that modifies it (not the stack pointer)."""
        text = self.kernel.text
        nop = Instruction(Op.NOP, 31, 31)
        candidates: list[int] = []
        for index in range(1, len(text.words)):
            inst = text.read_instruction(index)
            if (inst.is_load or inst.is_store) and inst.rb not in (30, 31):
                candidates.append(index)
        if not candidates:
            return
        for _ in range(self.params.faults_per_run):
            use_index = self.rng.choice(candidates)
            base = text.read_instruction(use_index).rb
            routine = text.routine_at_index(use_index)
            start = routine.start_index if routine else 1
            for index in range(use_index - 1, start - 1, -1):
                inst = text.read_instruction(index)
                if inst.writes_register() == base:
                    text.write_instruction(index, nop)
                    record.add(f"pointer: NOP setup of r{base} at word {index}")
                    break

    def _inject_off_by_one(self, record: InjectionRecord) -> None:
        def mutate(inst: Instruction) -> Instruction | None:
            swapped = _OFF_BY_ONE_SWAPS.get(inst.op)
            if swapped is None:
                return None
            return Instruction(swapped, inst.ra, inst.rb, rc=inst.rc, imm=inst.imm)

        self._mutate_instructions(
            record, lambda i: i.op in _OFF_BY_ONE_SWAPS, mutate, "off-by-one"
        )

    # -- hook-based faults -------------------------------------------------------------

    def _inject_allocation(self, record: InjectionRecord) -> None:
        """kmalloc occasionally starts a "thread" that sleeps 0-256 ms and
        then prematurely frees the new block."""
        interval = self.rng.randint(*self.params.kmalloc_interval)
        record.add(f"allocation fault armed: every {interval} kmallocs")
        counter = [0]

        def hook(addr: int, size: int) -> None:
            counter[0] += 1
            if counter[0] % interval:
                return
            delay_ms = self.rng.randint(*self.params.premature_free_delay_ms)
            due = self.kernel.clock.now_ns + delay_ms * NS_PER_MS
            self._pending_frees.append((due, addr))
            self._ensure_clock_hook()

        self.kernel.heap.alloc_hook = hook

    def _ensure_clock_hook(self) -> None:
        if self._clock_hooked:
            return
        self._clock_hooked = True
        self.kernel.clock.on_advance(self._process_pending_frees)

    def _process_pending_frees(self, now_ns: int) -> None:
        if self.kernel.machine.crashed or not self._pending_frees:
            return
        due = [item for item in self._pending_frees if item[0] <= now_ns]
        if not due:
            return
        self._pending_frees = [item for item in self._pending_frees if item[0] > now_ns]
        for _, addr in due:
            if self.kernel.heap.is_live(addr):
                rec = self.kernel.recorder
                if rec.enabled:
                    rec.emit("fault", "premature-free", addr=addr)
                try:
                    self.kernel.heap.kfree(addr)  # the premature free
                except (SystemCrash, CrashedMachineError):
                    raise
                except Exception:
                    pass

    def _inject_copy_overrun(self, record: InjectionRecord) -> None:
        """bcopy occasionally copies more than asked.  Overrun length
        distribution straight from the paper: 50% one byte, 44% 2-1024
        bytes, 6% 2-4 KB."""
        interval = self.rng.randint(*self.params.bcopy_interval)
        record.add(f"copy overrun armed: every {interval} bcopys")
        counter = [0]

        def hook(length: int) -> int:
            counter[0] += 1
            if counter[0] % interval:
                return length
            roll = self.rng.random()
            if roll < 0.50:
                extra = 1
            elif roll < 0.94:
                extra = self.rng.randint(2, 1024)
            else:
                extra = self.rng.randint(2048, 4096)
            rec = self.kernel.recorder
            if rec.enabled:
                rec.emit("fault", "overrun", length=length, extra=extra)
            return length + extra

        self.kernel.klib.overrun_hook = hook

    def _inject_synchronization(self, record: InjectionRecord) -> None:
        """Lock acquire/release occasionally returns without doing it."""
        interval = self.rng.randint(*self.params.lock_interval)
        record.add(f"lock elision armed: p=1/{interval} per lock op")
        rng = self.rng.fork(0x10CC)

        def hook(lock, op: str) -> bool:
            # Probabilistic rather than every-Nth: a strict counter would
            # only ever land on acquires (acquire/release strictly
            # alternate), and elided releases — the deadlock maker — would
            # never occur.
            elide = rng.randrange(interval) == 0
            if elide:
                rec = self.kernel.recorder
                if rec.enabled:
                    rec.emit("fault", "lock-elision", op=op)
            return elide

        self.kernel.locks.elision_hook = hook
