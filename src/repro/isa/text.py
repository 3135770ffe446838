"""The kernel text segment: assembled routines living in simulated memory.

At boot the kernel assembles its routine sources into one contiguous image
(word 0 is a ``HALT`` sentinel used as the top-level return address) and
copies it into physical frames; the MMU maps those frames read-only at a
fixed kernel virtual address.  The fault injector mutates instruction words
*in that memory* — through hardware-level writes that bypass the MMU, like
a real bit flip would — and calls :meth:`KernelText.mark_corrupted` so the
affected routine loses its "pristine" status and must thereafter run on the
interpreter rather than any registered native fast path.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.errors import ConfigurationError
from repro.hw.memory import PhysicalMemory
from repro.isa.assembler import assemble
from repro.isa.encoding import Instruction, decode, encode

WORD_BYTES = 4

#: Signature of a native fast-path: ``native(bus, args, ctx) -> return value``.
NativeFn = Callable[..., int]
#: Signature of cost estimators: ``fn(args) -> count``.
CostFn = Callable[[list[int]], int]


@dataclass
class Routine:
    """One kernel routine within the text image."""

    name: str
    start_index: int  # word index of the entry point within the image
    num_words: int
    pristine: bool = True
    native: Optional[NativeFn] = None
    steps_fn: Optional[CostFn] = None
    stores_fn: Optional[CostFn] = None
    labels: dict[str, int] = field(default_factory=dict)

    def contains_index(self, word_index: int) -> bool:
        return self.start_index <= word_index < self.start_index + self.num_words


#: Signature of a per-routine rewriting pass applied after assembly:
#: ``transform(name, words, labels) -> (new_words, new_labels)`` with
#: labels as routine-relative word indices (e.g. the code patcher,
#: :class:`repro.isa.analysis.patch.CodePatcher`).
TransformFn = Callable[[str, list, dict], tuple]


class KernelText:
    """Assembles routine sources and manages the in-memory text image."""

    def __init__(self, sources: dict[str, str], transform: TransformFn | None = None) -> None:
        self.words: list[int] = [encode(Instruction(opcode=0, ra=31, rb=31))]  # HALT sentinel
        self.routines: dict[str, Routine] = {}
        for name, source in sources.items():
            body, labels = assemble(source)
            if transform is not None:
                body, labels = transform(name, body, labels)
            start = len(self.words)
            self.routines[name] = Routine(
                name=name,
                start_index=start,
                num_words=len(body),
                labels={lbl: start + off for lbl, off in labels.items()},
            )
            self.words.extend(body)
        self.base_vaddr: int | None = None
        self.base_paddr: int | None = None
        self._memory: PhysicalMemory | None = None

    # -- construction -----------------------------------------------------

    def register_native(
        self,
        name: str,
        native: NativeFn,
        steps_fn: CostFn,
        stores_fn: CostFn,
    ) -> None:
        """Attach a native fast-path to a routine.

        The native function must issue the *same bus stores* as the
        assembly (possibly batched) so protection semantics are identical;
        ``steps_fn``/``stores_fn`` report the instruction and store counts
        the interpreted version would have executed, for the cost model.
        """
        routine = self.routines[name]
        routine.native = native
        routine.steps_fn = steps_fn
        routine.stores_fn = stores_fn

    @property
    def size_bytes(self) -> int:
        return len(self.words) * WORD_BYTES

    # -- loading into memory ------------------------------------------------

    def load(self, memory: PhysicalMemory, base_paddr: int, base_vaddr: int) -> None:
        """Copy the image into physical memory and record its placement."""
        memory.write(base_paddr, struct.pack(f"<{len(self.words)}I", *self.words))
        self.base_paddr = base_paddr
        self.base_vaddr = base_vaddr
        self._memory = memory

    def _require_loaded(self) -> None:
        if self.base_vaddr is None or self._memory is None:
            raise ConfigurationError("kernel text has not been loaded into memory")

    # -- addressing ----------------------------------------------------------

    def entry_vaddr(self, name: str) -> int:
        self._require_loaded()
        return self.base_vaddr + self.routines[name].start_index * WORD_BYTES

    @property
    def sentinel_vaddr(self) -> int:
        """Virtual address of the HALT sentinel (top-level return target)."""
        self._require_loaded()
        return self.base_vaddr

    def routine_at_index(self, word_index: int) -> Routine | None:
        for routine in self.routines.values():
            if routine.contains_index(word_index):
                return routine
        return None

    # -- mutation (used by the fault injector) --------------------------------

    def read_word(self, word_index: int) -> int:
        self._require_loaded()
        return int.from_bytes(
            self._memory.read(self.base_paddr + word_index * WORD_BYTES, WORD_BYTES),
            "little",
        )

    def read_instruction(self, word_index: int) -> Instruction:
        return decode(self.read_word(word_index))

    def write_word(self, word_index: int, word: int) -> None:
        """Hardware-level text mutation (bypasses the MMU), marking the
        containing routine as corrupted."""
        self._require_loaded()
        self._memory.write(
            self.base_paddr + word_index * WORD_BYTES,
            (word & 0xFFFFFFFF).to_bytes(WORD_BYTES, "little"),
        )
        self.mark_corrupted(word_index)

    def write_instruction(self, word_index: int, inst: Instruction) -> None:
        self.write_word(word_index, encode(inst))

    def mark_corrupted(self, word_index: int) -> None:
        routine = self.routine_at_index(word_index)
        if routine is not None:
            routine.pristine = False

    def corrupted_routines(self) -> list[str]:
        return [r.name for r in self.routines.values() if not r.pristine]
