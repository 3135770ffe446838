"""Tests for the strict disassembler and the shipped routine sources."""

import pytest

from repro.isa.analysis import DisassemblyError, disassemble_words, patch_routine
from repro.isa.assembler import assemble
from repro.isa.encoding import Op, encode
from repro.isa.interpreter import PANIC_MESSAGES
from repro.isa.routines import ROUTINE_SOURCES
from repro.isa.text import KernelText


def disassemble_routine(text, name: str):
    """Disassemble routine ``name`` out of a loaded ``KernelText``, from
    the words in simulated memory (so corruption surfaces)."""
    routine = text.routines[name]
    words = [text.read_word(routine.start_index + i) for i in range(routine.num_words)]
    labels = {
        lbl: off - routine.start_index
        for lbl, off in routine.labels.items()
        if routine.start_index <= off <= routine.start_index + routine.num_words
    }
    return disassemble_words(words, labels=labels, name=name)


class TestDisassembler:
    @pytest.mark.parametrize("name", sorted(ROUTINE_SOURCES))
    def test_roundtrip_every_kernel_routine(self, name):
        words, labels = assemble(ROUTINE_SOURCES[name])
        dis = disassemble_words(words, labels=labels, name=name)
        rewords, relabels = assemble(dis.source)
        assert rewords == words
        assert relabels == labels

    def test_labels_recovered_without_symbols(self):
        words, _ = assemble(ROUTINE_SOURCES["bcopy"])
        dis = disassemble_words(words)  # no label table supplied
        # Every branch target got a synthetic label, and it reassembles.
        assert dis.labels
        rewords, _ = assemble(dis.source)
        assert rewords == words

    def test_unknown_opcode_rejected(self):
        with pytest.raises(DisassemblyError):
            disassemble_words([0x3E << 26])  # opcode 0x3E is not assigned

    def test_noncanonical_operate_bits_rejected(self):
        word = encode(encode_addq())
        assert disassemble_words([word, RET_WORD])  # canonical form is fine
        with pytest.raises(DisassemblyError):
            disassemble_words([word | (1 << 7), RET_WORD])  # junk in ignored bits

    def test_branch_out_of_range_rejected(self):
        words, _ = assemble("br done\ndone: ret")
        with pytest.raises(DisassemblyError):
            disassemble_words(words[:1])  # target now past the end

    def test_disassemble_routine_reads_current_text(self):
        from repro.hw import Machine, MachineConfig

        machine = Machine(MachineConfig(memory_bytes=64 * 8192, boot_time_ns=0))
        text = KernelText({"prog": "bis a0, zero, v0\nret"})
        text.load(machine.memory, 8192, 8192)
        machine.mmu.map(1, 1, writable=False)
        dis = disassemble_routine(text, "prog")
        assert len(dis.lines) == 2
        assert "bis" in dis.lines[0].text


def encode_addq():
    from repro.isa.encoding import Instruction

    return Instruction(opcode=Op.ADDQ, ra=16, rb=17, imm=0, rc=0)


RET_WORD = assemble("ret")[0][0]


class TestRoutineSources:
    @pytest.mark.parametrize("name", sorted(ROUTINE_SOURCES))
    def test_routine_keeps_the_kernel_contract(self, name):
        """Every panic code has a message, control cannot fall off the
        end, and the patcher accepts the routine (it raises
        ``PatchError`` on any use of its reserved ``at``/``gp``)."""
        words, labels = assemble(ROUTINE_SOURCES[name])
        dis = disassemble_words(words, labels=labels, name=name)
        for line in dis.lines:
            if line.inst.op is Op.PANIC:
                assert line.inst.imm in PANIC_MESSAGES, line.text
        assert dis.lines[-1].inst.op in (Op.RET, Op.BR, Op.PANIC)
        patch_routine(name, words, labels)
