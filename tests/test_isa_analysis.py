"""Tests for the binary static-analysis subsystem (disasm, CFG, dataflow, lint)."""

import pytest

from repro.isa.analysis import (
    DisassemblyError,
    ReachingDefs,
    Val,
    ValueAnalysis,
    build_cfg,
    disassemble_words,
    lint_words,
)
from repro.isa.analysis.dataflow import ENTRY, ENTRY_DEFINED
from repro.isa.assembler import assemble
from repro.isa.encoding import Op, encode
from repro.isa.routines import ROUTINE_SOURCES
from repro.isa.text import KernelText


def disassemble_source(source: str, name: str = "prog"):
    words, labels = assemble(source)
    return disassemble_words(words, labels=labels, name=name)


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


def lint_source(name: str, source: str, **passes):
    words, labels = assemble(source)
    return lint_words(name, words, labels=labels, **passes)


def lint_routines():
    """Every shipped kernel routine, linted."""
    return [f for name, source in ROUTINE_SOURCES.items() for f in lint_source(name, source)]


def cfg_of(source: str):
    return build_cfg(disassemble_source(source))


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
        assert dis.num_words == 2
        assert "bis" in dis.lines[0].text


def encode_addq():
    from repro.isa.encoding import Instruction

    return Instruction(opcode=Op.ADDQ, ra=16, rb=17, imm=0, rc=0)


RET_WORD = assemble("ret")[0][0]


class TestCFG:
    def test_straight_line_single_block(self):
        cfg = cfg_of("bis a0, zero, v0\nret")
        assert len(cfg.blocks) == 1
        assert cfg.blocks[0].terminates

    def test_loop_blocks_and_edges(self):
        cfg = cfg_of(
            """
            bis zero, zero, v0
        loop:
            beq a0, done
            lda a0, -1(a0)
            br loop
        done:
            ret
        """
        )
        # Entry, loop head, loop body, exit.
        assert set(cfg.blocks) == {0, 1, 2, 4}
        assert set(cfg.blocks[1].succs) == {2, 4}
        assert set(cfg.blocks[2].succs) == {1}
        assert cfg.reachable() == {0, 1, 2, 4}
        assert cfg.loops_without_exit() == []

    def test_br_is_always_taken(self):
        # A linking br (ra != zero) is still unconditional.
        cfg = cfg_of("br t0, skip\nstq zero, 0(a0)\nskip: ret")
        assert set(cfg.blocks[0].succs) == {2}
        assert 1 not in cfg.reachable()

    def test_inescapable_loop_detected(self):
        cfg = cfg_of("loop: lda a0, 1(a0)\nbr loop")
        loops = cfg.loops_without_exit()
        assert loops and 0 in loops[0]

    def test_loop_with_terminator_not_flagged(self):
        cfg = cfg_of("loop: beq a0, done\nbr loop\ndone: ret")
        assert cfg.loops_without_exit() == []

    def test_falls_off_end(self):
        assert cfg_of("bis a0, zero, v0").falls_off_end
        assert not cfg_of("ret").falls_off_end


class TestReachingDefs:
    def test_entry_defs_reach_first_use(self):
        cfg = cfg_of("bis a0, zero, v0\nret")
        rd = ReachingDefs(cfg)
        assert rd.defs_of(0, 16) == {ENTRY}

    def test_local_def_kills_entry_def(self):
        cfg = cfg_of("lda t0, 5(zero)\nbis t0, zero, v0\nret")
        rd = ReachingDefs(cfg)
        assert rd.defs_of(1, 1) == {0}

    def test_merge_point_sees_both_defs(self):
        cfg = cfg_of(
            """
            beq a0, other
            lda t0, 1(zero)
            br join
        other:
            lda t0, 2(zero)
        join:
            bis t0, zero, v0
            ret
        """
        )
        rd = ReachingDefs(cfg)
        assert rd.defs_of(4, 1) == {1, 3}


class TestValueAnalysis:
    def test_stack_pointer_tracked_through_frame(self):
        cfg = cfg_of("lda sp, -32(sp)\nstq ra, 0(sp)\nlda sp, 32(sp)\nret")
        va = ValueAnalysis(cfg)
        assert va.value_before(1, 30) == Val(30, -32)  # the stq's base
        assert va.value_before(3, 30) == Val(30, 0)

    def test_spill_reload_recovers_value(self):
        cfg = cfg_of(
            "lda sp, -16(sp)\nstq a0, 0(sp)\nldq t0, 0(sp)\nlda sp, 16(sp)\nret"
        )
        va = ValueAnalysis(cfg)
        assert va.value_before(3, 1) == Val(16, 0)  # t0 holds entry a0

    def test_join_loses_conflicting_values(self):
        cfg = cfg_of(
            """
            beq a0, other
            lda t0, 1(zero)
            br join
        other:
            lda t0, 2(zero)
        join:
            bis t0, zero, v0
            ret
        """
        )
        va = ValueAnalysis(cfg)
        assert va.value_before(4, 1) is None


class TestLint:
    def test_shipped_routines_clean(self):
        assert lint_routines() == []

    def test_unreachable_code(self):
        findings = lint_source("bad", "br done\nstq zero, 0(a0)\ndone: ret")
        assert any(f.check == "unreachable" for f in findings)

    def test_no_exit_loop(self):
        findings = lint_source("bad", "loop: lda a0, 1(a0)\nbr loop")
        assert any(f.check == "no-exit-loop" for f in findings)

    def test_undefined_register_read(self):
        findings = lint_source("bad", "bis t0, zero, v0\nret")
        assert any(f.check == "undefined-read" for f in findings)
        # Arguments and sp are defined at entry — no finding.
        assert lint_source("ok", "bis a0, zero, v0\nret") == []

    def test_unbalanced_stack(self):
        findings = lint_source("bad", "lda sp, -16(sp)\nret")
        assert any(f.check == "stack-discipline" for f in findings)

    def test_clobbered_return_address(self):
        findings = lint_source("bad", "lda ra, 0(zero)\nret")
        assert any(f.check == "stack-discipline" for f in findings)

    def test_fall_off_end(self):
        findings = lint_source("bad", "bis a0, zero, v0")
        assert any(f.check == "stack-discipline" for f in findings)

    def test_unknown_panic_code(self):
        findings = lint_source("bad", "panic #77")
        assert any(f.check == "panic-code" for f in findings)

    def test_reserved_register_use(self):
        findings = lint_source("bad", "lda gp, 0(zero)\nret")
        assert any(f.check == "reserved-register" for f in findings)

    def test_undisassemblable_routine(self):
        findings = lint_words("bad", [0x3E << 26])
        assert len(findings) == 1
        assert findings[0].check == "undisassemblable"

    def test_selected_passes_only(self):
        findings = lint_source(
            "bad", "lda sp, -16(sp)\nret", passes=("panic-code",)
        )
        assert findings == []


class TestEntryContract:
    def test_entry_defined_matches_call_convention(self):
        # The interpreter seeds args (a0-a5), ra, gp, sp, zero.
        assert ENTRY_DEFINED == frozenset({16, 17, 18, 19, 20, 21, 26, 29, 30, 31})
