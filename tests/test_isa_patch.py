"""Tests for the binary code patcher: correctness, traps, coverage, overhead."""

import pytest

from repro.errors import ProtectionTrap
from repro.hw import Machine, MachineConfig
from repro.isa.analysis import (
    CodePatcher,
    PatchError,
    disassemble_words,
    patch_routine,
)
from repro.isa.assembler import assemble
from repro.isa.encoding import BRANCH_OPS, REG_NAMES, sext16
from repro.isa.interpreter import PATCH_TRAP_CODE, Interpreter
from repro.isa.routines import ROUTINE_SOURCES, build_kernel_text
from repro.isa.text import KernelText

PAGE = 8192
HEAP = 8 * PAGE
#: Heap quadword where each harness stores the protection threshold.
DESCRIPTOR = HEAP + 8 * PAGE - 8


def make_env(sources, threshold=1 << 62, transform=None):
    """A small machine with loaded text, a heap, and the gp descriptor."""
    machine = Machine(MachineConfig(memory_bytes=64 * PAGE, boot_time_ns=0))
    text = KernelText(sources, transform=transform)
    pages = -(-text.size_bytes // PAGE)
    text.load(machine.memory, PAGE, PAGE)
    for i in range(pages):
        machine.mmu.map(1 + i, 1 + i, writable=False)
    for vpn in range(8, 16):
        machine.mmu.map(vpn, vpn)
    interp = Interpreter(machine.bus, text)
    machine.bus.store_u64(DESCRIPTOR, threshold)
    interp.global_pointer = DESCRIPTOR
    return machine, interp


def run(interp, name, args):
    return interp.call(name, list(args), sp=15 * PAGE)


def spilled_check(store):
    """The words that must precede ``store`` in patched text, assembled
    from source: spill, threshold check, reload."""
    s = "t10" if store.rb == 25 else "t11"
    words, _ = assemble(
        f"""
            stq {s}, -8(sp)
            ldq {s}, 0(gp)
            lda at, {sext16(store.imm)}({REG_NAMES[store.rb]})
            cmpult at, {s}, {s}
            bne {s}, ok
            panic #{PATCH_TRAP_CODE}
        ok:
            ldq {s}, -8(sp)
        """
    )
    return words


class TestPatchedBehaviour:
    """Patched routines compute exactly what the originals compute."""

    def test_bcopy_identical_output(self):
        data = bytes(range(200))
        plain_m, plain_i = make_env(ROUTINE_SOURCES)
        patch_m, patch_i = make_env(ROUTINE_SOURCES, transform=CodePatcher())
        for machine, interp in ((plain_m, plain_i), (patch_m, patch_i)):
            machine.memory.write(HEAP, data)
            run(interp, "bcopy", [HEAP, HEAP + 2048, len(data)])
        assert patch_m.memory.read(HEAP + 2048, 200) == plain_m.memory.read(
            HEAP + 2048, 200
        )
        assert patch_m.memory.read(HEAP + 2048, 200) == data

    def test_cache_copy_identical_output(self):
        hdr = HEAP
        src = HEAP + 256
        dst = HEAP + 4096
        payload = bytes((i * 7) % 256 for i in range(99))
        results = []
        for transform in (None, CodePatcher()):
            machine, interp = make_env(ROUTINE_SOURCES, transform=transform)
            machine.bus.store_u64(hdr + 0, 0x7B0F)
            machine.bus.store_u64(hdr + 8, dst)
            machine.bus.store_u64(hdr + 16, 4096)
            machine.memory.write(src, payload)
            value = run(interp, "cache_copy", [hdr, src, 16, len(payload)]).value
            results.append((value, machine.memory.read(dst + 16, len(payload))))
        assert results[0] == results[1]
        assert results[1][1] == payload

    def test_patched_checksum_matches(self):
        data = (123456789).to_bytes(8, "little") * 16
        plain = make_env(ROUTINE_SOURCES)
        patched = make_env(ROUTINE_SOURCES, transform=CodePatcher())
        values = []
        for machine, interp in (plain, patched):
            machine.memory.write(HEAP, data)
            values.append(run(interp, "checksum_block", [HEAP, len(data)]).value)
        assert values[0] == values[1]


class TestTrap:
    def test_store_above_threshold_traps(self):
        machine, interp = make_env(ROUTINE_SOURCES, transform=CodePatcher())
        machine.bus.store_u64(DESCRIPTOR, HEAP + 4096)  # tighten the threshold
        machine.memory.write(HEAP, b"x" * 64)
        with pytest.raises(ProtectionTrap) as exc:
            run(interp, "bcopy", [HEAP, HEAP + 4096, 64])
        assert exc.value.address == HEAP + 4096

    def test_store_below_threshold_passes(self):
        machine, interp = make_env(ROUTINE_SOURCES, transform=CodePatcher())
        machine.bus.store_u64(DESCRIPTOR, HEAP + 4096)
        machine.memory.write(HEAP, b"y" * 64)
        run(interp, "bcopy", [HEAP, HEAP + 1024, 64])
        assert machine.memory.read(HEAP + 1024, 64) == b"y" * 64

    def test_trap_reports_exact_effective_address(self):
        machine, interp = make_env(ROUTINE_SOURCES, transform=CodePatcher())
        threshold = HEAP + 4096
        machine.bus.store_u64(DESCRIPTOR, threshold)
        machine.memory.write(HEAP, b"z" * 24)
        # The first trapping store is the byte-loop's (length 3 tail).
        with pytest.raises(ProtectionTrap) as exc:
            run(interp, "bcopy", [HEAP, threshold + 5, 3])
        assert exc.value.address == threshold + 5


class TestElision:
    """Nothing is elided: every store pays the full check sequence."""

    def test_every_store_is_checked(self):
        for name, source in ROUTINE_SOURCES.items():
            words, labels = assemble(source)
            new_words, _, report = patch_routine(name, words, labels)
            lines = disassemble_words(words, labels=labels, name=name).lines
            assert report.stores == sum(line.inst.is_store for line in lines)
            assert report.added_words == 7 * report.stores
            pos = 0
            for line in lines:
                if line.inst.is_store:
                    check = spilled_check(line.inst)
                    assert new_words[pos : pos + 7] == check, (name, line.index)
                    pos += 7
                if line.inst.op not in BRANCH_OPS:  # branches are relocated
                    assert new_words[pos] == line.word, (name, line.index)
                pos += 1
            assert pos == len(new_words)

    def test_unpatched_is_fastest(self):
        plain_machine, plain_interp = make_env(ROUTINE_SOURCES)
        patch_machine, patch_interp = make_env(
            ROUTINE_SOURCES, transform=CodePatcher()
        )
        plain_machine.memory.write(HEAP, bytes(128))
        patch_machine.memory.write(HEAP, bytes(128))
        plain = run(plain_interp, "bcopy", [HEAP, HEAP + 1024, 128]).steps
        patched = run(patch_interp, "bcopy", [HEAP, HEAP + 1024, 128]).steps
        assert plain < patched


class TestRewrite:
    @pytest.mark.parametrize("name", sorted(ROUTINE_SOURCES))
    @pytest.mark.parametrize("with_labels", [True, False])
    def test_patched_text_disassembles_strictly(self, name, with_labels):
        # Without the source's labels the patcher recovers branch targets
        # itself; the words it emits must not depend on label names.
        words, labels = assemble(ROUTINE_SOURCES[name])
        new_words, new_labels, _ = patch_routine(
            name, words, labels if with_labels else None
        )
        dis = disassemble_words(new_words, labels=new_labels, name=name)
        rewords, _ = assemble(dis.source)
        assert rewords == new_words
        assert new_words == patch_routine(name, words, labels)[0]

    def test_branches_cannot_jump_over_checks(self):
        # A branch targeting a checked store must land at the check.
        source = """
            beq a0, out
            stq zero, 0(a1)
        out:
            stq zero, 0(a2)
            ret
        """
        words, labels = assemble(source)
        new_words, new_labels, report = patch_routine("jumpy", words, labels)
        assert report.stores == 2
        dis = disassemble_words(new_words, labels=new_labels, name="jumpy")
        # 'out' points at the head of the second check sequence (the
        # scratch spill), not at the store itself.
        assert dis.lines[new_labels["out"]].text == "stq t11, -8(sp)"

    def test_panic_code_is_the_trap_code(self):
        words, labels = assemble("stq zero, 0(a0)\nret")
        new_words, new_labels, _ = patch_routine("one_store", words, labels)
        dis = disassemble_words(new_words, labels=new_labels, name="one_store")
        assert any(f"panic #{PATCH_TRAP_CODE}" in line.text for line in dis.lines)

    def test_reserved_register_use_rejected(self):
        words, labels = assemble("lda gp, 8(gp)\nret")
        with pytest.raises(PatchError):
            patch_routine("greedy", words, labels)

    def test_store_free_routine_unchanged(self):
        words, labels = assemble(ROUTINE_SOURCES["checksum_block"])
        new_words, new_labels, report = patch_routine("checksum_block", words, labels)
        assert new_words == words
        assert new_labels == labels
        assert report.stores == 0


class TestCodePatcherTransform:
    def test_build_kernel_text_with_patcher_has_no_natives(self):
        patcher = CodePatcher()
        text = build_kernel_text(transform=patcher)
        assert set(patcher.reports) == set(ROUTINE_SOURCES)
        for routine in text.routines.values():
            assert routine.native is None
        assert sum(r.added_words for r in patcher.reports.values()) > 0
