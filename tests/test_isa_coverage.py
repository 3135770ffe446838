"""Exhaustive opcode coverage for the interpreter, via tiny programs."""

import pytest

from repro.errors import MachineCheck
from repro.isa import KernelText, Interpreter
from repro.hw import Machine, MachineConfig

PAGE = 8192


def run_program(source: str, args=(), heap_init=b"", **engine):
    """Assemble a one-routine program, run it, return (value, machine);
    ``fast_path=`` pins the execution engine."""
    machine = Machine(MachineConfig(memory_bytes=64 * PAGE, boot_time_ns=0, **engine))
    text = KernelText({"prog": source})
    pages = -(-text.size_bytes // PAGE)
    text.load(machine.memory, PAGE, PAGE)
    for i in range(pages):
        machine.mmu.map(1 + i, 1 + i, writable=False)
    for vpn in range(8, 16):  # heap
        machine.mmu.map(vpn, vpn)
    if heap_init:
        machine.memory.write(8 * PAGE, heap_init)
    interp = Interpreter(machine.bus, text)
    result = interp.call("prog", list(args), sp=15 * PAGE)
    return result.value, machine


HEAP = 8 * PAGE


class TestArithmetic:
    def test_addq_subq(self):
        value, _ = run_program("addq a0, a1, t0\nsubq t0, a2, v0\nret", [10, 32, 2])
        assert value == 40

    def test_mulq(self):
        value, _ = run_program("mulq a0, a1, v0\nret", [7, 6])
        assert value == 42

    def test_mulq_wraps_64_bits(self):
        value, _ = run_program("mulq a0, a0, v0\nret", [1 << 40])
        assert value == (1 << 80) % (1 << 64)

    def test_logic_ops(self):
        value, _ = run_program("and a0, a1, t0\nbis t0, a2, t1\nxor t1, a3, v0\nret",
                               [0b1100, 0b1010, 0b0001, 0b1111])
        assert value == (((0b1100 & 0b1010) | 0b0001) ^ 0b1111)

    def test_shifts(self):
        value, _ = run_program("sll a0, a1, t0\nsrl t0, a2, v0\nret", [3, 8, 4])
        assert value == (3 << 8) >> 4

    def test_shift_count_masked_to_6_bits(self):
        value, _ = run_program("sll a0, a1, v0\nret", [1, 65])
        assert value == 2  # shift by 65 & 63 == 1

    def test_lda_negative_displacement(self):
        value, _ = run_program("lda v0, -16(a0)\nret", [100])
        assert value == 84

    def test_subtraction_wraps(self):
        value, _ = run_program("subq a0, a1, v0\nret", [0, 1])
        assert value == (1 << 64) - 1


class TestComparisons:
    @pytest.mark.parametrize(
        "op,a,b,expected",
        [
            ("cmpeq", 5, 5, 1),
            ("cmpeq", 5, 6, 0),
            ("cmplt", (1 << 64) - 1, 0, 1),  # signed: -1 < 0
            ("cmplt", 0, (1 << 64) - 1, 0),
            ("cmple", 4, 4, 1),
            ("cmpult", (1 << 64) - 1, 0, 0),  # unsigned: max > 0
            ("cmpult", 1, 2, 1),
            ("cmpule", 2, 2, 1),
        ],
    )
    def test_compare(self, op, a, b, expected):
        value, _ = run_program(f"{op} a0, a1, v0\nret", [a, b])
        assert value == expected


class TestBranches:
    @pytest.mark.parametrize(
        "branch,value,taken",
        [
            ("beq", 0, True),
            ("beq", 1, False),
            ("bne", 1, True),
            ("bne", 0, False),
            ("blt", (1 << 64) - 5, True),  # -5 < 0
            ("blt", 5, False),
            ("bge", 5, True),
            ("bge", (1 << 64) - 5, False),
            ("bgt", 1, True),
            ("bgt", 0, False),
            ("ble", 0, True),
            ("ble", 1, False),
        ],
    )
    def test_conditional(self, branch, value, taken):
        source = f"""
            {branch} a0, yes
            lda v0, 0(zero)
            ret
        yes:
            lda v0, 1(zero)
            ret
        """
        result, _ = run_program(source, [value])
        assert result == (1 if taken else 0)

    def test_br_links_return_address(self):
        source = """
            br t0, after
        after:
            bne t0, linked
            lda v0, 0(zero)
            ret
        linked:
            lda v0, 1(zero)
            ret
        """
        value, _ = run_program(source)
        assert value == 1

    def test_backward_loop(self):
        source = """
            bis zero, zero, v0
        loop:
            addq v0, a1, v0
            lda a0, -1(a0)
            bne a0, loop
            ret
        """
        value, _ = run_program(source, [10, 3])
        assert value == 30

    def test_jsr_and_ret_through_register(self):
        """Call a label's address through ``pv``; the callee returns
        through the ``ra`` that ``jsr`` linked.  On both engines."""
        source = """
            bis ra, ra, t1          ; jsr is about to overwrite ra
            br t0, anchor           ; t0 <- address of anchor
        anchor:
            lda pv, 16(t0)          ; callee sits four words past anchor
            jsr ra, (pv)
            lda v0, 1(v0)           ; back from the call: 41 -> 42
            ret (t1)
        callee:
            lda v0, 41(zero)
            ret
        """
        for fast_path in (True, False):
            value, _ = run_program(source, fast_path=fast_path)
            assert value == 42


class TestMemoryOps:
    def test_byte_ops(self):
        value, machine = run_program(
            "stb a1, 5(a0)\nldb v0, 5(a0)\nret", [HEAP, 0x1AB]
        )
        assert value == 0xAB  # stb stores the low byte; ldb zero-extends

    def test_quad_roundtrip(self):
        big = 0x1122334455667788
        value, _ = run_program("stq a1, 8(a0)\nldq v0, 8(a0)\nret", [HEAP, big])
        assert value == big

    def test_unaligned_quad_ok(self):
        """Our simplified ISA allows unaligned data access (byte-addressed
        bus); the value survives."""
        value, _ = run_program("stq a1, 3(a0)\nldq v0, 3(a0)\nret", [HEAP, 999])
        assert value == 999

    def test_load_from_unmapped_machine_checks(self):
        with pytest.raises(MachineCheck):
            run_program("ldq v0, 0(a0)\nret", [0x7000_0000])

    def test_heap_init_visible(self):
        value, _ = run_program("ldq v0, 0(a0)\nret", [HEAP], heap_init=(777).to_bytes(8, "little"))
        assert value == 777


class TestRegisterConventions:
    def test_r31_reads_zero(self):
        value, _ = run_program("addq zero, zero, v0\nret")
        assert value == 0

    def test_r31_write_ignored(self):
        value, _ = run_program("lda zero, 99(zero)\naddq zero, zero, v0\nret")
        assert value == 0

    def test_six_args(self):
        value, _ = run_program(
            "addq a0, a1, t0\naddq t0, a2, t0\naddq t0, a3, t0\n"
            "addq t0, a4, t0\naddq t0, a5, v0\nret",
            [1, 2, 3, 4, 5, 6],
        )
        assert value == 21

    def test_too_many_args_rejected(self):
        with pytest.raises(ValueError):
            run_program("ret", [0] * 7)


class TestCallErrors:
    def test_unknown_routine_names_the_known_set(self):
        from repro.errors import ConfigurationError

        machine = Machine(MachineConfig(memory_bytes=64 * PAGE, boot_time_ns=0))
        text = KernelText({"prog": "ret"})
        text.load(machine.memory, PAGE, PAGE)
        machine.mmu.map(1, 1, writable=False)
        interp = Interpreter(machine.bus, text)
        with pytest.raises(ConfigurationError, match="unknown kernel routine 'nope'.*prog"):
            interp.call("nope", [], sp=15 * PAGE)

    def test_panic_carries_numeric_code(self):
        from repro.errors import KernelPanic

        with pytest.raises(KernelPanic) as exc:
            run_program("panic #21")
        assert exc.value.code == 21

    def test_unexpected_halt_coded_99(self):
        from repro.errors import KernelPanic

        with pytest.raises(KernelPanic) as exc:
            run_program("halt")
        assert exc.value.code == 99
