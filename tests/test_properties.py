"""Property-based tests on core data structures and invariants."""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.fs.types import BLOCK_SIZE
from repro.hw import Machine, MachineConfig
from repro.hw.clock import Clock
from repro.disk import SimulatedDisk
from repro.kernel.kmalloc import KernelHeap
from repro.isa.assembler import assemble
from repro.isa.encoding import decode
from repro.isa.routines import ROUTINE_SOURCES
from repro.system import SystemSpec, build_system

PAGE = 8192


# ---------------------------------------------------------------------------
# Kernel heap: random alloc/free sequences preserve allocator invariants.
# ---------------------------------------------------------------------------


@st.composite
def heap_scripts(draw):
    """A sequence of (op, value) where op is alloc size or free index."""
    return draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("alloc"), st.integers(1, 2000)),
                st.tuples(st.just("free"), st.integers(0, 50)),
            ),
            min_size=1,
            max_size=60,
        )
    )


class TestHeapProperties:
    @settings(max_examples=40, deadline=None)
    @given(heap_scripts())
    def test_no_overlap_and_full_recovery(self, script):
        machine = Machine(MachineConfig(memory_bytes=16 * PAGE, boot_time_ns=0))
        for vpn in range(8):
            machine.mmu.map(vpn, vpn)
        heap = KernelHeap(machine.bus, 0, 8 * PAGE)
        initial_free = sum(size for _, size in heap._free)
        live: list[tuple[int, int]] = []
        for op, value in script:
            if op == "alloc":
                try:
                    addr = heap.kmalloc(value)
                except Exception:
                    continue
                # Invariant: no overlap with any live block.
                for other, size in live:
                    assert addr + value <= other or other + size <= addr
                live.append((addr, value))
            elif live:
                addr, _ = live.pop(value % len(live))
                heap.kfree(addr)
        for addr, _ in live:
            heap.kfree(addr)
        # Invariant: freeing everything recovers all bytes (coalescing).
        assert sum(size for _, size in heap._free) == initial_free
        assert len(heap._live) == 0

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(1, 512), min_size=1, max_size=30))
    def test_contents_isolated(self, sizes):
        machine = Machine(MachineConfig(memory_bytes=16 * PAGE, boot_time_ns=0))
        for vpn in range(8):
            machine.mmu.map(vpn, vpn)
        heap = KernelHeap(machine.bus, 0, 8 * PAGE)
        blocks = []
        for i, size in enumerate(sizes):
            addr = heap.kmalloc(size)
            fill = bytes([i & 0xFF]) * size
            machine.bus.store(addr, fill)
            blocks.append((addr, fill))
        for addr, fill in blocks:
            assert machine.bus.load(addr, len(fill)) == fill


# ---------------------------------------------------------------------------
# Disk: after any crash, every sector is old, new, or the designated torn one.
# ---------------------------------------------------------------------------


class TestDiskCrashProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        n_writes=st.integers(1, 6),
        crash_frac=st.floats(0.0, 1.0),
        data=st.randoms(),
    )
    def test_crash_leaves_old_new_or_single_torn(self, n_writes, crash_frac, data):
        clock = Clock()
        disk = SimulatedDisk("p", 256)
        disk.attach(clock)
        old = {s: bytes([s & 0xFF]) * 512 for s in range(64)}
        for s, content in old.items():
            disk.poke(s, content)
        requests = []
        for i in range(n_writes):
            start = data.randrange(48)
            count = data.randrange(1, 8)
            new = bytes([(0x80 + i) & 0xFF]) * (count * 512)
            requests.append((start, count, new))
            disk.write(start, new, sync=False)
        last_completion = max(r.completion_ns for r in disk._pending) if disk._pending else 0
        clock.advance_to(int(last_completion * crash_frac))
        disk.crash()
        torn = 0
        for s in range(64):
            sector = disk.peek(s, 1)
            candidates = {old[s]} | {
                new[(s - start) * 512 : (s - start + 1) * 512]
                for start, count, new in requests
                if start <= s < start + count
            }
            if sector not in candidates:
                torn += 1
        assert torn <= 1  # at most the single sector under the head

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 10))
    def test_drain_makes_everything_durable(self, n_writes):
        clock = Clock()
        disk = SimulatedDisk("p", 256)
        disk.attach(clock)
        for i in range(n_writes):
            disk.write(i * 4, bytes([i]) * 512, sync=False)
        disk.drain()
        disk.crash()
        for i in range(n_writes):
            assert disk.peek(i * 4, 1) == bytes([i]) * 512


# ---------------------------------------------------------------------------
# Assembler/decoder: assembled programs decode back to valid instructions.
# ---------------------------------------------------------------------------


class TestIsaProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.sampled_from(
                [
                    "lda t0, 8(zero)",
                    "addq t0, t1, t2",
                    "ldq t3, 0(sp)",
                    "stq t3, -8(sp)",
                    "cmpult t0, t1, t2",
                    "xor a0, a1, v0",
                    "nop",
                    "ret",
                ]
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_assemble_decode_roundtrip(self, lines):
        words, _ = assemble("\n".join(lines))
        assert len(words) == len(lines)
        for word, line in zip(words, lines):
            inst = decode(word)
            assert inst.op is not None
            assert str(inst).split()[0] == line.split()[0]


# ---------------------------------------------------------------------------
# UFS vs a dict oracle: random namespace operations agree.
# ---------------------------------------------------------------------------


@st.composite
def fs_scripts(draw):
    ops = []
    for _ in range(draw(st.integers(1, 40))):
        kind = draw(st.sampled_from(["create", "write", "unlink", "mkdir", "rename"]))
        name = f"n{draw(st.integers(0, 9))}"
        name2 = f"n{draw(st.integers(0, 9))}"
        payload = draw(st.integers(0, 5000))
        ops.append((kind, name, name2, payload))
    return ops


class TestUfsAgainstOracle:
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(fs_scripts())
    def test_namespace_and_content_agree(self, script):
        from repro.util import pattern_bytes

        system = build_system(SystemSpec("ufs_delayed", fs_blocks=512))
        fs = system.fs
        oracle: dict[str, bytes] = {}
        dirs: set[str] = set()
        for step, (kind, name, name2, payload) in enumerate(script):
            path, path2 = f"/{name}", f"/{name2}"
            try:
                if kind == "create":
                    fs.create(path)
                    oracle[path] = b""
                elif kind == "write" and path in oracle:
                    data = pattern_bytes(step, 0, payload)
                    fs.write(fs.namei(path), 0, data)
                    old = oracle[path]
                    oracle[path] = data + old[len(data):]
                elif kind == "unlink":
                    fs.unlink(path)
                    del oracle[path]
                elif kind == "mkdir":
                    fs.mkdir(path)
                    dirs.add(path)
                elif kind == "rename" and path in oracle and path2 not in dirs:
                    fs.rename(path, path2)
                    oracle[path2] = oracle.pop(path)
            except Exception:
                continue  # oracle not updated on failure; fs must agree
        for path, content in oracle.items():
            assert fs.exists(path), path
            ino = fs.namei(path)
            assert fs.read(ino, 0, len(content) + 10) == content
        listed = {f"/{n}" for n in fs.readdir("/")} - {"/lost+found"}
        assert listed == set(oracle) | dirs


# ---------------------------------------------------------------------------
# Static analysis: the disassembler is the assembler's exact inverse, and
# the code patcher preserves routine behaviour.
# ---------------------------------------------------------------------------


class TestAnalysisProperties:
    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from(sorted(ROUTINE_SOURCES)))
    def test_disassembly_is_a_fixed_point(self, name):
        """assemble -> disassemble -> assemble reproduces the exact words."""
        from repro.isa.analysis import disassemble_words

        words, labels = assemble(ROUTINE_SOURCES[name])
        dis = disassemble_words(words, labels=labels, name=name)
        rewords, relabels = assemble(dis.source)
        assert rewords == words
        assert relabels == labels
        # And the fixed point is stable: one more trip changes nothing.
        assert disassemble_words(rewords, labels=relabels, name=name).source == dis.source

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.sampled_from(
                [
                    "lda t0, 8(zero)",
                    "lda sp, -16(sp)",
                    "lda sp, 16(sp)",
                    "addq t0, a1, t2",
                    "subq a0, t2, t3",
                    "cmpult t0, a1, t2",
                    "ldq t3, 0(sp)",
                    "stq a0, -8(sp)",
                    "stb t0, 3(a0)",
                    "ldb t4, 1(a1)",
                    "bis a0, a1, v0",
                    "nop",
                ]
            ),
            min_size=1,
            max_size=30,
        )
    )
    def test_random_straightline_roundtrips(self, body):
        from repro.isa.analysis import disassemble_words

        words, labels = assemble("\n".join(body + ["ret"]))
        dis = disassemble_words(words, labels=labels)
        rewords, _ = assemble(dis.source)
        assert rewords == words

    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        data=st.binary(min_size=1, max_size=512),
        offset=st.integers(0, 96),
    )
    def test_patched_kernel_text_is_behaviour_identical(self, data, offset):
        """A memtest-style copy through plain and patched text ends with
        byte-identical memory and return values."""
        from repro.isa import Interpreter, KernelText
        from repro.isa.analysis import CodePatcher

        heap = 8 * PAGE
        outcomes = []
        for transform in (None, CodePatcher()):
            machine = Machine(MachineConfig(memory_bytes=64 * PAGE, boot_time_ns=0))
            text = KernelText(ROUTINE_SOURCES, transform=transform)
            text.load(machine.memory, PAGE, PAGE)
            for i in range(-(-text.size_bytes // PAGE)):
                machine.mmu.map(1 + i, 1 + i, writable=False)
            for vpn in range(8, 16):
                machine.mmu.map(vpn, vpn)
            interp = Interpreter(machine.bus, text)
            machine.bus.store_u64(heap + 8 * PAGE - 8, 1 << 62)
            interp.global_pointer = heap + 8 * PAGE - 8
            machine.memory.write(heap, data)
            hdr = heap + 2 * PAGE
            machine.bus.store_u64(hdr + 0, 0x7B0F)
            machine.bus.store_u64(hdr + 8, heap + 4 * PAGE)
            machine.bus.store_u64(hdr + 16, 2 * PAGE)
            value = interp.call(
                "cache_copy", [hdr, heap, offset, len(data)], sp=15 * PAGE
            ).value
            interp.call("bzero", [heap + 6 * PAGE, 64], sp=15 * PAGE)
            outcomes.append(
                (value, machine.memory.read(heap + 4 * PAGE, 2 * PAGE))
            )
        assert outcomes[0] == outcomes[1]
