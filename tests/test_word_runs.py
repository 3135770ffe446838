"""Differential proof that the native ``sched_tick`` / ``vnode_scan``
walkers of ``isa/routines.py`` — a word-by-word walk, or the replay of
the plan its last clean run left — are the assembly they stand for.

Hypothesis builds a run queue and a vnode table on the heap, corrupts
them — bit flips in magic / next / counter words, pointers sent to
unmapped addresses, past the end of KSEG, into protected frames that
carry a matching magic, into kernel text, onto nodes that straddle a page
edge, onto head words and other nodes' counters, back up their own chain
— and runs each walker on twin machines: one on the native as the kernel
runs it, one that walks on every call and never replays.  Everything
observable must agree: result and step count or exception (type, message,
``address``), every ``BusStats`` field, the MMU's counters, the memory
image, which frames' write generations moved, and the recorder's trap
events.  A third machine interprets the assembly, which pins the same
data traffic and step count from the other side, also where the step
budget cuts a cycle.

The native replays a clean walk's plan while its page holds the same
bytes, so the same comparison also runs over sequences of ticks with
corruptions, protection flips and remaps landing *between* them: a plan
recorded on one tick meets a changed structure on the next.
"""

from __future__ import annotations

import signal
import struct
from contextlib import contextmanager
from dataclasses import astuple
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import SystemSpec, build_system
from repro.errors import CrashedMachineError, SystemCrash, WatchdogTimeout
from repro.hw import Machine, MachineConfig
from repro.hw.mmu import KSEG_BASE
from repro.isa import Interpreter, routines
from repro.isa.routines import PROC_MAGIC, VNODE_MAGIC, build_kernel_text

PAGE = 8192
MEMORY_PAGES = 256
HEAP_VPN = 32
HEAP = HEAP_VPN * PAGE
HEAP_PAGES = 4
TEXT = 1 * PAGE
#: A frame no virtual page maps: reachable through KSEG only.
KSEG_ONLY_PFN = 60
MAX_STEPS = 5_000

# -- the machines ------------------------------------------------------------

#: Well-formed structures every program starts from.  Node addresses are
#: spread over two heap pages so a walk changes pages.
HEAD = HEAP + 0x40
TABLE = HEAP + 0x80
NBUCKETS = 4
PROCS = [HEAP + 0x100 + 0x20 * i for i in range(3)] + [HEAP + PAGE + 0x100]
VNODES = [
    [HEAP + 0x400 + 0x40 * b, HEAP + PAGE + 0x400 + 0x40 * b] for b in range(NBUCKETS)
]
#: Nodes whose three words do not fit the page they start in: the counter
#: alone on the next page, a next word cut in two, a magic word cut in two.
STRADDLERS = [HEAP + PAGE - 16, HEAP + PAGE - 12, HEAP + 2 * PAGE - 4]
ALL_NODES = PROCS + [n for chain in VNODES for n in chain] + STRADDLERS


def build_env(fast_path: bool = True, replays: bool = True, interpret: bool = False):
    machine = Machine(
        MachineConfig(memory_bytes=MEMORY_PAGES * PAGE, boot_time_ns=0, fast_path=fast_path)
    )
    text = build_kernel_text()
    text.load(machine.memory, base_paddr=TEXT, base_vaddr=TEXT)
    for i in range(-(-text.size_bytes // PAGE)):
        machine.mmu.map(1 + i, 1 + i, writable=False)
    for i in range(HEAP_PAGES):
        machine.mmu.map(HEAP_VPN + i, HEAP_VPN + i)
    interp = Interpreter(machine.bus, text)
    interp.force_interpret = interpret
    return SimpleNamespace(
        machine=machine, bus=machine.bus, mmu=machine.mmu, memory=machine.memory,
        text=text, interp=interp, replays=replays,
    )


def poke(env, vaddr: int, value: int) -> None:
    """Hardware-level write of one heap word (identity-mapped heap)."""
    env.memory.write(vaddr, (value & (1 << 64) - 1).to_bytes(8, "little"))


def peek(env, addr: int) -> int:
    """Hardware-level read of one word."""
    return int.from_bytes(env.memory.read(addr, 8), "little")


def lay_out(env) -> None:
    poke(env, HEAD, PROCS[0])
    for i, node in enumerate(PROCS):
        poke(env, node, PROC_MAGIC)
        poke(env, node + 8, PROCS[i + 1] if i + 1 < len(PROCS) else 0)
        poke(env, node + 16, i)
    for bucket, chain in enumerate(VNODES):
        poke(env, TABLE + 8 * bucket, chain[0])
        for i, node in enumerate(chain):
            poke(env, node, VNODE_MAGIC)
            poke(env, node + 8, chain[i + 1] if i + 1 < len(chain) else 0)
            poke(env, node + 16, 7)
    # Plausible nodes where nothing points yet: straddling the page edge,
    # and in a frame only KSEG reaches.
    for node in reversed(STRADDLERS):
        poke(env, node, PROC_MAGIC)
        poke(env, node + 8, 0)
        poke(env, node + 16, 1)
    for magic, off in ((PROC_MAGIC, 0), (VNODE_MAGIC, 0x100)):
        env.memory.write(KSEG_ONLY_PFN * PAGE + off, struct.pack("<QQQ", magic, 0, 5))


# -- the corruption menu -----------------------------------------------------

WORDS = sorted(
    {HEAD, *(TABLE + 8 * b for b in range(NBUCKETS))}
    | {node + field for node in ALL_NODES for field in (0, 8, 16)}
)

POINTERS = (
    ALL_NODES
    + [HEAD, HEAD - 8, HEAD - 16, TABLE, TABLE - 8]  # next / counter aliasing a head word
    + [node + 16 for node in PROCS[:2]] + [VNODES[0][0] + 8]  # ... another node's words
    + [
        0,
        200 * PAGE + 8,  # unmapped
        KSEG_BASE + MEMORY_PAGES * PAGE + 64,  # KSEG beyond memory
        KSEG_BASE + KSEG_ONLY_PFN * PAGE,  # a KSEG frame with a PROC node ...
        KSEG_BASE + KSEG_ONLY_PFN * PAGE + 0x100,  # ... and a VNODE node
        KSEG_BASE + HEAP + 0x100,  # KSEG alias of PROCS[0]
        KSEG_BASE + (KSEG_ONLY_PFN + 1) * PAGE,  # a never-written frame
        TEXT + 64,  # kernel text
        HEAP + HEAP_PAGES * PAGE - 8,  # last heap word; the node runs off the heap
    ]
)

VALUES = st.one_of(
    st.sampled_from(POINTERS),
    st.sampled_from([PROC_MAGIC, VNODE_MAGIC, PROC_MAGIC ^ 1, (1 << 64) - 1, 1, 0]),
)

#: A next word sent back up its own chain: a cycle the step budget ends.
LOOPS = [
    (node + 8, chain[j])
    for chain in (PROCS, *VNODES)
    for i, node in enumerate(chain)
    for j in range(i + 1)
]

CORRUPTION = st.one_of(
    st.tuples(st.just("set"), st.sampled_from(WORDS), VALUES),
    st.tuples(st.just("flip"), st.sampled_from(WORDS), st.integers(0, 63)),
    st.sampled_from(LOOPS).map(lambda loop: ("set", *loop)),
)

PROTECTION = st.fixed_dictionaries(
    {
        "abox": st.booleans(),
        "readonly_vpns": st.sets(st.integers(HEAP_VPN, HEAP_VPN + HEAP_PAGES - 1), max_size=2),
        "readonly_pfns": st.sets(
            st.sampled_from([KSEG_ONLY_PFN, HEAP_VPN, HEAP_VPN + 1]), max_size=2
        ),
    }
)

CALL = st.one_of(
    st.tuples(st.just("sched_tick"), st.sampled_from([HEAD, HEAD, PAGE * 200, HEAP + PAGE - 4])),
    st.tuples(
        st.just("vnode_scan"),
        st.sampled_from([TABLE, TABLE, HEAP + PAGE - 20, HEAP + PAGE - 16]),
        st.integers(0, NBUCKETS),
    ),
)


def prepare_word(env, kind, word, arg) -> None:
    """Apply one :data:`CORRUPTION` to ``env``."""
    if kind == "set":
        poke(env, word, arg)
    else:
        env.memory.flip_bit(word + arg // 8, arg % 8)


def prepare(env, corruptions, protection) -> None:
    lay_out(env)
    for corruption in corruptions:
        prepare_word(env, *corruption)
    for vpn in protection["readonly_vpns"]:
        env.mmu.set_writable(vpn, False)
    for pfn in protection["readonly_pfns"]:
        env.mmu.set_kseg_writable(pfn, False)
    env.mmu.kseg_through_tlb = protection["abox"]
    env.machine.recorder.start()


def run(env, call, max_steps=MAX_STEPS):
    name, *args = call
    if not env.replays:
        env.bus.walk_plans.clear()  # the walk, on every call
    gens_before = list(env.memory._page_gens)
    try:
        result = env.interp.call(name, args, max_steps=max_steps)
        outcome = ("ok", result.value, result.steps)
    except (SystemCrash, CrashedMachineError) as exc:
        outcome = (type(exc).__name__, str(exc), getattr(exc, "address", None))
    env.outcome = outcome
    return SimpleNamespace(
        outcome=outcome,
        stats=astuple(env.bus.stats),
        mmu=(env.mmu.stat_protection_traps, env.mmu.stat_pte_toggles, env.mmu.generation),
        image={pfn: bytes(page) for pfn, page in env.memory._pages.items()},
        moved={pfn for pfn, gen in enumerate(env.memory._page_gens) if gen != gens_before[pfn]},
        traps=[
            (e.kind, e.op, dict(e.payload))
            for e in env.machine.recorder.events()
            if e.kind == "trap"
        ],
    )


def data_loads(stats) -> int:
    """Loads that were not 4-byte instruction fetches."""
    loads, _stores, bytes_loaded = stats[0], stats[1], stats[2]
    return (bytes_loaded - 4 * loads) // 4


def tick(envs, call, max_steps=MAX_STEPS) -> bool:
    """Run ``call`` on the :func:`build_envs` and compare them; False once
    the machine would be down."""
    counted, words, asm_fast, asm_ref = envs
    asm, ref = run(asm_fast, call, max_steps), run(asm_ref, call, max_steps)
    assert (asm.outcome, asm.stats[:5], asm.image, asm.traps) == (
        ref.outcome, ref.stats[:5], ref.image, ref.traps,
    )
    a, b = run(counted, call, max_steps), run(words, call, max_steps)
    assert vars(a) == vars(b)
    # ... and both are the assembly: its step count and its data traffic.
    assert (a.outcome, a.image, a.moved, a.traps) == (
        asm.outcome, asm.image, asm.moved, asm.traps,
    )
    assert (data_loads(a.stats), a.stats[1], a.stats[3]) == (
        data_loads(asm.stats), asm.stats[1], asm.stats[3],
    )
    return a.outcome[0] == "ok"


def build_envs():
    """The native as the kernel runs it, the native walking on every call,
    and the assembly interpreted on the fast and the reference engine."""
    return (
        build_env(), build_env(replays=False),
        build_env(interpret=True), build_env(fast_path=False, interpret=True),
    )


@given(
    corruptions=st.lists(CORRUPTION, max_size=4),
    protection=PROTECTION,
    calls=st.lists(CALL, min_size=1, max_size=3),
)
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_counted_run_is_the_word_walk(corruptions, protection, calls):
    envs = build_envs()
    for env in envs:
        prepare(env, corruptions, protection)
    for call in calls:
        if not tick(envs, call):
            return


# -- replays: a plan recorded on one tick meets a changed structure on the next

#: The clean calls, which replay whenever their structure lies in one page.
REPEAT = st.sampled_from([("sched_tick", HEAD), ("vnode_scan", TABLE, NBUCKETS)])

#: A free frame a heap page's bytes are copied to before it is remapped there.
CLONE_PFN = 70

#: What can land between two ticks: a corrupted word, a protection flip,
#: a remap of a heap page (to another frame, back home, or away, or to a
#: copy of its own frame).
BETWEEN = st.one_of(
    CORRUPTION,
    st.tuples(
        st.just("writable"), st.integers(HEAP_VPN, HEAP_VPN + 1), st.booleans()
    ),
    st.tuples(
        st.just("kseg_writable"), st.sampled_from([HEAP_VPN, KSEG_ONLY_PFN]), st.booleans()
    ),
    st.tuples(st.just("abox"), st.booleans(), st.just(None)),
    st.tuples(
        st.just("map"), st.integers(HEAP_VPN, HEAP_VPN + 1),
        st.sampled_from([HEAP_VPN, HEAP_VPN + 1, HEAP_VPN + 2, KSEG_ONLY_PFN]),
    ),
    st.tuples(st.just("unmap"), st.integers(HEAP_VPN, HEAP_VPN + 1), st.just(None)),
    st.tuples(st.just("clone"), st.integers(HEAP_VPN, HEAP_VPN + 1), st.just(None)),
)


def one_page(env) -> None:
    """Cut every chain at the heap's first page: both structures then lie
    in one page, which is what a plan needs."""
    poke(env, PROCS[-2] + 8, 0)
    for chain in VNODES:
        poke(env, chain[0] + 8, 0)


def land(env, kind, target, arg) -> None:
    """Apply one :data:`BETWEEN` step to ``env``."""
    if kind in ("set", "flip"):
        prepare_word(env, kind, target, arg)
    elif kind == "writable" and target in env.mmu._page_table:
        env.mmu.set_writable(target, arg)
    elif kind == "kseg_writable":
        env.mmu.set_kseg_writable(target, arg)
    elif kind == "abox":
        env.mmu.kseg_through_tlb = target
    elif kind == "map":
        env.mmu.map(target, arg)
    elif kind == "unmap":
        env.mmu.unmap(target)
    elif kind == "clone" and target in env.mmu._page_table:
        pfn = env.mmu._page_table[target].pfn
        env.memory.write(CLONE_PFN * PAGE, env.memory.read(pfn * PAGE, PAGE))
        env.mmu.map(target, CLONE_PFN)


@given(
    cut=st.booleans(),
    corruptions=st.lists(CORRUPTION, max_size=2),
    ticks=st.lists(
        st.tuples(st.one_of(REPEAT, REPEAT, REPEAT, CALL), st.lists(BETWEEN, max_size=2)),
        min_size=4,
        max_size=8,
    ),
)
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_replay_is_the_word_walk_across_ticks(cut, corruptions, ticks):
    envs = build_envs()
    no_protection = {"abox": False, "readonly_vpns": set(), "readonly_pfns": set()}
    for env in envs:
        prepare(env, [], no_protection)
        if cut:
            one_page(env)
        for corruption in corruptions:
            prepare_word(env, *corruption)
    for call, between in ticks:
        if not tick(envs, call):
            return
        for step in between:
            for env in envs:
                land(env, *step)


@pytest.mark.parametrize("call", [("sched_tick", HEAD), ("vnode_scan", TABLE, NBUCKETS)])
@pytest.mark.parametrize("panics", [False, True], ids=["clean", "panics"])
def test_every_budget_stops_the_walk_where_the_assembly_stops(call, panics):
    """From 67, past either clean walk's steps (32, 66), down to 0: the
    native completes, panics or stops at the watchdog where the assembly
    does, after the same accesses — and replays only within its budget."""
    envs = build_envs()
    for env in envs:
        lay_out(env)
        one_page(env)
        if panics:
            poke(env, PROCS[2] if call[0] == "sched_tick" else VNODES[-1][0], 0)
    outcomes = set()
    for budget in range(67, -1, -1):
        tick(envs, call, budget)
        outcomes.add(envs[0].outcome[0])
    assert outcomes == {"KernelPanic" if panics else "ok", "WatchdogTimeout"}


def count_walks(monkeypatch, env) -> list:
    """Record the slot of every walk on ``env`` (a replay is not one)."""
    walks = []
    walk = routines._walk_chains

    def counted(bus, slot, *args):
        if bus is env.bus:
            walks.append(slot)
        return walk(bus, slot, *args)

    monkeypatch.setattr(routines, "_walk_chains", counted)
    return walks


def test_unchanged_structures_replay(monkeypatch):
    envs = build_envs()
    walks = count_walks(monkeypatch, envs[0])
    for env in envs:
        lay_out(env)
        one_page(env)
    for call in (("sched_tick", HEAD), ("vnode_scan", TABLE, NBUCKETS)):
        for _ in range(4):
            assert tick(envs, call)
    # One walk each records the plan; the next three ticks replay it.
    assert walks == [HEAD, TABLE]
    assert peek(envs[0], PROCS[0] + 16) == 4
    # The run queue's plan spans the table's head words, which the vnode
    # walks left alone; theirs spans the procs' counters, which a run queue
    # tick moves: the vnode table is walked again.
    for call in (("sched_tick", HEAD), ("vnode_scan", TABLE, NBUCKETS)):
        assert tick(envs, call)
    assert walks == [HEAD, TABLE, TABLE]


def test_a_replay_that_traps_counts_what_the_walk_issued(monkeypatch):
    envs = build_envs()
    walks = count_walks(monkeypatch, envs[0])
    for env in envs:
        lay_out(env)
        one_page(env)
        poke(env, TABLE, 0)  # bucket 0 empty: the first store follows two head words
    assert tick(envs, ("vnode_scan", TABLE, NBUCKETS))
    for env in envs:
        env.mmu.set_writable(HEAP_VPN, False)
    assert not tick(envs, ("vnode_scan", TABLE, NBUCKETS))
    assert walks == [TABLE]
    assert envs[0].bus.stats.loads == (NBUCKETS + 3 * 3) + (2 + 2)


def test_counter_about_to_wrap_takes_the_walk(monkeypatch):
    envs = build_envs()
    walks = count_walks(monkeypatch, envs[0])
    for env in envs:
        lay_out(env)
        one_page(env)
        poke(env, PROCS[1] + 16, (1 << 64) - 3)
    for _ in range(4):
        assert tick(envs, ("sched_tick", HEAD))
    # Tick 2 replays the counter to one short of 2**64; tick 3 may not
    # replay past it, walks, and wraps it; tick 4 replays again.
    assert walks == [HEAD, HEAD]
    assert peek(envs[0], PROCS[1] + 16) == 1


def test_no_plan_survives_a_reboot():
    system = build_system(SystemSpec("rio_prot"))
    vfs = system.vfs
    fd = vfs.open("/f", create=True)
    vfs.write(fd, b"x" * 100)
    vfs.close(fd)
    bus = system.machine.bus
    plans = dict(bus.walk_plans)
    background = system.kernel.background
    assert set(plans) == {background.runqueue_head, background.vnode_table}
    system.crash("test")
    system.reboot()
    assert system.machine.bus is not bus
    assert not set(map(id, system.machine.bus.walk_plans.values())) & set(map(id, plans.values()))


def _counting(calls, key, fn):
    def counted(*args):
        calls[key] += 1
        return fn(*args)

    return counted


@pytest.mark.parametrize("name", ["rio_prot", "rio_noprot", "ufs"])
def test_a_boot_walks_each_structure_once(monkeypatch, name):
    """Every background tick calls both walkers; on an unchanged structure
    all but the boot's first call of each replay its plan."""
    calls = {"walk": 0, "run": 0}
    for key, attr in (("walk", "_walk_chains"), ("run", "_run_chains")):
        monkeypatch.setattr(routines, attr, _counting(calls, key, getattr(routines, attr)))
    system = build_system(SystemSpec(name))
    kernels = []

    def files(first, count):
        for i in range(first, first + count):
            fd = system.vfs.open(f"/f{i}", create=True)
            system.vfs.write(fd, b"x" * 100)
            system.vfs.close(fd)
        kernels.append(system.kernel)

    files(0, 100)
    assert calls["walk"] == 2
    system.crash("test")
    system.reboot()
    files(100, 50)
    assert calls["walk"] == 4
    assert calls["run"] == 2 * sum(k.background.ticks_run for k in kernels)
    assert kernels[0] is not kernels[1]


@contextmanager
def deadline(seconds: int = 3):
    """Fail, rather than hang, a walk that never returns."""

    def expire(signum, frame):
        raise TimeoutError(f"the walk had not returned after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def cyclic_kernel(walker: str, interpret: bool):
    """A booted ``rio_prot`` kernel whose run queue's second proc, or the
    first vnode chain's second vnode, points back to the node before it."""
    system = build_system(SystemSpec("rio_prot"))
    kernel = system.kernel
    bus, background = kernel.bus, kernel.background
    head = background.runqueue_head if walker == "sched_tick" else background.vnode_table
    first = bus.load_u64(head)
    bus.store_u64(bus.load_u64(first + 8) + 8, first)
    kernel.interp.force_interpret = interpret
    return system, head


@pytest.mark.parametrize("walker", ["sched_tick", "vnode_scan"])
def test_a_cyclic_chain_ends_in_the_watchdog(walker):
    seen = []
    for interpret in (False, True):
        system, head = cyclic_kernel(walker, interpret)
        klib, bus = system.kernel.klib, system.machine.bus
        call = klib.sched_tick if walker == "sched_tick" else klib.vnode_scan
        args = (head,) if walker == "sched_tick" else (head, 8)
        before = astuple(bus.stats)
        with deadline(), pytest.raises(WatchdogTimeout) as caught:
            call(*args)
        stats = [after - b for after, b in zip(astuple(bus.stats), before)]
        seen.append((
            str(caught.value), data_loads(stats), stats[1], stats[3],
            dict(system.machine.memory._pages),
        ))
    native, asm = seen
    assert native[0] == f"watchdog: {walker} exceeded 100000 steps"
    assert native == asm


# -- explicit cases -----------------------------------------------------------


def twin(call, corruptions=(), protection=None):
    protection = protection or {"abox": False, "readonly_vpns": set(), "readonly_pfns": set()}
    counted, words = build_env(), build_env(replays=False)
    out = []
    for env in (counted, words):
        prepare(env, list(corruptions), protection)
        out.append(run(env, call))
    a, b = out
    assert vars(a) == vars(b)
    return a, counted


def test_clean_walk_counts_every_word():
    a, env = twin(("sched_tick", HEAD))
    nodes = len(PROCS)
    # Head load and ``lda``, 9 per node, the closing loop test, ``ret``, ``halt``.
    assert a.outcome == ("ok", 0, 2 + 9 * nodes + 3)
    assert a.stats[:4] == (1 + 3 * nodes, nodes, 8 * (1 + 3 * nodes), 8 * nodes)
    assert a.moved == {HEAP_VPN, HEAP_VPN + 1}
    assert [peek(env, n + 16) for n in PROCS] == [i + 1 for i in range(nodes)]


def test_store_into_a_protected_frame_with_a_matching_magic():
    target = KSEG_BASE + KSEG_ONLY_PFN * PAGE
    a, env = twin(
        ("sched_tick", HEAD),
        [("set", PROCS[0] + 8, target)],
        {"abox": True, "readonly_vpns": set(), "readonly_pfns": {KSEG_ONLY_PFN}},
    )
    assert a.outcome == (
        "ProtectionTrap", f"store to protected KSEG frame {KSEG_ONLY_PFN}", target + 16,
    )
    # head, node 0 (3 loads, 1 store), then magic + counter loads and the
    # store that trapped — counted, not performed.
    assert a.stats[:2] == (1 + 3 + 2, 2)
    assert peek(env, KSEG_ONLY_PFN * PAGE + 16) == 5
    assert a.traps == [("trap", "kseg", {"pfn": KSEG_ONLY_PFN, "address": target + 16})]


def test_counter_store_aliasing_the_head_word_is_read_back_live():
    # PROCS[0].next -> HEAD - 16 makes HEAD that node's counter word: the
    # walk bumps the head pointer itself, then follows next (HEAD - 8).
    a, env = twin(
        ("sched_tick", HEAD),
        [("set", PROCS[0] + 8, HEAD - 16), ("set", HEAD - 16, PROC_MAGIC), ("set", HEAD - 8, 0)],
    )
    assert a.outcome[:2] == ("ok", 0)
    assert peek(env, HEAD) == PROCS[0] + 1


def test_straddling_node_takes_the_word_route_and_walks_on():
    a, env = twin(
        ("sched_tick", HEAD),
        [("set", PROCS[0] + 8, STRADDLERS[0]), ("set", STRADDLERS[0] + 8, PROCS[1])],
    )
    assert not a.traps
    assert a.outcome == ("ok", 0, 2 + 9 * (len(PROCS) + 1) + 3)
    assert peek(env, STRADDLERS[0] + 16) == 2
    assert a.stats[0] == 1 + 3 * (len(PROCS) + 1)


def test_never_written_frame_reads_as_zero_and_panics():
    a, _ = twin(("vnode_scan", TABLE, 1), [("set", TABLE, KSEG_BASE + (KSEG_ONLY_PFN + 1) * PAGE)])
    assert a.outcome[0] == "KernelPanic" and a.stats[:2] == (2, 0)


def test_crashed_machine_raises_before_counting():
    env = build_env()
    lay_out(env)
    env.machine.crash("down")
    for call in (("sched_tick", [HEAD]), ("vnode_scan", [TABLE, NBUCKETS])):
        with pytest.raises(CrashedMachineError, match="memory access on crashed machine"):
            env.interp.call(*call)
    assert astuple(env.bus.stats) == (0, 0, 0, 0, 0, 0)


@pytest.mark.parametrize("mode", ["store_checker", "reference_bus"])
def test_unflat_bus_takes_the_word_route(mode):
    env = build_env(fast_path=mode != "reference_bus")
    oracle = build_env(fast_path=mode != "reference_bus", replays=False)
    checked = []
    for e in (env, oracle):
        lay_out(e)
        if mode == "store_checker":
            e.bus.store_checker = lambda vaddr, n, ctx: checked.append((vaddr, n))
    assert not env.bus.flat
    for e in (env, oracle):
        e.interp.call("sched_tick", [HEAD])
        e.interp.call("vnode_scan", [TABLE, NBUCKETS])
    assert astuple(env.bus.stats) == astuple(oracle.bus.stats)
    assert env.memory._pages == oracle.memory._pages
    nodes = len(PROCS) + sum(len(chain) for chain in VNODES)
    if mode == "store_checker":
        assert env.bus.stats.checked_stores == nodes
        assert checked[: len(PROCS)] == [(n + 16, 8) for n in PROCS]
    else:
        assert env.bus.stats.tlb_misses == 0
