"""Differential proof that the counted word runs of ``isa/routines.py``
(the native ``sched_tick`` / ``vnode_scan`` walkers on the bus's page
port) are the one-bus-call-per-word walk they replaced.

Hypothesis builds a run queue and a vnode table on the heap, corrupts
them — bit flips in magic / next / counter words, pointers sent to
unmapped addresses, past the end of KSEG, into protected frames that
carry a matching magic, into kernel text, onto nodes that straddle a page
edge, onto head words and other nodes' counters — and runs each walker on
twin machines: one on the counted run, one on the word-by-word bodies
kept below as the oracle.  Everything observable must agree: result or
exception (type, message, ``address``), every ``BusStats`` field, the
MMU's counters, the memory image, which frames' write generations moved,
and the recorder's trap events.  A third machine interprets the assembly
the natives stand for, which pins the same data traffic from the other
side (and is the only side that can cut a cycle, by ``max_steps``).
"""

from __future__ import annotations

import struct
from dataclasses import astuple
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import CrashedMachineError, KernelPanic, SystemCrash, WatchdogTimeout
from repro.hw import Machine, MachineConfig
from repro.hw.mmu import KSEG_BASE
from repro.isa import Interpreter
from repro.isa.interpreter import PANIC_MESSAGES
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

# -- the oracle: the walkers as they were, one bus call per word -------------


def _oracle_sched_tick(bus, args, ctx):
    load_u64, store_u64 = bus.load_u64, bus.store_u64
    node = load_u64(args[0], ctx)
    while node:
        if load_u64(node, ctx) != PROC_MAGIC:
            raise KernelPanic(PANIC_MESSAGES[31], code=31)
        store_u64(node + 16, load_u64(node + 16, ctx) + 1, ctx)
        node = load_u64(node + 8, ctx)
    return 0


def _oracle_vnode_scan(bus, args, ctx):
    load_u64, store_u64 = bus.load_u64, bus.store_u64
    table, nbuckets = args[0], args[1]
    for bucket in range(nbuckets):
        node = load_u64(table + 8 * bucket, ctx)
        while node:
            if load_u64(node, ctx) != VNODE_MAGIC:
                raise KernelPanic(PANIC_MESSAGES[33], code=33)
            store_u64(node + 16, load_u64(node + 16, ctx) + 1, ctx)
            node = load_u64(node + 8, ctx)
    return 0


ORACLES = {"sched_tick": _oracle_sched_tick, "vnode_scan": _oracle_vnode_scan}

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


def build_env(fast_path: bool = True, oracle: bool = False, interpret: bool = False):
    machine = Machine(
        MachineConfig(memory_bytes=MEMORY_PAGES * PAGE, boot_time_ns=0, fast_path=fast_path)
    )
    text = build_kernel_text()
    text.load(machine.memory, base_paddr=TEXT, base_vaddr=TEXT)
    for i in range(-(-text.size_bytes // PAGE)):
        machine.mmu.map(1 + i, 1 + i, writable=False)
    for i in range(HEAP_PAGES):
        machine.mmu.map(HEAP_VPN + i, HEAP_VPN + i)
    if oracle:
        for name, native in ORACLES.items():
            text.routines[name].native = native
    interp = Interpreter(machine.bus, text)
    interp.force_interpret = interpret
    return SimpleNamespace(
        machine=machine, bus=machine.bus, mmu=machine.mmu, memory=machine.memory,
        text=text, interp=interp,
    )


def poke(env, vaddr: int, value: int) -> None:
    """Hardware-level write of one heap word (identity-mapped heap)."""
    env.memory.write_u64(vaddr, value)


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

CORRUPTION = st.one_of(
    st.tuples(st.just("set"), st.sampled_from(WORDS), VALUES),
    st.tuples(st.just("flip"), st.sampled_from(WORDS), st.integers(0, 63)),
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


def prepare(env, corruptions, protection) -> None:
    lay_out(env)
    for kind, word, arg in corruptions:
        if kind == "set":
            poke(env, word, arg)
        else:
            env.memory.flip_bit(word + arg // 8, arg % 8)
    for vpn in protection["readonly_vpns"]:
        env.mmu.set_writable(vpn, False)
    for pfn in protection["readonly_pfns"]:
        env.mmu.set_kseg_writable(pfn, False)
    env.mmu.kseg_through_tlb = protection["abox"]
    env.machine.recorder.start()


def run(env, call):
    name, *args = call
    gens_before = list(env.memory._page_gens)
    try:
        result = env.interp.call(name, args, max_steps=MAX_STEPS)
        outcome = ("ok", result.value)
    except (SystemCrash, CrashedMachineError) as exc:
        outcome = (type(exc).__name__, str(exc), getattr(exc, "address", None))
    return SimpleNamespace(
        outcome=outcome,
        stats=astuple(env.bus.stats)[:-1],  # every field but the (empty) trace
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


@given(
    corruptions=st.lists(CORRUPTION, max_size=4),
    protection=PROTECTION,
    calls=st.lists(CALL, min_size=1, max_size=3),
)
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_counted_run_is_the_word_walk(corruptions, protection, calls):
    counted, words = build_env(), build_env(oracle=True)
    asm_fast, asm_ref = build_env(interpret=True), build_env(fast_path=False, interpret=True)
    envs = (counted, words, asm_fast, asm_ref)
    for env in envs:
        prepare(env, corruptions, protection)
    for call in calls:
        asm, ref = run(asm_fast, call), run(asm_ref, call)
        assert (asm.outcome, asm.stats[:5], asm.image, asm.traps) == (
            ref.outcome, ref.stats[:5], ref.image, ref.traps,
        )
        if asm.outcome[0] == WatchdogTimeout.__name__:
            return  # a cycle: only the interpreter has a step budget to cut it
        a, b = run(counted, call), run(words, call)
        assert vars(a) == vars(b)
        # ... and both are the assembly's data traffic.
        assert (a.outcome, a.image, a.moved, a.traps) == (
            asm.outcome, asm.image, asm.moved, asm.traps,
        )
        assert (data_loads(a.stats), a.stats[1], a.stats[3]) == (
            data_loads(asm.stats), asm.stats[1], asm.stats[3],
        )
        if a.outcome[0] != "ok":
            return  # the machine would be down


# -- explicit cases -----------------------------------------------------------


def twin(call, corruptions=(), protection=None):
    protection = protection or {"abox": False, "readonly_vpns": set(), "readonly_pfns": set()}
    counted, words = build_env(), build_env(oracle=True)
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
    assert a.outcome == ("ok", 0)
    assert a.stats[:4] == (1 + 3 * nodes, nodes, 8 * (1 + 3 * nodes), 8 * nodes)
    assert a.moved == {HEAP_VPN, HEAP_VPN + 1}
    assert [env.memory.read_u64(n + 16) for n in PROCS] == [i + 1 for i in range(nodes)]


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
    assert env.memory.read_u64(KSEG_ONLY_PFN * PAGE + 16) == 5
    assert a.traps == [("trap", "kseg", {"pfn": KSEG_ONLY_PFN, "address": target + 16})]


def test_counter_store_aliasing_the_head_word_is_read_back_live():
    # PROCS[0].next -> HEAD - 16 makes HEAD that node's counter word: the
    # walk bumps the head pointer itself, then follows next (HEAD - 8).
    a, env = twin(
        ("sched_tick", HEAD),
        [("set", PROCS[0] + 8, HEAD - 16), ("set", HEAD - 16, PROC_MAGIC), ("set", HEAD - 8, 0)],
    )
    assert a.outcome == ("ok", 0)
    assert env.memory.read_u64(HEAD) == PROCS[0] + 1


def test_straddling_node_takes_the_word_route_and_walks_on():
    a, env = twin(
        ("sched_tick", HEAD),
        [("set", PROCS[0] + 8, STRADDLERS[0]), ("set", STRADDLERS[0] + 8, PROCS[1])],
    )
    assert not a.traps
    assert a.outcome == ("ok", 0)
    assert env.memory.read_u64(STRADDLERS[0] + 16) == 2
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
    assert astuple(env.bus.stats)[:-1] == (0, 0, 0, 0, 0, 0)


@pytest.mark.parametrize("mode", ["tracing", "store_checker", "reference_bus"])
def test_unflat_bus_takes_the_word_route(mode):
    env = build_env(fast_path=mode != "reference_bus")
    oracle = build_env(fast_path=mode != "reference_bus", oracle=True)
    checked = []
    for e in (env, oracle):
        lay_out(e)
        if mode == "tracing":
            e.bus.enable_tracing()
        elif mode == "store_checker":
            e.bus.store_checker = lambda vaddr, n, ctx: checked.append((vaddr, n))
    assert not env.bus.flat
    for e in (env, oracle):
        e.interp.call("sched_tick", [HEAD])
        e.interp.call("vnode_scan", [TABLE, NBUCKETS])
    assert astuple(env.bus.stats)[:-1] == astuple(oracle.bus.stats)[:-1]
    assert list(env.bus.stats.trace) == list(oracle.bus.stats.trace)
    assert env.memory._pages == oracle.memory._pages
    nodes = len(PROCS) + sum(len(chain) for chain in VNODES)
    if mode == "tracing":
        # One record per word, in the assembly's order.
        assert list(env.bus.stats.trace)[:5] == [
            ("load", HEAD, 8, "kernel"),
            ("load", PROCS[0], 8, "kernel"),
            ("load", PROCS[0] + 16, 8, "kernel"),
            ("store", PROCS[0] + 16, 8, "kernel"),
            ("load", PROCS[0] + 8, 8, "kernel"),
        ]
        assert len(env.bus.stats.trace) == 1 + NBUCKETS + 4 * nodes
    elif mode == "store_checker":
        assert env.bus.stats.checked_stores == nodes
        assert checked[: len(PROCS)] == [(n + 16, 8) for n in PROCS]
    else:
        assert env.bus.stats.tlb_misses == 0
