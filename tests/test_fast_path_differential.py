"""Differential proof that the fast engine is bit-identical to the
reference engine.

Two machines are built identically — one with ``fast_path=True``, one with
``False`` — the same randomly-chosen corruption is applied to both texts,
the same call is made on both, and *everything observable* is compared:
the result or the exception (type and message), every ``BusStats``
counter, the MMU's protection statistics, and the checksums of every
memory page.  Hypothesis drives the corruption so the comparison covers
trap paths (illegal opcodes, wild stores, protection traps, watchdogs),
not just clean runs.

The final test closes the loop at the top of the stack: a miniature
Table 1 campaign must produce the same digest with the engine on and off.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import SystemCrash
from repro.faults.types import FaultType
from repro.hw import Machine, MachineConfig
from repro.isa import Interpreter
from repro.isa.routines import build_kernel_text
from repro.reliability.report import run_table1_campaign, table1_digest


def build_env(fast_path: bool) -> SimpleNamespace:
    machine = Machine(
        MachineConfig(memory_bytes=2 * 1024 * 1024, boot_time_ns=0, fast_path=fast_path)
    )
    text = build_kernel_text()
    page = machine.memory.page_size
    text_pages = -(-text.size_bytes // page)
    text.load(machine.memory, base_paddr=1 * page, base_vaddr=1 * page)
    for i in range(text_pages):
        machine.mmu.map(1 + i, 1 + i, writable=False)
    for i in range(8):
        machine.mmu.map(32 + i, 32 + i)
    for i in range(2):
        machine.mmu.map(48 + i, 48 + i)
    interp = Interpreter(machine.bus, text)
    interp.force_interpret = True
    return SimpleNamespace(
        machine=machine,
        bus=machine.bus,
        mmu=machine.mmu,
        memory=machine.memory,
        text=text,
        interp=interp,
        page=page,
        heap=32 * page,
        stack_top=50 * page - 64,
    )


def observe(env, name, args):
    """Run a call and capture every observable output as plain data."""
    try:
        result = env.interp.call(name, args, sp=env.stack_top, max_steps=20_000)
        outcome = ("ok", result.value, result.steps, result.stores, result.interpreted)
    except SystemCrash as exc:
        outcome = ("crash", type(exc).__name__, str(exc))
    stats = env.bus.stats
    return (
        outcome,
        (stats.loads, stats.stores, stats.bytes_loaded, stats.bytes_stored,
         stats.checked_stores),
        (env.mmu.stat_protection_traps, env.mmu.stat_pte_toggles),
        tuple((p, env.memory.page_checksum(p)) for p in sorted(env.memory._pages)),
    )


ROUTINES = ("bzero", "bcopy", "checksum_block", "cache_copy")

# Addresses: mostly in-heap, sometimes wild (negative, unmapped, KSEG-ish)
# so trap paths get differential coverage too.
addr_strategy = st.one_of(
    st.integers(min_value=32 * 8192, max_value=40 * 8192 - 1),
    st.integers(min_value=0, max_value=(1 << 44)),
    st.integers(min_value=-(1 << 20), max_value=-1),
)


@given(
    routine=st.sampled_from(ROUTINES),
    args=st.lists(addr_strategy, min_size=2, max_size=4),
    corrupt=st.one_of(
        st.none(),
        st.tuples(st.integers(min_value=0, max_value=200),
                  st.integers(min_value=0, max_value=(1 << 32) - 1)),
    ),
)
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_engines_bit_identical(routine, args, corrupt):
    fast, ref = build_env(True), build_env(False)
    if corrupt is not None:
        rel, word = corrupt
        for env in (fast, ref):
            r = env.text.routines[routine]
            env.text.write_word(r.start_index + rel % r.num_words, word)
    assert observe(fast, routine, args) == observe(ref, routine, args)


@given(
    routine=st.sampled_from(("bzero", "bcopy")),
    length=st.integers(min_value=0, max_value=400),
    protect=st.booleans(),
)
@settings(max_examples=30, deadline=None)
def test_engines_identical_under_protection_toggles(routine, length, protect):
    """Same comparison with a protection toggle between two calls, so the
    soft-TLB invalidation path itself is differentially exercised."""
    fast, ref = build_env(True), build_env(False)
    observations = []
    for env in (fast, ref):
        args = [env.heap, env.heap + 0x2000, length][: 3 if routine == "bcopy" else 2]
        first = observe(env, routine, args)
        env.mmu.set_writable(33, not protect)
        env.mmu.kseg_through_tlb = protect
        second = observe(env, routine, args)
        observations.append((first, second))
    assert observations[0] == observations[1]


# -- the bus word paths, access by access -------------------------------------


def bus_script(env, script, prepare=None):
    """Apply ``script`` — ``(method, *args)`` tuples — to ``env.bus`` and
    capture each outcome plus every counter the two routes must agree on."""
    from repro.errors import CrashedMachineError

    if prepare is not None:
        prepare(env)
    outcomes = []
    for method, *args in script:
        try:
            outcomes.append(("ok", getattr(env.bus, method)(*args)))
        except (SystemCrash, CrashedMachineError) as exc:
            outcomes.append((type(exc).__name__, str(exc), getattr(exc, "address", None)))
    stats = env.bus.stats
    return (
        outcomes,
        (stats.loads, stats.stores, stats.bytes_loaded, stats.bytes_stored,
         stats.checked_stores, list(stats.trace)),
        (env.mmu.stat_protection_traps, env.mmu.stat_pte_toggles),
        {pfn: bytes(page) for pfn, page in env.memory._pages.items()},
        list(env.memory._page_gens),
    )


def both_routes(script, prepare=None):
    fast = bus_script(build_env(True), script, prepare)
    assert fast == bus_script(build_env(False), script, prepare)
    return fast


PAGE = 8192
HEAP = 32 * PAGE
KSEG = 1 << 42


def test_words_at_the_page_edge():
    """``page_size - 8`` is the last in-page word (fast route);
    ``page_size - 7`` crosses into the next page (reference route)."""
    outcomes, *_ = both_routes(
        [
            ("store_u64", HEAP + PAGE - 8, 0x1122334455667788),
            ("store_u64", HEAP + PAGE - 7, 0xA1A2A3A4A5A6A7A8),
            ("load_u64", HEAP + PAGE - 8),
            ("load_u64", HEAP + PAGE - 7),
            ("load_u64", HEAP + PAGE),
            ("load", HEAP + PAGE - 3, 6),
            ("store", HEAP + PAGE - 3, b"abcdef"),
            ("load_u8", HEAP + PAGE - 1),
            ("store_u8", HEAP + PAGE, 0x1FF),  # truncated to a byte
            ("load_u64", HEAP + 40 * PAGE),  # unmapped: machine check
        ]
    )
    assert outcomes[3] == ("ok", 0xA1A2A3A4A5A6A7A8)
    assert outcomes[-1][0] == "MachineCheck"


def test_loads_of_untouched_frames_allocate_nothing():
    _, _, _, pages, gens = both_routes(
        [
            ("load_u64", HEAP + 8),
            ("load_u8", HEAP + PAGE + 1),
            ("load", HEAP + 2 * PAGE, 64),
            ("load", HEAP + 3 * PAGE - 4, 8),  # crossing
            ("load_u64", KSEG + 9 * PAGE),
        ]
    )
    assert pages.keys() == set(range(1, 1 + len(pages)))  # kernel text only
    assert gens[32:36] == [0, 0, 0, 0]


def test_registry_frame_inside_and_outside_a_window():
    frames = [200, 201, 202]

    def protect(env):
        env.mmu.kseg_through_tlb = True
        env.mmu.set_kseg_writable_run(frames, False)

    def window(env, is_open):
        env.mmu.set_kseg_writable_run(frames, is_open)

    for route in (True, False):
        env = build_env(route)
        protect(env)
        with pytest.raises(SystemCrash):
            env.bus.store_u64(KSEG + 201 * PAGE + 16, 7)
        window(env, True)
        env.bus.store_u64(KSEG + 201 * PAGE + 16, 7)
        window(env, False)
        with pytest.raises(SystemCrash):
            env.bus.store(KSEG + 201 * PAGE + 16, b"x" * 8)
        assert env.bus.load_u64(KSEG + 201 * PAGE + 16) == 7

    script = [
        ("store_u64", KSEG + 201 * PAGE + 16, 7),  # protected: traps
        ("store_u8", KSEG + 202 * PAGE, 1),
        ("store", KSEG + 200 * PAGE + PAGE - 2, b"wxyz"),  # crossing two protected frames
        ("load_u64", KSEG + 201 * PAGE + 16),  # reads are allowed
        ("store_u64", KSEG + 199 * PAGE, 5),  # the unprotected neighbour
    ]
    outside = both_routes(script, protect)
    assert [o[0] for o in outside[0]] == [
        "ProtectionTrap", "ProtectionTrap", "ProtectionTrap", "ok", "ok",
    ]
    assert outside[0][0][2] == KSEG + 201 * PAGE + 16
    assert outside[2][0] == 3  # stat_protection_traps

    def protect_then_open(env):
        protect(env)
        window(env, True)

    inside = both_routes(script, protect_then_open)
    assert [o[0] for o in inside[0]] == ["ok"] * 5
    assert inside[2] == (0, 6)  # no traps; three frames toggled twice


def test_crashed_machine_raises_before_the_stats_bump():
    def crash(env):
        env.bus.store_u64(HEAP, 1)
        env.machine.crash("test")

    outcomes, stats, *_ = both_routes(
        [
            ("load_u64", HEAP),
            ("load_u8", HEAP),
            ("load", HEAP, 16),
            ("store_u64", HEAP, 2),
            ("store_u8", HEAP, 2),
            ("store", HEAP, b"zz"),
            ("load_u64", HEAP + PAGE - 7),
        ],
        crash,
    )
    assert {o[0] for o in outcomes} == {"CrashedMachineError"}
    assert stats[:4] == (0, 1, 0, 8)  # only the store made before the crash
    for route in (True, False):  # the flag is the machine's state, both ways round
        env = build_env(route)
        env.machine.crashed = True
        assert env.bus.crashed
        env.machine.reset()  # builds a new bus; the old one stays down
        assert not env.machine.crashed and not env.machine.bus.crashed
        assert env.bus is not env.machine.bus and env.bus.crashed


def test_store_checker_sees_every_store():
    from repro.errors import ProtectionTrap

    def install(env):
        seen = env.seen = []

        def checker(vaddr, length, ctx):
            seen.append((vaddr, length, ctx.procedure))
            if vaddr == HEAP + 64:
                raise ProtectionTrap("checker says no", address=vaddr)

        env.bus.store_checker = checker

    script = [
        ("store_u64", HEAP, 1),
        ("store_u8", HEAP + 9, 2),
        ("store", HEAP + 16, b"abc"),
        ("store_u64", HEAP + 64, 3),  # vetoed before the stats bump
        ("store_u64", HEAP + PAGE - 7, 4),
        ("load_u64", HEAP),
    ]
    outcomes, stats, *_ = both_routes(script, install)
    assert outcomes[3][0] == "ProtectionTrap"
    assert stats[1] == 4 and stats[4] == 5  # stores, checked_stores
    fast = build_env(True)
    install(fast)
    bus_script(fast, script)
    assert [entry[:2] for entry in fast.seen] == [
        (HEAP, 8), (HEAP + 9, 1), (HEAP + 16, 3), (HEAP + 64, 8), (HEAP + PAGE - 7, 8),
    ]


def test_tracing_records_the_reference_sequence():
    script = [
        ("store_u64", HEAP, 1),
        ("load_u64", HEAP),
        ("load_u8", HEAP + 1),
        ("store_u8", HEAP + 2, 3),
        ("load", HEAP + PAGE - 2, 4),
        ("store_u64", HEAP + 60 * PAGE, 1),  # traps, still traced
    ]
    _, stats, *_ = both_routes(script, lambda env: env.bus.enable_tracing())
    assert [entry[:3] for entry in stats[5]] == [
        ("store", HEAP, 8),
        ("load", HEAP, 8),
        ("load", HEAP + 1, 1),
        ("store", HEAP + 2, 1),
        ("load", HEAP + PAGE - 2, 4),
        ("store", HEAP + 60 * PAGE, 8),
    ]


@given(
    script=st.lists(
        st.tuples(
            st.sampled_from(("load_u64", "load_u8", "store_u64", "store_u8")),
            st.one_of(
                st.integers(HEAP - 16, HEAP + 2 * PAGE + 16),
                st.integers(KSEG + 199 * PAGE - 16, KSEG + 201 * PAGE + 16),
                st.sampled_from((-8, 5 * PAGE, KSEG + 256 * PAGE)),
            ),
            st.integers(0, (1 << 64) - 1),
            st.booleans(),
        ),
        max_size=30,
    )
)
@settings(max_examples=60, deadline=None)
def test_random_word_traffic_with_window_toggles(script):
    """Random word/byte traffic over mapped, KSEG, protected and illegal
    addresses, with the KSEG run toggled between accesses (so the soft
    TLB is invalidated mid-stream)."""

    def prepare(env):
        env.mmu.kseg_through_tlb = True
        env.mmu.set_kseg_writable_run([200, 201], False)

    def play(env):
        outcomes = []
        for method, addr, value, toggle in script:
            if toggle:
                env.mmu.set_kseg_writable_run(
                    [200, 201], not env.mmu.kseg_writable(200)
                )
            args = (addr, value) if method.startswith("store") else (addr,)
            outcomes.append(bus_script(env, [(method, *args)])[0])
        return outcomes, bus_script(env, [])

    fast, ref = build_env(True), build_env(False)
    prepare(fast), prepare(ref)
    assert play(fast) == play(ref)


def test_obs_streams_identical_across_engines(monkeypatch):
    """Tentpole acceptance: a traced corrupting crash trial produces
    byte-identical flight-recorder streams — and therefore identical
    digests and forensic reports — under both execution engines."""
    from repro.obs import build_forensic_report, format_forensic_report
    from repro.reliability.campaign import (
        CrashTestConfig,
        run_baseline_trace,
        run_crash_test,
    )

    outputs = {}
    for flag in ("1", "0"):
        monkeypatch.setenv("RIO_FAST_PATH", flag)
        config = CrashTestConfig(
            system="rio_noprot",
            fault_type=FaultType.POINTER,
            seed=12,
            trace_events=True,
        )
        result = run_crash_test(config)
        assert result.crashed and result.corrupted
        assert result.trace_events and result.event_digest
        baseline = run_baseline_trace(result.config, result.ops_run + 1)
        report = build_forensic_report(
            result.to_json_dict(), result.trace_events, baseline
        )
        assert report.divergence_basis == "baseline-diff"
        assert report.first_divergent_store is not None
        assert report.crash is not None
        outputs[flag] = (
            result.event_digest,
            result.trace_events,
            format_forensic_report(report),
        )
    assert outputs["1"][0] == outputs["0"][0]
    assert outputs["1"][1] == outputs["0"][1]  # event streams, byte for byte
    assert outputs["1"][2] == outputs["0"][2]  # rendered forensic reports


@given(seed=st.integers(min_value=0, max_value=2**16), ops=st.integers(0, 2))
@settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_explore_verdicts_identical_across_engines(seed, ops):
    """Crash-point exploration is engine-blind: for any seed, both
    engines enumerate byte-identical boundary lists and, crashing at a
    sample of those boundaries, produce byte-identical canonical
    verdicts and coverage reports."""
    import json

    from repro.explore import (
        ExploreConfig,
        ExploreReport,
        boundary_census,
        format_explore_report,
        run_boundary_trial,
        run_enumeration,
    )

    outputs = {}
    for fast in (True, False):
        config = ExploreConfig(workload="basic", ops=ops, seed=seed)
        # (not the monkeypatch fixture: hypothesis re-runs this body)
        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setenv("RIO_FAST_PATH", "1" if fast else "0")
            enumeration = run_enumeration(config)
            boundaries = enumeration.boundaries
            picks = sorted(
                {boundaries[0], boundaries[len(boundaries) // 2], boundaries[-1]},
                key=lambda b: b.index,
            )
            verdicts = [run_boundary_trial(config, b) for b in picks]
        report = ExploreReport(
            config=config,
            total_events=len(enumeration.events),
            enumeration_digest=enumeration.digest,
            census=boundary_census(picks),
            boundaries_total=len(picks),
            verdicts=verdicts,
            executed=len(picks),
        )
        outputs[fast] = (
            enumeration.digest,
            json.dumps(boundary_census(boundaries), sort_keys=True),
            json.dumps(
                [v.canonical_json_dict() for v in verdicts], sort_keys=True
            ),
            report.report_digest(),
            format_explore_report(report),
        )
    assert outputs[True] == outputs[False]


@pytest.mark.slow
def test_campaign_digest_identical(monkeypatch):
    """The acceptance check from the top of the stack: a (small) Table 1
    campaign digest is byte-identical with the fast path on and off."""
    digests = {}
    for flag in ("1", "0"):
        monkeypatch.setenv("RIO_FAST_PATH", flag)
        table = run_table1_campaign(
            crashes_per_cell=2,
            systems=("rio_prot",),
            fault_types=(FaultType.KERNEL_TEXT, FaultType.POINTER),
            base_seed=1000,
        )
        digests[flag] = table1_digest(table)
    assert digests["1"] == digests["0"]
