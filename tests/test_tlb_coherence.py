"""The soft TLB lives in the MMU and is invalidated per page.

Two properties keep that honest:

* **Coherence.**  Random interleavings of every MMU mutation with every
  bus access, on a fast bus and on a ``fast_path=False`` bus over twin
  MMUs, must agree step by step — result or trap, stats, MMU counters,
  memory.  A store entry that survives its page's re-protection is the
  bug this is here to catch, so after every step each cached entry is
  also checked against the tables it was derived from.
* **Locality.**  On a ``rio_prot`` system, write syscalls with their
  registry and page windows refill only what a window re-protected: no
  load entry is ever translated twice, and a store entry only once more
  per time its page lost write permission.  A regression to flush-all
  fails this at once.
"""

from __future__ import annotations

from collections import Counter

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import SystemCrash
from repro.hw import Machine, MachineConfig
from repro.hw.mmu import KSEG_BASE

PAGE = 8192
PAGES = 8
# Small pools: an interleaving only bites when it returns to a page.
VPNS = range(2)
PFNS = range(2, 4)

OFFSETS = st.sampled_from([0, 0, 8, 100, PAGE - 8, PAGE - 7, PAGE - 1])
ADDRESS = st.builds(
    lambda base, off: base + off,
    st.one_of(
        st.sampled_from([vpn * PAGE for vpn in VPNS]),
        st.sampled_from([KSEG_BASE + pfn * PAGE for pfn in PFNS]),
        st.just(KSEG_BASE + (PAGES - 1) * PAGE),  # its last words run off memory
    ),
    OFFSETS,
)
VPN, PFN, FLAG = st.sampled_from(VPNS), st.sampled_from(PFNS), st.booleans()

STEP = st.one_of(
    st.tuples(st.just("map"), VPN, PFN, FLAG),
    st.tuples(st.just("unmap"), VPN),
    st.tuples(st.just("set_writable"), VPN, FLAG),
    st.tuples(st.just("set_kseg_writable"), PFN, FLAG),
    st.tuples(st.just("set_kseg_writable_run"), st.lists(PFN, max_size=3), FLAG),
    st.tuples(st.just("window_run"), FLAG),
    st.tuples(st.just("abox"), FLAG),
    st.tuples(st.just("load"), ADDRESS, st.sampled_from([0, 1, 8, 24])),
    st.tuples(st.just("load_u64"), ADDRESS),
    st.tuples(st.just("load_u8"), ADDRESS),
    st.tuples(st.just("store"), ADDRESS, st.binary(min_size=0, max_size=24)),
    st.tuples(st.just("store_u64"), ADDRESS, st.integers(0, (1 << 64) - 1)),
    st.tuples(st.just("store_u8"), ADDRESS, st.integers(0, 255)),
)


#: One run toggled there and back, as a whole-registry window does: by
#: ``set_kseg_writable_run`` on the fast machine, frame by frame on the
#: reference machine.
WINDOW_RUN = tuple(PFNS)


def build(fast_path: bool, abox: bool = False) -> Machine:
    machine = Machine(
        MachineConfig(memory_bytes=PAGES * PAGE, boot_time_ns=0, fast_path=fast_path)
    )
    machine.mmu.map(0, 0)
    machine.mmu.kseg_through_tlb = abox
    return machine


def apply(machine: Machine, step):
    op, *args = step
    mmu, bus = machine.mmu, machine.bus
    try:
        if op == "abox":
            mmu.kseg_through_tlb = args[0]
            return "ok", None
        if op == "window_run":
            if bus.fast_path:
                mmu.set_kseg_writable_run(WINDOW_RUN, args[0])
            else:
                for pfn in WINDOW_RUN:
                    mmu.set_kseg_writable(pfn, args[0])
            return "ok", None
        target = bus if op.startswith(("load", "store")) else mmu
        return "ok", getattr(target, op)(*args)
    except SystemCrash as exc:
        return type(exc).__name__, str(exc), getattr(exc, "address", None)


def observe(machine: Machine):
    stats, mmu = machine.bus.stats, machine.mmu
    return (
        (stats.loads, stats.stores, stats.bytes_loaded, stats.bytes_stored),
        (mmu.stat_protection_traps, mmu.stat_pte_toggles, mmu.generation),
        {pfn: bytes(page) for pfn, page in machine.memory._pages.items()},
        mmu._kseg_writable,
    )


def assert_entries_current(machine: Machine) -> None:
    """Every cached translation is what the page tables say right now."""
    mmu = machine.mmu
    for write, table in ((False, mmu.tlb_loads), (True, mmu.tlb_stores)):
        for vbase, pfn in table.items():
            if vbase >= KSEG_BASE:
                assert pfn == (vbase - KSEG_BASE) // PAGE and pfn < PAGES
                if write and mmu.kseg_through_tlb:
                    assert mmu.kseg_writable(pfn), f"stale KSEG store entry for frame {pfn}"
            else:
                pte = mmu.pte_for(vbase // PAGE)
                assert pte is not None and pte.pfn == pfn, f"stale entry for {vbase:#x}"
                assert pte.writable or not write, f"stale store entry for {vbase:#x}"


@given(abox=st.booleans(), steps=st.lists(STEP, min_size=4, max_size=40))
@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_fast_bus_tracks_every_mmu_mutation(abox, steps):
    fast, ref = build(True, abox), build(False, abox)
    for step in steps:
        assert apply(fast, step) == apply(ref, step), step
        assert observe(fast) == observe(ref), step
        assert_entries_current(fast)
    assert not ref.mmu.tlb_loads and not ref.mmu.tlb_stores and not ref.bus.stats.tlb_misses


def test_reprotect_drops_only_that_pages_store_entry():
    machine = build(True, abox=True)
    mmu, bus = machine.mmu, machine.bus
    mmu.map(1, 1)
    for addr in (0, PAGE, KSEG_BASE + 2 * PAGE, KSEG_BASE + 3 * PAGE):
        bus.store_u64(addr, 1)
        bus.load_u64(addr)
    loads, stores = dict(mmu.tlb_loads), dict(mmu.tlb_stores)
    assert len(loads) == len(stores) == 4 and bus.stats.tlb_misses == 8
    # Granting write permission, and toggles that change nothing, drop nothing.
    mmu.set_writable(0, True)
    mmu.set_kseg_writable_run([2, 3], True)
    assert (mmu.tlb_loads, mmu.tlb_stores) == (loads, stores)
    mmu.set_writable(0, False)
    mmu.set_kseg_writable_run([3], False)
    del stores[0], stores[KSEG_BASE + 3 * PAGE]
    assert (mmu.tlb_loads, mmu.tlb_stores) == (loads, stores)
    mmu.unmap(1)
    del loads[PAGE], stores[PAGE]
    assert (mmu.tlb_loads, mmu.tlb_stores) == (loads, stores)
    mmu.kseg_through_tlb = False
    assert not mmu.tlb_loads and not mmu.tlb_stores
    assert bus.stats.tlb_misses == 8  # invalidation is not a miss; the next access is
    bus.load_u64(0)
    assert bus.stats.tlb_misses == 9


def test_rio_prot_write_syscalls_refill_only_reprotected_pages():
    from repro import SystemSpec, build_system
    from repro.perf.systems import spec_for_row

    system = build_system(spec_for_row("rio_prot", SystemSpec(fs_blocks=512)))
    bus, mmu, vfs = system.kernel.bus, system.kernel.mmu, system.vfs
    assert mmu.kseg_through_tlb  # the ABOX flip (flush-all) is behind us

    misses: list[tuple[int, bool]] = []
    miss_handler = bus._fast_page

    def logging_miss_handler(vaddr, off, write):
        misses.append((vaddr - off, write))
        return miss_handler(vaddr, off, write)

    bus._fast_page = logging_miss_handler
    before = bus.stats.tlb_misses
    windows = system.rio.protection.stat_windows
    system.machine.recorder.start()
    fd = vfs.open("/f", create=True)
    for i in range(40):
        vfs.pwrite(fd, bytes([i]) * 3000, i * 3000)
    vfs.close(fd)
    system.machine.recorder.stop()

    assert bus.stats.tlb_misses - before == len(misses)  # bumped there, nowhere else
    assert system.rio.protection.stat_windows - windows > 80  # windows in between
    load_misses = Counter(vbase for vbase, write in misses if not write)
    store_misses = Counter(vbase for vbase, write in misses if write)
    reprotected: Counter = Counter()
    for event in system.machine.recorder.events():
        if event.kind == "mmu" and not event.payload.get("writable", True):
            if event.op == "kseg-protect":
                reprotected[KSEG_BASE + event.payload["pfn"] * PAGE] += 1
            elif event.op == "pte-protect":
                reprotected[event.payload["vpn"] * PAGE] += 1
    # No load entry (heap, stack, text, cache, registry) is refilled, and
    # a store entry only after its own page was re-protected.
    assert max(load_misses.values()) == 1
    for vbase, count in store_misses.items():
        assert count <= 1 + reprotected[vbase], hex(vbase)
    assert len(misses) <= len(load_misses) + len(store_misses) + sum(reprotected.values())
    # ... which a flush per toggle would blow through.  A registry window
    # re-protects only the frame it stored to — every slot in use here lies
    # in the first — so no other registry frame is toggled at all.
    registry = {KSEG_BASE + pfn * PAGE for pfn in system.kernel.registry_frames}
    assert registry & reprotected.keys() == {min(registry)}
    updates = sum(1 for event in system.machine.recorder.events() if event.kind == "registry")
    assert reprotected[min(registry)] == updates
