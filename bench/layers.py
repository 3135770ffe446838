"""Per-layer numbers read from outside: the public counters of a built
``System`` (summed across warm reboots) and short calibrated probes of
the layers called too often to wrap per call (bus, MMU, ISA, PRNG,
checksum).
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Dict

from bench.hostclock import HostClock


class SystemCounters:
    """The public counters of one ``System`` as one flat dict.

    A warm reboot replaces the bus, the kernel (and with it both caches
    and ``klib``) and the Rio protection object, so their
    counters restart at zero.  The reboot hook folds the dead objects'
    final values in; the disks, the backing store and the clock survive
    reboots and are read directly.
    """

    def __init__(self, system) -> None:
        self.system = system
        self._folded: Counter = Counter()
        self._live = self._live_objects()
        self.reboots = 0
        self.fsck_fixes = 0
        self.checksum_mismatches = 0
        system.add_reboot_hook(self._on_reboot)

    def _live_objects(self):
        system = self.system
        protection = system.rio.protection if system.rio is not None else None
        return (system.machine.bus, system.kernel, protection)

    @staticmethod
    def _read_live(live) -> Dict[str, int]:
        bus, kernel, protection = live
        out = {
            "hw.bus_loads": bus.stats.loads,
            "hw.bus_stores": bus.stats.stores,
            "hw.bus_bytes": bus.stats.bytes_loaded + bus.stats.bytes_stored,
            "isa.instructions": kernel.klib.stat_instructions,
            "kernel.syscalls": kernel.stat_syscalls,
            "kernel.batched_syscalls": kernel.stat_batched_syscalls,
            "kernel.update_runs": kernel.stat_update_runs,
            "core.protection_windows": protection.stat_windows if protection else 0,
        }
        hits = misses = evictions = flushes = sweeps = 0
        for cache in (kernel.ubc, kernel.buffer_cache):
            if cache is None:
                continue
            hits += cache.stat_hits
            misses += cache.stat_misses
            evictions += cache.stat_evictions
            flushes += cache.stat_flushes
            sweeps += cache.stat_clean_sweeps
        out.update(
            {
                "fs.cache_hits": hits,
                "fs.cache_misses": misses,
                "fs.cache_evictions": evictions,
                "fs.cache_flushes": flushes,
                "fs.clean_sweeps": sweeps,
            }
        )
        return out

    def _on_reboot(self, system, report) -> None:
        self._folded.update(self._read_live(self._live))
        self._live = self._live_objects()
        self.reboots += 1
        if report.fsck is not None:
            self.fsck_fixes += report.fsck.fix_count
        if report.warm is not None:
            self.checksum_mismatches += len(report.warm.checksum_mismatches)

    def read(self) -> Dict[str, int]:
        """Running totals since the system was built."""
        out = Counter(self._folded)
        out.update(self._read_live(self._live))
        out["core.reboots"] = self.reboots
        out["core.checksum_mismatches"] = self.checksum_mismatches
        out["fs.fsck_fixes"] = self.fsck_fixes
        disk = self.system.disk
        if disk is not None:
            stats = disk.stats
            out["disk.reads"] = stats.reads
            out["disk.writes"] = stats.writes
            out["disk.sync_writes"] = stats.sync_writes
            out["disk.sectors_written"] = stats.sectors_written
            out["disk.busy_virt_ns"] = stats.busy_ns
            out["disk.sync_wait_virt_ns"] = stats.sync_wait_ns
        backing = self.system.backing
        if backing is not None:
            tiered = backing.stats
            out["backend.uploads"] = tiered.uploads
            out["backend.bytes_uploaded"] = tiered.bytes_uploaded
            out["backend.drains"] = tiered.drains
            out["backend.dedup_hits"] = tiered.dedup_hits
            out["backend.readahead_fills"] = tiered.readahead_fills
            out["backend.readahead_hits"] = tiered.readahead_hits
            out["backend.service_virt_ns"] = backing.remote.stats.service_ns
        return dict(out)


def delta(after: Dict[str, int], before: Dict[str, int]) -> Dict[str, int]:
    """Counter movement over a region (keys of ``after``)."""
    return {key: value - before.get(key, 0) for key, value in after.items()}


# -- probes --------------------------------------------------------------

#: Target wall time of one probe loop; eleven probes stay under 2 s.
PROBE_SECONDS = 0.12


def _per_call_ns(fn: Callable[[int], None]) -> float:
    """Reference-host ns per iteration of ``fn(n)`` (which loops ``n``
    times), from a loop grown until it lasts about ``PROBE_SECONDS``."""
    n = 256
    while True:
        clock = HostClock()
        fn(n)
        clock.lap("probe")
        if clock.wall_s["probe"] >= PROBE_SECONDS / 2:
            return clock.ref_s["probe"] * 1e9 / n
        n *= 4


def _probe_machine(fast_path: bool):
    """A bare machine with kernel text and a few mapped data pages (the
    layout ``benchmarks/bench_interpreter.py`` uses)."""
    from repro.hw import Machine, MachineConfig
    from repro.isa import Interpreter
    from repro.isa.routines import build_kernel_text

    machine = Machine(
        MachineConfig(memory_bytes=2 * 1024 * 1024, boot_time_ns=0, fast_path=fast_path)
    )
    text = build_kernel_text()
    page = machine.memory.page_size
    text.load(machine.memory, base_paddr=page, base_vaddr=page)
    for i in range(-(-text.size_bytes // page)):
        machine.mmu.map(1 + i, 1 + i, writable=False)
    for vpn in (*range(32, 40), 48, 49):
        machine.mmu.map(vpn, vpn)
    interp = Interpreter(machine.bus, text)
    interp.force_interpret = True
    return machine, interp, 32 * page, 50 * page - 64


#: The three ``bench_interpreter.py`` routines: store-dense, branch/ALU
#: dense, and a mixed copy loop.
_ISA_ROUTINES = (
    ("bzero", lambda heap: [heap, 4096]),
    ("checksum_block", lambda heap: [heap, 4096]),
    ("bcopy", lambda heap: [heap, heap + 0x1000, 2048]),
)


def _probe_isa() -> Dict[str, float]:
    from bench import BenchError

    rates = {}
    results = {}
    for label, fast_path in (("isa.probe_instr_per_s", True), ("isa.probe_ref_instr_per_s", False)):
        _machine, interp, heap, sp = _probe_machine(fast_path)
        steps = 0
        outcomes = []
        clock = HostClock()
        while not clock.due(PROBE_SECONDS):
            for name, make_args in _ISA_ROUTINES:
                result = interp.call(name, make_args(heap), sp=sp)
                steps += result.steps
                if len(outcomes) < len(_ISA_ROUTINES):
                    outcomes.append(result)
        clock.lap("probe")
        rates[label] = steps / clock.ref_s["probe"]
        results[label] = outcomes
    fast, ref = results.values()
    if fast != ref:
        raise BenchError("isa probe: fast and reference engines disagree")
    return rates


def run_probes() -> Dict[str, float]:
    """One short loop per hot leaf layer, in reference-host time."""
    from repro.util.checksum import fletcher32
    from repro.util.prng import pattern_bytes

    machine, _interp, heap, _sp = _probe_machine(True)
    bus, mmu = machine.bus, machine.mmu

    def loads(n: int) -> None:
        load = bus.load_u64
        for _ in range(n):
            load(heap)

    def stores(n: int) -> None:
        store = bus.store_u64
        for i in range(n):
            store(heap, i)

    def toggles(n: int) -> None:
        toggle = mmu.set_kseg_writable
        for i in range(n):
            toggle(40, i & 1 == 0)

    block = bytes(range(256)) * 32  # one 8 KB file-cache block

    def patterns(n: int) -> None:
        for i in range(n):
            pattern_bytes(i, 0, 8192)

    def checksums(n: int) -> None:
        for _ in range(n):
            fletcher32(block)

    out = {
        "hw.probe_load_ns": _per_call_ns(loads),
        "hw.probe_store_ns": _per_call_ns(stores),
        "hw.probe_prot_toggle_ns": _per_call_ns(toggles),
        "workloads.probe_pattern_mb_per_s": 8192 / 1e6 / (_per_call_ns(patterns) / 1e9),
        "util.probe_fletcher32_mb_per_s": 8192 / 1e6 / (_per_call_ns(checksums) / 1e9),
    }
    out.update(_probe_isa())
    return out
