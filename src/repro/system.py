"""System assembly: build a whole simulated workstation in one call.

A :class:`System` owns the machine, the kernel, the disks (root + swap),
the file system, the VFS and (optionally) the Rio file cache, and knows
how to take the stack through the full crash lifecycle:

    boot -> run workload -> crash -> reboot (warm or cold) -> recovery

``System.reboot`` performs the paper's recovery sequence in order: memory
dump + registry-driven metadata restore (Rio), journal replay (AdvFS),
fsck, kernel boot, mount, and the user-level UBC restore (Rio).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.core import ProtectionMode, RioConfig, RioFileCache
from repro.core.warm_reboot import (
    WarmRebootReport,
    dump_and_recover_metadata,
    restore_ubc,
)
from repro.disk import SECTOR_SIZE, SimulatedDisk, SwapPartition
from repro.fs.advfs import AdvFS, advfs_recover
from repro.fs.fsck import FsckReport, fsck
from repro.fs.mfs import MemoryFileSystem
from repro.fs.types import SECTORS_PER_BLOCK
from repro.fs.ufs import UFS, UFSParams
from repro.fs.writeback import make_policy
from repro.hw import Machine
from repro.kernel import Kernel, KernelConfig
from repro.kernel.syscalls import VFS

ROOT_DEV = 0
#: AdvFS's log region, in 8 KB blocks.
JOURNAL_BLOCKS = 32


@dataclass(frozen=True)
class SystemRow:
    """The shape of one system under test: root file system, write
    policy, memory cache and extra mounts."""

    #: Write policy name (see repro.fs.writeback).
    policy: str = "rio"
    #: Rio's protection mode, or None for a system whose memory does not
    #: survive a crash.  A row with a cache warm-reboots and has footnote
    #: 1's reliability writes off.
    cache: ProtectionMode | None = None
    fs: type = UFS
    #: Where a memory file system is mounted (Table 2's MFS row: source
    #: tree on the disk-backed root, benchmark target in RAM).
    mfs_mount: Optional[str] = None


#: Every system this repository runs, by the name campaigns, benchmarks,
#: the CLI and tests call it.  ``disk`` (Table 1) and ``ufs`` (Table 2)
#: are one system.
SYSTEMS = {
    "disk": SystemRow("ufs"),
    "ufs": SystemRow("ufs"),
    "ufs_delayed": SystemRow("ufs_delayed"),
    "advfs": SystemRow("advfs", fs=AdvFS),
    "wt_close": SystemRow("wt_close"),
    "wt_write": SystemRow("wt_write"),
    "mfs": SystemRow("ufs_delayed", mfs_mount="/mfs"),
    "rio_noprot": SystemRow(cache=ProtectionMode.NONE),
    "rio_prot": SystemRow(cache=ProtectionMode.VM_KSEG),
    "rio_patch": SystemRow(cache=ProtectionMode.CODE_PATCHING),
}

#: Table 1's three systems (described in :mod:`repro.reliability.campaign`).
SYSTEM_NAMES = ("disk", "rio_noprot", "rio_prot")


@dataclass
class SystemSpec:
    """Everything needed to build a system under test."""

    #: A key of :data:`SYSTEMS`; an unknown name raises ``ValueError``.
    name: str = "ufs"
    #: Rio keeps per-buffer detection checksums (Table 1's apparatus;
    #: Table 2's rows turn them off).
    checksums: bool = True
    kernel: KernelConfig = field(default_factory=KernelConfig)
    #: Root file system size in 8 KB blocks.
    fs_blocks: int = 1024
    inode_blocks: int = 8
    #: Tiered backing store behind the root disk: "local" |
    #: "objectstore" | "tiered" (see :mod:`repro.backend`), or None for
    #: the classic single-tier stack (zero behavior change).
    backend: Optional[str] = None
    #: Seed of the backend's latency/failure model.
    backend_seed: int = 0

    def __post_init__(self) -> None:
        if self.name not in SYSTEMS:
            raise ValueError(f"unknown system {self.name!r}; know {tuple(SYSTEMS)}")


def system_spec_for(name: str, **overrides) -> SystemSpec:
    """The SystemSpec for a named system; ``overrides`` are SystemSpec
    fields.  Unknown names raise ``ValueError``."""
    return SystemSpec(name, **overrides)


@dataclass
class RebootReport:
    """What happened during one reboot."""

    warm: Optional[WarmRebootReport] = None
    fsck: Optional[FsckReport] = None
    journal_records_applied: int = 0
    cold: bool = False
    #: Remote-tier reconcile that ran after the local fsck (a
    #: :class:`~repro.backend.fsck_remote.RemoteFsckReport`), or None
    #: when the system has no backing store.
    remote: Optional[object] = None


class System:
    """A fully assembled simulated workstation."""

    def __init__(self, spec: SystemSpec) -> None:
        self.spec = spec
        self.row = row = SYSTEMS[spec.name]
        self.machine = Machine()
        self.disk = SimulatedDisk("rz0", spec.fs_blocks * SECTORS_PER_BLOCK)
        self.machine.attach_disk("rz0", self.disk)
        swap_sectors = self.machine.memory.size // SECTOR_SIZE + 2 * SECTORS_PER_BLOCK
        swap_disk = SimulatedDisk("rz1", swap_sectors)
        self.machine.attach_disk("rz1", swap_disk)
        self.swap = SwapPartition(swap_disk, 0, swap_sectors)
        UFS.mkfs(
            self.disk,
            UFSParams(
                total_blocks=spec.fs_blocks,
                inode_blocks=spec.inode_blocks,
                journal_blocks=JOURNAL_BLOCKS if row.fs is AdvFS else 0,
            ),
        )
        self.kernel: Optional[Kernel] = None
        self.rio: Optional[RioFileCache] = None
        self.fs = None
        self.vfs: Optional[VFS] = None
        #: Chaos capability registry (see :meth:`install_chaos`), or None.
        self.chaos = None
        #: Tiered backing store behind the root disk, or None (see
        #: :meth:`install_backend`).
        self.backing = None
        if spec.backend is not None:
            from repro.backend import make_backing_store

            self.install_backend(
                make_backing_store(
                    spec.backend,
                    disk=self.disk,
                    clock=self.machine.clock,
                    seed=spec.backend_seed,
                )
            )
        #: Callables run at the end of every reboot (see
        #: :meth:`add_reboot_hook`); services layered on the system use
        #: them to reconstruct state the reboot invalidated.
        self._reboot_hooks: list = []
        #: Footnote 1's administrator toggle (see
        #: :meth:`enable_reliability_writes`).  It lives here, not in a
        #: kernel, so it outlives warm reboots: every boot derives the
        #: write policy and the kernel's panic sync from it.
        self.reliability_writes_forced = False
        self._boot_stack()

    # -- boot ------------------------------------------------------------

    def _boot_stack(self) -> None:
        """Boot a kernel over the (possibly crash-surviving) machine."""
        spec = self.spec
        self.kernel = Kernel(self.machine, replace(spec.kernel))
        # Chaos survives warm reboots: the registry lives on the System,
        # and every freshly booted kernel gets re-pointed at it.
        self.kernel.chaos = self.chaos
        # So does the backing store: the remote tier outlives the
        # machine (that is the point), so each new kernel is re-pointed
        # at the same store object.
        self.kernel.backing = self.backing
        row = self.row
        self.rio = None
        guard = None
        if row.cache is not None:
            config = RioConfig(protection=row.cache, maintain_checksums=spec.checksums)
            self.rio = RioFileCache(self.kernel, config)
            guard = self.rio.guard
        self.kernel.reliability_writes_off = self._reliability_writes_off()
        self.kernel.init_caches(guard)
        self.kernel.attach_block_device(ROOT_DEV, self.disk)
        self.fs = row.fs(self.kernel, ROOT_DEV, self._write_policy())
        self.fs.mount()
        mounts = {}
        if row.mfs_mount:
            mfs = MemoryFileSystem(self.kernel, dev=ROOT_DEV + 1)
            mfs.mount()
            mounts[row.mfs_mount] = mfs
        self.vfs = VFS(self.kernel, self.fs, mounts)

    # -- crash and reboot ----------------------------------------------------

    def crash(self, reason: str = "forced crash", kind: str = "forced") -> None:
        """Force the machine down (the fault injector usually gets there
        first via the kernel's go_down path)."""
        self.machine.crash(reason, kind=kind)

    def reboot(self, *, preserve_memory: bool = True) -> RebootReport:
        """Reboot after a crash, running the configured recovery chain."""
        report = RebootReport(cold=not preserve_memory)
        machine = self.machine
        # The instant the machine stopped, not this one: the reset below
        # spends the boot time, by which every posted upload would have
        # landed.  (An administrative reboot stops it now; so does a
        # transplanted board, which arrives down with no log.)
        down_ns = self.clock.now_ns
        if machine.crashed and machine.crash_log:
            down_ns = machine.crash_log[-1].time_ns
        machine.reset(preserve_memory=preserve_memory)
        if self.backing is not None:
            # The upload queue and remote-map mirrors were kernel heap:
            # the crash destroyed them with everything else, uploads
            # still on the link included.
            self.backing.on_machine_crash(down_ns)

        image = entries = None
        warm_enabled = self.row.cache is not None and preserve_memory
        if warm_enabled:
            # Step 1 (before any kernel state is rebuilt): dump memory to
            # swap and restore metadata to disk from the registry.
            # The checksum audit is meaningful only if the crashed kernel
            # kept checksums: where it did not, every stored one is 0 and
            # every intact page would be reported corrupt.
            image, entries, warm = dump_and_recover_metadata(
                self.machine, self.swap, {ROOT_DEV: self.disk},
                audit=self.rio.config.maintain_checksums,
            )
            report.warm = warm

        if self.row.fs is AdvFS:
            report.journal_records_applied = advfs_recover(self.disk)
        report.fsck = fsck(self.disk)
        if self.backing is not None:
            # Remote-tier fsck follows the local one: the surviving
            # local disk is the authority, and the object store is
            # reconciled to mirror it before any remote read is trusted
            # (s3ql's mount-requires-fsck rule).  An outage defers the
            # reconcile; dirty uploads simply remain pending.
            from repro.backend.fsck_remote import fsck_remote

            report.remote = fsck_remote(self.backing, batch=True)

        self._boot_stack()

        if warm_enabled and report.warm is not None and report.warm.registry_found:
            # Step 2: the user-level restore of dirty UBC pages.
            restore_ubc(self.fs, image, entries, report.warm)

        # Last: let layered services rebuild state the reboot destroyed
        # (the VFS fd table does not survive _boot_stack).  Hooks run in
        # registration order, after the cache contents are restored.
        for hook in self._reboot_hooks:
            hook(self, report)
        return report

    def install_chaos(self, registry) -> None:
        """Attach a :class:`~repro.faults.capabilities.ChaosRegistry`.

        Points the kernel (cache/allocator hooks) and every disk
        (``slow_io``) at the registry; :meth:`_boot_stack` re-attaches
        the kernel side on every reboot, and the disks persist across
        reboots, so one installation covers the system's whole lifetime.
        """
        self.chaos = registry
        if self.kernel is not None:
            self.kernel.chaos = registry
        for disk in self.machine.disks.values():
            disk.chaos = registry
        if self.backing is not None:
            self.backing.remote.chaos = registry

    def install_backend(self, store) -> None:
        """Attach a :class:`~repro.backend.tiered.TieredStore`.

        Points the store at the machine clock and flight recorder (both
        survive machine resets, so one installation covers every
        reboot), gives the kernel its upload hook, and forwards any
        already-installed chaos registry to the remote tier.
        """
        self.backing = store
        store.attach(self.machine.clock)
        store.recorder = self.machine.recorder
        if self.chaos is not None:
            store.remote.chaos = self.chaos
        if self.kernel is not None:
            self.kernel.backing = store

    def add_reboot_hook(self, hook) -> None:
        """Register ``hook(system, report)`` to run at the end of every
        :meth:`reboot`, after recovery completes — the file service uses
        this to re-bind client sessions onto the rebuilt VFS."""
        if hook not in self._reboot_hooks:
            self._reboot_hooks.append(hook)

    # -- conveniences ------------------------------------------------------------

    @property
    def clock(self):
        return self.machine.clock

    def drain_disks(self) -> None:
        for disk in self.machine.disks.values():
            disk.drain()

    def settle(self) -> None:
        """Make the platter current: file data, then the metadata that
        points at it, then every queued disk request — in that order, so
        no metadata ever reaches the disk ahead of the blocks it names."""
        self.fs.flush_data(sync=True)
        self.fs.flush_metadata(sync=True)
        self.drain_disks()

    def _reliability_writes_off(self) -> bool:
        """Rio's section 2.3 changes hold unless the administrator forced
        reliability writes back on."""
        return self.row.cache is not None and not self.reliability_writes_forced

    def _write_policy(self):
        return make_policy("ufs_delayed" if self.reliability_writes_forced else self.row.policy)

    def _set_reliability_writes(self, forced: bool) -> None:
        self.reliability_writes_forced = forced
        self.fs.policy = self._write_policy()
        self.kernel.reliability_writes_off = self._reliability_writes_off()

    def enable_reliability_writes(self) -> None:
        """Administrative toggle (the paper's footnote 1): "a way for a
        system administrator to easily enable and disable reliability disk
        writes for machine maintenance or extended power outages."

        Flushes everything to disk now and switches to a delayed-write
        policy so data keeps reaching the disk, making it safe to power
        the machine off (memory contents lost).  The toggle survives
        warm reboots until :meth:`disable_reliability_writes`."""
        self.settle()
        self._set_reliability_writes(True)

    def disable_reliability_writes(self) -> None:
        """Back to the spec's normal operation (on Rio: memory is the
        stable store)."""
        self._set_reliability_writes(False)

    def drop_caches(self) -> None:
        """Administrative flush-and-invalidate of both caches.  Used by
        benchmarks to start a timed phase cold, the way the paper's runs
        started with the source tree on disk only."""
        kernel = self.kernel
        with kernel.uncharged():
            self.settle()
            for cache in (kernel.ubc, kernel.buffer_cache):
                for page in list(cache.pages.values()):
                    cache.drop(page)


def build_system(spec: SystemSpec | None = None, **overrides) -> System:
    """Build a system from a spec (or keyword overrides of the default)."""
    if spec is None:
        spec = SystemSpec(**overrides)
    elif overrides:
        spec = replace(spec, **overrides)
    return System(spec)
