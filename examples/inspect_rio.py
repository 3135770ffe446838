#!/usr/bin/env python3
"""Look inside Rio: the registry, protection traps, and shadow pages.

A tour of the machinery the other examples treat as a black box:

1. watch registry entries appear as files enter the cache;
2. fire a wild kernel store at a protected page and catch the trap;
3. crash mid-metadata-update and see the shadow page preserve atomicity.

Run:  python examples/inspect_rio.py
"""

from repro import SystemSpec, build_system
from repro.errors import ProtectionTrap


def show_registry(system, label: str) -> None:
    entries = system.rio.registry.valid_entries()
    print(f"  registry [{label}]: {len(entries)} valid entries")
    for entry in entries[:6]:
        kind = "meta" if entry.is_metadata else "data"
        print(
            f"    slot {entry.slot:4d}  {kind}  phys={entry.phys_addr:#09x}"
            f"  ino={entry.ino:<4d} off={entry.file_offset:<8d}"
            f" dirty={int(entry.dirty)} disk_block={entry.disk_block}"
        )
    if len(entries) > 6:
        print(f"    ... and {len(entries) - 6} more")


def main() -> None:
    system = build_system(SystemSpec("rio_prot"))
    vfs = system.vfs

    print("== 1. The registry tracks every file cache buffer ==")
    show_registry(system, "after boot")
    fd = vfs.open("/tracked", create=True)
    vfs.write(fd, b"x" * 20000)
    vfs.close(fd)
    show_registry(system, "after writing 20 KB to /tracked")

    print("\n== 2. Protection: a wild store traps instead of corrupting ==")
    page = next(p for p in system.kernel.ubc.pages.values())
    print(f"  target: UBC page for ino {page.file_id.ino} at KSEG {page.vaddr:#x}")
    try:
        system.kernel.bus.store(page.vaddr, b"WILD STORE")
    except ProtectionTrap as trap:
        print(f"  ProtectionTrap: {trap}")
        print(f"  traps so far: {system.kernel.mmu.stat_protection_traps}")
        print("  (Rio halts the system here; the corruption never happens)")

    print("\n== 3. Shadow pages make metadata updates atomic ==")
    cache = system.kernel.buffer_cache
    meta_page = next(iter(cache.pages.values()))
    slot = meta_page.registry_slot
    entry = system.rio.registry.read_entry(slot)
    print(f"  steady state: registry slot {slot} -> phys {entry.phys_addr:#x}")
    system.rio.guard.begin_write(meta_page)
    entry_mid = system.rio.registry.read_entry(slot)
    print(
        f"  mid-update:   registry slot {slot} -> shadow {entry_mid.phys_addr:#x}"
        " (the consistent pre-image)"
    )
    system.rio.guard.end_write(meta_page)
    entry_after = system.rio.registry.read_entry(slot)
    print(f"  after update: registry slot {slot} -> phys {entry_after.phys_addr:#x}")
    print("  a crash at any instant finds a consistent version via the registry")


if __name__ == "__main__":
    main()
