#!/usr/bin/env python3
"""Quickstart: files in memory survive an operating system crash.

Builds a Rio system (protection on, reliability disk writes off), writes
a file, crashes the kernel, warm-reboots, and reads the file back — all
without a single reliability-induced disk write.

Run:  python examples/quickstart.py
"""

from repro import SystemSpec, build_system


def main() -> None:
    system = build_system(SystemSpec("rio_prot"))
    vfs = system.vfs

    print("== Rio quickstart ==")
    fd = vfs.open("/important.txt", create=True)
    vfs.write(fd, b"this byte string exists only in main memory\n")
    vfs.fsync(fd)  # returns immediately: memory IS the stable store
    vfs.close(fd)
    print(f"wrote /important.txt; disk writes so far: {system.disk.stats.writes}")

    print("crashing the operating system ...")
    system.crash("demo: dereferenced a wild pointer", kind="panic")

    print("warm reboot: dump memory -> swap, restore metadata, fsck, restore UBC")
    report = system.reboot()
    warm = report.warm
    print(
        f"  registry found: {warm.registry_found}; "
        f"metadata blocks restored: {warm.metadata_restored}; "
        f"file pages restored: {warm.ubc_restored}; "
        f"fsck fixes needed: {report.fsck.fix_count}"
    )

    # The reboot built a fresh kernel and VFS; use the new one.
    vfs = system.vfs
    fd = vfs.open("/important.txt")
    data = vfs.read(fd, 4096)
    vfs.close(fd)
    print(f"read back after crash: {data!r}")
    assert data == b"this byte string exists only in main memory\n"
    print("OK: the file cache survived the crash.")


if __name__ == "__main__":
    main()
