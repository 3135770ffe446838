#!/usr/bin/env python3
"""Crash survival across file system designs.

Writes the same files on five systems — Rio, write-through, default UFS,
delayed-write UFS, and MFS — crashes each at the same point, reboots, and
shows what survived.  This is the reliability/performance trade-off of
the paper's introduction made concrete: before Rio you could have speed
(delayed, MFS) or safety (write-through), not both.

Run:  python examples/crash_survival.py
"""

from repro import SystemSpec, build_system

#: (label, system name, where the files go).  Table 2's MFS row keeps
#: its root on disk and mounts the memory file system at /mfs.
SYSTEMS = [
    ("Rio (protection on)", "rio_prot", ""),
    ("UFS write-through", "wt_write", ""),
    ("UFS default", "ufs", ""),
    ("UFS delayed 30s", "ufs_delayed", ""),
    ("Memory FS", "mfs", "/mfs"),
]

FILES = {
    "/report.txt": b"quarterly numbers",
    "/mail/inbox": b"unread message",
    "/src/kernel.c": b"int main() { /* ... */ }",
}


def exercise(name: str, prefix: str) -> tuple[int, float, int]:
    """Returns (files survived, virtual seconds spent writing, disk writes)."""
    system = build_system(SystemSpec(name))
    vfs = system.vfs
    t0 = system.clock.now_ns
    vfs.mkdir(prefix + "/mail")
    vfs.mkdir(prefix + "/src")
    for path, content in FILES.items():
        fd = vfs.open(prefix + path, create=True)
        vfs.write(fd, content)
        vfs.close(fd)
    elapsed = (system.clock.now_ns - t0) / 1e9
    writes = system.disk.stats.writes

    system.crash("the usual way: a kernel bug")
    system.reboot()

    survived = 0
    for path, content in FILES.items():
        try:
            if system.vfs.exists(prefix + path):
                fd = system.vfs.open(prefix + path)
                if system.vfs.read(fd, 64) == content:
                    survived += 1
        except Exception:
            pass
    return survived, elapsed, writes


def main() -> None:
    print("== Crash survival comparison ==")
    print(f"{'system':24s} {'survived':>9s} {'write time':>11s} {'disk writes':>12s}")
    for label, name, prefix in SYSTEMS:
        survived, elapsed, writes = exercise(name, prefix)
        print(
            f"{label:24s} {survived}/{len(FILES):>6d} {elapsed * 1000:>9.2f}ms {writes:>12d}"
        )
    print()
    print("Rio keeps every byte with zero reliability-induced disk writes;")
    print("write-through keeps every byte by paying a disk write per update;")
    print("the fast asynchronous systems quietly lose recent data.")


if __name__ == "__main__":
    main()
