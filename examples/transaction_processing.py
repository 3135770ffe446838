#!/usr/bin/env python3
"""Transaction processing on Rio: synchronous commits at memory speed.

The paper's opening motivation: applications that need real durability
(databases) commit by writing through to disk, chaining throughput to the
disk arm.  On Rio, fsync returns when the data is in (protected,
crash-surviving) memory — so a debit/credit workload commits at memory
speed, and a crash still loses nothing that committed.

Run:  python examples/transaction_processing.py
"""

from repro import SystemSpec, build_system
from repro.workloads.debit_credit import DebitCreditParams, DebitCreditWorkload

PARAMS = DebitCreditParams(accounts=64, transactions=200)


def run(label: str, spec: SystemSpec) -> None:
    system = build_system(spec)
    bench = DebitCreditWorkload(system.vfs, system.kernel, PARAMS)
    bench.setup()
    result = bench.run()
    writes = system.disk.stats.writes if system.disk else 0
    print(
        f"  {label:22s}: {result.tps:9.1f} tps  "
        f"({result.seconds:7.3f}s, {writes} disk writes)"
    )
    return system


def main() -> None:
    print("== Debit/credit with synchronous commit on every transaction ==")
    rio = run("Rio (protection on)", SystemSpec("rio_prot"))
    run("UFS write-through", SystemSpec("wt_write"))

    print("\n== Crash after the full run: Rio's commits were real ==")
    rio.crash("power stayed on; the kernel did not")
    rio.reboot()
    check = DebitCreditWorkload(rio.vfs, rio.kernel, PARAMS)
    print(f"  ledger intact after crash + warm reboot: {check.verify()}")

    from repro.workloads.debit_credit import RECORD, RECORD_SIZE

    fd = rio.vfs.open("/bank/accounts")
    survived = sum(
        RECORD.unpack(rio.vfs.pread(fd, RECORD.size, a * RECORD_SIZE))[2]
        for a in range(PARAMS.accounts)
    )
    print(f"  committed transactions recovered: {survived}/{PARAMS.transactions}")


if __name__ == "__main__":
    main()
