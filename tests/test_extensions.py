"""Tests for the debit/credit workload and the section-5 memory-board
transplant."""

import pytest

from repro.hw import Machine, MachineConfig
from repro.system import SystemSpec, build_system
from repro.workloads.debit_credit import (
    DebitCreditParams,
    DebitCreditWorkload,
    RECORD,
    RECORD_SIZE,
)


class TestDebitCredit:
    def make(self, name):
        return build_system(SystemSpec(name, fs_blocks=512))

    def test_transactions_update_balances(self):
        system = self.make("rio_prot")
        bench = DebitCreditWorkload(
            system.vfs, system.kernel, DebitCreditParams(accounts=16, transactions=40)
        )
        bench.setup()
        result = bench.run()
        assert result.transactions == 40
        assert bench.verify()
        fd = system.vfs.open("/bank/accounts")
        updated = 0
        for account in range(16):
            raw = system.vfs.pread(fd, RECORD.size, account * RECORD_SIZE)
            updated += RECORD.unpack(raw)[2]
        assert updated == 40

    def test_rio_commits_faster_than_write_through(self):
        """The paper's motivation: synchronous commits at memory speed."""
        params = DebitCreditParams(accounts=32, transactions=60)
        rio = self.make("rio_prot")
        wt = self.make("wt_write")
        bench_rio = DebitCreditWorkload(rio.vfs, rio.kernel, params)
        bench_rio.setup()
        rio_result = bench_rio.run()
        bench_wt = DebitCreditWorkload(wt.vfs, wt.kernel, params)
        bench_wt.setup()
        wt_result = bench_wt.run()
        assert rio_result.tps > 5 * wt_result.tps
        assert rio.disk.stats.writes == 0

    def test_vm_protection_overhead_is_negligible(self):
        """Section 6: expose-page [Sullivan91a] costs 7% on debit/credit;
        "the overhead of Rio's protection mechanism ... is negligible" —
        in-kernel toggles, page-sized windows.  Virtual time."""
        seconds = {}
        for name in ("rio_noprot", "rio_prot"):
            system = self.make(name)
            bench = DebitCreditWorkload(
                system.vfs, system.kernel, DebitCreditParams(accounts=32, transactions=60)
            )
            bench.setup()
            seconds[name] = bench.run().seconds
        unprotected, protected = seconds.values()
        assert protected / unprotected - 1.0 < 0.03

    def test_committed_transactions_survive_crash_on_rio(self):
        system = self.make("rio_prot")
        bench = DebitCreditWorkload(
            system.vfs, system.kernel, DebitCreditParams(accounts=8, transactions=25)
        )
        bench.setup()
        bench.run()
        system.crash("mid-day outage")
        system.reboot()
        replay = DebitCreditWorkload(
            system.vfs, system.kernel, DebitCreditParams(accounts=8, transactions=25)
        )
        assert replay.verify()
        fd = system.vfs.open("/bank/accounts")
        total_updates = sum(
            RECORD.unpack(system.vfs.pread(fd, RECORD.size, a * RECORD_SIZE))[2]
            for a in range(8)
        )
        assert total_updates == 25  # every committed transaction survived


class TestMemoryBoardTransplant:
    def test_memory_moves_to_a_new_machine(self):
        """Section 5: "If the system board fails, it should be possible to
        move the memory board to a different system without losing power
        or data."""
        system = build_system(SystemSpec("rio_prot", fs_blocks=512))
        fd = system.vfs.open("/on-the-board", create=True)
        system.vfs.write(fd, b"moved with the DIMMs")
        system.vfs.close(fd)
        system.crash("system board failure")

        # Pull the board and seat it in a replacement chassis.
        board = system.machine.memory
        replacement = Machine(system.machine.config, memory=board)
        replacement.crashed = True  # arrives in crashed state, pre-reset
        system.machine = replacement
        # The disks move too (they are external peripherals).
        replacement.disks = {"rz0": system.disk, "rz1": system.swap.disk}
        for disk in replacement.disks.values():
            disk.attach(replacement.clock)

        report = system.reboot()
        assert report.warm.registry_found
        assert system.vfs.exists("/on-the-board")
        assert (
            system.fs.read(system.fs.namei("/on-the-board"), 0, 32)
            == b"moved with the DIMMs"
        )

    def test_wrong_sized_board_rejected(self):
        small = Machine(MachineConfig(memory_bytes=8 * 1024 * 1024))
        with pytest.raises(ValueError):
            Machine(MachineConfig(memory_bytes=16 * 1024 * 1024), memory=small.memory)
