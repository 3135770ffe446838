"""A debit/credit (TPC-A-style) transaction workload.

Two of the paper's threads meet here:

* the motivation — "transaction processing applications view transactions
  as committed only when data is written to disk", which chains their
  throughput to the disk; on Rio a synchronous commit is a memory write;
* the related-work comparison — "Sullivan and Stonebraker measure the
  overhead of 'expose page' to be 7% on a debit/credit benchmark.  The
  overhead of Rio's protection mechanism, which is negligible, is lower
  for two reasons" (no syscall per protection change; bigger writes
  amortizing each window).

Each transaction reads an account record, updates it, appends a history
record, and commits (fsync).  Records are small — the adversarial case
for per-write protection-window overhead.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.util.prng import DeterministicRandom

RECORD = struct.Struct("<QQQ")  # account id, balance, update count
RECORD_SIZE = 64  # padded, like a real slotted record
_HISTORY_BYTES = 48  # one appended history record


@dataclass
class DebitCreditParams:
    accounts: int = 256
    transactions: int = 400
    seed: int = 31415


@dataclass
class DebitCreditResult:
    seconds: float
    transactions: int
    aborted: int = 0

    @property
    def tps(self) -> float:
        return self.transactions / self.seconds if self.seconds > 0 else float("inf")


class DebitCreditWorkload:
    """Runs against a VFS; commit semantics come from the write policy."""

    def __init__(self, vfs, kernel, params: DebitCreditParams | None = None) -> None:
        self.vfs = vfs
        self.kernel = kernel
        self.params = params or DebitCreditParams()
        self.rng = DeterministicRandom(self.params.seed)
        self._accounts_fd: int | None = None
        self._history_fd: int | None = None
        self._history_off = 0

    def setup(self) -> None:
        """Create and populate the accounts table (untimed)."""
        with self.kernel.uncharged():
            self.vfs.mkdir("/bank")
            fd = self.vfs.open("/bank/accounts", create=True)
            table = bytearray()
            for account in range(self.params.accounts):
                record = RECORD.pack(account, 1000, 0)
                table += record + b"\x00" * (RECORD_SIZE - len(record))
            self.vfs.write(fd, bytes(table))
            self.vfs.fsync(fd)
            self.vfs.close(fd)
            fd = self.vfs.open("/bank/history", create=True)
            self.vfs.close(fd)

    def _open_files(self) -> None:
        if self._accounts_fd is None:
            self._accounts_fd = self.vfs.open("/bank/accounts")
            self._history_fd = self.vfs.open("/bank/history")

    def run_transaction(self) -> None:
        """One debit/credit: read-modify-write a record + history append +
        synchronous commit."""
        self._open_files()
        account = self.rng.randrange(self.params.accounts)
        delta = self.rng.randint(-50, 50)
        offset = account * RECORD_SIZE
        raw = self.vfs.pread(self._accounts_fd, RECORD.size, offset)
        acct_id, balance, updates = RECORD.unpack(raw)
        record = RECORD.pack(acct_id, (balance + delta) & (1 << 64) - 1, updates + 1)
        self.vfs.pwrite(self._accounts_fd, record, offset)
        history = record[:16] + self.rng.bytes(_HISTORY_BYTES - 16)
        self.vfs.pwrite(self._history_fd, history, self._history_off)
        self._history_off += _HISTORY_BYTES
        # Commit: the transaction is durable only when fsync returns.
        self.vfs.fsync(self._accounts_fd)
        self.vfs.fsync(self._history_fd)

    def run(self) -> DebitCreditResult:
        clock = self.kernel.clock
        start = clock.now_ns
        for _ in range(self.params.transactions):
            self.run_transaction()
        for fd in (self._accounts_fd, self._history_fd):
            if fd is not None:
                self.vfs.close(fd)
        self._accounts_fd = self._history_fd = None
        return DebitCreditResult(
            seconds=(clock.now_ns - start) / 1e9,
            transactions=self.params.transactions,
        )

    def verify(self) -> bool:
        """All balances account for all updates (sum preserved modulo the
        recorded deltas; here: record structure intact and counts sane)."""
        fd = self.vfs.open("/bank/accounts")
        ok = True
        for account in range(self.params.accounts):
            raw = self.vfs.pread(fd, RECORD.size, account * RECORD_SIZE)
            acct_id, _balance, updates = RECORD.unpack(raw)
            if acct_id != account or updates > self.params.transactions:
                ok = False
        self.vfs.close(fd)
        return ok
