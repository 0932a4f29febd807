#!/usr/bin/env python3
"""Define a custom workload and size the transaction cache for it.

The paper argues the TC capacity "can be flexibly configured based on
the transaction sizes of the processor's target applications" (§3).
This example shows the workflow a user would follow:

1. implement a new workload against the public API — here, a persistent
   FIFO queue of bank-transfer records (each transfer is one
   transaction touching several lines);
2. sweep TC sizes and watch full-TC back-pressure and copy-on-write
   fall-backs disappear once the TC matches the transaction footprint.

Run:  python examples/custom_workload.py
"""

from dataclasses import replace

from repro.common.config import small_machine_config
from repro.sim.runner import run_experiment
from repro.workloads import WORD, Workload


class BankTransferWorkload(Workload):
    """Transfers between persistent accounts, with an audit queue.

    Each transaction debits one account, credits another, and appends a
    3-word audit record — 4-5 distinct lines per transaction, all of
    which must be atomic (money must not vanish in a crash).
    """

    name = "bank_transfer"
    description = "Debit/credit pairs plus an audit-log append."

    interop_compute = 800
    interop_volatile = 4

    def __init__(self, core_id: int = 0, seed: int = 42,
                 accounts: int = 1024, record_words: int = 3) -> None:
        super().__init__(core_id=core_id, seed=seed)
        self.accounts = accounts
        self.record_words = record_words
        self.balances_base = self.arena.p_malloc(accounts * WORD)
        self.audit_base = self.arena.p_malloc(1 << 20)
        self._audit_cursor = 0

    def _account_addr(self, index: int) -> int:
        return self.balances_base + index * WORD

    def setup(self) -> None:
        for start in range(0, self.accounts, 8):
            with self.arena.transaction():
                for index in range(start, min(start + 8, self.accounts)):
                    self.arena.write_word(self._account_addr(index))
            self.interop_work()

    def run_operation(self, index: int) -> None:
        src = self.rng.randrange(self.accounts)
        dst = self.rng.randrange(self.accounts)
        with self.arena.transaction():
            self.arena.compute(4)
            self.arena.read_word(self._account_addr(src))
            self.arena.read_word(self._account_addr(dst))
            self.arena.write_word(self._account_addr(src))   # debit
            self.arena.write_word(self._account_addr(dst))   # credit
            for word in range(self.record_words):     # audit append
                self.arena.write_word(self.audit_base + self._audit_cursor)
                self._audit_cursor += WORD


def main() -> None:
    print("Sizing the transaction cache for the bank_transfer workload\n")
    header = (f"{'TC size':>8} {'cycles':>10} {'tc-full events':>15} "
              f"{'COW fallbacks':>14} {'IPC':>8}")
    print(header)
    print("-" * len(header))
    # a workload outside the WORKLOADS table runs from its own traces
    traces = [BankTransferWorkload(core_id=core).generate(200)
              for core in range(2)]
    for size in (256, 512, 1024, 4096):
        config = small_machine_config(num_cores=2)
        config = replace(config, txcache=replace(config.txcache,
                                                 size_bytes=size))
        result = run_experiment("bank_transfer", "txcache", config=config,
                                traces=traces)
        fallbacks = result.raw_stats.get(
            "tc.overflow.fallback.transactions", 0)
        print(f"{size // 1024}KB".rjust(8) if size >= 1024
              else f"{size}B".rjust(8),
              f"{result.cycles:>10}",
              f"{result.tc_full_stall_events:>15.0f}",
              f"{fallbacks:>14.0f}",
              f"{result.ipc:>8.3f}")
    print("\nA TC sized for the transaction footprint (here anything")
    print(">= 1KB/core) eliminates stalls and copy-on-write fall-backs.")


if __name__ == "__main__":
    main()
