"""Synthetic microbenchmark with tunable write intensity.

Not one of the paper's Table 3 workloads — this is the knobbed workload
the ablation benches use: transactions of a configurable number of
persistent stores over a configurable footprint, with configurable
compute padding.  Setting ``stores_per_tx`` beyond the TC capacity
exercises the overflow fall-back deterministically.
"""

from __future__ import annotations

from .base import Workload

SETUP_BATCH = 8


class SyntheticWorkload(Workload):
    name = "synthetic"
    description = ("Tunable microbenchmark: N persistent stores + M loads "
                   "+ C compute per transaction.")

    def __init__(self, core_id: int = 0, seed: int = 42,
                 footprint_lines: int = 1024,
                 stores_per_tx: int = 4,
                 loads_per_tx: int = 4,
                 compute_per_tx: int = 16,
                 sequential: bool = False) -> None:
        super().__init__(core_id=core_id, seed=seed)
        self.footprint_lines = footprint_lines
        self.stores_per_tx = stores_per_tx
        self.loads_per_tx = loads_per_tx
        self.compute_per_tx = compute_per_tx
        self.sequential = sequential
        self.base = self.arena.p_malloc(footprint_lines * 64)
        self._cursor = 0

    def _line_addr(self, index: int) -> int:
        return self.base + (index % self.footprint_lines) * 64

    def _pick(self) -> int:
        if self.sequential:
            self._cursor += 1
            return self._line_addr(self._cursor)
        return self._line_addr(self.rng.randrange(self.footprint_lines))

    def setup(self) -> None:
        for start in range(0, self.footprint_lines, SETUP_BATCH):
            with self.arena.transaction():
                for index in range(start,
                                   min(start + SETUP_BATCH, self.footprint_lines)):
                    self.arena.write_word(self._line_addr(index))

    def run_operation(self, index: int) -> None:
        with self.arena.transaction():
            for _ in range(self.loads_per_tx):
                self.arena.read_word(self._pick())
            self.arena.compute(self.compute_per_tx)
            for _ in range(self.stores_per_tx):
                self.arena.write_word(self._pick())
