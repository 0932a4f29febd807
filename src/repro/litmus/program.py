"""Litmus programs: small multi-core persist-ordering tests.

A litmus program is a per-core list of operations drawn from the
minimal grammar the persistency-model literature uses (*Lost in
Interpretation*, arXiv:2405.18575): ``TX_BEGIN``/``TX_END`` brackets,
persistent ``STORE``s to a handful of numbered cache lines, and
``FENCE``s.  Lines are plain indices — index *i* maps to home-region
byte address ``NVM_BASE + i * CACHE_LINE_SIZE`` — so the *same index on
two cores is a shared conflict line* and a core-private index is a
private line.

Programs are value objects: they serialize to a canonical JSON form
(sorted keys, no whitespace) whose sha256 is the program fingerprint,
so the parallel engine's spec keys, the frozen corpus, and the
determinism property tests all agree on identity byte for byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from hashlib import sha256
from typing import Dict, List, Optional, Set, Tuple

from ..common.types import CACHE_LINE_SIZE, NVM_BASE, Version
from ..cpu.trace import (
    OP_SFENCE,
    OP_STORE,
    OP_TX_BEGIN,
    OP_TX_END,
    Trace,
    TraceOp,
)

#: op kinds of the litmus grammar
STORE = "store"
FENCE = "fence"
TX_BEGIN = "tx_begin"
TX_END = "tx_end"

_KINDS = (STORE, FENCE, TX_BEGIN, TX_END)

#: litmus line indices live at the bottom of the home region
MAX_LINE_INDEX = 1 << 20


def line_address(index: int) -> int:
    """Byte address of litmus line ``index`` (home region)."""
    return NVM_BASE + index * CACHE_LINE_SIZE


@dataclass(frozen=True)
class LitmusOp:
    """One operation of a litmus program.

    ``line`` is meaningful for STORE only; ``tx`` for TX_BEGIN only
    (TX_END closes the currently open transaction, stores inherit it).
    """

    kind: str
    line: Optional[int] = None
    tx: Optional[int] = None

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {"op": self.kind}
        if self.line is not None:
            out["line"] = self.line
        if self.tx is not None:
            out["tx"] = self.tx
        return out

    @staticmethod
    def from_dict(data: Dict[str, object]) -> "LitmusOp":
        kind = data.get("op")
        if kind not in _KINDS:
            raise ValueError(f"unknown litmus op {kind!r} "
                             f"(known: {list(_KINDS)})")
        line = data.get("line")
        tx = data.get("tx")
        unknown = sorted(set(data) - {"op", "line", "tx"})
        if unknown:
            raise ValueError(f"litmus op: unknown keys {unknown}")
        return LitmusOp(kind=str(kind),
                        line=None if line is None else int(line),
                        tx=None if tx is None else int(tx))


@dataclass(frozen=True)
class LitmusProgram:
    """A named multi-core litmus program."""

    name: str
    cores: Tuple[Tuple[LitmusOp, ...], ...]

    # -- construction --------------------------------------------------
    @staticmethod
    def build(name: str, cores: List[List[LitmusOp]]) -> "LitmusProgram":
        program = LitmusProgram(
            name=name, cores=tuple(tuple(ops) for ops in cores))
        program.validate()
        return program

    def validate(self) -> None:
        """Raise ValueError on malformed programs: unbalanced TX
        brackets, stores outside transactions, duplicate tx ids,
        out-of-range lines."""
        if not self.cores:
            raise ValueError(f"{self.name}: a program needs >= 1 core")
        seen_tx: Set[int] = set()
        for core_id, ops in enumerate(self.cores):
            open_tx: Optional[int] = None
            for index, op in enumerate(ops):
                where = f"{self.name}.c{core_id}[{index}]"
                if op.kind == TX_BEGIN:
                    if open_tx is not None:
                        raise ValueError(f"{where}: nested TX_BEGIN")
                    if op.tx is None:
                        raise ValueError(f"{where}: TX_BEGIN without tx id")
                    if op.tx in seen_tx:
                        raise ValueError(
                            f"{where}: duplicate tx id {op.tx}")
                    seen_tx.add(op.tx)
                    open_tx = op.tx
                elif op.kind == TX_END:
                    if open_tx is None:
                        raise ValueError(f"{where}: TX_END outside tx")
                    open_tx = None
                elif op.kind == STORE:
                    if open_tx is None:
                        raise ValueError(
                            f"{where}: store outside a transaction "
                            "(litmus durability is transaction-granular)")
                    if op.line is None or not 0 <= op.line < MAX_LINE_INDEX:
                        raise ValueError(
                            f"{where}: store line {op.line!r} out of range")
                elif op.kind != FENCE:
                    raise ValueError(f"{where}: unknown op {op.kind!r}")
            if open_tx is not None:
                raise ValueError(
                    f"{self.name}.c{core_id}: unterminated tx {open_tx}")

    # -- derived views -------------------------------------------------
    @property
    def num_cores(self) -> int:
        return len(self.cores)

    @property
    def op_count(self) -> int:
        return sum(len(ops) for ops in self.cores)

    def tx_ids(self) -> Set[int]:
        return {op.tx for ops in self.cores for op in ops
                if op.kind == TX_BEGIN}

    def lines_by_core(self) -> List[Set[int]]:
        return [{op.line for op in ops if op.kind == STORE}
                for ops in self.cores]

    def shared_lines(self) -> Set[int]:
        """Line indices written by two or more cores (conflict lines)."""
        per_core = self.lines_by_core()
        shared: Set[int] = set()
        for i, mine in enumerate(per_core):
            for other in per_core[i + 1:]:
                shared |= mine & other
        return shared

    @property
    def conflicting(self) -> bool:
        return bool(self.shared_lines())

    # -- compilation ---------------------------------------------------
    def to_traces(self) -> List[Trace]:
        """Compile to one :class:`~repro.cpu.trace.Trace` per core.

        Store versions are assigned the same way
        :class:`~repro.cpu.trace.TraceBuilder` does — ``Version(tx_id,
        seq)`` with a per-transaction sequence counter — so the crash
        oracle can compare recovered versions across schemes.
        """
        traces: List[Trace] = []
        for core_id, ops in enumerate(self.cores):
            trace = Trace(name=f"{self.name}.c{core_id}")
            open_tx: Optional[int] = None
            seq = 0
            for op in ops:
                if op.kind == TX_BEGIN:
                    open_tx = op.tx
                    seq = 0
                    trace.ops.append(TraceOp(OP_TX_BEGIN, 0, 1, op.tx))
                elif op.kind == TX_END:
                    trace.ops.append(TraceOp(OP_TX_END, 0, 1, open_tx))
                    open_tx = None
                elif op.kind == STORE:
                    version = Version(open_tx, seq)
                    seq += 1
                    trace.ops.append(TraceOp(
                        OP_STORE, line_address(op.line), 1, open_tx,
                        version))
                elif op.kind == FENCE:
                    trace.ops.append(TraceOp(OP_SFENCE, 0, 1, open_tx))
            trace.validate()
            traces.append(trace)
        return traces

    # -- serialization / identity --------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "cores": [[op.to_dict() for op in ops] for ops in self.cores],
        }

    @staticmethod
    def from_dict(data: Dict[str, object]) -> "LitmusProgram":
        if not isinstance(data, dict):
            raise ValueError(f"litmus program must be an object, got {data!r}")
        unknown = sorted(set(data) - {"name", "cores"})
        if unknown:
            raise ValueError(f"litmus program: unknown keys {unknown}")
        cores = data.get("cores")
        if not isinstance(cores, list):
            raise ValueError("litmus program: 'cores' must be a list")
        return LitmusProgram.build(
            name=str(data.get("name", "unnamed")),
            cores=[[LitmusOp.from_dict(op) for op in ops] for ops in cores])

    def canonical_json(self) -> str:
        """Byte-stable serialization — the identity the engine's spec
        keys, the corpus, and the determinism properties hash."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    @property
    def fingerprint(self) -> str:
        return sha256(self.canonical_json().encode("utf-8")).hexdigest()

    def format(self) -> str:
        """Human-readable one-program listing."""
        out = [f"{self.name} ({self.num_cores} cores, "
               f"{self.op_count} ops"
               + (", conflicting" if self.conflicting else "") + ")"]
        for core_id, ops in enumerate(self.cores):
            parts = []
            for op in ops:
                if op.kind == TX_BEGIN:
                    parts.append(f"tx{op.tx}{{")
                elif op.kind == TX_END:
                    parts.append("}")
                elif op.kind == STORE:
                    parts.append(f"L{op.line}")
                else:
                    parts.append("fence")
            out.append(f"  c{core_id}: " + " ".join(parts))
        return "\n".join(out)
