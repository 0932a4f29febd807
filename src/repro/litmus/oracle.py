"""Scheme-independent legal-persist-set oracle.

Given only a program (as per-core traces), this module answers: *which
NVM images may a correct persistency model expose after a crash?*  It
strictly generalizes the single-image ``expected_image`` oracle that
``repro.sim.crash`` started with, which assumed every line has exactly
one legal recovered value.

The model, matching the failure-atomicity contract of paper §2 (and
the per-thread persist orders of *Lost in Interpretation*,
arXiv:2405.18575):

1. **Write-order control (prefix closure).**  A core's transactions
   become durable in program order, so the set of durably-committed
   transactions restricted to one core must be a prefix of that core's
   transaction order.  A commit set that skips over an earlier
   uncommitted transaction on the same core is itself a violation.
2. **Failure atomicity.**  Every write of a committed transaction is
   durable; no write of an uncommitted transaction is visible.
3. **Per-line freshness.**  For each line, the recovered version must
   be the *final* value written by some core's **last** committed
   writer of that line.  Within a core, program order forbids exposing
   an overwritten value; across cores, conflicting committed writers
   are unordered by the program alone (no isolation is promised), so
   any of the per-core-maximal candidates is legal.

The legal persist set at a crash point is therefore the product, over
lines, of each line's candidate versions — singleton for core-private
lines (where it degenerates to the old ``expected_image``), and
multi-valued only on shared conflict lines.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import (AbstractSet, Dict, Iterable, List, Mapping, Optional,
                    Sequence, Set, Tuple)

from ..common.types import Version, is_home_line, line_addr
from ..cpu.trace import KIND_STORE, KIND_TX_BEGIN, KIND_TX_END, Trace

#: safety cap for explicit image enumeration (the membership check
#: never enumerates; this only bounds ``legal_images``)
MAX_ENUMERATED_IMAGES = 4096


@dataclass(frozen=True)
class TxSummary:
    """One transaction's durable footprint: its final version per
    home-region line, in one core's program order."""

    tx_id: int
    core: int
    index: int  # position in the core's transaction order
    writes: Tuple[Tuple[int, Version], ...]  # (line, final version)

    @property
    def lines(self) -> Tuple[int, ...]:
        return tuple(line for line, _ in self.writes)


def tx_summaries(traces: Sequence[Trace]) -> List[List[TxSummary]]:
    """Extract per-core transaction summaries from (unprepared) traces.

    Only versioned stores to the NVM home region count — scheme
    instrumentation regions (WAL logs, commit records) and DRAM
    scratch writes are not part of the program's persistent footprint.
    """
    summaries: List[List[TxSummary]] = []
    for core, trace in enumerate(traces):
        core_txs: List[TxSummary] = []
        open_tx: Optional[int] = None
        writes: Dict[int, Version] = {}
        for op in trace.ops:
            kind = op.kind
            if kind == KIND_TX_BEGIN:
                open_tx = op.tx_id
                writes = {}
            elif kind == KIND_TX_END:
                if open_tx is not None:
                    core_txs.append(TxSummary(
                        tx_id=open_tx, core=core, index=len(core_txs),
                        writes=tuple(sorted(writes.items()))))
                open_tx = None
            elif (kind == KIND_STORE and open_tx is not None
                  and op.version is not None and is_home_line(op.addr)):
                writes[line_addr(op.addr)] = op.version
        if open_tx is not None:
            # an unterminated trailing tx can never be durably
            # committed by a scheme, but synthetic oracles (tests
            # passing all tx ids) still count its writes
            core_txs.append(TxSummary(
                tx_id=open_tx, core=core, index=len(core_txs),
                writes=tuple(sorted(writes.items()))))
        summaries.append(core_txs)
    return summaries


def all_tx_ids(summaries: Sequence[Sequence[TxSummary]]) -> Set[int]:
    return {tx.tx_id for core_txs in summaries for tx in core_txs}


def prefix_violations(summaries: Sequence[Sequence[TxSummary]],
                      committed: AbstractSet[int]) -> List[str]:
    """Check write-order control: per core, the committed subset must
    be a program-order prefix of the core's *writing* transactions.

    Write-free transactions have no durable footprint, so a scheme
    that never marks them committed (SP emits no commit record for
    them) creates no observable ordering gap.
    """
    violations: List[str] = []
    for core_txs in summaries:
        gap: Optional[TxSummary] = None
        for tx in core_txs:
            if tx.tx_id not in committed:
                if gap is None and tx.writes:
                    gap = tx
            elif gap is not None:
                violations.append(
                    f"write-order violation on core {tx.core}: "
                    f"tx {tx.tx_id} durable before earlier tx {gap.tx_id}")
                break
    return violations


def legal_commit_sets(
        summaries: Sequence[Sequence[TxSummary]]) -> List[Set[int]]:
    """Every commit set a correct model may expose: the product of
    per-core program-order prefixes."""
    per_core_prefixes: List[List[Set[int]]] = []
    for core_txs in summaries:
        prefixes: List[Set[int]] = [set()]
        for tx in core_txs:
            prefixes.append(prefixes[-1] | {tx.tx_id})
        per_core_prefixes.append(prefixes)
    return [set().union(*combo) if combo else set()
            for combo in product(*per_core_prefixes)]


def line_candidates(summaries: Sequence[Sequence[TxSummary]],
                    committed: AbstractSet[int],
                    ) -> Dict[int, Set[Optional[Version]]]:
    """Per line, the set of versions a correct recovery may expose.

    For each core, only its *last* committed writer of the line
    contributes (program order forbids exposing overwritten values);
    across cores the candidates union (conflicting committed writers
    are unordered by the program alone).  A line no committed
    transaction wrote maps to ``{None}`` — it must be absent (or
    unversioned) in the recovered image.
    """
    candidates: Dict[int, Set[Optional[Version]]] = {}
    touched: Set[int] = set()
    for core_txs in summaries:
        last_write: Dict[int, Version] = {}
        for tx in core_txs:
            for line, version in tx.writes:
                touched.add(line)
                if tx.tx_id in committed:
                    last_write[line] = version
        for line, version in last_write.items():
            candidates.setdefault(line, set()).add(version)
    for line in touched:
        if line not in candidates:
            candidates[line] = {None}
    return candidates


def expected_image_from_summaries(
        summaries: Sequence[Sequence[TxSummary]],
        committed: AbstractSet[int]) -> Dict[int, Version]:
    """The old single-image expectation: per-core final committed
    writes merged in core order (later cores overwrite).  Exactly the
    legal image on conflict-free programs; on shared lines it picks
    the highest-numbered core's candidate, which is one member of the
    legal set."""
    expected: Dict[int, Version] = {}
    for core_txs in summaries:
        for tx in core_txs:
            if tx.tx_id in committed:
                for line, version in tx.writes:
                    expected[line] = version
    return expected


def legal_images(summaries: Sequence[Sequence[TxSummary]],
                 committed: AbstractSet[int],
                 limit: int = MAX_ENUMERATED_IMAGES,
                 ) -> List[Dict[int, Version]]:
    """Enumerate the full legal persist set for one commit set (for
    small programs / docs / the frozen corpus; the runner uses the
    O(lines) membership check instead).  Deterministic order."""
    cands = line_candidates(summaries, committed)
    lines = sorted(cands)
    choice_lists = [sorted(cands[line],
                           key=lambda v: (v is not None, str(v)))
                    for line in lines]
    count = 1
    for choices in choice_lists:
        count *= len(choices)
        if count > limit:
            raise ValueError(
                f"legal persist set larger than limit ({limit}); "
                "use check_membership instead of enumerating")
    images: List[Dict[int, Version]] = []
    for combo in product(*choice_lists):
        images.append({line: version
                       for line, version in zip(lines, combo)
                       if version is not None})
    return images


def check_membership(summaries: Sequence[Sequence[TxSummary]],
                     committed: AbstractSet[int],
                     recovered: Mapping[int, Optional[Version]],
                     known_tx: Optional[AbstractSet[int]] = None,
                     ) -> List[str]:
    """Is ``recovered`` a member of the legal persist set for this
    commit set?  Returns human-readable violations (empty == legal).

    Checks, in order: per-core prefix closure of ``committed``, per
    line candidate membership (covers both torn/missing committed
    writes and stale overwritten versions), and uncommitted-data
    leaks on lines the program never committed a write to.
    ``known_tx`` is :func:`all_tx_ids` of ``summaries``; a caller
    checking many states of one program passes it in once.
    """
    violations = list(prefix_violations(summaries, committed))
    if known_tx is None:
        known_tx = all_tx_ids(summaries)
    candidates = line_candidates(summaries, committed)

    for line in sorted(candidates):
        allowed = candidates[line]
        found = recovered.get(line)
        if found in allowed or allowed == {None}:
            # the {None} case (no committed writer) is covered by the
            # leak pass below, which also reports uncommitted data on
            # lines that *do* have committed candidates — matching the
            # historic two-pass check_recovery
            continue
        concrete = sorted((v for v in allowed if v is not None),
                          key=str)
        if len(concrete) == 1 and None not in allowed:
            # preserve the historic single-expectation message shape
            violations.append(
                f"line {line:#x}: expected committed {concrete[0]}, "
                f"found {found}")
        else:
            legal = ", ".join(str(v) for v in concrete)
            if None in allowed:
                legal += ", or absent"
            violations.append(
                f"line {line:#x}: found {found}, not in legal persist "
                f"set {{{legal}}}")

    # independent leak pass over the whole recovered image: any
    # versioned value from a known-but-uncommitted transaction is a
    # failure-atomicity violation, wherever it landed
    for line, found in recovered.items():
        if found is None or found.tx_id is None:
            continue
        if found.tx_id in known_tx and found.tx_id not in committed:
            violations.append(
                f"line {line:#x}: uncommitted data {found} "
                "leaked into NVM")
    return violations
