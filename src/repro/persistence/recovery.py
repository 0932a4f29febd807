"""The two recovery routines every scheme's crash model is built from.

Recovery starts from the durable home image a crash left behind and
applies one log scan per log kind, in the manner of the undo/redo
recovery of *Persistent Memory Transactions* (arXiv:1804.00701):

* :func:`rollback` — undo logging (SP, undo_log): unwind the undo log
  newest-first, restoring every in-place write of an uncommitted
  transaction to its logged pre-value.
* :func:`replay` — redo-style logs (redo_log, hybrid_dram, kiln's
  NV-LLC, txcache's nonvolatile TC and COW records): apply committed
  write sets in the order the caller supplies.

Both mutate and return ``image`` (home line -> version).
"""

from __future__ import annotations

from typing import (
    Collection,
    Dict,
    Iterable,
    MutableMapping,
    Optional,
    Sequence,
    Tuple,
)

from ..common.types import Version

Image = MutableMapping[int, Optional[Version]]
#: one transaction's writes to replay: (tx id, home line -> version)
PlanItem = Tuple[int, Dict[int, Optional[Version]]]


def rollback(
    image: Image,
    undo_log: Sequence[Tuple[int, int, Optional[Version]]],
    committed: Collection[int],
) -> Image:
    """Roll back every in-place write of an uncommitted transaction
    that reached ``image``.

    ``undo_log`` holds ``(tx, line, pre-store version)`` in global store
    issue order.  It is unwound newest-first across *all* cores, so a
    chain of conflicting stores rolls back as a stack: restoring a
    pre-value that itself belongs to an uncommitted transaction is
    immediately undone by that transaction's own (earlier) entry.
    """
    for tx_id, line, old_version in reversed(undo_log):
        if tx_id in committed:
            continue
        found = image.get(line)
        if found is not None and found.tx_id == tx_id:
            if old_version is None:
                image.pop(line, None)
            else:
                image[line] = old_version
    return image


def replay(
    image: Image,
    plan: Iterable[PlanItem],
    rank: Dict[int, int],
) -> Image:
    """Apply ``plan``'s write sets to ``image`` in plan order.

    ``plan`` must be sorted by ``rank`` (tx id -> replay rank).  A line
    keeps its current owner when that owner ranks later than the
    transaction being replayed: the crash image can already hold a
    later transaction's write (a COW home copy can land after a newer
    TC write to the same line), and replaying older data over it would
    roll the line back.  Owners without a rank (non-transactional
    writes, transactions that never committed) rank lowest.
    """
    owner_of, rank_of = image.get, rank.get   # hot: every crash state
    for tx_id, writes in plan:
        mine = rank[tx_id]
        for line, version in writes.items():
            owner = owner_of(line)
            if owner is None or rank_of(owner.tx_id, -1) <= mine:
                image[line] = version
    return image
