"""Shared fixtures.

``ring_scan_checks`` swaps the accelerator's :class:`TransactionCache`
for a subclass that answers every CAM match from the production
indexes *and* checks the answer against a literal ring scan (paper
§4.1), so any system-level run doubles as a differential of the two.
"""

from collections import Counter
from contextlib import contextmanager

import pytest

from repro.common.types import line_addr
from repro.core import accelerator
from repro.core.txcache import TransactionCache, TxState


class RingScanCheckedTC(TransactionCache):
    """A :class:`TransactionCache` whose every CAM match is re-derived
    by scanning the ring; a disagreement raises AssertionError inside
    the simulation.  ``checks`` counts the matches verified, per kind."""

    checks: Counter = Counter()

    def _scan(self, tx_id=None, tag=None, state=None):
        """Live entries in ring (FIFO) order matching every given key."""
        return [e for e in self._ring if e.state is not TxState.AVAILABLE
                and tx_id in (None, e.tx_id) and tag in (None, e.tag)
                and state in (None, e.state)]

    def _verified(self, kind):
        self.check_invariants()
        self.checks[kind] += 1

    def write(self, tx_id, addr, version):
        target = None
        if self.config.coalesce_writes:
            mine = self._scan(tx_id, line_addr(addr), TxState.ACTIVE)
            assert len(mine) <= 1, f"duplicate active entries {mine}"
            target = mine[0] if mine else None
        size = len(self._ring)
        accepted = super().write(tx_id, addr, version)
        if target is not None:
            assert accepted and len(self._ring) == size
            assert target.version is version, "coalesced into the wrong entry"
        elif accepted:
            assert len(self._ring) == size + 1
            assert self._ring[-1].version is version
        self._verified("write")
        return accepted

    def commit(self, tx_id):
        want = self._scan(tx_id, state=TxState.ACTIVE)
        got = super().commit(tx_id)
        assert got == want, f"commit of tx {tx_id}: {got} != ring scan {want}"
        self._verified("commit")
        return got

    def ack(self, addr, seq=None):
        want = next((e for e in self._scan(tag=line_addr(addr),
                                           state=TxState.COMMITTED)
                     if e.issued and seq in (None, e.seq)), None)
        got = super().ack(addr, seq)
        assert got is want, f"ack {addr:#x} seq {seq}: {got} != {want}"
        self._verified("ack")
        return got

    def probe(self, addr):
        hits = self._scan(tag=line_addr(addr))
        got = super().probe(addr)
        assert got is (hits[-1] if hits else None), f"probe {addr:#x}"
        self._verified("probe")
        return got

    def drop_transaction(self, tx_id):
        want = self._scan(tx_id, state=TxState.ACTIVE)
        got = super().drop_transaction(tx_id)
        assert got == want, f"drop of tx {tx_id}: {got} != ring scan {want}"
        self._verified("drop")
        return got


@contextmanager
def _ring_scan_checks():
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(accelerator, "TransactionCache",
                            RingScanCheckedTC)
        monkeypatch.setattr(RingScanCheckedTC, "checks", Counter())
        yield RingScanCheckedTC.checks


@pytest.fixture(scope="session")
def ring_scan_checks():
    """Context manager: inside it every accelerator TC is built as a
    :class:`RingScanCheckedTC`; it yields the (fresh) per-kind count of
    verified matches.  Session-scoped so hypothesis tests can use it."""
    return _ring_scan_checks
