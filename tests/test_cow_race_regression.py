"""Regression test for the COW-home-copy vs TC-write recovery race.

Found by the pheap demo: a transaction big enough to fall back to
copy-on-write writes line L; the next (normal, TC-buffered)
transaction rewrites L.  The fall-back's background home copy of L can
be *older* than the later transaction's write — recovery must never
roll the line back to the fall-back's version.
"""

import pytest

from repro.common.types import NVM_BASE, Version
from repro.cpu.trace import TraceBuilder
from repro.sim.crash import check_recovery
from repro.sim.system import System

LINE = NVM_BASE  # the contended line


def racing_trace(big_stores=100):
    builder = TraceBuilder("race")
    # tx 1: overflows the 64-entry TC -> copy-on-write path; writes LINE
    builder.begin_tx()
    builder.store(LINE)
    for index in range(1, big_stores):
        builder.store(NVM_BASE + index * 64)
    builder.end_tx()
    # tx 2: small TC transaction rewriting the same line
    builder.begin_tx()
    builder.store(LINE)
    builder.end_tx()
    builder.compute(50)
    return builder.build()


@pytest.fixture()
def finished_system():
    system = System.build("txcache", num_cores=1)
    system.load_traces([racing_trace()])
    system.run()
    return system


class TestCowRace:
    def test_both_transactions_took_their_paths(self, finished_system):
        scheme = finished_system.scheme
        assert scheme.overflow.is_fallback(1)
        assert not scheme.overflow.is_fallback(2)
        assert scheme.durably_committed(finished_system.sim.now) == {1, 2}

    def test_recovery_keeps_the_newer_write_at_every_cycle(self):
        # sweep crash cycles densely through the interesting region
        probe = System.build("txcache", num_cores=1)
        trace = racing_trace()
        probe.load_traces([trace])
        probe.run()
        total = probe.sim.now
        for fraction in (0.5, 0.7, 0.8, 0.9, 0.95, 1.0):
            crash = max(1, int(total * fraction))
            system = System.build("txcache", num_cores=1)
            system.load_traces([trace])
            system.run(until=crash)
            committed = system.scheme.durably_committed(crash)
            recovered = system.scheme.durable_lines(crash)
            violations = check_recovery([trace], recovered, committed)
            assert violations == [], (fraction, violations[:3])
            if 2 in committed:
                assert recovered[LINE] == Version(2, 0), fraction

    def test_timed_recovery_procedure_agrees(self, finished_system):
        from repro.core.recovery import simulate_recovery

        system = finished_system
        result = simulate_recovery(system.scheme, system.sim.now)
        assert result.image[LINE] == Version(2, 0)
        assert result.image == system.scheme.durable_lines(system.sim.now)
