"""Crash-consistency tests: failure atomicity under every scheme.

The paper's §2 failure scenarios, mechanically: crash the machine at
arbitrary cycles and verify that recovery yields all-or-nothing
transactions with program-order versions — for the transaction cache
(recovered from the nonvolatile TC contents), for SP (undo-log replay)
and for Kiln (NV-LLC contents).  The Optimal scheme has no recovery
story; a companion test demonstrates the torn state of Fig. 2(a).
"""

import pytest

from repro.common.types import SchemeName, Version
from repro.sim.crash import (
    check_recovery,
    crash_sweep,
    expected_image,
    measure_run_length,
    run_with_crash,
)
from repro.sim.runner import make_traces
from repro.workloads import PAPER_WORKLOADS

PERSISTENT_SCHEMES = ("txcache", "sp", "kiln")
FRACTIONS = (0.15, 0.35, 0.55, 0.8, 0.95)


class TestExpectedImage:
    def test_only_committed_tx_writes_counted(self):
        traces = make_traces("sps", 1, 5, seed=1, array_elements=64)
        all_committed = {op.tx_id for t in traces for op in t.ops
                         if op.tx_id is not None}
        nothing = expected_image(traces, set())
        everything = expected_image(traces, all_committed)
        assert nothing == {}
        assert everything

    def test_newest_committed_version_wins(self):
        traces = make_traces("sps", 1, 30, seed=1, array_elements=16)
        all_committed = {op.tx_id for t in traces for op in t.ops
                         if op.tx_id is not None}
        image = expected_image(traces, all_committed)
        # versions must be the final write per line: re-deriving from the
        # raw trace in reverse must agree
        from repro.common.types import is_home_line, line_addr
        from repro.cpu.trace import OpType
        last = {}
        for op in traces[0].ops:
            if op.op is OpType.STORE and op.version is not None \
                    and is_home_line(op.addr):
                last[line_addr(op.addr)] = op.version
        assert image == last


class TestCheckRecovery:
    def test_clean_image_passes(self):
        traces = make_traces("sps", 1, 5, seed=1, array_elements=64)
        committed = {op.tx_id for t in traces for op in t.ops
                     if op.tx_id is not None}
        image = expected_image(traces, committed)
        assert check_recovery(traces, image, committed) == []

    def test_missing_committed_write_flagged(self):
        traces = make_traces("sps", 1, 5, seed=1, array_elements=64)
        committed = {op.tx_id for t in traces for op in t.ops
                     if op.tx_id is not None}
        image = expected_image(traces, committed)
        image.pop(next(iter(image)))
        violations = check_recovery(traces, image, committed)
        assert violations and "expected committed" in violations[0]

    def test_uncommitted_leak_flagged(self):
        traces = make_traces("sps", 1, 5, seed=1, array_elements=64)
        tx_ids = sorted({op.tx_id for t in traces for op in t.ops
                         if op.tx_id is not None})
        committed = set(tx_ids[:-1])
        leaked_tx = tx_ids[-1]
        image = expected_image(traces, committed)
        # leak one uncommitted write
        from repro.common.types import NVM_BASE
        image[NVM_BASE] = Version(leaked_tx, 0)
        violations = check_recovery(traces, image, committed)
        assert any("leaked" in v for v in violations)


@pytest.mark.parametrize("scheme", PERSISTENT_SCHEMES)
class TestAtomicityAcrossCrashPoints:
    def test_sps_crashes_are_consistent(self, scheme):
        for report in crash_sweep("sps", scheme, fractions=FRACTIONS,
                                  operations=40, seed=7,
                                  array_elements=128):
            assert report.consistent, report.violations[:3]

    def test_rbtree_crashes_are_consistent(self, scheme):
        for report in crash_sweep("rbtree", scheme, fractions=FRACTIONS,
                                  operations=30, seed=7, initial_keys=16):
            assert report.consistent, report.violations[:3]

    def test_multicore_crashes_are_consistent(self, scheme):
        for report in crash_sweep("hashtable", scheme,
                                  fractions=(0.3, 0.7),
                                  operations=25, seed=7, num_cores=2,
                                  buckets=64):
            assert report.consistent, report.violations[:3]


@pytest.mark.parametrize("scheme", PERSISTENT_SCHEMES)
class TestRecoveryProgress:
    def test_late_crash_commits_most_transactions(self, scheme):
        total = measure_run_length("sps", scheme, operations=40, seed=3,
                                   array_elements=128)
        report = run_with_crash("sps", scheme, total, operations=40,
                                seed=3, array_elements=128)
        assert report.consistent
        # at the very end, every program-committed tx must be durable
        assert len(report.committed) >= report.program_committed

    def test_early_crash_commits_few(self, scheme):
        total = measure_run_length("sps", scheme, operations=40, seed=3,
                                   array_elements=128)
        early = run_with_crash("sps", scheme, max(1, total // 20),
                               operations=40, seed=3, array_elements=128)
        late = run_with_crash("sps", scheme, int(total * 0.95),
                              operations=40, seed=3, array_elements=128)
        assert len(early.committed) <= len(late.committed)


class TestOptimalTearsState:
    def test_optimal_violates_atomicity_somewhere(self):
        """The Fig. 2(a) scenario: without persistence support, some
        crash point leaves a transaction half-applied."""
        # the array must thrash the hierarchy so that reordered write-backs
        # leak partially-updated transactions into the NVM
        total = measure_run_length("sps", "optimal", operations=60,
                                   seed=11, array_elements=8192)
        saw_violation = False
        for fraction in (0.3, 0.5, 0.7, 0.9):
            report = run_with_crash(
                "sps", "optimal", int(total * fraction),
                operations=60, seed=11, array_elements=8192)
            # under Optimal, 'committed' is empty, so any leaked write
            # of any transaction is a violation
            if not report.consistent:
                saw_violation = True
                break
        assert saw_violation, (
            "expected the no-persistence baseline to tear state at "
            "some crash point (nothing ever reached the NVM?)")


class TestNegativeControlOnPaperWorkloads:
    @pytest.mark.parametrize("workload", PAPER_WORKLOADS)
    def test_broken_commit_tears_every_crash_point(self, workload):
        """The commit-before-flush scheme must be caught on the paper's
        workloads, not only on litmus shapes."""
        reports = crash_sweep(workload, "broken_commit", operations=40)
        assert len(reports) == 5
        for report in reports:
            assert report.scheme is SchemeName.BROKEN_COMMIT
            assert not report.consistent, report.crash_cycle


class TestSchemeSpecificRecovery:
    def test_txcache_recovers_from_tc_contents(self):
        """Crash right after commits: data still in the TC (unacked)
        must be recovered even though the NVM never saw it."""
        from repro.sim.system import System
        from repro.sim.runner import make_traces

        system = System.build("txcache", num_cores=1)
        traces = make_traces("sps", 1, 10, seed=5, array_elements=64)
        system.load_traces(traces)
        # run only far enough that commits happened but acks lag
        system.run(until=2000)
        committed = system.scheme.durably_committed(2000)
        recovered = system.scheme.durable_lines(2000)
        violations = check_recovery(traces, recovered, committed)
        assert violations == []

    def test_sp_rolls_back_uncommitted_inplace_writes(self):
        for report in crash_sweep("sps", "sp", fractions=(0.4, 0.6),
                                  operations=30, seed=13,
                                  array_elements=64):
            assert report.consistent, report.violations[:3]
