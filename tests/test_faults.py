"""Tests for the fault-injection & resilience subsystem.

Covers the injector's determinism contract (per-site independent
streams, zero-rate sites never draw), the SECDED ECC model, the NVM
write-verify-retry/remap path, the lossy-ack machinery (drop / delay /
duplicate, timeout + idempotent reissue), and graceful degradation to
the copy-on-write overflow path — plus the strict zero-rate no-op
guarantee at the ``System`` level.
"""

from dataclasses import replace

import pytest

from repro.common.config import FaultConfig, small_machine_config
from repro.common.event import Simulator
from repro.common.stats import Stats
from repro.common.types import NVM_BASE, SchemeName, Version
from repro.faults import AckFate, EccOutcome, FaultInjector, SECDEDModel
from repro.memory.system import MemorySystem
from repro.sim.runner import make_traces
from repro.sim.system import System


def faulty_config(**kwargs):
    return FaultConfig(**kwargs)


class FirstWriteFails(FaultInjector):
    """Fails the first NVM write verification only (the configured
    ``nvm_write_fail_rate`` is ignored)."""

    attempts = 0

    def nvm_write_fails(self):
        self.attempts += 1
        return self.attempts == 1


# ---------------------------------------------------------------------------
# injector
# ---------------------------------------------------------------------------
class TestInjectorDeterminism:
    def test_same_seed_same_draws(self):
        cfg = faulty_config(seed=7, nvm_write_fail_rate=0.5,
                            ack_loss_rate=0.2, ack_delay_rate=0.2,
                            tc_bit_flip_rate=1e-3)
        a, b = FaultInjector(cfg), FaultInjector(cfg)
        assert [a.nvm_write_fails() for _ in range(200)] == \
            [b.nvm_write_fails() for _ in range(200)]
        assert [a.ack_fate() for _ in range(200)] == \
            [b.ack_fate() for _ in range(200)]
        assert [a.tc_read_flips() for _ in range(200)] == \
            [b.tc_read_flips() for _ in range(200)]

    def test_different_seeds_differ(self):
        draws = []
        for seed in (0, 1):
            inj = FaultInjector(faulty_config(seed=seed,
                                              nvm_write_fail_rate=0.5))
            draws.append([inj.nvm_write_fails() for _ in range(64)])
        assert draws[0] != draws[1]

    def test_sites_are_independent_streams(self):
        # enabling the ack fault model must not perturb the NVM write
        # verification draw sequence
        write_only = FaultInjector(faulty_config(nvm_write_fail_rate=0.5))
        both = FaultInjector(faulty_config(nvm_write_fail_rate=0.5,
                                           ack_loss_rate=0.5))
        seq = []
        for _ in range(100):
            seq.append(both.nvm_write_fails())
            both.ack_fate()  # interleaved draws on the other site
        assert seq == [write_only.nvm_write_fails() for _ in range(100)]

    def test_zero_rate_site_never_draws(self):
        inj = FaultInjector(faulty_config(nvm_write_fail_rate=0.5))
        assert inj.ack_fate() == (AckFate.DELIVER, 0)
        assert inj.tc_read_flips() == 0
        for _ in range(32):
            inj.nvm_write_fails()
        assert set(inj._streams) == {"nvm.write"}

    def test_backoff_is_exponential_and_capped(self):
        inj = FaultInjector(faulty_config(nvm_write_fail_rate=0.1,
                                          retry_backoff_cycles=16))
        assert inj.write_retry_backoff(1) == 16
        assert inj.write_retry_backoff(2) == 32
        assert inj.write_retry_backoff(5) == 256
        assert inj.write_retry_backoff(11) == 16 * 1024
        assert inj.write_retry_backoff(50) == 16 * 1024  # capped


class TestAckFates:
    def test_certain_loss(self):
        inj = FaultInjector(faulty_config(ack_loss_rate=1.0))
        assert all(inj.ack_fate() == (AckFate.DROP, 0) for _ in range(16))

    def test_certain_delay_carries_configured_cycles(self):
        inj = FaultInjector(faulty_config(ack_delay_rate=1.0,
                                          ack_delay_cycles=321))
        assert inj.ack_fate() == (AckFate.DELAY, 321)

    def test_certain_duplicate(self):
        inj = FaultInjector(faulty_config(ack_duplicate_rate=1.0))
        assert inj.ack_fate() == (AckFate.DUPLICATE, 0)

    def test_rates_partition_the_draw(self):
        inj = FaultInjector(faulty_config(ack_loss_rate=0.3,
                                          ack_delay_rate=0.3,
                                          ack_duplicate_rate=0.3))
        counts = {fate: 0 for fate in AckFate}
        n = 4000
        for _ in range(n):
            fate, _delay = inj.ack_fate()
            counts[fate] += 1
        for fate in (AckFate.DROP, AckFate.DELAY, AckFate.DUPLICATE):
            assert abs(counts[fate] / n - 0.3) < 0.05
        assert abs(counts[AckFate.DELIVER] / n - 0.1) < 0.05


# ---------------------------------------------------------------------------
# SECDED ECC model
# ---------------------------------------------------------------------------
class TestSECDED:
    def make(self, **kwargs):
        cfg = faulty_config(**kwargs)
        stats = Stats()
        model = SECDEDModel(FaultInjector(cfg), cfg, stats.scoped("ecc"))
        return model, stats

    def test_zero_rate_always_clean(self):
        model, stats = self.make(nvm_write_fail_rate=0.5)  # no flip rate
        assert all(model.read() is EccOutcome.CLEAN for _ in range(64))
        assert model.error_rate == 0.0
        assert not model.degraded
        assert stats.counter("ecc.corrected") == 0

    def test_counters_track_outcomes(self):
        model, stats = self.make(tc_bit_flip_rate=2e-3)
        outcomes = [model.read() for _ in range(3000)]
        corrected = outcomes.count(EccOutcome.CORRECTED)
        uncorrectable = outcomes.count(EccOutcome.UNCORRECTABLE)
        assert corrected > 0 and uncorrectable > 0
        assert model.corrected == corrected == stats.counter("ecc.corrected")
        assert model.uncorrectable == uncorrectable == \
            stats.counter("ecc.uncorrectable")
        assert model.error_rate == pytest.approx(
            (corrected + uncorrectable) / 3000)

    def test_degradation_is_sticky_and_rate_gated(self):
        # per-bit rate high enough that essentially every read errors
        model, stats = self.make(tc_bit_flip_rate=0.01,
                                 degrade_error_rate=0.5,
                                 degrade_min_reads=8)
        for _ in range(7):
            model.read()
        assert not model.degraded  # below degrade_min_reads
        for _ in range(8):
            model.read()
        assert model.degraded
        assert stats.counter("ecc.degraded") == 1
        for _ in range(32):  # sticky: counted once
            model.read()
        assert model.degraded
        assert stats.counter("ecc.degraded") == 1


# ---------------------------------------------------------------------------
# NVM write-verify-retry at the controller
# ---------------------------------------------------------------------------
class TestWriteVerifyRetry:
    def run_one_write(self, fault_cfg):
        sim = Simulator()
        stats = Stats()
        faults = FaultInjector(fault_cfg) if fault_cfg.enabled else None
        memory = MemorySystem(sim, small_machine_config(num_cores=1),
                              stats, faults=faults)
        completions = []
        memory.write(NVM_BASE, Version(1, 0),
                     on_complete=lambda r, c: completions.append(c))
        sim.run(max_events=100_000)
        return sim, stats, memory, completions

    def test_retries_then_spare_row_remap(self):
        # rate 1.0: every verify fails; 2 retries then the remap path
        cfg = faulty_config(nvm_write_fail_rate=1.0, max_write_retries=2,
                            retry_backoff_cycles=16)
        sim, stats, memory, completions = self.run_one_write(cfg)
        assert len(completions) == 1  # completes exactly once
        assert not memory.busy()
        assert stats.counter("mem.nvm.write.verify_failures") == 3
        assert stats.counter("mem.nvm.write.retries") == 2
        assert stats.counter("mem.nvm.write.remaps") == 1

    def test_retry_adds_backoff_latency(self):
        clean = self.run_one_write(FaultConfig())
        faulty = self.run_one_write(
            faulty_config(nvm_write_fail_rate=1.0, max_write_retries=2,
                          retry_backoff_cycles=16))
        # two retries with backoff 16 then 32, plus re-run bank access
        assert faulty[3][0] >= clean[3][0] + 16 + 32

    def test_fault_free_config_never_retries(self):
        _sim, stats, _memory, completions = self.run_one_write(FaultConfig())
        assert len(completions) == 1
        assert stats.counter("mem.nvm.write.verify_failures") == 0

    @staticmethod
    def first_write_fails(backoff):
        sim = Simulator()
        stats = Stats()
        faults = FirstWriteFails(faulty_config(
            nvm_write_fail_rate=0.5, retry_backoff_cycles=backoff))
        memory = MemorySystem(sim, small_machine_config(num_cores=1),
                              stats, faults=faults)
        return sim, stats, memory

    def test_retry_is_not_overtaken_by_newer_same_line_write(self):
        # v0's first attempt fails verification and backs off; v1,
        # queued behind it on the same line, must still reach the array
        # after it
        sim, _stats, memory = self.first_write_fails(backoff=16)
        memory.write(NVM_BASE, Version(1, 0))
        memory.write(NVM_BASE, Version(1, 1))
        sim.run(max_events=100_000)
        durable = [version for _cycle, _seq, _line, version
                   in memory.durable_image.events]
        assert durable == [Version(1, 0), Version(1, 1)]
        assert memory.durable_image.current(NVM_BASE) == Version(1, 1)

    def test_retry_waits_out_backoff_then_its_bank(self):
        backoff = 16
        sim, stats, memory = self.first_write_fails(backoff)
        controller = memory.nvm
        grants = []
        service = controller._service

        def logged_service(request):
            now = sim.now
            service(request)
            grants.append((now, request.bank.busy_until))

        controller._service = logged_service
        memory.write(NVM_BASE, Version(1, 0))
        sim.run(max_events=100_000)
        (_first_at, failed_at), (retry_at, _done) = grants
        # the bank is free when the backoff ends, so the scheduler
        # wakes for the retry exactly then
        assert retry_at == failed_at + backoff
        assert stats.counter("mem.nvm.write.retries") == 1

    @pytest.mark.parametrize("workload,scheme", [
        ("hashtable", "sp"), ("hashtable", "undo_log")])
    def test_no_bank_access_while_busy_under_retries(self, monkeypatch,
                                                     workload, scheme):
        """A retried write waits for its bank like any request: no bank
        is ever accessed before its previous access has finished."""
        from repro.memory.bank import Bank

        busy_accesses = []
        inner = Bank.access

        def checked(bank, row, now, hit_cycles, miss_cycles):
            bank._catch_up_refresh(now)
            if now < bank.busy_until:
                busy_accesses.append((bank.index, now, bank.busy_until))
            return inner(bank, row, now, hit_cycles, miss_cycles)

        monkeypatch.setattr(Bank, "access", checked)
        config = replace(small_machine_config(num_cores=2),
                         faults=faulty_config(nvm_write_fail_rate=0.2))
        system = System(config, scheme)
        system.load_traces(make_traces(workload, 2, 60, seed=42))
        system.run()
        assert system.done
        assert system.stats.counter("mem.nvm.write.retries") > 0
        assert busy_accesses == []


# ---------------------------------------------------------------------------
# end-to-end: lossy acks, reissue, ECC fallback, zero-rate no-op
# ---------------------------------------------------------------------------
def run_system(fault_cfg, workload="hashtable", operations=30, seed=3):
    config = replace(small_machine_config(num_cores=1), faults=fault_cfg)
    system = System(config, SchemeName.TXCACHE)
    system.load_traces(make_traces(workload, 1, operations, seed=seed))
    system.run(max_events=5_000_000)
    return system


class TestSystemUnderFaults:
    def test_zero_rates_construct_no_injector(self):
        system = run_system(FaultConfig(seed=123))  # all rates zero
        assert system.faults is None
        assert system.memory.nvm.faults is None

    def test_zero_rates_match_default_cycle_for_cycle(self):
        base = run_system(FaultConfig())
        seeded = run_system(FaultConfig(seed=99))  # still all-zero rates
        assert base.sim.now == seeded.sim.now
        assert base.stats.as_dict() == seeded.stats.as_dict()

    def test_lost_acks_recovered_by_timeout_reissue(self):
        cfg = faulty_config(ack_loss_rate=0.5, ack_timeout_cycles=500)
        system = run_system(cfg)
        assert system.cores[0].done
        assert not system.memory.busy()
        stats = system.stats
        assert stats.counter("mem.nvm.ack.dropped") > 0
        assert stats.counter("tc.ack.timeouts") > 0
        assert stats.counter("tc.ack.reissues") > 0
        # every reissue eventually freed its entry: the TC drained
        tc = system.scheme.accelerator.tcs[0]
        tc.check_invariants()
        assert tc.occupancy == 0

    def test_duplicate_acks_are_idempotent(self):
        cfg = faulty_config(ack_duplicate_rate=1.0)
        system = run_system(cfg)
        assert system.cores[0].done
        stats = system.stats
        assert stats.counter("mem.nvm.ack.duplicated") > 0
        # every duplicate surfaced as a warning-level event, none freed
        # a second entry (occupancy would go negative / assert)
        assert stats.counter("tc.0.ack.unmatched") > 0
        assert stats.events("tc.0.ack.unmatched")
        tc = system.scheme.accelerator.tcs[0]
        tc.check_invariants()
        assert tc.occupancy == 0

    def test_delayed_acks_do_not_stall_forever(self):
        cfg = faulty_config(ack_delay_rate=1.0, ack_delay_cycles=200)
        system = run_system(cfg)
        assert system.cores[0].done
        assert system.stats.counter("mem.nvm.ack.delayed") > 0

    def test_final_state_matches_fault_free_run(self):
        # faults cost latency but never change architectural results
        from repro.common.types import line_addr
        from repro.cpu.trace import OpType

        clean = run_system(FaultConfig())
        faulty = run_system(faulty_config(
            nvm_write_fail_rate=0.01, ack_loss_rate=0.05,
            ack_duplicate_rate=0.05, tc_bit_flip_rate=1e-4,
            ack_timeout_cycles=500))
        assert faulty.sim.now >= clean.sim.now
        for op in clean.source_traces[0].ops:
            if op.op is OpType.STORE:
                line = line_addr(op.addr)
                assert clean.hierarchy.newest_version(0, line) == \
                    faulty.hierarchy.newest_version(0, line)

    def test_degraded_tc_diverts_new_transactions_to_cow(self):
        # every read errors; after degrade_min_reads the TC goes sticky
        # degraded and the scheme routes whole transactions to COW
        cfg = faulty_config(tc_bit_flip_rate=0.05, degrade_error_rate=0.5,
                            degrade_min_reads=16, ack_timeout_cycles=1000)
        system = run_system(cfg, operations=40)
        assert system.cores[0].done
        stats = system.stats
        assert stats.counter("tc.0.ecc.degraded") == 1
        assert stats.counter("scheme.txcache.degraded_fallbacks") > 0


# ---------------------------------------------------------------------------
# the one shared backoff curve, property-tested
# ---------------------------------------------------------------------------
from hypothesis import given
from hypothesis import strategies as st

from repro.faults import exponential_backoff

_BASES = st.floats(min_value=1e-6, max_value=1e6,
                   allow_nan=False, allow_infinity=False)


class TestExponentialBackoffProperties:
    """exponential_backoff is the retry discipline shared by NVM
    write-verify-retry, the serve worker pool, the serve client, and
    the cluster router — so its shape is pinned by properties, not
    just spot values."""

    @given(base=_BASES, attempt=st.integers(min_value=1, max_value=200),
           max_doublings=st.integers(min_value=0, max_value=40))
    def test_monotone_nondecreasing_in_attempt(self, base, attempt,
                                               max_doublings):
        here = exponential_backoff(base, attempt,
                                   max_doublings=max_doublings)
        next_one = exponential_backoff(base, attempt + 1,
                                       max_doublings=max_doublings)
        assert next_one >= here

    @given(base=_BASES, attempt=st.integers(min_value=1, max_value=500),
           max_doublings=st.integers(min_value=0, max_value=40))
    def test_capped_at_max_doublings(self, base, attempt,
                                     max_doublings):
        ceiling = base * 2 ** max_doublings
        value = exponential_backoff(base, attempt,
                                    max_doublings=max_doublings)
        assert value <= ceiling
        if attempt > max_doublings:          # cap actually binds
            assert value == ceiling

    @given(base=_BASES)
    def test_exact_values_for_first_three_attempts(self, base):
        assert exponential_backoff(base, 1) == base
        assert exponential_backoff(base, 2) == base * 2
        assert exponential_backoff(base, 3) == base * 4

    @given(base=_BASES, attempt=st.integers(min_value=1, max_value=200))
    def test_positive_and_scales_linearly_with_base(self, base, attempt):
        value = exponential_backoff(base, attempt)
        assert value > 0
        assert value == base * exponential_backoff(1.0, attempt)
