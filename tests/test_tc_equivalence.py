"""System-level differential: the indexed CAM matches ARE ring scans.

:class:`~repro.core.txcache.TransactionCache` answers its CAM matches
(write coalescing, commit, ack, probe, overflow drop) from lookup
indexes instead of walking the FIFO.  ``tests/test_txcache.py`` checks
that against a model on random op sequences; this module checks it on
the op sequences real simulations produce.  Every run goes through the
``ring_scan_checks`` fixture (``tests/conftest.py``), whose TC re-derives
each match by a ring scan and asserts the indexes picked the same
entry, then the full result — every raw stat counter included — must
equal an unchecked run's, so the checking itself perturbs nothing.

Coverage: figure-scale experiments on every paper workload plus the
TC-stressing configurations (no coalescing, a TC small enough to hit
the overflow fall-back, a one-write issue window), crash sweeps,
every-cycle litmus programs, and hypothesis-drawn fault injection
(retries, lost / duplicated acks, ECC scrubs — the paths where stale
and duplicate acks reach the TC).
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import FaultConfig, small_machine_config
from repro.sim.runner import run_experiment


def _config(**txcache):
    base = small_machine_config(num_cores=2)
    return replace(base, txcache=replace(base.txcache, **txcache))


#: id → (workload, TC config overrides)
EXPERIMENTS = {
    "graph": ("graph", {}),
    "rbtree": ("rbtree", {}),
    "sps": ("sps", {}),
    "btree": ("btree", {}),
    "hashtable": ("hashtable", {}),
    "hashtable-no-coalescing": ("hashtable", {"coalesce_writes": False}),
    "btree-overflow": ("btree", {"size_bytes": 8 * 64}),
    "sps-overflow-no-coalescing": ("sps", {"size_bytes": 4 * 64,
                                           "coalesce_writes": False}),
    "rbtree-issue-window-1": ("rbtree", {"issue_window": 1}),
}


def _experiment(workload, config, **kwargs):
    result = run_experiment(workload, "txcache", config=config, **kwargs)
    return result.to_dict(include_raw=True)


@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_experiment_identical_under_ring_scan_checks(ring_scan_checks, name):
    workload, overrides = EXPERIMENTS[name]
    plain = _experiment(workload, _config(**overrides), operations=20, seed=7)
    with ring_scan_checks() as checks:
        checked = _experiment(workload, _config(**overrides), operations=20,
                              seed=7)
    assert checked == plain
    assert checks["write"] and checks["commit"] and checks["ack"]
    if "overflow" in name:
        assert checks["drop"], "the small TC never reached the fall-back"


@pytest.mark.parametrize("workload", ["hashtable", "btree", "sps"])
def test_crash_sweep_identical_under_ring_scan_checks(ring_scan_checks,
                                                     workload):
    """Crash sweeps stop the system mid-run and read the TC's recovery
    view; every crash fraction's report must agree."""
    from repro.sim.crash import crash_sweep

    def sweep():
        return crash_sweep(workload, "txcache", fractions=(0.25, 0.5, 0.9),
                           num_cores=2, operations=12, seed=11)

    plain = sweep()
    with ring_scan_checks() as checks:
        assert sweep() == plain
    assert checks["ack"]


@pytest.mark.parametrize("shape", ["message_passing", "overlapping_tx",
                                   "shared_counter"])
def test_litmus_program_identical_under_ring_scan_checks(ring_scan_checks,
                                                        shape):
    """The every-cycle litmus crash sweep (one stepped simulation)
    reports identical consistency outcomes."""
    from repro.litmus import generator
    from repro.litmus.runner import run_litmus

    program = getattr(generator, shape)()
    plain = run_litmus(program, "txcache")
    with ring_scan_checks() as checks:
        assert run_litmus(program, "txcache") == plain
    assert checks["commit"]


_RATES = st.floats(min_value=0.01, max_value=0.3,
                   allow_nan=False, allow_infinity=False)


@settings(max_examples=10, deadline=None)
@given(
    nvm_write_fail_rate=_RATES,
    ack_loss_rate=_RATES.map(lambda r: r / 3),
    ack_duplicate_rate=_RATES.map(lambda r: r / 3),
    tc_bit_flip_rate=st.floats(min_value=1e-6, max_value=1e-4,
                               allow_nan=False, allow_infinity=False),
    fault_seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_fault_injection_identical_under_ring_scan_checks(
        ring_scan_checks, nvm_write_fail_rate, ack_loss_rate,
        ack_duplicate_rate, tc_bit_flip_rate, fault_seed):
    """Random nonzero fault rates: duplicated and stale acks must match
    nothing under both lookups, and every retry, remap, dropped or
    duplicated ack and ECC event must be counted identically.  The
    injector streams are deterministic per site, so any divergence is a
    lookup bug, not noise."""
    faults = FaultConfig(
        seed=fault_seed,
        nvm_write_fail_rate=nvm_write_fail_rate,
        ack_loss_rate=ack_loss_rate,
        ack_duplicate_rate=ack_duplicate_rate,
        tc_bit_flip_rate=tc_bit_flip_rate,
    )
    config = replace(small_machine_config(num_cores=2), faults=faults)
    plain = _experiment("hashtable", config, operations=10, seed=13)
    with ring_scan_checks() as checks:
        checked = _experiment("hashtable", config, operations=10, seed=13)
    assert checked == plain
    assert checks["ack"]
