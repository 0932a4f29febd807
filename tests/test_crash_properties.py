"""Property-based crash-consistency and data-structure tests."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.config import small_machine_config
from repro.common.types import NEGATIVE_CONTROLS, SchemeName
from repro.litmus import check_membership, message_passing, tx_summaries
from repro.litmus.runner import iter_crash_states
from repro.sim.crash import check_recovery, measure_run_length, run_with_crash
from repro.sim.system import System
from repro.workloads.btree import BTreeWorkload
from repro.workloads.rbtree import RbTreeWorkload

# one shared uninterrupted-run length per scheme (the trace is
# deterministic for a fixed seed, so this is stable across examples)
_TOTALS = {}


def total_for(scheme):
    if scheme not in _TOTALS:
        _TOTALS[scheme] = measure_run_length(
            "sps", scheme, operations=25, seed=21, array_elements=64)
    return _TOTALS[scheme]


class TestCrashAtomicityProperties:
    """Failure atomicity must hold at *every* crash cycle, not just the
    hand-picked fractions — hypothesis hunts for bad cycles."""

    @given(fraction=st.floats(0.01, 0.99))
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_txcache_consistent_at_any_cycle(self, fraction):
        total = total_for("txcache")
        report = run_with_crash("sps", "txcache",
                                max(1, int(total * fraction)),
                                operations=25, seed=21, array_elements=64)
        assert report.consistent, report.violations[:3]

    @given(fraction=st.floats(0.01, 0.99))
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_sp_consistent_at_any_cycle(self, fraction):
        total = total_for("sp")
        report = run_with_crash("sps", "sp",
                                max(1, int(total * fraction)),
                                operations=25, seed=21, array_elements=64)
        assert report.consistent, report.violations[:3]

    @given(fraction=st.floats(0.01, 0.99))
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_kiln_consistent_at_any_cycle(self, fraction):
        total = total_for("kiln")
        report = run_with_crash("sps", "kiln",
                                max(1, int(total * fraction)),
                                operations=25, seed=21, array_elements=64)
        assert report.consistent, report.violations[:3]

    @pytest.mark.parametrize("scheme",
                             ["undo_log", "redo_log", "hybrid_dram"])
    @given(fraction=st.floats(0.01, 0.99))
    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_swtx_consistent_at_any_cycle(self, scheme, fraction):
        total = total_for(scheme)
        report = run_with_crash("sps", scheme,
                                max(1, int(total * fraction)),
                                operations=25, seed=21, array_elements=64)
        assert report.consistent, report.violations[:3]


# -- scheme-wide oracle differential ---------------------------------------
#
# The litmus suite runs each scheme against the legal-persist-set
# oracle at *every* cycle; this generalizes that to every SchemeName
# member: each must agree with the oracle at hypothesis-chosen crash
# cycles.  A new scheme gets this check by the act of adding it.
#
# Exclusions: ``optimal`` makes no persistence guarantee at all (it is
# the no-overhead upper bound, kept out of the litmus CLI for the same
# reason), and the NEGATIVE_CONTROLS are deliberately broken —
# asserted to VIOLATE below, so the oracle itself stays honest.

_ORACLE_EXEMPT = {SchemeName.OPTIMAL} | NEGATIVE_CONTROLS

# one stepped crash sweep per scheme, shared across examples (the
# stepped states are pure functions of the deterministic run)
_CRASH_STATES = {}


def crash_states_for(scheme):
    if scheme not in _CRASH_STATES:
        program = message_passing()
        traces = program.to_traces()
        system = System(
            small_machine_config(num_cores=program.num_cores), scheme)
        system.load_traces(traces)
        _CRASH_STATES[scheme] = (tx_summaries(traces),
                                 list(iter_crash_states(system)))
    return _CRASH_STATES[scheme]


class TestRegistrySchemesAgreeWithOracle:
    @pytest.mark.parametrize(
        "scheme",
        [scheme.value for scheme in SchemeName
         if scheme not in _ORACLE_EXEMPT])
    @given(fraction=st.floats(0.0, 1.0))
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_durable_lines_in_legal_persist_set(self, scheme, fraction):
        summaries, states = crash_states_for(scheme)
        cycle, committed, recovered = states[
            min(len(states) - 1, int(fraction * len(states)))]
        messages = check_membership(summaries, committed, recovered)
        assert messages == [], f"{scheme} @ cycle {cycle}: {messages}"

    @pytest.mark.parametrize(
        "scheme", sorted(scheme.value for scheme in NEGATIVE_CONTROLS))
    def test_negative_control_violates_the_oracle(self, scheme):
        """A deliberately broken scheme must be caught — otherwise the
        differential above proves nothing."""
        summaries, states = crash_states_for(scheme)
        assert any(check_membership(summaries, committed, recovered)
                   for _cycle, committed, recovered in states)


class TestDataStructureProperties:
    @given(st.lists(st.integers(0, 10_000), min_size=1, max_size=120))
    @settings(max_examples=40, deadline=None)
    def test_rbtree_invariants_under_random_inserts(self, keys):
        tree = RbTreeWorkload(seed=1, initial_keys=0)
        for key in keys:
            tree.insert(key, key * 2)
        tree.check_invariants()
        assert tree.sorted_keys() == sorted(set(keys))

    @given(st.lists(st.integers(0, 10_000), min_size=1, max_size=120))
    @settings(max_examples=40, deadline=None)
    def test_rbtree_search_matches_dict(self, keys):
        tree = RbTreeWorkload(seed=1, initial_keys=0)
        reference = {}
        for key in keys:
            tree.insert(key, key * 3)
            reference[key] = key * 3
        for key, value in reference.items():
            assert tree.search(key) == value

    @given(st.lists(st.integers(0, 10_000), min_size=1, max_size=120))
    @settings(max_examples=40, deadline=None)
    def test_btree_invariants_under_random_inserts(self, keys):
        tree = BTreeWorkload(seed=1, initial_keys=0)
        for key in keys:
            tree.insert(key, key * 2)
        tree.check_invariants()
        assert tree.sorted_keys() == sorted(set(keys))

    @given(st.lists(st.integers(0, 10_000), min_size=1, max_size=120))
    @settings(max_examples=40, deadline=None)
    def test_btree_search_matches_dict(self, keys):
        tree = BTreeWorkload(seed=1, initial_keys=0)
        reference = {}
        for key in keys:
            tree.insert(key, key * 3)
            reference[key] = key * 3
        for key, value in reference.items():
            assert tree.search(key) == value
