"""Instrumentation reuse: a source trace prepared again under an
instrumenting scheme (sp, undo_log, redo_log, hybrid_dram) reuses the
rewrite built the first time (``Trace.rewritten``).

The rewrite is a pure function of the trace, the scheme and the log
region, so a reused rewrite must give exactly the run a fresh one
gives; appending to the source trace must drop it; and litmus runs,
which compile fresh traces per run, rewrite every time.
"""

import pytest

from repro.common.config import small_machine_config
from repro.cpu.trace import OpType, TraceOp
from repro.litmus import message_passing, overlapping_tx
from repro.litmus.runner import run_litmus
from repro.persistence.swtx.base import SwTxScheme
from repro.sim.runner import collect_result
from repro.sim.system import System
from repro.workloads import create_workload

INSTRUMENTING = ("sp", "undo_log", "redo_log", "hybrid_dram")
CORES = 2


@pytest.fixture
def rewrites(monkeypatch):
    """Names of the traces ``SwTxScheme._instrument`` rewrites."""
    calls = []
    original = SwTxScheme._instrument

    def counting(trace, suffix, emit_tx):
        calls.append(trace.name)
        return original(trace, suffix, emit_tx)

    monkeypatch.setattr(SwTxScheme, "_instrument", staticmethod(counting))
    return calls


def _traces(workload="sps", operations=20):
    """Fresh per-core traces (not ``make_traces``' shared memo)."""
    return [create_workload(workload, core_id=core, seed=7)
            .generate(operations) for core in range(CORES)]


def _run(scheme, traces):
    system = System(small_machine_config(num_cores=CORES), scheme)
    system.load_traces(traces)
    system.run()
    return system


def _outputs(system):
    return (system.stats.dump(),
            collect_result(system).to_dict(include_raw=True))


@pytest.mark.parametrize("scheme", INSTRUMENTING)
def test_second_build_reuses_the_rewrite_and_matches(scheme, rewrites):
    traces = _traces()
    first = _run(scheme, traces)
    assert len(rewrites) == CORES
    second = _run(scheme, traces)
    assert len(rewrites) == CORES, "the second build rewrote again"
    for one, two in zip(first.cores, second.cores):
        assert one._ops is two._ops
    # identical to the first run and to a run from fresh traces
    assert _outputs(second) == _outputs(first) == _outputs(
        _run(scheme, _traces()))


def test_redo_reuse_restores_log_targets(rewrites):
    traces = _traces()
    first = _run("redo_log", traces)
    second = _run("redo_log", traces)
    assert len(rewrites) == CORES
    assert second.scheme._log_targets
    assert second.scheme._log_targets == first.scheme._log_targets


@pytest.mark.parametrize("scheme", INSTRUMENTING)
def test_appending_to_the_source_drops_the_rewrite(scheme, rewrites):
    traces = _traces()
    before = _run(scheme, traces).cores[0]._ops
    traces[0].ops.append(TraceOp(OpType.COMPUTE, count=3))
    after = _run(scheme, traces)
    # only the appended trace is rewritten again
    assert rewrites == [traces[0].name, traces[1].name, traces[0].name]
    assert len(after.cores[0]._ops) == len(before) + 1
    assert after.cores[0]._ops[-1] is traces[0].ops[-1]
    fresh = _traces()
    fresh[0].ops.append(TraceOp(OpType.COMPUTE, count=3))
    assert _outputs(after) == _outputs(_run(scheme, fresh))


def test_a_region_is_part_of_the_key(rewrites):
    """One trace on two cores of one system gets two log regions and
    so two rewrites."""
    trace = _traces()[0]
    system = _run("sp", [trace, trace])
    assert len(rewrites) == 2
    assert system.cores[0]._ops is not system.cores[1]._ops


@pytest.mark.parametrize("scheme", INSTRUMENTING)
def test_litmus_runs_rewrite_fresh_traces(scheme, rewrites):
    for program in (message_passing(), overlapping_tx()):
        first = run_litmus(program, scheme)
        calls = len(rewrites)
        again = run_litmus(program, scheme)
        assert len(rewrites) == 2 * calls
        assert again.to_dict() == first.to_dict()
        rewrites.clear()
