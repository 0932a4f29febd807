"""Frozen service cycles of every memory request.

For each run below, every bank access of both memory controllers is
recorded as ``(controller, line, is_write, issue_cycle, service_cycle,
done_cycle)`` and the sorted list is hashed.  Sorting drops only the
order in which the two controllers' grants of one cycle ran, which no
request's timing depends on.  The hashes are frozen in
``tests/data/memory_service_fingerprint.json``.  A change to how the
controller schedules (when its scheduler wakes, how it picks, how a
write-verify retry waits) that moves any single request shows up here,
even when no figure metric moves.

The runs cover the golden figure grid, three points under NVM write
failures and lossy acknowledgments at two injector seeds, and three
litmus programs under three schemes.  Regenerate together with the
golden figures, and only for an intended timing change::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest \\
        tests/test_memory_fingerprint.py
"""

import hashlib
import json
import os
import pathlib
from dataclasses import replace

import pytest

from repro.common.config import FaultConfig, small_machine_config
from repro.litmus.generator import default_suite
from repro.sim.runner import make_traces
from repro.sim.system import System
from test_golden_figures import FIGURE_PAIRS, OPS, SEED

FINGERPRINT_PATH = (pathlib.Path(__file__).parent / "data"
                    / "memory_service_fingerprint.json")

FAULT_POINTS = ("fig7_persist_latency", "swtx_undo_throughput",
                "swtx_hybrid_load_latency")
FAULT_SEEDS = (0, 1)
LITMUS_PROGRAMS = 3
LITMUS_SCHEMES = ("txcache", "sp", "undo_log")


def _figure_system(name, faults=None):
    workload, scheme, config_factory = FIGURE_PAIRS[name]
    config = config_factory()
    if faults is not None:
        config = replace(config, faults=faults)
    system = System(config, scheme)
    system.load_traces(make_traces(workload, config.num_cores, OPS,
                                   seed=SEED))
    return system


def _litmus_system(program, scheme):
    system = System(small_machine_config(num_cores=program.num_cores),
                    scheme)
    system.load_traces(program.to_traces())
    return system


def _runs():
    """Run name -> zero-argument factory of a loaded, unrun System."""
    runs = {name: (lambda name=name: _figure_system(name))
            for name in FIGURE_PAIRS}
    for name in FAULT_POINTS:
        for seed in FAULT_SEEDS:
            faults = FaultConfig(seed=seed, nvm_write_fail_rate=0.2,
                                 ack_delay_rate=0.05, ack_duplicate_rate=0.05)
            runs[f"{name}/faults-s{seed}"] = (
                lambda name=name, faults=faults: _figure_system(name, faults))
    for program in default_suite(0)[:LITMUS_PROGRAMS]:
        for scheme in LITMUS_SCHEMES:
            runs[f"litmus/{program.name}/{scheme}"] = (
                lambda program=program, scheme=scheme:
                _litmus_system(program, scheme))
    return runs


RUNS = _runs()


def service_log(system):
    """Drain ``system`` and return one tuple per bank access."""
    log = []
    sim = system.sim
    for controller in (system.memory.nvm, system.memory.dram):
        inner = controller._service

        def recording(request, inner=inner, name=controller.config.name):
            issued = sim.now
            inner(request)
            log.append((name, request.line, request.is_write,
                        request.issue_cycle, issued, request.bank.busy_until))

        controller._service = recording
    system.run()
    assert system.done
    return log


def fingerprint(name):
    log = sorted(service_log(RUNS[name]()))
    digest = hashlib.sha256(json.dumps(log).encode()).hexdigest()
    return {"services": len(log), "sha256": digest}


@pytest.fixture(scope="module", autouse=True)
def regenerate_if_requested():
    if os.environ.get("REPRO_UPDATE_GOLDEN"):
        snapshot = {name: fingerprint(name) for name in RUNS}
        FINGERPRINT_PATH.write_text(json.dumps(snapshot, indent=2) + "\n")


def test_fingerprint_covers_every_run():
    frozen = json.loads(FINGERPRINT_PATH.read_text())
    assert sorted(frozen) == sorted(RUNS)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_service_cycles_match_fingerprint(name):
    frozen = json.loads(FINGERPRINT_PATH.read_text())[name]
    assert fingerprint(name) == frozen, (
        f"{name}: memory service cycles moved "
        "(intentional? see module docstring)")
