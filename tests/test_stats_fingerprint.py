"""Frozen statistics registry of a wide grid of runs.

For each run below, the system is drained and its full
``stats.dump()`` — every counter, sample summary and warning counter a
component recorded — is serialized with sorted keys and hashed.  The
hashes are frozen in ``tests/data/stats_fingerprint.json``.

The golden figure grid reaches only eight scheme/workload points at
60 operations; this grid runs every scheme (negative controls
included) on every paper workload, plus the fault-injection points of
``test_memory_fingerprint.py``, so the retry, remap, ack and Kiln
flush counters are covered too.  A change to where or how a component
records a statistic that moves, adds or drops any single key shows up
here, even when no figure metric moves.  Regenerate only for an
intended change to the recorded statistics::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest \\
        tests/test_stats_fingerprint.py
"""

import hashlib
import json
import os
import pathlib

import pytest

from repro.common.config import FaultConfig, small_machine_config
from repro.common.types import SchemeName
from repro.sim.runner import make_traces
from repro.sim.system import System
from repro.workloads import PAPER_WORKLOADS
from test_memory_fingerprint import FAULT_POINTS, FAULT_SEEDS, \
    _figure_system

FINGERPRINT_PATH = (pathlib.Path(__file__).parent / "data"
                    / "stats_fingerprint.json")

CORES = 2
OPS = 20
SEED = 42


def _grid_system(workload, scheme):
    system = System(small_machine_config(num_cores=CORES), scheme)
    system.load_traces(make_traces(workload, CORES, OPS, seed=SEED))
    return system


def _runs():
    """Run name -> zero-argument factory of a loaded, unrun System."""
    runs = {}
    for scheme in SchemeName:
        for workload in PAPER_WORKLOADS:
            runs[f"{scheme.value}/{workload}"] = (
                lambda workload=workload, scheme=scheme:
                _grid_system(workload, scheme))
    for name in FAULT_POINTS:
        for seed in FAULT_SEEDS:
            faults = FaultConfig(seed=seed, nvm_write_fail_rate=0.2,
                                 ack_delay_rate=0.05, ack_duplicate_rate=0.05)
            runs[f"{name}/faults-s{seed}"] = (
                lambda name=name, faults=faults: _figure_system(name, faults))
    return runs


RUNS = _runs()


def fingerprint(name):
    system = RUNS[name]()
    system.run()
    assert system.done
    dump = system.stats.dump()
    digest = hashlib.sha256(
        json.dumps(dump, sort_keys=True).encode()).hexdigest()
    return {"keys": len(dump), "sha256": digest}


@pytest.fixture(scope="module", autouse=True)
def regenerate_if_requested():
    if os.environ.get("REPRO_UPDATE_GOLDEN"):
        snapshot = {name: fingerprint(name) for name in RUNS}
        FINGERPRINT_PATH.write_text(json.dumps(snapshot, indent=2) + "\n")


def test_fingerprint_covers_every_run():
    frozen = json.loads(FINGERPRINT_PATH.read_text())
    assert sorted(frozen) == sorted(RUNS)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_stats_match_fingerprint(name):
    frozen = json.loads(FINGERPRINT_PATH.read_text())[name]
    assert fingerprint(name) == frozen, (
        f"{name}: recorded statistics moved "
        "(intentional? see module docstring)")
