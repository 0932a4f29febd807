"""Frozen traces of every workload.

For each entry of ``WORKLOADS``, on 1 and 2 cores, under seeds 1 and
42, every core's 30-operation trace is serialized with
``Trace.dump`` (a header line, then one ``TraceOp.to_json`` line per
op) and hashed.  The hashes are frozen in
``tests/data/trace_fingerprint.json``.

The golden figure grid pins only four workloads at one scale; this
pins every workload, the extension workloads included, so a change to
how a workload records its accesses shows up here even when no figure
metric moves.  Regenerate only for an intended change to the recorded
traces::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest \\
        tests/test_trace_fingerprint.py
"""

import hashlib
import io
import json
import os
import pathlib

import pytest

from repro.workloads import WORKLOADS, create_workload

FINGERPRINT_PATH = (pathlib.Path(__file__).parent / "data"
                    / "trace_fingerprint.json")

CORES = (1, 2)
SEEDS = (1, 42)
OPS = 30

RUNS = sorted(f"{workload}/c{cores}/s{seed}" for workload in WORKLOADS
              for cores in CORES for seed in SEEDS)


def fingerprint(name):
    workload, cores, seed = name.split("/")
    digests = []
    for core_id in range(int(cores[1:])):
        trace = create_workload(workload, core_id=core_id,
                                seed=int(seed[1:])).generate(OPS)
        buffer = io.StringIO()
        trace.dump(buffer)
        digests.append({"ops": len(trace),
                        "sha256": hashlib.sha256(
                            buffer.getvalue().encode()).hexdigest()})
    return digests


@pytest.fixture(scope="module", autouse=True)
def regenerate_if_requested():
    if os.environ.get("REPRO_UPDATE_GOLDEN"):
        snapshot = {name: fingerprint(name) for name in RUNS}
        FINGERPRINT_PATH.write_text(json.dumps(snapshot, indent=2) + "\n")


def test_fingerprint_covers_every_run():
    frozen = json.loads(FINGERPRINT_PATH.read_text())
    assert sorted(frozen) == RUNS


@pytest.mark.parametrize("name", RUNS)
def test_trace_matches_fingerprint(name):
    frozen = json.loads(FINGERPRINT_PATH.read_text())[name]
    assert fingerprint(name) == frozen, (
        f"{name}: recorded trace moved "
        "(intentional? see module docstring)")
