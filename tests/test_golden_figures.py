"""Golden snapshot tests for the figure pipelines.

One (workload, scheme) pair per paper figure, simulated at a fixed
seed and frozen as ``tests/data/golden_figures.json``.  Any change to
the timing model, the trace generators, or the result plumbing that
moves a number shows up here as a **field-level diff**, not a silent
drift in a regenerated figure.

If a change is *intentional* (a modeling fix that should move the
curves), regenerate the snapshot and commit it together with the
change::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest \
        tests/test_golden_figures.py

The diff of ``tests/data/golden_figures.json`` in that commit then
documents exactly which metrics moved and by how much.
"""

import json
import os
import pathlib

import pytest

from dataclasses import replace

from repro.common.config import small_machine_config
from repro.sim.parallel import ExperimentEngine, ExperimentPoint
from repro.sim.runner import run_experiment

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "golden_figures.json"
OPS = 60
SEED = 42


def _base_config():
    return small_machine_config(num_cores=2)


def _pressure_config():
    base = _base_config()
    return replace(base, llc=replace(base.llc, size_bytes=128 * 1024))


#: figure → (workload, scheme, config factory).  One representative
#: pair per figure, in the LLC regime that figure is rendered from
#: (32 KB eviction-pressure for 6/7/9, 128 KB reuse for 8/10).
FIGURE_PAIRS = {
    "fig6_throughput": ("sps", "txcache", _base_config),
    "fig7_persist_latency": ("hashtable", "sp", _base_config),
    "fig8_llc_miss_rate": ("btree", "txcache", _pressure_config),
    "fig9_nvm_writes": ("rbtree", "kiln", _base_config),
    "fig10_load_latency": ("graph", "txcache", _pressure_config),
    # software-transaction competitor columns (repro.persistence.swtx):
    # one representative point per scheme on the same grid
    "swtx_undo_throughput": ("hashtable", "undo_log", _base_config),
    "swtx_redo_nvm_writes": ("sps", "redo_log", _base_config),
    "swtx_hybrid_load_latency": ("btree", "hybrid_dram", _base_config),
}

#: the headline metric each figure actually plots — diffed first so a
#: failure leads with the number the figure would mis-render
HEADLINE_METRICS = ("cycles", "ipc", "throughput_tx_per_mcycle",
                    "llc_miss_rate", "nvm_write_lines",
                    "avg_persist_load_latency")


def simulate(name):
    workload, scheme, config_factory = FIGURE_PAIRS[name]
    result = run_experiment(workload, scheme, config=config_factory(),
                            operations=OPS, seed=SEED)
    return result.to_dict(include_raw=True)


def load_golden():
    return json.loads(GOLDEN_PATH.read_text())


def diff_dicts(expected, actual, prefix=""):
    """Flat list of 'path: frozen X -> now Y' lines, headline first."""
    lines = []
    keys = sorted(set(expected) | set(actual),
                  key=lambda k: (k not in HEADLINE_METRICS, k))
    for key in keys:
        path = f"{prefix}{key}"
        exp, act = expected.get(key), actual.get(key)
        if isinstance(exp, dict) and isinstance(act, dict):
            lines.extend(diff_dicts(exp, act, prefix=f"{path}."))
        elif exp != act:
            lines.append(f"  {path}: frozen {exp!r} -> now {act!r}")
    return lines


@pytest.fixture(scope="module", autouse=True)
def regenerate_if_requested():
    if os.environ.get("REPRO_UPDATE_GOLDEN"):
        snapshot = {name: simulate(name) for name in FIGURE_PAIRS}
        GOLDEN_PATH.parent.mkdir(exist_ok=True)
        GOLDEN_PATH.write_text(json.dumps(snapshot, indent=2) + "\n")


def test_snapshot_exists_and_covers_every_figure():
    golden = load_golden()
    assert sorted(golden) == sorted(FIGURE_PAIRS)


@pytest.mark.parametrize("name", sorted(FIGURE_PAIRS))
def test_figure_pair_matches_golden(name):
    golden = load_golden()[name]
    actual = simulate(name)
    lines = diff_dicts(golden, actual)
    assert not lines, (
        f"{name} drifted from tests/data/golden_figures.json "
        f"({len(lines)} fields; intentional? see module docstring):\n"
        + "\n".join(lines))


@pytest.mark.parametrize("name", sorted(
    name for name, pair in FIGURE_PAIRS.items() if pair[1] == "txcache"))
def test_txcache_figure_pair_matches_golden_under_ring_scan_checks(
        ring_scan_checks, name):
    """The committed snapshot passes unmodified while every TC CAM
    match is re-derived by a ring scan (``tests/conftest.py``): the
    indexed lookups are a throughput change, not a modelling one."""
    with ring_scan_checks() as checks:
        actual = simulate(name)
    lines = diff_dicts(load_golden()[name], actual)
    assert not lines, (
        f"{name} drifted under ring-scan checks ({len(lines)} fields):\n"
        + "\n".join(lines))
    assert checks["probe"] and checks["ack"]


def test_parallel_engine_reproduces_golden():
    """The pooled+cached path must land on the same frozen numbers —
    this ties the golden layer to the engine's determinism contract."""
    name = "fig6_throughput"
    workload, scheme, config_factory = FIGURE_PAIRS[name]
    point = ExperimentPoint(workload, scheme, config_factory(),
                            operations=OPS, seed=SEED)
    (result,) = ExperimentEngine(jobs=2).run([point])
    lines = diff_dicts(load_golden()[name],
                       result.to_dict(include_raw=True))
    assert not lines, "\n".join(lines)
