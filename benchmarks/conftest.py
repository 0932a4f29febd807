"""Shared fixtures for the figure/table regeneration benches.

The paper's Figs. 6-10 all come from one set of experiment runs, so the
benches share two session-scoped grids, each one ``run_grid`` batch:

* ``paper_grid`` — the eviction-pressure regime (32 KB scaled LLC):
  Figs. 6, 7, 9, 10 and the TC-stall text claim.  Under pressure every
  scheme's NVM write traffic is in steady state, which Fig. 9 needs.
* ``reuse_grid`` — the reuse regime (``REUSE_LLC_BYTES`` = 128 KB
  scaled LLC, footprints just at capacity): Fig. 8 only, which needs
  LLC hits to exist so miss-rate deltas are observable.

Set ``REPRO_BENCH_OPS`` to change the per-core operation count (default
300; larger runs sharpen steady-state numbers at linear cost).
``REPRO_BENCH_JOBS`` fans the grid's (workload × scheme) points out
over that many worker processes (default 1, inline), and
``REPRO_BENCH_CACHE`` names an on-disk result-cache directory so
repeated bench runs skip already-computed points (default: no cache) —
both produce results identical to the defaults (the engine's
determinism contract).

Every figure bench writes its rendered table into
``benchmarks/output/`` so EXPERIMENTS.md can cite the exact output.
"""

import os
import pathlib

import pytest

from repro.common.config import small_machine_config
from repro.sim.parallel import ExperimentEngine
from repro.sim.report import REUSE_LLC_BYTES
from repro.sim.runner import SCHEME_ORDER, run_grid
from repro.workloads import PAPER_WORKLOADS

OPS = int(os.environ.get("REPRO_BENCH_OPS", "300"))
JOBS = int(os.environ.get("REPRO_BENCH_JOBS", "1"))
CACHE_DIR = os.environ.get("REPRO_BENCH_CACHE") or None
OUTPUT_DIR = pathlib.Path(__file__).parent / "output"


def _grid(config):
    engine = ExperimentEngine(jobs=JOBS, cache_dir=CACHE_DIR)
    return run_grid(PAPER_WORKLOADS, SCHEME_ORDER, [config],
                    operations=OPS, engine=engine)[0]


@pytest.fixture(scope="session")
def paper_grid():
    """Figs. 6/7/9/10 regime: steady-state NVM eviction traffic."""
    return _grid(small_machine_config(num_cores=4))


@pytest.fixture(scope="session")
def reuse_grid():
    """Fig. 8 regime: LLC reuse exists, so miss-rate deltas show."""
    return _grid(small_machine_config(num_cores=4).scaled_llc(REUSE_LLC_BYTES))


@pytest.fixture(scope="session")
def save_output():
    OUTPUT_DIR.mkdir(exist_ok=True)

    def _save(name: str, text: str) -> None:
        (OUTPUT_DIR / name).write_text(text + "\n")

    return _save
