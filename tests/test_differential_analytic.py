"""Differential tests: event-driven simulator vs. the analytic model.

Persistency-model validation practice ("Lost in Interpretation",
gem5's controller work) wants the timing model pinned against an
*independent* reference.  Ours is :mod:`repro.sim.analytic` — a
first-order envelope of what each scheme's mechanism must cost.  This
module runs a grid of small configurations and checks, for every
point:

* **ordering relations** the mechanisms imply —
  ``TXCACHE >= OPTIMAL`` cycles (the accelerator can only add work)
  and ``SP >= TXCACHE`` on fence-heavy traces (three serialized NVM
  round-trips per transaction dwarf a commit message);
* **tolerance bands** between predicted and simulated overhead.

Documented divergences (legitimate, understood, and therefore
asserted with wider bands rather than "fixed"):

* **Kiln over-prediction (up to ~3x).**  The envelope charges one
  serialized NV-LLC write per transaction line; the simulator overlaps
  those flush writes with each other and with execution, so the
  first-order (deliberately overlap-free) prediction lands above the
  simulated overhead.  Band: predicted/simulated in [0.5, 4].
* **Kiln vs TXCACHE ordering is NOT asserted.**  The two mechanisms
  cost within a few percent of each other on several workloads
  (e.g. hashtable: Kiln 62461 vs TC 63918 cycles at 80 ops) and which
  one wins flips with the eviction pattern — the paper itself has them
  nearly tied in Fig. 6.
"""

from dataclasses import replace

import pytest

from repro.common.config import small_machine_config
from repro.common.types import SchemeName
from repro.obs.stalls import StallReport
from repro.sim.analytic import compare_with_simulation
from repro.sim.runner import make_traces, run_comparison

#: SP's mechanism (log writes + 3 fence round-trips) is first-order
#: modelable; observed predicted/simulated across the grid: 0.91-1.36
SP_BAND = (1 / 3, 3.0)
#: Kiln's envelope ignores flush overlap; observed: 1.37-2.87
KILN_BAND = (0.5, 4.0)

OPS = 80
SEED = 7


def _grid_configs():
    base = small_machine_config(num_cores=1)
    slow_nvm = replace(base, nvm=replace(
        base.nvm, timing=replace(base.nvm.timing, write_ns=150.0)))
    return {"base": base, "slow_nvm": slow_nvm}


GRID = [(workload, name)
        for workload in ("sps", "hashtable", "queue")
        for name in ("base", "slow_nvm")]


@pytest.fixture(scope="module")
def grid():
    """(workload, config name) → (config, trace, scheme → result)."""
    configs = _grid_configs()
    out = {}
    for workload, name in GRID:
        config = configs[name]
        traces = make_traces(workload, 1, OPS, seed=SEED)
        results = run_comparison(workload, config=config, operations=OPS,
                                 seed=SEED)
        out[(workload, name)] = (config, traces[0], results)
    return out


@pytest.mark.parametrize("cell", GRID, ids=lambda c: f"{c[0]}-{c[1]}")
class TestOrderingRelations:
    def test_txcache_never_beats_optimal(self, grid, cell):
        _config, _trace, results = grid[cell]
        assert results[SchemeName.TXCACHE].cycles >= \
            results[SchemeName.OPTIMAL].cycles

    def test_sp_never_beats_txcache(self, grid, cell):
        """Fence-heavy SP must cost at least as much as the TC, whose
        commit is one message off the critical path."""
        _config, _trace, results = grid[cell]
        assert results[SchemeName.SP].cycles >= \
            results[SchemeName.TXCACHE].cycles

    def test_every_scheme_completes_the_same_work(self, grid, cell):
        _config, _trace, results = grid[cell]
        transactions = {r.transactions for r in results.values()}
        instructions = {r.instructions for r in results.values()}
        assert len(transactions) == 1, "schemes committed different tx!"
        assert len(instructions) == 1


@pytest.mark.parametrize("cell", GRID, ids=lambda c: f"{c[0]}-{c[1]}")
class TestAnalyticTolerance:
    def test_sp_overhead_within_band(self, grid, cell):
        config, trace, results = grid[cell]
        comparison = compare_with_simulation(trace, config, results)
        sp = comparison[SchemeName.SP]
        assert sp["simulated_overhead"] > 0
        ratio = sp["predicted_overhead"] / sp["simulated_overhead"]
        low, high = SP_BAND
        assert low < ratio < high, (
            f"{cell}: SP predicted/simulated = {ratio:.2f} "
            f"outside [{low:.2f}, {high:.2f}] — simulator and envelope "
            f"disagree: {sp}")

    def test_kiln_overhead_within_documented_band(self, grid, cell):
        """Kiln's envelope ignores flush overlap, so it over-predicts;
        see the module docstring for why the band is wide and one-sided
        in practice."""
        config, trace, results = grid[cell]
        comparison = compare_with_simulation(trace, config, results)
        kiln = comparison[SchemeName.KILN]
        assert kiln["simulated_overhead"] > 0
        ratio = kiln["predicted_overhead"] / kiln["simulated_overhead"]
        low, high = KILN_BAND
        assert low < ratio < high, (
            f"{cell}: Kiln predicted/simulated = {ratio:.2f} "
            f"outside [{low:.2f}, {high:.2f}]: {kiln}")

    def test_txcache_overhead_small_in_both_views(self, grid, cell):
        """The accelerator's whole point: both the envelope and the
        simulator see only marginal overhead over Optimal."""
        config, trace, results = grid[cell]
        comparison = compare_with_simulation(trace, config, results)
        txc = comparison[SchemeName.TXCACHE]
        optimal_cycles = results[SchemeName.OPTIMAL].cycles
        assert txc["predicted_overhead"] < optimal_cycles * 0.05
        # slow_nvm stretches TC fills; 0.55 still separates TC cleanly
        # from SP, whose relative drops below 0.35 everywhere
        assert txc["simulated_relative"] > 0.55
        assert txc["simulated_relative"] > \
            comparison[SchemeName.SP]["simulated_relative"]


@pytest.mark.parametrize("cell", GRID, ids=lambda c: f"{c[0]}-{c[1]}")
class TestStallAttribution:
    """The stall-attribution view of Fig. 6's argument, checked as
    differential relations (measured shares across the grid: SP fence
    share 0.91-0.95, Kiln fence share 0, Kiln flush share 0.22-0.43,
    TXCACHE persistence stalls identically zero)."""

    def test_sum_to_total_invariant_every_scheme(self, grid, cell):
        """Per core, the per-kind attribution must sum exactly to the
        measured total stall cycles — for every scheme in the grid."""
        _config, _trace, results = grid[cell]
        for scheme, result in results.items():
            report = StallReport.from_result(result)
            assert report.attribution_errors() == [], scheme

    def test_sp_ordering_share_dominates_kiln(self, grid, cell):
        """SP's stall budget is ordering (fence) stalls; Kiln commits
        through NV-LLC flushes and never fences."""
        _config, _trace, results = grid[cell]
        sp = StallReport.from_result(results[SchemeName.SP])
        kiln = StallReport.from_result(results[SchemeName.KILN])
        assert sp.share("fence") > 0.5
        assert sp.share("fence") > kiln.share("fence")
        assert kiln.share("flush") > 0

    def test_txcache_persistence_stalls_near_zero(self, grid, cell):
        """The paper's claim: the accelerator keeps persistence off the
        critical path — persistence-kind stalls stay below 5% of run
        cycles (measured: identically zero on this grid)."""
        _config, _trace, results = grid[cell]
        txc = StallReport.from_result(results[SchemeName.TXCACHE])
        assert txc.persistence_share_of_cycles() < 0.05
