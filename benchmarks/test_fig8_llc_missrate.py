"""Figure 8 — LLC miss rate, normalized to Optimal.

Paper: Kiln incurs ≈6 % higher LLC miss rate because uncommitted blocks
are pinned in the NV-LLC, displacing reusable data; the TC and Optimal
are equal (the TC leaves the LLC alone).

At our scaled trace lengths the effect on the five paper workloads is
small (their transactions pin only a handful of lines at a time), so
this bench checks the paper-workload grid for the *equality* half of
the claim (TC ≈ Optimal) and demonstrates the pinning *elevation* with
a write-intense synthetic workload whose transactions pin a large
fraction of an at-capacity LLC — the regime the paper's 6 % comes from.
"""

from repro.common.config import small_machine_config
from repro.common.types import SchemeName
from repro.sim.report import (REUSE_LLC_BYTES, figure8_llc_miss_rate,
                              format_figure)
from repro.sim.runner import run_comparison


def test_fig8_normalized_llc_miss_rate(reuse_grid, benchmark, save_output):
    rows = figure8_llc_miss_rate(reuse_grid)
    text = format_figure("Figure 8: LLC miss rate, normalized to Optimal",
                         rows)
    print("\n" + text)
    save_output("fig8_llc_missrate.txt", text)

    gmean = rows["gmean"]
    # TC leaves cache-hierarchy operation as it is: miss rate ~ Optimal
    assert abs(gmean[SchemeName.TXCACHE] - 1.0) < 0.05
    # Kiln never *improves* the miss rate
    assert gmean[SchemeName.KILN] > 0.95

    def kiln_stress():
        config = small_machine_config(num_cores=4).scaled_llc(
            REUSE_LLC_BYTES)
        return run_comparison(
            "synthetic", schemes=("kiln", "txcache", "optimal"),
            config=config, operations=250, stores_per_tx=20,
            loads_per_tx=8, compute_per_tx=200, footprint_lines=480)

    stress = benchmark.pedantic(kiln_stress, rounds=1, iterations=1)
    kiln = stress[SchemeName.KILN]
    txc = stress[SchemeName.TXCACHE]
    optimal = stress[SchemeName.OPTIMAL]
    ratio_kiln = kiln.llc_miss_rate / optimal.llc_miss_rate
    ratio_txc = txc.llc_miss_rate / optimal.llc_miss_rate
    stress_text = (
        "Figure 8 (pinning-stress variant, synthetic 20-store tx):\n"
        f"  kiln/optimal  LLC miss-rate ratio: {ratio_kiln:.4f}\n"
        f"  tc/optimal    LLC miss-rate ratio: {ratio_txc:.4f}")
    print("\n" + stress_text)
    save_output("fig8_stress.txt", stress_text)
    # the paper's direction: pinning elevates Kiln's miss rate; the TC
    # does not disturb the hierarchy
    assert ratio_kiln > 1.003
    assert ratio_kiln > ratio_txc
