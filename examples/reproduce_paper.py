#!/usr/bin/env python3
"""Regenerate every table and figure of the paper in one run.

Prints Tables 1-3 and the normalized Figures 6-10 over the five
Table 3 workloads and the four compared mechanisms.  This is the same
computation the benchmark harness performs (``pytest benchmarks/``),
packaged as a script whose output can be diffed against EXPERIMENTS.md.

Run:  python examples/reproduce_paper.py           (~4 minutes)
      python examples/reproduce_paper.py --quick   (~1 minute)
"""

import argparse
import sys
import time

from repro.common.config import paper_machine_config, small_machine_config
from repro.sim.report import (
    FIGURES,
    REUSE_LLC_BYTES,
    figure6_ipc,
    format_figure,
    format_table1,
    format_table2,
    format_table3,
)
from repro.sim.runner import SCHEME_ORDER, run_grid
from repro.workloads import PAPER_WORKLOADS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="shorter traces (noisier, ~4x faster)")
    parser.add_argument("--operations", type=int, default=None,
                        help="benchmark operations per core (default "
                             "300, or 100 with --quick)")
    args = parser.parse_args(argv)
    operations = args.operations or (100 if args.quick else 300)

    print(format_table1(paper_machine_config()))
    print()
    print(format_table2(paper_machine_config()))
    print()
    print(format_table3())
    print()

    # Figs. 6, 7, 9 and 10 run on the 32 KB scaled LLC (eviction
    # pressure); Fig. 8 needs LLC reuse to exist, so it runs on a
    # 128 KB LLC where the workloads sit at capacity (DESIGN.md).
    config = small_machine_config(num_cores=4)
    print(f"Running {len(PAPER_WORKLOADS)} workloads x 4 schemes x 2 LLC "
          f"regimes at {operations} operations/core on the scaled "
          "machine...")
    started = time.time()
    grids = dict(zip(("pressure", "reuse"), run_grid(
        PAPER_WORKLOADS, SCHEME_ORDER,
        [config, config.scaled_llc(REUSE_LLC_BYTES)],
        operations=operations)))
    print(f"total simulation time: {time.time() - started:.1f}s\n")

    for caption, figure, regime in FIGURES:
        print(format_figure(caption, figure(grids[regime])))
        print()

    gmean_ipc = figure6_ipc(grids["pressure"])["gmean"]
    print("Paper's headline averages vs this reproduction (IPC, "
          "normalized to Optimal):")
    paper = {"sp": 0.477, "txcache": 0.985, "kiln": 0.878}
    for scheme, value in gmean_ipc.items():
        name = scheme.value
        if name in paper:
            print(f"  {name:<8} paper {paper[name]:.3f}  measured {value:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
