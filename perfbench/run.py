#!/usr/bin/env python3
"""Run one benchmark workload, check its outputs, print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload golden-grid --seed 42 \\
        --seconds 10 --trace 0

Workloads: golden-grid, litmus-crash, serve-cold, serve-warm (see
perfbench/README.md).  ``--trace 0`` prints the end-to-end metrics of
BENCHMARK.json, ``--trace 1`` its per-layer metrics.  The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  Exit status: 0 when every output was correct, 1 when
one was not, 2 when the benchmark cannot run here.
"""

from __future__ import annotations

import argparse
import os
import sys

from harness import BenchError, import_repro

#: the golden seed for the golden grid, the litmus suite seed otherwise
DEFAULT_SEEDS = {"golden-grid": 42, "litmus-crash": 0, "serve-cold": 0,
                 "serve-warm": 0}


def run_workload(workload: str, seed: int, seconds: float, trace: bool):
    if workload == "golden-grid":
        import golden_grid

        return golden_grid.run(seed, seconds, trace)
    if workload == "litmus-crash":
        import litmus_crash

        return litmus_crash.run(seed, seconds, trace)
    import serve_path

    return serve_path.run(workload.split("-", 1)[1], seed, seconds, trace)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(DEFAULT_SEEDS))
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: 42 for golden-grid, "
                             "0 otherwise)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="length of the measured phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: a traced run printing per-layer metrics")
    args = parser.parse_args(argv)
    seed = DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed
    if seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    # the default simulator kernel, whatever the caller's environment
    for name in ("REPRO_SIM_KERNEL", "REPRO_NO_NUMPY"):
        os.environ.pop(name, None)
    try:
        import_repro()
        outcome = run_workload(args.workload, seed, args.seconds,
                               bool(args.trace))
        outcome.emit(args.workload, bool(args.trace))
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
