"""Time one workload's set-up in fresh processes.

Usage (from the repository root)::

    python3 perfbench/setup_probe.py golden-grid 42 2

Prints one JSON object per set-up: ``setup_s`` and its split into
``workloads.generate_s``, ``sim.build_s`` and
``persistence.prepare_s``, in reference seconds.  This interpreter
imports the modules and then forks one child per set-up (the last
argument), so every set-up starts from a process that has never built
anything: nothing memoized by an earlier set-up (``make_traces`` keeps
a trace memo) hides work, and module imports happen before timing.
"""

from __future__ import annotations

import json
import os
import sys
import time
import traceback

from harness import Normalizer, SpanLog, import_repro


def timed_setup(build_all, seed: int) -> dict:
    """One set-up, its times in reference seconds (see
    ``harness.Normalizer``)."""
    spans = SpanLog()
    normalizer = Normalizer()
    began = time.perf_counter()
    build_all(seed, spans)
    normalizer.add("setup_s", time.perf_counter() - began)
    totals = spans.totals()
    for name in ("workloads.generate", "sim.build", "persistence.prepare"):
        normalizer.add(f"{name}_s", totals[name]["total_s"])
    normalizer.settle()
    return {key: values[0] for key, values in normalizer.samples.items()}


def in_child(build_all, seed: int) -> dict:
    """``timed_setup`` in a forked child; waits for the child."""
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_end)
        try:
            os.write(write_end, json.dumps(timed_setup(build_all, seed))
                     .encode())
        except BaseException:
            traceback.print_exc()
            os._exit(1)
        os._exit(0)
    os.close(write_end)
    with os.fdopen(read_end, "rb") as pipe:
        data = pipe.read()
    _pid, status = os.waitpid(pid, 0)
    if status != 0:
        raise SystemExit(f"set-up child exited with status {status}")
    return json.loads(data)


def main() -> None:
    workload, seed, count = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
    import_repro()
    import golden_grid
    import litmus_crash
    import repro.litmus.runner  # noqa: F401
    import repro.sim.runner  # noqa: F401

    build_all = {"golden-grid": golden_grid.build_all,
                 "litmus-crash": litmus_crash.build_all}[workload]
    for _ in range(count):
        print(json.dumps(in_child(build_all, seed)))


if __name__ == "__main__":
    main()
