"""Extension — recovery latency of the persistent memory accelerator.

The paper states the recovery procedure (replay committed TC entries,
discard active ones) but never times it.  This bench crashes a running
system at increasing points, runs the timed recovery simulation, and
reports crash-to-restart latency — which is bounded by the (tiny) TC
capacity: a key practical advantage over log-scan recovery.
"""

from repro.core.recovery import simulate_recovery
from repro.sim.runner import make_traces
from repro.sim.system import System


def crash_and_recover(until):
    system = System.build("txcache", num_cores=2)
    system.load_traces(make_traces("sps", 2, 60, seed=23,
                                   array_elements=256))
    system.run(until=until)
    return simulate_recovery(system.scheme, system.sim.now)


def test_recovery_latency_bounded_by_tc_capacity(benchmark, save_output):
    def sweep():
        return {until: crash_and_recover(until)
                for until in (300, 1000, 5000, 20000)}

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    lines = ["Extension: timed TC recovery after a crash (sps, 2 cores):"]
    worst = 0
    for until, result in results.items():
        lines.append(
            f"  crash @ {until:>6}: scanned={result.entries_scanned:>3} "
            f"replayed={result.entries_replayed:>3} "
            f"discarded={result.entries_discarded:>3} "
            f"recovery={result.cycles:>6} cycles "
            f"({result.cycles / 2e6 * 1000:.4f} ms @ 2 GHz)")
        worst = max(worst, result.cycles)
    capacity = 2 * 64  # two cores x 64 entries
    lines.append(f"  bound: <= {capacity} entries to replay; "
                 f"worst observed {worst} cycles")
    text = "\n".join(lines)
    print("\n" + text)
    save_output("ext_recovery_latency.txt", text)

    # recovery work is bounded by the TC capacity, not the run length
    for result in results.values():
        assert result.entries_scanned <= capacity
        assert result.cycles < 100_000  # tens of microseconds, not log scans
