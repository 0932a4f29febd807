"""A finished machine is freed by reference counting alone.

Each case builds a ``System``, runs it until it is ``done``, runs
``collect_result`` on it and drops it, with the cyclic garbage
collector disabled and ``gc.DEBUG_SAVEALL`` set; the collection that
follows must then find no unreachable object.  Any reference cycle
between the machine's parts (a core holding bound methods of itself, a
scheme hook installed in the hierarchy that points back at the scheme,
the NVM controller holding the accelerator that writes into it) would
leave the whole machine to the collector's next full pass instead.

Out of scope: a machine paused mid-run (its queued events reference
its parts through the kernel's queue) and a traced run (the sampler's
probes close over the parts they sample).
"""

import collections
import gc
from dataclasses import replace

import pytest

from repro.common.config import FaultConfig, small_machine_config
from repro.common.types import SchemeName
from repro.sim.parallel import ExperimentPoint, execute_point
from repro.sim.runner import collect_result, make_traces
from repro.sim.system import System

OPS = 30
#: every fault model on, at rates that fire on a 30-op run: write-verify
#: retries, lost, delayed and duplicated acks (timeout reissues), and
#: TC bit flips (uncorrectable entries demoted to the COW path)
FAULTS = FaultConfig(seed=2, nvm_write_fail_rate=2e-2, ack_loss_rate=5e-2,
                     ack_delay_rate=5e-2, ack_duplicate_rate=5e-2,
                     tc_bit_flip_rate=1e-3)


def unreachable_after(run) -> collections.Counter:
    """Type names of the objects ``run()`` leaves to the cyclic
    collector.  ``run`` is called once first, unmeasured, so one-off
    lazy imports and memoized traces do not count."""
    run()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run()
        gc.collect()
        return collections.Counter(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


def run_machine(scheme, config, traces):
    system = System(config, scheme)
    system.load_traces(traces)
    system.run()
    assert system.done
    return collect_result(system).raw_stats


@pytest.mark.parametrize("faulty", [False, True], ids=["clean", "faulty"])
@pytest.mark.parametrize("num_cores", [1, 2])
@pytest.mark.parametrize("scheme", [name.value for name in SchemeName])
def test_finished_system_leaves_no_cyclic_garbage(scheme, num_cores, faulty):
    config = small_machine_config(num_cores=num_cores)
    if faulty:
        config = replace(config, faults=FAULTS)
    traces = make_traces("hashtable", num_cores, OPS, seed=1)
    raw = {}

    def run():
        raw.update(run_machine(scheme, config, traces))

    assert unreachable_after(run) == {}
    if faulty and scheme == "txcache":
        # the fault paths that install or call the hooks did fire
        for counter in ("scheme.txcache.ecc_fallbacks", "tc.ack.timeouts",
                        "mem.nvm.ack.delayed", "mem.nvm.ack.duplicated",
                        "mem.nvm.write.retries"):
            assert raw.get(counter, 0) > 0, counter


@pytest.mark.parametrize("scheme", ["txcache", "kiln"])
def test_executed_point_leaves_no_cyclic_garbage(scheme):
    point = ExperimentPoint("hashtable", scheme,
                            small_machine_config(num_cores=2),
                            operations=OPS, seed=1)
    assert unreachable_after(lambda: execute_point(point)) == {}
