"""serve-cold and serve-warm: served experiment points through the
cluster router.

Both workloads boot ``repro cluster run --nodes 1 --replication 1
--jobs 1`` -- a router, one serve node and one pool worker, with a
fresh cache directory inside the checkout -- pinned with the benchmark
process to one CPU, and drive it over HTTP from one ``ServeClient`` in
a closed loop: the client sends its next request only when its
previous one answered, as a caller that waits for its result does.

A batch is the five paper workloads x the four paper schemes as small
one-core specs: 20 new cache keys, the same 20 computations in every
batch.

* serve-cold times batches never sent before: every request misses the
  cache and runs a simulation (route, forward, cache.get, admission,
  pool, cache.put).  Untimed, it then re-sends every spec once and
  checks the warm answers.
* serve-warm sends batch 0 once, untimed, then times passes that
  re-send it ``WARM_REPEATS`` times: every request hits the cache and
  never reaches the simulator.

Both re-run a few specs in-process with ``execute_point`` and
byte-compare them with the served payloads.

Latencies are client-side, in reference seconds (see
``harness.Normalizer``), the client timing the reference work between
requests on the CPU it shares with the cluster.  Each workload's
``wall_s`` is the sum over the 20 specs of each one's median latency:
one batch.  serve-cold's percentiles are over those 20 medians, as the
simulator workloads' are over their units; serve-warm's are over every
timed request.

The node and the router always record their ``/trace`` spans, so the
end-to-end serve numbers include that cost; a traced run only adds
``/stats`` and ``/trace`` scrapes outside the timed passes, and reports
no tracing overhead of its own.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

from harness import (ROOT, WORK, BenchError, Normalizer, Outcome, SpanLog,
                     check_ledger, child_env, median, modelled_counts,
                     peak_rss_mb, percentile, report_layers, run_for,
                     sum_counts)

HOST = "127.0.0.1"
#: cluster boots per run; setup_s is their median
BOOTS = 5
SCHEMES = ("sp", "txcache", "kiln", "optimal")
OPS = 20
#: a warm pass sends every spec of batch 0 this many times
WARM_REPEATS = 5
#: specs of the first batch re-run in-process (three different workloads)
REEXECUTE = (0, 7, 14)
BOOT_TIMEOUT = 60.0


def spec_batch(batch: int) -> List[Dict]:
    """Batch ``batch`` of specs.  Batches differ only in the fault
    injector's seed, which with every fault rate at zero changes the
    cache key and nothing the simulation does: each cold pass computes
    the same 20 points, so passes (and runs) are comparable, where
    distinct trace seeds moved a class's cost by up to 2x between
    passes.  Batch 0, which serve-warm re-sends, leaves the seed at its
    default and carries no config overrides: parsing them costs the
    router and the node more than half a warm request.  Every run
    starts with an empty cache, so batches are the same for every seed;
    ``--seed`` sets the order requests are sent in."""
    from repro.workloads import PAPER_WORKLOADS

    config = {"num_cores": 1}
    if batch:
        config["overrides"] = {"faults": {"seed": batch}}
    return [{"workload": workload, "scheme": scheme, "operations": OPS,
             "seed": 0, "config": config}
            for workload in PAPER_WORKLOADS for scheme in SCHEMES]


def spec_id(spec: Dict) -> str:
    return json.dumps(spec, sort_keys=True)


class Cluster:
    """One ``repro cluster run`` process and the ports it announced."""

    def __init__(self, root) -> None:
        self.root = root
        self.proc: Optional[subprocess.Popen] = None
        self.router_port = 0
        self.node_port = 0

    def boot(self) -> float:
        """Start the cluster; seconds until the router answers ready."""
        from repro.serve.client import ServeClient, ServeError

        self.root.mkdir(parents=True)
        log_path = self.root / "cluster.log"
        began = time.perf_counter()
        with open(log_path, "wb") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "cluster", "run",
                 "--nodes", "1", "--replication", "1", "--jobs", "1",
                 "--host", HOST, "--port", "0",
                 "--cache-dir", str(self.root / "fleet")],
                cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                stdout=log, stderr=log)
        while not self.router_port:
            self.check_booting(began, log_path)
            text = log_path.read_text(errors="replace")
            node = re.search(r"node0 on [\d.]+:(\d+)", text)
            router = re.search(r"router on [\d.]+:(\d+)", text)
            if node and router:
                self.node_port = int(node.group(1))
                self.router_port = int(router.group(1))
            else:
                time.sleep(0.005)
        client = ServeClient(HOST, self.router_port, timeout=5)
        while True:
            self.check_booting(began, log_path)
            try:
                if client.healthz().get("ready"):
                    return time.perf_counter() - began
            except (ServeError, OSError):
                pass
            time.sleep(0.005)

    def check_booting(self, began: float, log_path) -> None:
        if self.proc.poll() is not None or \
                time.perf_counter() - began > BOOT_TIMEOUT:
            raise BenchError("cluster did not come up:\n"
                             + log_path.read_text(errors="replace")[-2000:])

    def stop(self) -> None:
        """SIGTERM the cluster, which drains and stops its node, and
        wait; if it did not stop cleanly, kill what it left behind."""
        proc, self.proc = self.proc, None
        if proc is None:
            return
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        if proc.returncode != 0:
            kill_strays(str(self.root))


def kill_strays(marker: str) -> None:
    """SIGKILL every process whose command line names ``marker``: a
    node (and its pool worker) whose cluster died before stopping it."""
    needle = marker.encode()
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or int(entry) == os.getpid():
            continue
        try:
            with open(f"/proc/{entry}/cmdline", "rb") as cmdline:
                if needle in cmdline.read():
                    os.kill(int(entry), signal.SIGKILL)
        except OSError:
            continue


def closed_loop(port: int, requests: List[Tuple[str, Dict]],
                after_each: Optional[Callable[[tuple, tuple], None]] = None
                ) -> List[tuple]:
    """Send ``(request_id, spec)`` pairs from one client, each only
    after the previous one answered.  One ``(start, end, status,
    response)`` per request; status 0 is a connection failure.
    ``after_each(request, record)`` runs before the next request."""
    from repro.serve.client import ServeClient, ServeError

    client = ServeClient(HOST, port, timeout=120)
    records = []
    for request in requests:
        request_id, spec = request
        began = time.perf_counter()
        try:
            response = client.submit(spec, request_id=request_id)
            status = 200
        except ServeError as error:
            response, status = None, error.status
        except OSError:
            response, status = None, 0
        records.append((began, time.perf_counter(), status, response))
        if after_each is not None:
            after_each(request, records[-1])
    return records


class Session:
    """Closed-loop passes against one booted cluster, with their
    checks."""

    def __init__(self, cluster: Cluster, kind: str, seed: int,
                 outcome: Outcome) -> None:
        self.cluster = cluster
        self.seed = seed
        self.outcome = outcome
        self.cold: Dict[str, str] = {}          # spec id -> payload JSON
        #: timed latencies per "workload/scheme" class
        self.latency = Normalizer()
        self.sent: Dict[str, int] = {}          # tag -> passes sent
        self.spans = SpanLog()
        #: serve-cold's passes all carry overrides (batches 1, 2, ...);
        #: serve-warm re-sends batch 0
        self.first_batch = 1 if kind == "cold" else 0
        self.batches = itertools.count(self.first_batch)

    def client(self, port: int):
        from repro.serve.client import ServeClient

        return ServeClient(HOST, port, timeout=30)

    def warm_up(self) -> None:
        """One untimed computation, so the node's lazily started pool
        worker exists before timing."""
        self.send("warmup", [{"workload": "queue", "scheme": "txcache",
                              "operations": 2, "seed": self.seed,
                              "config": {"num_cores": 1}}], cold=True)

    def send(self, tag: str, specs: List[Dict], cold: bool,
             timed: bool = False) -> None:
        """One pass: every spec once, in a seeded order, from the
        closed-loop client; checks each answer.  A timed pass records
        each answered request's latency."""
        index = self.sent[tag] = self.sent.get(tag, -1) + 1
        order = list(range(len(specs)))
        random.Random(f"{self.seed}/{tag}/{index}").shuffle(order)
        requests = [(f"{tag}-{index}-{n}", specs[i])
                    for n, i in enumerate(order)]

        def record_latency(request: tuple, record: tuple) -> None:
            if record[2] == 200:
                spec = request[1]
                self.latency.add(f"{spec['workload']}/{spec['scheme']}",
                                 record[1] - record[0])
                self.latency.lap()

        if timed:
            self.latency.begin()
        records = closed_loop(self.cluster.router_port, requests,
                              record_latency if timed else None)
        for (request_id, spec), record in zip(requests, records):
            self.outcome.attempted += 1
            if record[2] != 200:
                self.outcome.fail(f"{request_id}: HTTP status "
                                  f"{record[2]}", 1)
                continue
            start, end, _status, response = record
            self.spans.add("client.request", len(self.spans.start), -1,
                           start, end)
            payload = json.dumps(response["payload"])
            if cold:
                self.cold[spec_id(spec)] = payload
                if response.get("cached"):
                    self.outcome.fail(f"{request_id}: a cold request hit "
                                      f"the cache", 1)
            elif not response.get("cached"):
                self.outcome.fail(f"{request_id}: a warm request missed "
                                  f"the cache", 1)
            elif payload != self.cold.get(spec_id(spec)):
                self.outcome.fail(f"{request_id}: warm payload differs "
                                  f"from the cold one", 1)
        self.latency.settle()

    def cold_pass(self, tag: str, timed: bool = True) -> None:
        self.send(tag, spec_batch(next(self.batches)), cold=True,
                  timed=timed)

    def warm_pass(self, tag: str) -> None:
        self.send(tag, spec_batch(self.first_batch) * WARM_REPEATS,
                  cold=False, timed=True)

    def cache_lookups(self) -> Tuple[float, float]:
        cache = self.client(self.cluster.node_port).stats()["cache"]
        return cache["hits"], cache["misses"]

    def check_all_hits(self, before: Tuple[float, float]) -> None:
        """The node's cache hit ratio since ``before`` must be exactly
        1.0."""
        hits, misses = self.cache_lookups()
        hits, misses = hits - before[0], misses - before[1]
        if misses or not hits:
            self.outcome.fail(f"warm phase cache hit ratio "
                              f"{hits}/{hits + misses}, not 1.0")

    def scrape(self) -> Dict:
        router = self.client(self.cluster.router_port)
        node = self.client(self.cluster.node_port)
        return {"router_stats": router.stats(), "router_trace": router.trace(),
                "node_stats": node.stats(), "node_trace": node.trace()}

    def reexecute(self) -> None:
        from repro.serve.protocol import parse_request
        from repro.sim.parallel import execute_point

        specs = spec_batch(self.first_batch)
        for index in REEXECUTE:
            spec = specs[index]
            self.outcome.attempted += 1
            _key, payload, _seconds = execute_point(parse_request(spec).point)
            if json.dumps(payload) != self.cold.get(spec_id(spec)):
                self.outcome.fail(f"served {spec['workload']}/"
                                  f"{spec['scheme']} differs from "
                                  f"execute_point", 1)

    def exact_counts(self) -> Dict[str, float]:
        """Modelled counts summed over the payloads of the first batch."""
        return sum_counts(
            modelled_counts(json.loads(self.cold[spec_id(spec)]))
            for spec in spec_batch(self.first_batch)
            if spec_id(spec) in self.cold)


def serve_layers(before: Dict, after: Dict, tag: str) -> Dict[str, float]:
    """Per-layer values of the passes tagged ``tag`` from router and
    node scrapes taken around them: span medians over their request
    ids and counter deltas."""
    prefix = f"{tag}-"

    def p50(trace: Dict, name: str) -> float:
        durations = [
            event["dur"] / 1000 for event in trace["traceEvents"]
            if event.get("ph") == "X" and event.get("name") == name
            and str(event.get("args", {}).get("request_id", ""))
            .startswith(prefix)]
        return median(durations) if durations else 0.0

    def grew(stats_key: str, path: Tuple[str, ...], name: str) -> float:
        def read(scrape: Dict) -> float:
            node = scrape[stats_key]
            for key in path:
                node = node[key]
            return node.get(name, 0)
        return read(after) - read(before)

    router = ("router_stats", ("router", "counters"))
    node = ("node_stats", ("counters",))
    hits = grew("node_stats", ("cache",), "hits")
    misses = grew("node_stats", ("cache",), "misses")
    return {
        "cluster.route_ms": p50(after["router_trace"], "route"),
        "cluster.forward_ms": p50(after["router_trace"], "forward"),
        "cluster.retry_rounds": grew(*router, "cluster.retries"),
        "serve.request_ms": p50(after["node_trace"], "serve.request"),
        "serve.cache_get_ms": p50(after["node_trace"], "cache.get"),
        "serve.admission_wait_ms": p50(after["node_trace"],
                                       "admission.wait"),
        "serve.pool_execute_ms": p50(after["node_trace"], "pool.execute"),
        "serve.cache_put_ms": p50(after["node_trace"], "cache.put"),
        "serve.cache_hit_ratio":
            hits / (hits + misses) if hits + misses else 0.0,
        "serve.sheds": grew(*node, "serve.shed"),
        "serve.coalesced": grew(*node, "serve.coalesced")
        + grew(*router, "cluster.coalesced"),
    }


def measure(session: Session, kind: str, seconds: float,
            trace: bool) -> Dict[str, float]:
    """Time the workload's passes, between two scrapes when tracing,
    and run its untimed checks.  Returns the per-layer values of the
    timed passes (empty when not tracing)."""
    step = session.cold_pass if kind == "cold" else session.warm_pass
    if kind == "warm":
        session.cold_pass("prelude", timed=False)
    lookups = session.cache_lookups()
    before = session.scrape() if trace else None
    run_for(seconds, lambda _index: step(kind))
    layers: Dict[str, float] = {}
    if trace:
        after = session.scrape()
        layers = serve_layers(before, after, kind)
        name = f"serve-{kind}-{session.seed}"
        WORK.mkdir(exist_ok=True)
        (WORK / f"{name}-scrape.json").write_text(json.dumps(after))
        session.spans.write(WORK / f"spans-{name}.csv")
    if kind == "cold":
        lookups = session.cache_lookups()
        session.send("check", [json.loads(spec) for spec in session.cold],
                     cold=False)
    session.check_all_hits(lookups)
    return layers


def report_end_to_end(outcome: Outcome, session: Session, kind: str,
                      boots: List[float]) -> None:
    medians = session.latency.medians()
    if kind == "cold":
        seconds = medians
        over = f"{len(seconds)} per-class median latencies"
    else:
        seconds = [second for samples in session.latency.samples.values()
                   for second in samples]
        over = f"{len(seconds)} requests"
    if not seconds:
        return
    latencies = [second * 1000 for second in seconds]
    outcome.notes.append(
        f"{session.sent[kind] + 1} passes from 1 closed-loop client; "
        f"p50/p90 over the {over}; {BOOTS} boots")
    outcome.metric("wall_s", sum(medians))
    outcome.metric("setup_s", median(boots))
    outcome.metric("p50_ms", percentile(latencies, 50))
    outcome.metric("p90_ms", percentile(latencies, 90))
    outcome.metric("peak_rss_mb", peak_rss_mb(children=True))


def run(kind: str, seed: int, seconds: float, trace: bool) -> Outcome:
    outcome = Outcome()
    # A request's work runs in the router, the node and (cold) the pool
    # worker, and the client times the reference work between requests:
    # on one CPU, which the cluster's processes inherit, they all see
    # the same core, and no wake-up crosses cores.  With one client,
    # one process works at a time, so the request path loses little.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    work = WORK / f"serve-{kind}-{os.getpid()}"
    clusters: List[Cluster] = []
    boots = Normalizer()
    try:
        for index in range(BOOTS):
            if clusters:
                clusters[-1].stop()
            clusters.append(Cluster(work / f"boot{index}"))
            boots.begin()
            boots.add("boot", clusters[-1].boot())
            boots.settle()
        session = Session(clusters[-1], kind, seed, outcome)
        session.warm_up()
        layers = measure(session, kind, seconds, trace)
    finally:
        for cluster in clusters:
            cluster.stop()
        shutil.rmtree(work, ignore_errors=True)
    session.reexecute()
    counts = session.exact_counts()
    if trace:
        layers.update(counts)
        report_layers(outcome, layers)
    else:
        report_end_to_end(outcome, session, kind, boots.samples["boot"])
    for problem in check_ledger(f"serve-{kind}", seed, counts):
        outcome.fail(f"exact count changed between runs: {problem}")
    return outcome
