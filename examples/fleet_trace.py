#!/usr/bin/env python3
"""One request, observed everywhere: a merged fleet + engine trace.

Boots a real local fleet (N ``repro serve`` processes) with a
consistent-hash router in front, submits ONE point through the router
with a caller-chosen ``X-Request-Id``, then collects every
observability surface that request touched:

* the router's wall-clock span trace (``GET /trace``),
* each node's span trace,
* the *cycle-domain* trace of the very same engine point (re-executed
  in-process with the tracer on — tracing never changes the payload),
* ``/metrics`` exposition text from the router and every node,
  validated with the strict parser.

The span traces and the cycle trace are merged into one
Perfetto-loadable file (:func:`repro.obs.merge_chrome_traces`),
validated against the Chrome trace-event schema, and the request's
span tree is printed.  Exits nonzero if the request id fails to
appear in the client response, the router trace, a node trace, or if
any surface fails validation — CI's ``metrics-smoke`` job runs this
as its acceptance check.

    PYTHONPATH=src python examples/fleet_trace.py \
        --request-id demo-req-1 --out merged_trace.json
"""

import argparse
import dataclasses
import json
import pathlib
import sys
import tempfile

from repro.cluster import LocalFleet, RouterService
from repro.obs import (merge_chrome_traces, parse_prometheus,
                       validate_chrome_trace)
from repro.serve import run_in_thread
from repro.serve.client import ServeClient
from repro.serve.protocol import parse_request
from repro.sim.parallel import execute_point


def span_tree(traces, request_id):
    """Rows of (process, tid, name, ts_us, dur_us) carrying the id."""
    rows = []
    for label, trace in traces:
        names = {}
        for event in trace["traceEvents"]:
            if event.get("ph") == "M" and event["name"] == "thread_name":
                names[(event["pid"], event["tid"])] = \
                    event["args"]["name"]
        for event in trace["traceEvents"]:
            if event.get("args", {}).get("request_id") != request_id:
                continue
            tid = names.get((event["pid"], event["tid"]),
                            str(event["tid"]))
            rows.append((label, tid, event["name"], event["ts"],
                         event.get("dur", 0)))
    rows.sort(key=lambda row: row[3])
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nodes", type=int, default=2)
    parser.add_argument("--request-id", default="fleet-trace-demo")
    parser.add_argument("--cache-root", default=None,
                        help="fleet cache/log root (default: temp dir)")
    parser.add_argument("--out", default="merged_trace.json")
    parser.add_argument("--metrics-out", default=None,
                        help="also write the router+node /metrics "
                             "dumps to this file")
    parser.add_argument("--operations", type=int, default=10)
    args = parser.parse_args()

    cache_root = args.cache_root or tempfile.mkdtemp(
        prefix="repro-fleet-trace-")
    request = {"workload": "sps", "scheme": "txcache",
               "operations": args.operations,
               "config": {"num_cores": 1}}
    rid = args.request_id

    fleet = LocalFleet(nodes=args.nodes, jobs=1, cache_root=cache_root)
    print(f"booting {args.nodes} node(s) + router "
          f"(cache root {cache_root})...")
    with fleet:
        router = RouterService(fleet.infos(), replication=min(
            2, args.nodes), port=0)
        thread, port = run_in_thread(router)
        client = ServeClient(port=port)
        response = client.submit(request, retries=3, request_id=rid)
        if response.get("request_id") != rid:
            print(f"FAIL: response carried request_id "
                  f"{response.get('request_id')!r}, expected {rid!r}")
            return 1
        print(f"request {rid} answered by {response['node']} "
              f"(key {response['key'][:12]}…)")

        traces = [("router", client.trace())]
        metrics_texts = [("router", client.metrics())]
        for info in fleet.infos():
            node_client = ServeClient(host=info.host, port=info.port)
            traces.append((info.node_id, node_client.trace()))
            metrics_texts.append((info.node_id, node_client.metrics()))
        router.request_shutdown()
        thread.join(timeout=30)

    # every /metrics surface must satisfy the strict exposition parser
    for label, text in metrics_texts:
        families = parse_prometheus(text)
        print(f"/metrics[{label}]: {len(families)} families OK")
    if args.metrics_out:
        with open(args.metrics_out, "w") as fp:
            for label, text in metrics_texts:
                fp.write(f"# == {label} ==\n{text}\n")

    # the id must appear in the router's spans and in some node's
    hit = {label for label, trace in traces
           for event in trace["traceEvents"]
           if event.get("args", {}).get("request_id") == rid}
    if "router" not in hit or len(hit) < 2:
        print(f"FAIL: request id only seen in {sorted(hit)}")
        return 1

    # re-execute the same point in-process with the cycle tracer on:
    # trace_dir/trace_epoch are excluded from the spec, so the key is
    # unchanged and the payload must match the served one byte for byte
    point = parse_request(request).point
    trace_dir = pathlib.Path(cache_root) / "cycle-trace"
    traced = dataclasses.replace(point, trace_dir=str(trace_dir),
                                 trace_epoch=64)
    key, payload, _seconds = execute_point(traced)
    if json.dumps(payload, sort_keys=True) != \
            json.dumps(response["payload"], sort_keys=True):
        print("FAIL: served payload differs from engine payload")
        return 1
    print(f"engine payload byte-identical for key {key[:12]}…")
    with open(trace_dir / f"{key}.trace.json") as fp:
        cycle_trace = json.load(fp)

    merged = merge_chrome_traces(cycle_trace,
                                 *(trace for _label, trace in traces))
    problems = validate_chrome_trace(merged)
    if problems:
        for problem in problems:
            print(f"FAIL: merged trace invalid: {problem}")
        return 1
    with open(args.out, "w") as fp:
        json.dump(merged, fp, separators=(",", ":"))
        fp.write("\n")
    print(f"merged trace ({len(merged['traceEvents'])} events) "
          f"written to {args.out} — open in https://ui.perfetto.dev")

    print(f"\nspan tree for {rid}:")
    for process, tid, name, ts_us, dur_us in span_tree(traces, rid):
        print(f"  {ts_us/1000.0:9.3f} ms  {process:>8}/{tid:<10} "
              f"{name}  ({dur_us/1000.0:.3f} ms)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
