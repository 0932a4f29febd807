"""A local N-node serve fleet, as real processes.

Chaos you can trust requires real deaths: the harness spawns each
``repro.serve`` node as an actual OS process (``python -m repro serve``)
so a *kill* is a genuine ``SIGKILL`` (no drain, no goodbye — exactly
what an OOM kill looks like to the router), a *hang* is ``SIGSTOP``
(the TCP listener still accepts, the application never answers — the
failure mode health checks exist for), and a *drain* is a real
``SIGTERM`` exercising the node's graceful-shutdown path.

Each node gets a stable identity (``node0``…), a pre-allocated fixed
port — so a restarted node comes back on the same address and
membership needs no re-plumbing — and its own cache directory, so
killing a node genuinely loses that shard's warm entries (replication,
not shared storage, is what keeps the cluster warm).  Per-node
stdout/stderr land in ``<cache_root>/<node_id>.log`` for post-mortems.
"""

from __future__ import annotations

import os
import pathlib
import signal
import socket
import subprocess
import sys
import time
from typing import List, Optional

from ..serve.client import ServeClient, ServeError
from .membership import NodeInfo

#: seconds between ``/healthz`` polls while a node boots
BOOT_POLL_SECONDS = 0.005


def _free_port(host: str) -> int:
    """Ask the kernel for a currently-free port.  Racy in principle;
    in practice the fleet binds it again within milliseconds, and the
    fixed address is what lets a restarted node rejoin seamlessly."""
    with socket.socket() as sock:
        sock.bind((host, 0))
        return sock.getsockname()[1]


def _repro_env() -> dict:
    """Child environment with ``repro`` importable regardless of how
    the parent was launched (installed, or PYTHONPATH=src from the
    repo root with any cwd)."""
    import repro

    src = str(pathlib.Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    existing = env.get("PYTHONPATH", "")
    if src not in existing.split(os.pathsep):
        env["PYTHONPATH"] = (src + os.pathsep + existing
                             if existing else src)
    return env


class NodeProcess:
    """One serve node: identity, fixed address, and its live process."""

    def __init__(self, node_id: str, host: str, port: int,
                 cache_dir: pathlib.Path, jobs: int,
                 max_queue: int, log_path: pathlib.Path,
                 log_json: bool = True) -> None:
        self.node_id = node_id
        self.host = host
        self.port = port
        self.cache_dir = cache_dir
        self.jobs = jobs
        self.max_queue = max_queue
        self.log_path = log_path
        self.log_json = log_json
        self.proc: Optional[subprocess.Popen] = None
        self.stopped = False     # SIGSTOPped (hung), not dead

    @property
    def info(self) -> NodeInfo:
        return NodeInfo(self.node_id, self.host, self.port)

    def alive(self) -> bool:
        return self.proc is not None and self.proc.poll() is None

    # -- lifecycle -----------------------------------------------------
    def spawn(self) -> None:
        if self.alive():
            raise RuntimeError(f"{self.node_id} is already running")
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        command = [sys.executable, "-m", "repro", "serve",
                   "--host", self.host, "--port", str(self.port),
                   "--jobs", str(self.jobs),
                   "--max-queue", str(self.max_queue),
                   "--cache-dir", str(self.cache_dir),
                   "--node-id", self.node_id]
        if self.log_json:
            # structured per-node logs make <node_id>.log greppable by
            # request id across the whole fleet
            command.append("--log-json")
        log = open(self.log_path, "ab")
        try:
            # Own session ⇒ own process group: a node is the serve
            # process PLUS its pool workers, and the workers inherit
            # the listening socket on fork — SIGKILLing only the
            # parent would leave orphans holding the port (and the
            # restart unable to bind).  Chaos signals hit the group.
            self.proc = subprocess.Popen(
                command, stdout=log, stderr=log,
                stdin=subprocess.DEVNULL, env=_repro_env(),
                start_new_session=True)
        finally:
            log.close()
        self.stopped = False

    def _signal_group(self, signum: int) -> None:
        if self.proc is None:
            return
        try:
            os.killpg(self.proc.pid, signum)
        except (ProcessLookupError, PermissionError):
            pass

    def wait_ready(self, timeout: float = 30.0) -> None:
        """Poll ``/healthz`` until the node answers ready."""
        client = ServeClient(host=self.host, port=self.port, timeout=2)
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if not self.alive():
                raise RuntimeError(
                    f"{self.node_id} exited during boot "
                    f"(rc={self.proc.returncode}); see {self.log_path}")
            try:
                if client.healthz().get("ready"):
                    return
            except (ServeError, OSError):
                pass
            time.sleep(BOOT_POLL_SECONDS)
        raise RuntimeError(
            f"{self.node_id} not ready within {timeout}s; "
            f"see {self.log_path}")

    # -- chaos actions -------------------------------------------------
    def kill(self) -> None:
        """SIGKILL the whole node group: instant death, no drain, and
        no orphaned pool worker left squatting on the port."""
        if self.proc is not None:
            self._signal_group(signal.SIGKILL)
            self.proc.wait(timeout=10)

    def terminate(self, timeout: float = 30.0) -> int:
        """SIGTERM the serve process and wait: the graceful drain path
        (the node winds down its own workers).  Stragglers — e.g. a
        worker wedged mid-simulation — are group-SIGKILLed after the
        timeout."""
        if self.proc is None:
            return 0
        if self.stopped:
            self.resume()
        if self.proc.poll() is None:
            self.proc.terminate()
        try:
            returncode = self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self._signal_group(signal.SIGKILL)
            returncode = self.proc.wait(timeout=10)
        self._signal_group(signal.SIGKILL)   # reap any orphan workers
        return returncode

    def hang(self) -> None:
        """SIGSTOP the group: the processes freeze but the listener
        keeps accepting — requests time out instead of failing fast,
        the exact failure mode health probes exist to catch."""
        if self.alive():
            self._signal_group(signal.SIGSTOP)
            self.stopped = True

    def resume(self) -> None:
        """SIGCONT a hung node group."""
        if self.proc is not None and self.stopped:
            self._signal_group(signal.SIGCONT)
            self.stopped = False

    def restart(self, timeout: float = 30.0) -> None:
        """Bring a dead node back on the same address and cache dir."""
        if self.alive():
            raise RuntimeError(f"{self.node_id} is still running")
        self.spawn()
        self.wait_ready(timeout=timeout)


class LocalFleet:
    """N serve nodes on localhost, ready for a router (or chaos)."""

    def __init__(self, nodes: int = 3, jobs: int = 1,
                 cache_root=None, host: str = "127.0.0.1",
                 max_queue: int = 64, log_json: bool = True) -> None:
        if nodes < 1:
            raise ValueError(f"nodes must be >= 1, got {nodes}")
        if cache_root is None:
            raise ValueError("cache_root is required (one subdir and "
                             "one log file per node land there)")
        self.host = host
        root = pathlib.Path(cache_root)
        root.mkdir(parents=True, exist_ok=True)
        self.nodes: List[NodeProcess] = [
            NodeProcess(node_id=f"node{index}", host=host,
                        port=_free_port(host),
                        cache_dir=root / f"node{index}",
                        jobs=jobs, max_queue=max_queue,
                        log_path=root / f"node{index}.log",
                        log_json=log_json)
            for index in range(nodes)
        ]

    def infos(self) -> List[NodeInfo]:
        return [node.info for node in self.nodes]

    def start(self, timeout: float = 60.0) -> None:
        """Spawn every node, then wait until all answer ready."""
        for node in self.nodes:
            node.spawn()
        deadline = time.monotonic() + timeout
        for node in self.nodes:
            node.wait_ready(timeout=max(1.0,
                                        deadline - time.monotonic()))

    def shutdown(self) -> None:
        """SIGTERM-drain every surviving node (killing stragglers)."""
        for node in self.nodes:
            node.terminate()

    def __enter__(self) -> "LocalFleet":
        self.start()
        return self

    def __exit__(self, *_exc) -> None:
        self.shutdown()
