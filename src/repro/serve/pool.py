"""Worker fleet: a crash-tolerant ProcessPoolExecutor wrapper.

The service computes points in worker *processes* (simulations are
CPU-bound; the GIL would serialize threads), all sharing one on-disk
:class:`~repro.sim.parallel.ResultCache` through the scheduler.  The
fleet's job is to keep serving through worker death: a segfaulted or
OOM-killed worker breaks the whole ``ProcessPoolExecutor``
(``BrokenProcessPool``), so the fleet rebuilds the pool and retries
the point a bounded number of times with exponential backoff — the
same retry discipline the NVM controller applies to failed array
writes (:func:`repro.faults.exponential_backoff`) — before giving up
and letting the server answer 500.

Execution goes through the engine's
:func:`repro.sim.parallel.execute_point`, so a served point runs the
exact code path a batch point runs and returns the exact payload.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Optional, Tuple

from ..common.stats import Stats
from ..faults import exponential_backoff
from ..sim.parallel import execute_point


class WorkerCrashed(RuntimeError):
    """A point crashed its worker past the retry budget (answer 500)."""


class WorkerFleet:
    """Bounded-retry process pool executing experiment points."""

    def __init__(self, jobs: int = 2, max_retries: int = 2,
                 retry_backoff_seconds: float = 0.05,
                 stats: Optional[Stats] = None) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        self.jobs = jobs
        self.max_retries = max_retries
        self.retry_backoff_seconds = retry_backoff_seconds
        self.stats = stats if stats is not None else Stats()
        self._pool: Optional[ProcessPoolExecutor] = None

    # -- pool lifecycle ------------------------------------------------
    def _submit(self, point, request_id: Optional[str] = None):
        """Submit one point to the (lazily created) pool; returns the
        concurrent future.  Separate from :meth:`execute` so tests can
        inject pool failures deterministically."""
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.jobs)
            self.stats.inc("pool.spawned")
        return self._pool.submit(execute_point, point, request_id)

    def _discard_pool(self) -> None:
        """Drop a broken executor (its workers are already gone)."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False)

    def shutdown(self, wait: bool = True) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=wait)

    # -- execution -----------------------------------------------------
    async def execute(self, point,
                      request_id: Optional[str] = None
                      ) -> Tuple[str, dict, float]:
        """Run one point in a worker; returns ``(key, payload,
        seconds)``.  Retries through worker crashes up to
        ``max_retries`` times, then raises :class:`WorkerCrashed`.
        Exceptions raised *by the point itself* (a simulation bug, a
        bad spec that slipped validation) propagate unchanged on the
        first attempt — they are deterministic, retrying cannot help.
        ``request_id`` rides along to the worker purely so its
        structured ``point.executed`` log record carries the id.
        """
        last_error: Optional[BaseException] = None
        for attempt in range(1, self.max_retries + 2):
            try:
                return await asyncio.wrap_future(
                    self._submit(point, request_id))
            except BrokenProcessPool as error:
                last_error = error
                self.stats.inc("pool.broken")
                self._discard_pool()
                if attempt <= self.max_retries:
                    self.stats.inc("pool.retries")
                    await asyncio.sleep(exponential_backoff(
                        self.retry_backoff_seconds, attempt))
        raise WorkerCrashed(
            f"point {point.key[:12]}… crashed its worker "
            f"{self.max_retries + 1} time(s)") from last_error
