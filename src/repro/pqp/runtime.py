"""Pooled dispatch for the federated execution loop.

The paper's Figure-1 architecture routes local operations to *autonomous*
LQPs — engines that serve requests independently of one another.  The one
execution loop, :meth:`repro.pqp.executor.Executor.execute`, drives the
plan DAG (:class:`~repro.pqp.plandag.PlanDAG`): a row starts the moment
every ``R(#)`` it consumes is ready, and PQP rows (the polygen algebra over
earlier results) run on the calling thread — within one plan the PQP is a
serial resource, exactly as :func:`repro.pqp.schedule.schedule_plan`
models it.

The base executor runs each ready local row inline.
:class:`ConcurrentExecutor` overrides only that dispatch step: it hands
the row to its database's worker group in a
:class:`~repro.pqp.pool.WorkerPool`, so rows at different LQPs overlap.

- every local database gets **one worker thread** (matching the
  single-connection assumption of the scheduling model: rows at the same
  LQP queue, rows at different LQPs overlap) — unless its LQP advertises
  ``native_concurrency > 1`` (a network-multiplexed
  :class:`~repro.net.client.RemoteLQP`), in which case its worker group
  widens to that many threads and same-database rows overlap in flight
  over the LQP's single multiplexed connection;
- a shard family widens its database's group to the family's width, so
  all K partial scans are in flight together (:mod:`repro.pqp.shard`).

A standalone ``ConcurrentExecutor`` builds a private pool per
``execute()`` call and tears it down afterwards; an executor constructed
with a shared ``pool`` — how :class:`~repro.service.federation.
PolygenFederation` runs it — dispatches into long-lived workers that
survive across queries, so many plans execute at once with zero thread
churn and same-database rows of *different* queries queue on that
database's single connection.

Results are bit-for-bit the inline executor's — same relations, same tags,
same lineage — because every row runs the same code path; only the
wall-clock interleaving and the timings' worker labels differ.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Dict

from repro.pqp.executor import Executor
from repro.pqp.pool import WorkerPool

__all__ = ["ConcurrentExecutor"]


class ConcurrentExecutor(Executor):
    """An :class:`~repro.pqp.executor.Executor` that runs local rows on
    per-database worker threads.

    Same constructor (plus an optional shared ``pool``), same
    ``execute(iom) -> ExecutionTrace`` contract, tag-identical results.
    """

    #: Only PQP rows and streamed spines run on the calling thread here.
    _inline_worker = "pqp"

    def __init__(self, *args, pool: WorkerPool | None = None, **kwargs):
        super().__init__(*args, **kwargs)
        self._pool = pool

    @property
    def pool(self) -> WorkerPool | None:
        """The shared worker pool, or ``None`` when per-execute pools are
        built (the standalone, churn-per-query configuration)."""
        return self._pool

    @contextmanager
    def _local_dispatcher(self):
        pool = WorkerPool() if self._pool is None else self._pool
        #: database → native worker-group width, resolved once per plan.
        widths: Dict[str, int] = {}

        def dispatch(row, job) -> None:
            width = widths.get(row.el)
            if width is None:
                width = max(1, self._registry.get(row.el).native_concurrency)
                widths[row.el] = width
            if row.shard:
                width = max(width, row.shard[1])
            pool.submit(
                row.el,
                lambda: job(row, threading.current_thread().name),
                width=width,
            )

        try:
            yield dispatch
        finally:
            if pool is not self._pool:
                pool.close(wait=True)
