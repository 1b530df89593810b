"""Service benchmark: inter-query throughput of the shared worker pool.

PR 2's runtime benchmark measured *intra*-query concurrency — one plan
overlapping its autonomous LQPs.  This bench measures what the federation
service adds on top, *inter*-query concurrency, against latency-injected
LQPs (a real per-query delay standing in for the network):

- **per-query executor** (the historical shape): each query gets a fresh
  standalone ``ConcurrentExecutor`` (no shared pool) that builds and
  tears down its per-database worker threads inside ``execute()``, and
  queries run one after another;
- **shared pool, serial submits**: one long-lived
  :class:`~repro.service.federation.PolygenFederation`, same queries one
  at a time — isolates what reusing warm workers saves;
- **shared pool, concurrent submits**: the same federation with every
  query in flight at once over eight sessions — the multi-user PQP
  server the redesign exists for.

Each engine must produce tag-identical relations before its clock counts.
Results are recorded for ``--bench-json`` (and the BENCH_history.json
trajectory; see conftest).
"""

import time

from repro.datasets.generators import FederationSpec, generate_federation
from repro.lqp.cost import LatencyLQP
from repro.lqp.registry import LQPRegistry
from repro.lqp.relational_lqp import RelationalLQP
from repro.pqp.processor import PolygenQueryProcessor
from repro.service.federation import PolygenFederation

#: Injected per-query LQP latency (seconds), federation width, workload size.
DELAY = 0.01
WIDTH = 4
QUERIES = 12
SESSIONS = 8

QUERY = "GORGANIZATION [NAME, INDUSTRY]"


def _federation_spec():
    return generate_federation(
        FederationSpec(
            databases=WIDTH,
            organizations=60,
            coverage=0.5,
            people_per_database=5,
            seed=7,
        )
    )


def _latency_registry(federation) -> LQPRegistry:
    registry = LQPRegistry()
    for database in federation.databases.values():
        registry.register(LatencyLQP(RelationalLQP(database), per_query=DELAY))
    return registry


def test_shared_pool_beats_per_query_executor_setup(record_bench):
    """Queries/sec executing the identical plan through fresh per-query
    ConcurrentExecutors (thread setup + teardown each time) vs one warm
    federation, serially and with every query in flight."""
    from repro.pqp.runtime import ConcurrentExecutor

    federation_data = _federation_spec()
    registry = _latency_registry(federation_data)

    # One pre-built, optimized plan shared by all three paths, and the
    # serial reference answer for the tag-identity check.
    planner = PolygenQueryProcessor(federation_data.schema, registry)
    _, pom = planner.analyze(QUERY)
    iom, _ = planner.optimize(planner.plan(pom))
    reference = planner.run_plan(iom)

    # -- per-query executor: fresh engine (and threads) every time --------
    began = time.perf_counter()
    for _ in range(QUERIES):
        executor = ConcurrentExecutor(federation_data.schema, registry)
        trace = executor.execute(iom)  # builds + joins its pool inside
        assert trace.relation == reference.relation
    per_query_seconds = time.perf_counter() - began

    with PolygenFederation(
        federation_data.schema,
        registry,
        max_concurrent_queries=SESSIONS,
    ) as federation:
        warm = federation.session(name="warmup")
        assert warm.execute(iom).relation == reference.relation  # warm the pool

        # -- shared pool, one query at a time -----------------------------
        began = time.perf_counter()
        for _ in range(QUERIES):
            assert warm.execute(iom).relation == reference.relation
        shared_serial_seconds = time.perf_counter() - began

        # -- shared pool, all queries in flight across 8 sessions ---------
        sessions = [federation.session() for _ in range(SESSIONS)]
        began = time.perf_counter()
        handles = [
            sessions[index % SESSIONS].submit(iom) for index in range(QUERIES)
        ]
        for handle in handles:
            assert handle.result(timeout=120).relation == reference.relation
        shared_concurrent_seconds = time.perf_counter() - began

    record_bench(
        "service_inter_query_throughput",
        databases=WIDTH,
        per_query_delay_s=DELAY,
        queries=QUERIES,
        per_query_executor_qps=round(QUERIES / per_query_seconds, 2),
        shared_pool_serial_qps=round(QUERIES / shared_serial_seconds, 2),
        shared_pool_concurrent_qps=round(QUERIES / shared_concurrent_seconds, 2),
        concurrent_speedup_vs_per_query=round(
            per_query_seconds / shared_concurrent_seconds, 2
        ),
    )
    # The warm shared pool must not lose to per-query thread churn (wide
    # envelope: the churn saving is real but small next to LQP latency,
    # and CI runners are noisy), and overlapping the queries must win
    # outright — that is the multi-user service's reason to exist.
    assert shared_serial_seconds <= per_query_seconds * 1.25
    assert shared_concurrent_seconds < per_query_seconds


def test_no_thread_churn_under_load(record_bench):
    """The service answers a burst of queries without creating a single
    thread beyond warmup — the churn the per-query engine pays."""
    federation_data = _federation_spec()
    with PolygenFederation(
        federation_data.schema,
        _latency_registry(federation_data),
        max_concurrent_queries=SESSIONS,
    ) as federation:
        session = federation.session()
        session.execute(QUERY)
        warm_threads = federation.pool.thread_names()
        handles = [session.submit(QUERY) for _ in range(QUERIES)]
        for handle in handles:
            handle.result(timeout=120)
        assert federation.pool.thread_names() == warm_threads
        stats = federation.stats()
    record_bench(
        "service_no_thread_churn",
        worker_threads=len(warm_threads),
        queries_served=stats.queries_completed,
        lqp_queries_total=sum(stats.lqp_queries.values()),
    )
