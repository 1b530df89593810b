"""Remote-execution equivalence properties.

The network layer must be invisible in the answer: a federation whose
LQPs sit behind :class:`~repro.net.server.LQPServer`\\ s on loopback —
registered by ``polygen://`` URL, multiplexed, chunk-streamed — must
produce relations that equal the in-process federation's bit for bit:
data, headings, *and tags*.  Hypothesis drives the same randomized
polygen queries as :mod:`tests.property.test_execution_equivalence`
through remote-backed processors in all four engine configurations
(inline/pooled × unoptimized/optimized) and asserts tag-identical
results against the in-process inline baseline.

Fault-injection coverage (dropped connections → typed errors, client
timeouts propagating cancellation to the server) lives in
``tests/net/test_server_client.py``; this module is the semantic half of
the network layer's contract.
"""

import pytest
from hypothesis import HealthCheck, given, settings

from repro.datasets.paper import (
    paper_databases,
    paper_identity_resolver,
    paper_polygen_schema,
)
from repro.lqp.registry import LQPRegistry
from repro.lqp.relational_lqp import RelationalLQP
from repro.net import LQPServer
from repro.pqp.processor import PolygenQueryProcessor

from tests.property.reference import InlineProcessor
from tests.property.test_execution_equivalence import queries

#: Transport settings: short enough that a wedged socket fails the suite
#: instead of hanging it.
TIMEOUT = 5.0


def _remote_processor(servers, **kwargs) -> PolygenQueryProcessor:
    registry = LQPRegistry()
    for server in servers:
        registry.register(server.url, concurrency=4, timeout=TIMEOUT)
    return PolygenQueryProcessor(
        schema=paper_polygen_schema(),
        registry=registry,
        resolver=paper_identity_resolver(),
        **kwargs,
    )


def _in_process_baseline() -> InlineProcessor:
    registry = LQPRegistry()
    for database in paper_databases().values():
        registry.register(RelationalLQP(database))
    return InlineProcessor(
        PolygenQueryProcessor(
            schema=paper_polygen_schema(),
            registry=registry,
            resolver=paper_identity_resolver(),
            optimize=False,
        )
    )


@pytest.fixture(scope="module")
def harness():
    servers = [
        LQPServer(RelationalLQP(database), chunk_size=3).start()
        for database in paper_databases().values()
    ]
    engines = {
        "remote_serial": InlineProcessor(
            _remote_processor(servers, optimize=False)
        ),
        "remote_optimized": InlineProcessor(
            _remote_processor(servers, pushdown=True, prune_projections=True)
        ),
        "remote_concurrent": _remote_processor(servers, optimize=False),
        "remote_concurrent_optimized": _remote_processor(
            servers, pushdown=True, prune_projections=True
        ),
    }
    baseline = _in_process_baseline()
    yield baseline, engines
    for processor in engines.values():
        for lqp in processor.registry:
            lqp.inner.close()  # the RemoteLQP under the accounting wrapper
        processor.close()
    baseline.close()
    for server in servers:
        server.stop()


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(query=queries())
def test_remote_loopback_is_tag_identical_to_in_process(harness, query):
    baseline, engines = harness
    reference = baseline.run_algebra(query)
    for name, engine in engines.items():
        remote = engine.run_algebra(query)
        assert remote.relation == reference.relation, (
            f"{name} diverged from the in-process baseline on {query!r}"
        )
        assert remote.lineage == reference.lineage


def test_paper_query_is_tag_identical_over_the_wire(harness):
    from tests.integration.conftest import PAPER_SQL

    baseline, engines = harness
    reference = baseline.run_sql(PAPER_SQL)
    for name, engine in engines.items():
        remote = engine.run_sql(PAPER_SQL)
        assert remote.relation == reference.relation, name
        assert remote.lineage == reference.lineage


def test_remote_federation_actually_used_the_network(harness):
    _, engines = harness
    stats = engines["remote_concurrent"].federation.stats()
    assert stats.remote_transports, "no transport counters — did this run remotely?"
    assert all(
        transport.requests > 0 for transport in stats.remote_transports.values()
    )
    assert any(
        transport.bytes_received > 0
        for transport in stats.remote_transports.values()
    )
