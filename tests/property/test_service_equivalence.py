"""Service-equivalence properties.

The federation service must be invisible in the answer: for any query, a
result obtained through a shared, concurrently-loaded
:class:`~repro.service.federation.PolygenFederation` — eight sessions
submitting at once over one long-lived worker pool — equals the inline
reference executor's, data, headings *and* tags.  Reuses the randomized
query generator of :mod:`tests.property.test_execution_equivalence`, whose
identity-resolver and domain-transform hazards are exactly what concurrent
materialization must not disturb.
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
from repro.pqp.processor import PolygenQueryProcessor
from repro.service.federation import PolygenFederation

from tests.property.reference import InlineProcessor
from tests.property.test_execution_equivalence import queries

#: Concurrent sessions per drawn query (the acceptance floor is 8).
SESSIONS = 8


def _registry() -> LQPRegistry:
    registry = LQPRegistry()
    for database in paper_databases().values():
        registry.register(RelationalLQP(database))
    return registry


@pytest.fixture(scope="module")
def serial_facade():
    return InlineProcessor(
        PolygenQueryProcessor(
            schema=paper_polygen_schema(),
            registry=_registry(),
            resolver=paper_identity_resolver(),
            optimize=False,
        )
    )


@pytest.fixture(scope="module")
def federation():
    with PolygenFederation(
        paper_polygen_schema(),
        _registry(),
        resolver=paper_identity_resolver(),
        max_concurrent_queries=SESSIONS,
    ) as shared:
        yield shared


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(query=queries())
def test_concurrent_sessions_agree_with_serial(serial_facade, federation, query):
    baseline = serial_facade.run_algebra(query)
    sessions = [federation.session() for _ in range(SESSIONS)]
    try:
        handles = [session.submit(query) for session in sessions]
        for session, handle in zip(sessions, handles):
            result = handle.result(timeout=60)
            assert result.relation == baseline.relation, (
                f"{session.name} diverged from the serial facade on {query!r}"
            )
            assert result.lineage == baseline.lineage
    finally:
        for session in sessions:
            session.close()
