"""Semantic-result-cache properties.

The cache must be invisible in the answer and *tag-precise* under
invalidation:

1. **Equivalence** — for any query, a result served by a cache-enabled
   federation (first run populates, second run hits) is cell-for-cell and
   tag-for-tag identical to fresh inline execution, in-process and over
   loopback TCP.
2. **Precise invalidation** — invalidating database D evicts exactly the
   entries whose source-tag set consults D: a D-consulting query is never
   served from cache afterwards, while entries not consulting D keep
   serving whole-plan hits (no over-eviction).
3. **No stale reads** — after a write to D and ``invalidate(D)``, cached
   queries consulting D return the post-write answer, identical to a
   federation that never cached at all.

Reuses the randomized query generator of
:mod:`tests.property.test_execution_equivalence`.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datasets.paper import (
    paper_databases,
    paper_identity_resolver,
    paper_polygen_schema,
)
from repro.lqp.registry import LQPRegistry
from repro.lqp.relational_lqp import RelationalLQP
from repro.net.server import LQPServer
from repro.pqp.fingerprint import fingerprint_plan
from repro.pqp.matrix import Operation
from repro.pqp.processor import PolygenQueryProcessor
from repro.service.federation import PolygenFederation
from repro.service.options import QueryOptions

from tests.property.reference import InlineProcessor
from tests.property.test_execution_equivalence import queries

TIMEOUT = 15.0


def _local_registry(databases=None) -> LQPRegistry:
    registry = LQPRegistry()
    for database in (databases or paper_databases()).values():
        registry.register(RelationalLQP(database))
    return registry


def _plan_databases(result) -> set:
    """The databases a result's *plan* consulted — the cache's entry tag
    basis: shipped execution locations, consulted-only sources, and every
    origin/intermediate tag in the answer itself."""
    consulted = set()
    for row in result.iom:
        if row.is_local:
            consulted.add(row.el)
        consulted.update(row.consulted)
        if row.op is Operation.CACHED and row.cached is not None:
            consulted.update(row.cached.sources)
    consulted.update(result.relation.contributing_sources())
    return consulted


@pytest.fixture(scope="module")
def oracle():
    """Cache-free inline execution: the ground truth for data and tags."""
    return InlineProcessor(
        PolygenQueryProcessor(
            schema=paper_polygen_schema(),
            registry=_local_registry(),
            resolver=paper_identity_resolver(),
            optimize=False,
        )
    )


@pytest.fixture(scope="module")
def loopback_urls():
    servers = [
        LQPServer(RelationalLQP(database)).start()
        for database in paper_databases().values()
    ]
    yield [server.url for server in servers]
    for server in servers:
        server.stop()


@pytest.fixture(
    scope="module",
    # A federation always runs the ConcurrentExecutor; the second part of
    # the id is where its sources live.
    params=["concurrent-local", "concurrent-loopback"],
)
def cached_federation(request, loopback_urls):
    registry = LQPRegistry()
    if request.param.endswith("loopback"):
        for url in loopback_urls:
            registry.register(url, timeout=TIMEOUT)
    else:
        registry = _local_registry()
    with PolygenFederation(
        paper_polygen_schema(),
        registry,
        resolver=paper_identity_resolver(),
        defaults=QueryOptions(cache="on"),
    ) as federation:
        yield federation


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(query=queries())
def test_cached_results_are_tag_identical(oracle, cached_federation, query):
    fresh = oracle.run_algebra(query)
    first = cached_federation.run(query)
    second = cached_federation.run(query)
    assert second.cache_hit, f"repeat of {query!r} missed the cache"
    for served in (first, second):
        assert served.relation == fresh.relation, (
            f"cache-enabled run diverged from fresh execution on {query!r}"
        )
        assert served.lineage == fresh.lineage


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_invalidation_is_tag_precise(data):
    batch = data.draw(
        st.lists(queries(), min_size=2, max_size=4, unique=True), label="queries"
    )
    with PolygenFederation(
        paper_polygen_schema(),
        _local_registry(),
        resolver=paper_identity_resolver(),
        defaults=QueryOptions(cache="on"),
    ) as federation:
        dependencies, fingerprints = {}, {}
        for query in batch:
            result = federation.run(query)
            dependencies[query] = _plan_databases(result)
            fingerprints[query] = fingerprint_plan(result.iom).final
        for query in batch:  # warm: everything now whole-plan hits
            assert federation.run(query).cache_hit
        database = data.draw(
            st.sampled_from(sorted(set().union(*dependencies.values()))),
            label="invalidated database",
        )
        evicted = federation.invalidate(database)
        assert evicted >= sum(
            database in consulted for consulted in dependencies.values()
        )
        # Probe the cache *before* any recomputation repopulates it: the
        # eviction must be exactly tag-precise at this instant.  (A later
        # cache-on run of a D-consulting superquery would legitimately
        # re-store fresh entries for its shared subplans.)
        for query in batch:
            entry = federation.cache.lookup(fingerprints[query])
            if database in dependencies[query]:
                assert entry is None, (
                    f"{query!r} consults {database} but its cache entry "
                    "survived invalidate"
                )
            else:
                assert entry is not None, (
                    f"{query!r} does not consult {database} but its cache "
                    "entry was evicted"
                )
        # And behaviourally: every query still answers, recomputed or
        # served, with a whole-plan hit exactly when its entry survived.
        for query in batch:
            again = federation.run(query)
            if database not in dependencies[query]:
                assert again.cache_hit


@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_write_then_invalidate_never_serves_stale_rows(data):
    batch = data.draw(
        st.lists(queries(), min_size=1, max_size=3, unique=True), label="queries"
    )
    databases = paper_databases()
    with PolygenFederation(
        paper_polygen_schema(),
        _local_registry(databases),
        resolver=paper_identity_resolver(),
        defaults=QueryOptions(cache="on"),
    ) as federation:
        for query in batch:  # populate, then confirm the cache serves
            federation.run(query)
            assert federation.run(query).cache_hit
        # The write: a new MBA alumna lands in AD.ALUMNUS.
        databases["AD"].insert(
            "ALUMNUS", [("424", "Grace Murray", "MBA", "CS")]
        )
        federation.invalidate("AD")
        # Ground truth over the *mutated* databases, never cached.
        oracle = PolygenQueryProcessor(
            schema=paper_polygen_schema(),
            registry=_local_registry(databases),
            resolver=paper_identity_resolver(),
            optimize=False,
        )
        for query in batch:
            served = federation.run(query)
            fresh = oracle.run_algebra(query)
            assert served.relation == fresh.relation, (
                f"{query!r} served stale rows after a write to AD"
            )
            assert served.lineage == fresh.lineage
