"""Heterogeneous-backend equivalence properties.

"To the PQP, each LQP behaves as a local relational system" (paper, §I) —
so a federation whose sources live in SQLite files, append-only log
directories, or key-value stores must answer every polygen query
tag-identically to the all-in-memory federation: data, headings, *and*
tags.  Hypothesis drives the same randomized polygen queries as
:mod:`tests.property.test_execution_equivalence` through

- homogeneous federations (all three paper databases in one backend
  kind), inline and pooled-optimized, and
- a mixed polystore (AD in SQLite, PD in a log store, CD in a KV store),
  locally *and* behind loopback :class:`~repro.net.server.LQPServer`\\ s,

and asserts every configuration equals the in-process inline baseline.
Capability differences (native vs scan-filter selection, projection
pushdown, range splitting) may move work around — they must never move
a single tuple or tag.

Backend-internal semantics (SQLite type faithfulness, log replay, KV
slicing) live in ``tests/backends/``; this module is the federation-level
half of the backends' contract.
"""

import pytest
from hypothesis import HealthCheck, given, settings

from repro.backends import KVStoreLQP, LogStoreLQP, SqliteLQP
from repro.core.predicate import Theta
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

TIMEOUT = 5.0

#: database name → backend factory for the mixed polystore: one of each
#: capability tier across the paper's three sources.
POLYSTORE = ("sqlite", "log", "kv")


def _backend_lqp(kind, database, tmp_path):
    if kind == "sqlite":
        return SqliteLQP.from_database(database)
    if kind == "log":
        return LogStoreLQP.from_database(
            database, str(tmp_path / f"log-{database.name}")
        )
    if kind == "kv":
        return KVStoreLQP.from_database(database)
    raise AssertionError(kind)


def _processor(lqps, **kwargs):
    registry = LQPRegistry()
    for lqp in lqps:
        registry.register(lqp)
    return PolygenQueryProcessor(
        schema=paper_polygen_schema(),
        registry=registry,
        resolver=paper_identity_resolver(),
        **kwargs,
    )


def _remote_processor(servers, **kwargs):
    registry = LQPRegistry()
    for server in servers:
        registry.register(server.url, concurrency=4, timeout=TIMEOUT)
    return PolygenQueryProcessor(
        schema=paper_polygen_schema(),
        registry=registry,
        resolver=paper_identity_resolver(),
        **kwargs,
    )


@pytest.fixture(scope="module")
def harness(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("backend-stores")
    databases = paper_databases()

    engines = {}
    opened = []
    servers = []

    # Homogeneous federations: every source in one backend kind.
    for kind in ("sqlite", "log", "kv"):
        serial = [
            _backend_lqp(kind, db, tmp_path / "serial")
            for db in databases.values()
        ]
        concurrent = [
            _backend_lqp(kind, db, tmp_path / "concurrent")
            for db in databases.values()
        ]
        opened.extend(serial)
        opened.extend(concurrent)
        engines[f"{kind}_serial"] = InlineProcessor(
            _processor(serial, optimize=False)
        )
        engines[f"{kind}_concurrent_optimized"] = _processor(
            concurrent, pushdown=True, prune_projections=True
        )

    # The mixed polystore, local and behind loopback servers.
    mixtures = {
        "polystore_local": [
            _backend_lqp(kind, db, tmp_path / "local")
            for kind, db in zip(POLYSTORE, databases.values())
        ],
        "polystore_remote": [
            _backend_lqp(kind, db, tmp_path / "remote")
            for kind, db in zip(POLYSTORE, databases.values())
        ],
    }
    opened.extend(mixtures["polystore_local"])
    opened.extend(mixtures["polystore_remote"])
    engines["polystore_local"] = _processor(
        mixtures["polystore_local"],
        pushdown=True,
        prune_projections=True,
    )
    servers = [
        LQPServer(lqp, chunk_size=3).start()
        for lqp in mixtures["polystore_remote"]
    ]
    engines["polystore_remote"] = _remote_processor(
        servers, pushdown=True, prune_projections=True
    )

    baseline = InlineProcessor(
        _processor([RelationalLQP(db) for db in databases.values()], optimize=False)
    )
    yield baseline, engines
    for processor in engines.values():
        processor.close()
    baseline.close()
    engines["polystore_remote"].registry.close()  # the dialed RemoteLQPs
    for server in servers:
        server.stop()
    for lqp in opened:
        close = getattr(lqp, "close", None)
        if close is not None:
            close()


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(query=queries())
def test_every_backend_is_tag_identical_to_in_memory(harness, query):
    baseline, engines = harness
    reference = baseline.run_algebra(query)
    for name, engine in engines.items():
        result = engine.run_algebra(query)
        assert result.relation == reference.relation, (
            f"{name} diverged from the in-memory baseline on {query!r}"
        )
        assert result.lineage == reference.lineage, name


def test_paper_query_runs_across_the_polystore(harness):
    from tests.integration.conftest import PAPER_SQL

    baseline, engines = harness
    reference = baseline.run_sql(PAPER_SQL)
    for name in ("polystore_local", "polystore_remote"):
        result = engines[name].run_sql(PAPER_SQL)
        assert result.relation == reference.relation, name
        assert result.lineage == reference.lineage, name


def test_polystore_remote_actually_used_the_network(harness):
    _, engines = harness
    stats = engines["polystore_remote"].federation.stats()
    assert stats.remote_transports, "no transport counters — did this run remotely?"
    assert any(
        transport.bytes_received > 0
        for transport in stats.remote_transports.values()
    )


class TestDirectVerbParity:
    """The raw LQP verbs agree with RelationalLQP on the awkward inputs:
    nil keys in predicates, nil-owning ranges, empty relations."""

    @pytest.fixture(scope="class")
    def trio(self, tmp_path_factory):
        from repro.relational.database import LocalDatabase
        from repro.relational.schema import RelationSchema

        db = LocalDatabase("ED")
        db.load(
            RelationSchema("R", ["K", "V"], key=["K"]),
            [(1, "a"), (2, None), (3, "c"), (4, "d")],
        )
        db.create(RelationSchema("EMPTY", ["K", "V"], key=["K"]))
        tmp = tmp_path_factory.mktemp("verb-parity")
        backends = {
            "sqlite": SqliteLQP.from_database(db),
            "log": LogStoreLQP.from_database(db, str(tmp / "log")),
            "kv": KVStoreLQP.from_database(db),
        }
        yield RelationalLQP(db), backends
        for backend in backends.values():
            close = getattr(backend, "close", None)
            if close is not None:
                close()

    @pytest.mark.parametrize("kind", ["sqlite", "log", "kv"])
    def test_select_against_nil_value_matches(self, trio, kind):
        reference, backends = trio
        for theta in (Theta.EQ, Theta.NE, Theta.LT, Theta.GE):
            expected = reference.select("R", "V", theta, None)
            assert backends[kind].select("R", "V", theta, None) == expected

    @pytest.mark.parametrize("kind", ["sqlite", "log", "kv"])
    def test_nil_cells_never_satisfy_predicates(self, trio, kind):
        reference, backends = trio
        expected = reference.select("R", "V", Theta.NE, "a")
        got = backends[kind].select("R", "V", Theta.NE, "a")
        assert got == expected
        assert all(row[1] is not None for row in got.rows)

    @pytest.mark.parametrize("kind", ["sqlite", "log", "kv"])
    @pytest.mark.parametrize(
        "lower,upper,include_nil",
        [(None, 3, True), (2, None, False), (None, None, True), (2, 2, False)],
    )
    def test_retrieve_range_matches(self, trio, kind, lower, upper, include_nil):
        reference, backends = trio
        expected = reference.retrieve_range(
            "R", "K", lower=lower, upper=upper, include_nil=include_nil
        )
        got = backends[kind].retrieve_range(
            "R", "K", lower=lower, upper=upper, include_nil=include_nil
        )
        assert got == expected

    @pytest.mark.parametrize("kind", ["sqlite", "log", "kv"])
    def test_empty_relation_round_trips(self, trio, kind):
        reference, backends = trio
        assert backends[kind].retrieve("EMPTY") == reference.retrieve("EMPTY")
        assert (
            backends[kind].select("EMPTY", "V", Theta.EQ, "x")
            == reference.select("EMPTY", "V", Theta.EQ, "x")
        )

    @pytest.mark.parametrize("kind", ["sqlite", "log", "kv"])
    def test_projection_matches(self, trio, kind):
        # ``columns=`` is part of the verb contract only for engines
        # advertising native projection; the PQP projects for the rest.
        from repro.lqp.base import project_columns

        reference, backends = trio
        backend = backends[kind]
        expected = reference.retrieve("R", columns=["V"])
        if backend.capabilities().native_projection:
            assert backend.retrieve("R", columns=["V"]) == expected
        else:
            assert project_columns(backend.retrieve("R"), ["V"]) == expected
