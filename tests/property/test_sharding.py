"""Scan-sharding equivalence properties.

The shard pass (:mod:`repro.pqp.shard`) must be invisible in the answer:
splitting one Retrieve into K key-range partial scans plus a reassembly
Union must reproduce the unsharded retrieve cell for cell — data,
headings *and tags* — under every executor (serial/concurrent) and every
transport (in-process / remote loopback).  Hypothesis drives randomized
key columns through all four combinations; pinned examples cover the
structural edge cases the partitioner must survive: all-nil key columns,
K larger than the cardinality, and skew that leaves middle shards empty.
"""

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.catalog.mapping import AttributeMapping
from repro.catalog.schema import PolygenSchema
from repro.catalog.scheme import PolygenScheme
from repro.lqp.registry import LQPRegistry
from repro.lqp.relational_lqp import RelationalLQP
from repro.pqp.matrix import (
    IntermediateOperationMatrix,
    LocalOperand,
    MatrixRow,
    Operation,
    ResultOperand,
)
from repro.pqp.processor import PolygenQueryProcessor
from repro.pqp.shard import shard_retrieves
from repro.relational.database import LocalDatabase
from repro.relational.schema import RelationSchema
from repro.service.federation import PolygenFederation

from tests.property.reference import InlineProcessor

TIMEOUT = 5.0

#: Key columns: integers with nils, sized to exercise empty / lopsided
#: shards under widths 2..6.
key_columns = st.lists(
    st.one_of(st.none(), st.integers(min_value=-50, max_value=50)),
    min_size=0,
    max_size=40,
)


def _schema() -> PolygenSchema:
    return PolygenSchema(
        [
            PolygenScheme(
                "PEMP",
                {
                    "EID": [AttributeMapping("AD", "EMP", "EID")],
                    "K": [AttributeMapping("AD", "EMP", "K")],
                    "V": [AttributeMapping("AD", "EMP", "V")],
                },
                primary_key=["EID"],
            )
        ]
    )


def _database(keys) -> LocalDatabase:
    db = LocalDatabase("AD")
    db.load(
        RelationSchema("EMP", ["EID", "K", "V"], key=["EID"]),
        [(f"e{i}", key, f"v{i % 5}") for i, key in enumerate(keys)],
    )
    return db


def _plan() -> IntermediateOperationMatrix:
    return IntermediateOperationMatrix(
        [
            MatrixRow(
                result=ResultOperand(1),
                op=Operation.RETRIEVE,
                lhr=LocalOperand("EMP"),
                el="AD",
                scheme="PEMP",
            )
        ]
    )


def _local_registry(keys) -> LQPRegistry:
    registry = LQPRegistry()
    registry.register(RelationalLQP(_database(keys)))
    return registry


@settings(max_examples=25, deadline=None)
@given(keys=key_columns, width=st.integers(min_value=2, max_value=6))
@example(keys=[None] * 10, width=4)  # all-nil key column: no split, still equal
@example(keys=[0, 1, 2], width=6)  # K > cardinality
@example(keys=[0, 0, 0, 1, 100], width=4)  # skew: middle shards come up empty
@example(keys=[], width=2)  # empty relation
def test_sharded_equals_unsharded_locally(keys, width):
    registry = _local_registry(keys)
    concurrent = PolygenQueryProcessor(
        schema=_schema(), registry=registry, optimize=False
    )
    serial = InlineProcessor(concurrent)
    try:
        baseline = serial.run_plan(_plan())
        sharded, _ = shard_retrieves(
            _plan(), registry, width=width, schema=_schema(), min_tuples=1
        )
        for name, engine in (("serial", serial), ("concurrent", concurrent)):
            run = engine.run_plan(sharded)
            assert run.relation == baseline.relation, (
                f"{name} sharded run diverged for keys={keys!r} width={width}"
            )
            assert run.lineage == baseline.lineage
    finally:
        concurrent.close()


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(keys=key_columns, width=st.integers(min_value=2, max_value=4))
@example(keys=[None] * 8, width=3)
@example(keys=[0, 5], width=4)
def test_sharded_equals_unsharded_over_loopback(keys, width):
    from repro.net import LQPServer

    baseline_engine = InlineProcessor(
        PolygenQueryProcessor(
            schema=_schema(), registry=_local_registry(keys), optimize=False
        )
    )
    baseline = baseline_engine.run_plan(_plan())
    baseline_engine.close()

    server = LQPServer(RelationalLQP(_database(keys)), chunk_size=3).start()
    registry = LQPRegistry()
    registry.register(server.url, concurrency=4, timeout=TIMEOUT)
    concurrent = PolygenQueryProcessor(
        schema=_schema(), registry=registry, optimize=False
    )
    engines = [InlineProcessor(concurrent), concurrent]
    try:
        # Stats arrive over the wire (relation_stats round trip, cached).
        sharded, _ = shard_retrieves(
            _plan(), registry, width=width, schema=_schema(), min_tuples=1
        )
        for engine in engines:
            run = engine.run_plan(sharded)
            assert run.relation == baseline.relation
            assert run.lineage == baseline.lineage
    finally:
        for lqp in registry:
            lqp.inner.close()
        for engine in engines:
            engine.close()
        server.stop()


class TestShardedExecutionDetail:
    def test_shards_actually_run_as_range_retrieves(self):
        keys = list(range(37))
        registry = _local_registry(keys)
        sharded, report = shard_retrieves(
            _plan(), registry, width=4, schema=_schema(), min_tuples=1
        )
        assert report.shards_emitted == 4
        engine = PolygenQueryProcessor(
            schema=_schema(), registry=registry, optimize=False
        )
        try:
            run = engine.run_plan(sharded)
            assert run.relation.cardinality == len(keys)
        finally:
            engine.close()
        stats = registry.get("AD").stats
        assert stats.range_retrieves == 4
        assert stats.retrieves == 0
        # Disjoint partitions: the shards shipped each tuple exactly once.
        assert stats.tuples_shipped == len(keys)


class TestFederationShardOption:
    def test_shard_width_option_end_to_end(self):
        keys = list(range(100))
        with PolygenFederation(_schema(), _local_registry(keys)) as federation:
            with federation.session() as session:
                plain = session.execute("PEMP [EID, K, V]")
                sharded = session.execute("PEMP [EID, K, V]", shard_width=4)
        assert plain.sharding is None
        assert sharded.sharding is not None
        assert sharded.sharding.retrieves_sharded == 1
        assert sharded.sharding.families == (("AD", "EMP", "K", 4),)
        assert sharded.relation == plain.relation
        assert sharded.lineage == plain.lineage

    def test_auto_width_defers_to_native_concurrency(self):
        keys = list(range(100))
        with PolygenFederation(_schema(), _local_registry(keys)) as federation:
            with federation.session() as session:
                result = session.execute("PEMP [EID, K, V]", shard_width="auto")
        # In-process LQPs advertise width 1: auto never over-shards them.
        assert result.sharding is not None
        assert result.sharding.retrieves_sharded == 0

    def test_small_relations_stay_unsharded(self):
        keys = list(range(10))  # below the pass's min-tuples floor
        with PolygenFederation(_schema(), _local_registry(keys)) as federation:
            with federation.session() as session:
                result = session.execute("PEMP [EID, K, V]", shard_width=4)
        assert result.sharding is not None
        assert result.sharding.retrieves_sharded == 0
