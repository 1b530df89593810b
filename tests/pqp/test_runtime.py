"""Unit tests for the execution loop, over both of its dispatch modes:
inline (the base ``Executor``) and pooled (``ConcurrentExecutor``)."""

import threading
from dataclasses import replace

import pytest

from repro.datasets.paper import (
    build_paper_federation,
    paper_databases,
    paper_identity_resolver,
    paper_polygen_schema,
)
from repro.errors import ExecutionError, QueryCancelledError
from repro.lqp.cost import AccountingLQP, LatencyLQP
from repro.lqp.registry import LQPRegistry
from repro.lqp.relational_lqp import RelationalLQP
from repro.pqp.executor import Executor
from repro.pqp.matrix import IntermediateOperationMatrix, LocalOperand
from repro.pqp.runtime import ConcurrentExecutor

from tests.integration.conftest import PAPER_SQL

#: Both dispatch modes of the one execution loop.
ENGINES = (Executor, ConcurrentExecutor)
IDS = ("inline", "pooled")


def _registry(latency=0.0) -> LQPRegistry:
    registry = LQPRegistry()
    for database in paper_databases().values():
        lqp = RelationalLQP(database)
        registry.register(LatencyLQP(lqp, per_query=latency) if latency else lqp)
    return registry


def _executor(engine, registry=None):
    return engine(
        paper_polygen_schema(),
        registry if registry is not None else _registry(),
        resolver=paper_identity_resolver(),
    )


@pytest.fixture(scope="module")
def paper_run():
    """The paper's query through the facade: its optimized plan, and the
    answer every dispatch mode must reproduce."""
    return build_paper_federation().run_sql(PAPER_SQL)


class TestEquivalence:
    def test_same_relation_and_tags_as_serial(self, paper_run):
        reference = _executor(Executor).execute(paper_run.iom)
        pooled = _executor(ConcurrentExecutor).execute(paper_run.iom)
        assert reference.relation == pooled.relation == paper_run.relation
        assert reference.lineage == pooled.lineage == paper_run.lineage

    def test_same_intermediates_as_serial(self, paper_run):
        reference = _executor(Executor).execute(paper_run.iom)
        pooled = _executor(ConcurrentExecutor).execute(paper_run.iom)
        assert set(pooled.results) == set(reference.results)
        for index, relation in reference.results.items():
            assert pooled.results[index] == relation

    def test_accounting_matches_serial(self, paper_run):
        shipped = []
        for engine in ENGINES:
            registry = _registry()
            _executor(engine, registry).execute(paper_run.iom)
            shipped.append(registry.total_stats().tuples_shipped)
        assert shipped[0] == shipped[1] > 0

    def test_executor_property_reports_engine(self):
        # The facade and the federation always run the pooled executor.
        assert isinstance(build_paper_federation().executor, ConcurrentExecutor)

    @pytest.mark.parametrize("engine", ENGINES, ids=IDS)
    def test_out_of_order_plan_runs_in_dag_order(self, engine, paper_run):
        # Every row but the result listed behind its consumers: the loop
        # follows dependencies, and the result is still the last listed row.
        rows = list(paper_run.iom.rows)
        shuffled = IntermediateOperationMatrix(rows[-2::-1] + rows[-1:])
        trace = _executor(engine).execute(shuffled)
        assert trace.relation == paper_run.relation
        assert trace.lineage == paper_run.lineage


class TestTimings:
    def test_every_row_is_timed(self, paper_run):
        for engine in ENGINES:
            trace = _executor(engine).execute(paper_run.iom)
            assert set(trace.timings) == set(trace.results)
            assert trace.wall_clock > 0.0
            for timing in trace.timings.values():
                assert timing.finish >= timing.start >= 0.0

    def test_serial_executor_also_times(self, paper_run):
        # Inline rows run on the calling thread, labelled "serial".
        trace = _executor(Executor).execute(paper_run.iom)
        assert set(trace.timings) == set(trace.results)
        assert {t.worker for t in trace.timings.values()} == {"serial"}

    def test_pooled_rows_name_their_worker(self, paper_run):
        trace = _executor(ConcurrentExecutor).execute(paper_run.iom)
        for timing in trace.timings.values():
            if timing.location == "PQP":
                assert timing.worker == "pqp"
            else:
                assert timing.worker.endswith(f"-{timing.location}")

    def test_dependencies_respected_in_time(self, paper_run):
        for engine in ENGINES:
            trace = _executor(engine).execute(paper_run.iom)
            for row in paper_run.iom:
                for ref in row.referenced_results():
                    assert (
                        trace.timings[row.result.index].start
                        >= trace.timings[ref.index].finish - 1e-9
                    )

    def test_local_rows_overlap_across_databases(self, paper_run):
        # With a real per-query delay, the three merge retrieves (AD, PD,
        # CD) run concurrently: wall clock stays well under busy time.
        trace = _executor(ConcurrentExecutor, _registry(latency=0.03)).execute(
            paper_run.iom
        )
        assert trace.wall_clock < trace.busy_time
        locations = {t.location for t in trace.timings.values()}
        assert {"AD", "PD", "CD", "PQP"} <= locations

    def test_same_database_rows_serialize(self, paper_run):
        for engine in ENGINES:
            trace = _executor(engine, _registry(latency=0.01)).execute(paper_run.iom)
            ad = sorted(
                (t for t in trace.timings.values() if t.location == "AD"),
                key=lambda t: t.start,
            )
            for earlier, later in zip(ad, ad[1:]):
                assert later.start >= earlier.finish - 1e-9


class TestHooks:
    @pytest.mark.parametrize("engine", ENGINES, ids=IDS)
    def test_on_result_fires_once_with_the_answer(self, engine, paper_run):
        delivered = []
        trace = _executor(engine).execute(paper_run.iom, on_result=delivered.append)
        assert len(delivered) == 1
        assert delivered[0] is trace.relation

    @pytest.mark.parametrize("engine", ENGINES, ids=IDS)
    def test_cancel_before_start(self, engine, paper_run):
        cancel = threading.Event()
        cancel.set()
        registry = LQPRegistry()
        for database in paper_databases().values():
            registry.register(AccountingLQP(RelationalLQP(database)))
        with pytest.raises(QueryCancelledError):
            _executor(engine, registry).execute(paper_run.iom, cancel=cancel)
        assert registry.total_stats().queries == 0

    @pytest.mark.parametrize("engine", ENGINES, ids=IDS)
    def test_cancel_mid_plan_stops_issuing_local_rows(self, engine, paper_run):
        cancel = threading.Event()
        calls = []

        class Cancelling(LatencyLQP):
            def retrieve(self, *args, **kwargs):
                calls.append(args)
                cancel.set()
                return super().retrieve(*args, **kwargs)

            def select(self, *args, **kwargs):
                calls.append(args)
                cancel.set()
                return super().select(*args, **kwargs)

        registry = LQPRegistry()
        for database in paper_databases().values():
            registry.register(Cancelling(RelationalLQP(database), per_query=0.0))
        with pytest.raises(QueryCancelledError):
            _executor(engine, registry).execute(paper_run.iom, cancel=cancel)
        local_rows = sum(1 for row in paper_run.iom if row.is_local)
        assert len(calls) < local_rows


class TestErrors:
    def test_empty_plan_rejected(self):
        for engine in ENGINES:
            with pytest.raises(ExecutionError, match="empty"):
                _executor(engine).execute(IntermediateOperationMatrix())

    def test_local_failure_propagates_with_row_context(self, paper_run):
        # A plan referencing a relation the LQP does not serve.
        rows = list(paper_run.iom.rows)
        rows[1] = replace(rows[1], lhr=LocalOperand("NO_SUCH"))
        for engine in ENGINES:
            with pytest.raises(ExecutionError):
                _executor(engine).execute(IntermediateOperationMatrix(rows))

    def test_pqp_failure_propagates(self, paper_run):
        # Join on an attribute the operand lacks: wrapped with its row.
        rows = list(paper_run.iom.rows)
        rows[2] = replace(rows[2], lha="NOPE")
        for engine in ENGINES:
            with pytest.raises(ExecutionError, match="R\\(3\\)") as caught:
                _executor(engine).execute(IntermediateOperationMatrix(rows))
            assert caught.value.__cause__ is not None
