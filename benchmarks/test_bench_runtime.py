"""Runtime benchmark: measured concurrency and pushdown effect.

Where :mod:`benchmarks.test_bench_scheduling` *simulates* the makespan a
parallel federation could achieve, this bench *measures* it: four
autonomous databases are wrapped in :class:`~repro.lqp.cost.LatencyLQP`
(a real per-query delay, the wall-clock realization of the scheduling
cost model) and the same merge plan runs through the inline
:class:`~repro.pqp.executor.Executor` and the pooled
:class:`~repro.pqp.runtime.ConcurrentExecutor`.  The simulated schedule is then
validated against the measured trace.

The pushdown bench executes the paper's Table-3 plan in its naive form —
``Retrieve ALUMNUS`` shipped whole, selection applied at the PQP, which is
exactly what a planner without local routing emits — and shows the
optimizer's selection pushdown restoring the paper's local ``Select``,
shipping only the matching tuples.

Results are recorded for ``--bench-json`` (see conftest).
"""

import time

import pytest

from repro.core.predicate import Literal, Theta
from repro.datasets.generators import FederationSpec, generate_federation
from repro.datasets.paper import (
    paper_databases,
    paper_identity_resolver,
    paper_polygen_schema,
)
from repro.lqp.cost import CostModel, LatencyLQP
from repro.lqp.registry import LQPRegistry
from repro.lqp.relational_lqp import RelationalLQP
from repro.pqp.matrix import (
    IntermediateOperationMatrix,
    LocalOperand,
    MatrixRow,
    Operation,
    ResultOperand,
)
from repro.pqp.executor import Executor
from repro.pqp.processor import PolygenQueryProcessor
from repro.pqp.runtime import ConcurrentExecutor
from repro.pqp.schedule import schedule_plan, validate_against_trace

#: Injected per-query latency (seconds) and federation width.
DELAY = 0.05
WIDTH = 4

MERGE_QUERY = "GORGANIZATION [NAME, INDUSTRY]"


def _federation():
    return generate_federation(
        FederationSpec(
            databases=WIDTH,
            organizations=80,
            coverage=0.5,
            people_per_database=5,
            seed=11,
        )
    )


def _latency_registry(federation) -> LQPRegistry:
    registry = LQPRegistry()
    for database in federation.databases.values():
        registry.register(LatencyLQP(RelationalLQP(database), per_query=DELAY))
    return registry


def _latency_processor(federation, **kwargs) -> PolygenQueryProcessor:
    return PolygenQueryProcessor(
        federation.schema, _latency_registry(federation), **kwargs
    )


def test_concurrent_runtime_beats_serial_wall_clock(record_bench):
    """With 4 latency-wrapped databases the pooled executor overlaps the
    retrieves: ≥ 2x measured wall-clock speedup over inline dispatch."""
    federation = _federation()
    planner = federation.processor()
    _, pom = planner.analyze(MERGE_QUERY)
    plan, _ = planner.optimize(planner.plan(pom))
    serial_executor = Executor(federation.schema, _latency_registry(federation))
    concurrent_executor = ConcurrentExecutor(
        federation.schema, _latency_registry(federation)
    )

    began = time.perf_counter()
    serial = serial_executor.execute(plan)
    serial_seconds = time.perf_counter() - began

    began = time.perf_counter()
    concurrent = concurrent_executor.execute(plan)
    concurrent_seconds = time.perf_counter() - began

    assert concurrent.relation == serial.relation
    speedup = serial_seconds / concurrent_seconds
    record_bench(
        "concurrent_vs_serial_makespan",
        databases=WIDTH,
        per_query_delay_s=DELAY,
        serial_seconds=round(serial_seconds, 4),
        concurrent_seconds=round(concurrent_seconds, 4),
        speedup=round(speedup, 2),
    )
    assert speedup >= 2.0


def test_simulated_schedule_matches_measured_trace(record_bench):
    """The scheduling model, fed the LatencyLQP delays as its cost model,
    predicts the measured concurrent makespan to the right order."""
    federation = _federation()
    pqp = _latency_processor(federation)
    run = pqp.run_algebra(MERGE_QUERY)

    costs = {
        name: CostModel(per_query=DELAY, per_tuple=0.0)
        for name in federation.database_names()
    }
    schedule = schedule_plan(
        run.iom,
        run.trace,
        local_costs=costs,
        pqp_cost_per_tuple=0.0,
        registry=pqp.registry,
    )
    validation = validate_against_trace(schedule, run.trace)
    record_bench(
        "simulated_vs_measured",
        simulated_makespan_s=round(validation.simulated_makespan, 4),
        measured_makespan_s=round(validation.measured_makespan, 4),
        simulated_speedup=round(validation.simulated_speedup, 2),
        measured_overlap=round(validation.measured_speedup, 2),
    )
    # The sleeps floor the measured makespan at the simulated one; thread
    # and merge overhead should not blow it past a small multiple.  The
    # envelopes are generous because CI runners schedule threads lazily
    # under load — this guards the model's order of magnitude, not ±10%.
    assert validation.measured_makespan >= validation.simulated_makespan * 0.9
    assert validation.measured_makespan <= validation.simulated_makespan * 5 + 0.25
    # Real overlap happened: the runtime did more work than wall-clock time.
    assert validation.measured_speedup > 1.2


def _naive_table3_plan() -> IntermediateOperationMatrix:
    """The paper's Table 3 without its local routing: the first selection
    arrives as Retrieve-then-Restrict, the shape pushdown rewrites."""
    return IntermediateOperationMatrix(
        [
            MatrixRow(ResultOperand(1), Operation.RETRIEVE, LocalOperand("ALUMNUS"), el="AD", scheme="PALUMNUS"),
            MatrixRow(ResultOperand(2), Operation.SELECT, ResultOperand(1), "DEGREE", Theta.EQ, Literal("MBA"), el="PQP"),
            MatrixRow(ResultOperand(3), Operation.RETRIEVE, LocalOperand("CAREER"), el="AD", scheme="PCAREER"),
            MatrixRow(ResultOperand(4), Operation.JOIN, ResultOperand(2), "AID#", Theta.EQ, "AID#", ResultOperand(3), el="PQP"),
            MatrixRow(ResultOperand(5), Operation.RETRIEVE, LocalOperand("BUSINESS"), el="AD", scheme="PORGANIZATION"),
            MatrixRow(ResultOperand(6), Operation.RETRIEVE, LocalOperand("CORPORATION"), el="PD", scheme="PORGANIZATION"),
            MatrixRow(ResultOperand(7), Operation.RETRIEVE, LocalOperand("FIRM"), el="CD", scheme="PORGANIZATION"),
            MatrixRow(ResultOperand(8), Operation.MERGE, (ResultOperand(5), ResultOperand(6), ResultOperand(7)), el="PQP", scheme="PORGANIZATION"),
            MatrixRow(ResultOperand(9), Operation.JOIN, ResultOperand(4), "ONAME", Theta.EQ, "ONAME", ResultOperand(8), el="PQP"),
            MatrixRow(ResultOperand(10), Operation.RESTRICT, ResultOperand(9), "CEO", Theta.EQ, "ANAME", el="PQP"),
            MatrixRow(ResultOperand(11), Operation.PROJECT, ResultOperand(10), ("ONAME", "CEO"), el="PQP"),
        ]
    )


def _paper_processor(**kwargs) -> PolygenQueryProcessor:
    registry = LQPRegistry()
    for database in paper_databases().values():
        registry.register(RelationalLQP(database))
    return PolygenQueryProcessor(
        paper_polygen_schema(),
        registry,
        resolver=paper_identity_resolver(),
        **kwargs,
    )


def test_pushdown_reduces_tuples_shipped_on_table3(record_bench):
    """Selection pushdown on the paper's Table-3 plan: the ALUMNUS
    restriction runs at AD again, shipping 5 tuples instead of 8."""
    naive_plan = _naive_table3_plan()

    naive_pqp = _paper_processor()
    naive = naive_pqp.run_plan(naive_plan)
    naive_shipped = naive_pqp.registry.total_stats().tuples_shipped

    pushed_pqp = _paper_processor()
    optimized, report = pushed_pqp.optimize(naive_plan)
    pushed = pushed_pqp.run_plan(optimized)
    pushed_shipped = pushed_pqp.registry.total_stats().tuples_shipped

    assert pushed.relation == naive.relation
    assert report.selects_pushed_down == 1
    assert pushed_shipped < naive_shipped
    # The optimized plan is the paper's own Table 3: a local Select at AD.
    first = optimized[0]
    assert first.op is Operation.SELECT and first.el == "AD"

    record_bench(
        "pushdown_table3_tuples_shipped",
        naive=naive_shipped,
        pushed_down=pushed_shipped,
        saved=naive_shipped - pushed_shipped,
        selects_pushed_down=report.selects_pushed_down,
    )


def test_projection_pruning_reduces_cells_materialized(record_bench):
    """Projection pruning on the paper's query: dead columns (MAJOR,
    DEGREE post-selection, POSITION) never enter the columnar store."""
    from benchmarks.conftest import PAPER_ALGEBRA

    baseline = _paper_processor()
    pruned = _paper_processor(prune_projections=True)
    base_run = baseline.run_algebra(PAPER_ALGEBRA)
    pruned_run = pruned.run_algebra(PAPER_ALGEBRA)
    assert pruned_run.relation == base_run.relation

    def materialized_cells(run):
        return sum(
            run.trace.results[row.result.index].cardinality
            * run.trace.results[row.result.index].degree
            for row in run.iom
            if row.is_local
        )

    base_cells = materialized_cells(base_run)
    pruned_cells = materialized_cells(pruned_run)
    assert pruned_cells < base_cells
    record_bench(
        "projection_pruning_table3_cells",
        baseline_cells=base_cells,
        pruned_cells=pruned_cells,
        attributes_pruned=pruned_run.optimization.attributes_pruned,
    )
