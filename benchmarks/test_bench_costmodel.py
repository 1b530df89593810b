"""Cost-model benchmark: calibrated scheduling beats static plan choice.

The scheduling simulator can rank alternative plan shapes, but a ranking
is only as good as its cost models.  This bench builds a federation with
*skewed* latencies — one database answers slowly per query but holds few
tuples, the others answer fast but hold many — which is exactly the case
static costing gets backwards: under uniform costs every source lands
together, the flat one-pass hash Merge minimizes total work, and the
tie-break keeps the paper's flat n-ary Merge.  Calibrated per-LQP models
(fitted from the federation's own traces) know better: the cost-based
optimizer decomposes the Merge into a binary chain whose partial merges
of the fast sources both run *while the slow one is still shipping* and
shrink (overlapping sources coalesce — the simulator's containment
output estimate), leaving a smaller final link after the straggler
lands.  The bench measures both choices on the wall clock and asserts
the calibrated choice wins.

A second test closes the loop on calibration quality itself: the fitted
``per_query`` must recover the injected :class:`~repro.lqp.cost.LatencyLQP`
delays, and the self-reported makespan prediction error must be small.

Results are recorded for ``--bench-json`` (see conftest).
"""

import time

import pytest

from repro.datasets.generators import FederationSpec, generate_federation
from repro.lqp.cost import LatencyLQP
from repro.lqp.registry import LQPRegistry
from repro.lqp.relational_lqp import RelationalLQP
from repro.pqp.matrix import Operation
from repro.pqp.optimizer import QueryOptimizer
from repro.pqp.processor import PolygenQueryProcessor

#: One slow-but-small source; the rest fast-but-large.
SLOW_DB = "D00"
SLOW_DELAY = 0.2
FAST_DELAY = 0.002
WIDTH = 4

MERGE_QUERY = "GORGANIZATION [NAME, INDUSTRY]"


def _skewed_processor():
    federation = generate_federation(
        FederationSpec(
            databases=WIDTH,
            organizations=8000,
            coverage=0.5,
            people_per_database=2,
            seed=7,
        )
    )
    registry = LQPRegistry()
    for name, database in federation.databases.items():
        registry.register(
            LatencyLQP(
                RelationalLQP(database),
                per_query=SLOW_DELAY if name == SLOW_DB else FAST_DELAY,
            )
        )
    return federation, PolygenQueryProcessor(
        federation.schema, registry, optimize="cost"
    )


def _measure(pqp, plan, repeats=2):
    best, result = float("inf"), None
    for _ in range(repeats):
        began = time.perf_counter()
        result = pqp.run_plan(plan)
        best = min(best, time.perf_counter() - began)
    return best, result


def test_calibrated_choice_beats_static_choice(record_bench):
    """Static costing keeps the flat Merge; calibrated costing picks the
    slow-source-last Merge chain and measures faster."""
    federation, pqp = _skewed_processor()
    _, pom = pqp.analyze(MERGE_QUERY)
    iom = pqp.plan(pom)

    # The static choice: cost-based mode, but with the default (uniform)
    # cost model — what the optimizer would do without any calibration.
    static_optimizer = QueryOptimizer(schema=federation.schema)
    static_iom, static_choice = static_optimizer.optimize_cost_based(
        iom, registry=pqp.registry
    )
    assert not static_choice.merges_decomposed, (
        "under uniform costs every source lands together and the flat "
        "one-pass Merge minimizes total work"
    )

    # Calibrate from real traces, then ask again.
    for _ in range(2):
        pqp.run_algebra(MERGE_QUERY)
    models = pqp.calibrator.local_costs()
    assert models[SLOW_DB].per_query == pytest.approx(SLOW_DELAY, rel=0.75)
    calibrated_iom, calibrated_choice = pqp.optimize(iom)
    assert calibrated_choice.merges_decomposed, (
        "calibrated models should reveal the skew and decompose the Merge"
    )

    # The chain merges the slow source last.
    merges = [row for row in calibrated_iom if row.op is Operation.MERGE]
    slow_retrieve = next(
        row for row in calibrated_iom if row.is_local and row.el == SLOW_DB
    )
    assert merges[-1].lhr[-1].index == slow_retrieve.result.index

    static_seconds, static_run = _measure(pqp, static_iom)
    calibrated_seconds, calibrated_run = _measure(pqp, calibrated_iom)
    assert calibrated_run.relation == static_run.relation

    choice_speedup = static_seconds / calibrated_seconds
    record_bench(
        "calibrated_vs_static_choice",
        databases=WIDTH,
        slow_per_query_s=SLOW_DELAY,
        static_choice=static_choice.chosen,
        calibrated_choice=calibrated_choice.chosen,
        static_seconds=round(static_seconds, 4),
        calibrated_seconds=round(calibrated_seconds, 4),
        choice_speedup=round(choice_speedup, 2),
        saved_fraction=round(1.0 - calibrated_seconds / static_seconds, 3),
    )
    # The chain's partial merges of the fast sources run during — and
    # shrink before — the slow source's shipping; the flat Merge pays one
    # pass over every input tuple after the straggler.
    assert calibrated_seconds < static_seconds


def test_calibration_recovers_injected_latencies(record_bench):
    """Fitted per-LQP models recover the LatencyLQP delays and predict the
    measured makespan to a small relative error."""
    federation, pqp = _skewed_processor()
    for _ in range(3):
        pqp.run_algebra(MERGE_QUERY)

    models = pqp.calibrator.local_costs()
    assert set(models) == set(federation.database_names())
    # The slow source's per-query latency dominates its duration, so the
    # fit must land near the injected delay; the fast sources' measured
    # durations include materialization, so only the order must hold.
    assert models[SLOW_DB].per_query == pytest.approx(SLOW_DELAY, rel=0.75)
    fast = [models[n].per_query for n in models if n != SLOW_DB]
    assert max(fast) < SLOW_DELAY / 2

    error = pqp.calibrator.prediction_error()
    assert error is not None and error < 0.5
    stats = pqp.federation.stats()
    assert stats.plans_calibrated == 3
    assert stats.cost_model_error == pytest.approx(error)
    assert "cost models" in stats.render()

    record_bench(
        "costmodel_calibration",
        plans_observed=pqp.calibrator.observed_plans,
        slow_recovered_ms=round(models[SLOW_DB].per_query * 1e3, 2),
        slow_injected_ms=SLOW_DELAY * 1e3,
        prediction_error=round(error, 4),
    )
