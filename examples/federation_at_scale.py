#!/usr/bin/env python3
"""A synthetic federation "with hundreds of databases" — well, twelve.

The paper closes §IV with: "In a federated database environment with
hundreds of databases, the data source and intermediate source information
can be very valuable to the user as well as the polygen query processor."
This example generates a 12-database federation with overlapping coverage
of 300 organizations, merges them through the polygen pipeline, and uses
the tags to answer questions no untagged system can:

- which databases actually contributed to the answer,
- which organizations are known to one database only (fragile facts),
- which are corroborated by many (robust facts),
- how much LQP traffic the optimizer saved,
- and — with every database injecting realistic per-query latency — how
  the concurrent DAG runtime overlaps the twelve autonomous sources,
  printing the scheduling simulator's predicted makespan next to the
  measured one.

Run:  python examples/federation_at_scale.py
"""

from collections import Counter

from repro.datasets.generators import FederationSpec, generate_federation
from repro.lqp.cost import CostModel, LatencyLQP
from repro.lqp.registry import LQPRegistry
from repro.lqp.relational_lqp import RelationalLQP
from repro.pqp.executor import Executor
from repro.pqp.explain import source_summary
from repro.pqp.processor import PolygenQueryProcessor
from repro.pqp.schedule import schedule_plan, validate_against_trace
from repro.service.federation import PolygenFederation

SPEC = FederationSpec(
    databases=12,
    organizations=300,
    coverage=0.25,
    people_per_database=40,
    seed=42,
)

#: Simulated network/engine latency per local query, in seconds.
LATENCY = 0.02


def latency_registry(federation) -> LQPRegistry:
    """LQPs that each sleep LATENCY per query — autonomous sources that
    are genuinely worth overlapping."""
    registry = LQPRegistry()
    for database in federation.databases.values():
        registry.register(LatencyLQP(RelationalLQP(database), per_query=LATENCY))
    return registry


def main() -> None:
    federation = generate_federation(SPEC)
    pqp = federation.processor()

    print(
        f"Federation: {SPEC.databases} databases, universe of "
        f"{SPEC.organizations} organizations, {SPEC.coverage:.0%} coverage each"
    )
    print()

    result = pqp.run_algebra('(GORGANIZATION [INDUSTRY = "Banking"]) [NAME, INDUSTRY]')
    relation = result.relation

    print(f"Banking organizations found: {relation.cardinality}")
    print(source_summary(relation))
    print()

    corroboration = Counter(len(row[0].origins) for row in relation)
    print("Corroboration profile (how many databases know each organization):")
    for sources, count in sorted(corroboration.items()):
        print(f"  known to {sources:2d} database(s): {count} organizations")
    print()

    fragile = [row.data[0] for row in relation if len(row[0].origins) == 1]
    print(f"Fragile facts (single-source organizations): {len(fragile)}")
    for name in sorted(fragile)[:5]:
        row = [r for r in relation if r.data[0] == name][0]
        (only_db,) = row[0].origins
        print(f"  {name} — only {only_db} knows it")
    if len(fragile) > 5:
        print(f"  … and {len(fragile) - 5} more")
    print()

    stats = pqp.registry.total_stats()
    print("LQP traffic for this query:")
    print(f"  local queries: {stats.queries}")
    print(f"  tuples shipped: {stats.tuples_shipped}")
    if result.optimization:
        print(
            f"  optimizer: {result.optimization.retrieves_deduplicated} retrieves "
            f"and {result.optimization.merges_deduplicated} merges deduplicated, "
            f"{result.optimization.rows_pruned} plan rows pruned"
        )
    print()

    print("Cross-database join: who works at a Banking organization?")
    print("----------------------------------------------------------")
    # Twelve per-scheme queries — one per person database — submitted
    # together to a multi-user federation service: up to six run at once,
    # all sharing one long-lived per-database worker pool.
    banking_rows = []
    with PolygenFederation(
        federation.schema, pqp.registry, max_concurrent_queries=6
    ) as service:
        with service.session(name="banking-audit") as session:
            handles = [
                session.submit(
                    f'(GPERSON{index:02d} [EMPLOYER = NAME] '
                    f'(GORGANIZATION [INDUSTRY = "Banking"])) [PNAME, EMPLOYER]'
                )
                for index in range(SPEC.databases)
            ]
            for handle in handles:
                banking_rows.extend(handle.result().relation.tuples)
    print(f"  people employed in Banking across the federation: {len(banking_rows)}")
    sample = banking_rows[0]
    print(
        f"  e.g. {sample.data[0]} at {sample.data[1]} "
        f"(employer datum from {sorted(sample[1].origins)}, "
        f"mediated by {sorted(sample[1].intermediates)})"
    )
    print()

    print(f"Concurrent runtime vs the model ({LATENCY * 1000:.0f} ms/query LQPs)")
    print("----------------------------------------------------------")
    query = "GORGANIZATION [NAME, INDUSTRY]"
    concurrent_pqp = PolygenQueryProcessor(
        federation.schema, latency_registry(federation)
    )
    concurrent_run = concurrent_pqp.run_algebra(query)
    # The same plan with every local row run inline, one after another.
    serial_trace = Executor(federation.schema, latency_registry(federation)).execute(
        concurrent_run.iom
    )
    assert concurrent_run.relation == serial_trace.relation

    costs = {
        name: CostModel(per_query=LATENCY, per_tuple=0.0)
        for name in federation.database_names()
    }
    schedule = schedule_plan(
        concurrent_run.iom,
        concurrent_run.trace,
        local_costs=costs,
        pqp_cost_per_tuple=0.0,
        registry=concurrent_pqp.registry,
    )
    validation = validate_against_trace(schedule, concurrent_run.trace)
    print(f"  inline executor measured makespan:     {serial_trace.wall_clock:8.3f}s")
    print(f"  concurrent runtime measured makespan:  {validation.measured_makespan:8.3f}s")
    print(f"  scheduling model simulated makespan:   {validation.simulated_makespan:8.3f}s")
    print(
        f"  measured speedup {serial_trace.wall_clock / validation.measured_makespan:.1f}x, "
        f"model predicted {validation.simulated_speedup:.1f}x "
        f"over its simulated serial cost {validation.simulated_serial:.3f}s"
    )


if __name__ == "__main__":
    main()
