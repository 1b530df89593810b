"""The equivalence suites' reference engine: the inline ``Executor``.

A :class:`~repro.pqp.processor.PolygenQueryProcessor` always dispatches
local rows to its federation's worker pool.  The reference plans a query
exactly as a given processor does (same options, same optimizer) but runs
the plan through the base :class:`~repro.pqp.executor.Executor`, which
runs every local row inline on the calling thread — the paper's
row-at-a-time PQP.
"""

from repro.pqp.executor import ExecutionTrace, Executor
from repro.translate.translator import translate_sql


class InlineProcessor:
    """``run_sql`` / ``run_algebra`` / ``run_plan`` like ``pqp``, executed
    inline; each returns the :class:`ExecutionTrace` (``relation`` and
    ``lineage`` read like a ``QueryResult``'s)."""

    def __init__(self, pqp):
        federation = pqp.federation
        self.pqp = pqp
        self.registry = pqp.registry
        self.executor = Executor(
            pqp.schema,
            pqp.registry,
            resolver=federation.resolver,
            transforms=federation.transforms,
            policy=federation.defaults.policy,
            tag_pool=federation.tag_pool,
        )

    def run_plan(self, iom) -> ExecutionTrace:
        return self.executor.execute(iom)

    def run_algebra(self, expression) -> ExecutionTrace:
        _, pom = self.pqp.analyze(expression)
        iom, _ = self.pqp.optimize(self.pqp.plan(pom))
        return self.run_plan(iom)

    def run_sql(self, sql: str) -> ExecutionTrace:
        return self.run_algebra(translate_sql(sql, self.pqp.schema).expression)

    def close(self) -> None:
        self.pqp.close()
