"""The Polygen Query Processor (PQP).

The paper's query-translation pipeline (§III, Figure 2):

1. the **Syntax Analyzer** linearizes a polygen algebraic expression into a
   Polygen Operation Matrix (POM — Table 1),
2. the two-pass **Polygen Operation Interpreter** expands the POM against
   the polygen schema into an Intermediate Operation Matrix (IOM — Tables 2
   and 3; Figures 3 and 4),
3. the **Query Optimizer** rewrites the IOM (the paper leaves its details
   out of scope; ours performs safe, tag-preserving rewrites:
   retrieve/merge deduplication, selection pushdown into LQPs, projection
   pruning at materialization, and dead-row pruning),
4. one **execution loop** (:meth:`~repro.pqp.executor.Executor.execute`)
   evaluates the IOM in dependency order, routing local rows to LQPs and
   performing polygen operations in the PQP (§IV).  The base
   :class:`~repro.pqp.executor.Executor` runs each ready local row inline
   on the calling thread — the paper's row-at-a-time PQP;
   :class:`~repro.pqp.runtime.ConcurrentExecutor` overrides only that
   dispatch step, handing the row to its database's worker threads.

The shared dependency structure lives in
:class:`~repro.pqp.plandag.PlanDAG`; the scheduling simulator
(:mod:`repro.pqp.schedule`) predicts a plan's makespan over the same DAG
the runtime actually drives, and measured per-row timings flow back via
:class:`~repro.pqp.executor.ExecutionTrace` to validate the model.

:class:`~repro.pqp.processor.PolygenQueryProcessor` is the blocking,
single-user facade over the whole pipeline, always on the pooled executor.
The multi-user front door — long-lived
:class:`~repro.service.federation.PolygenFederation`, sessions, query
handles, streaming cursors, a worker pool shared across queries — lives
in :mod:`repro.service`; the facade is now a single-session federation
under the hood.
"""

from repro.pqp.calibrate import CostCalibrator
from repro.pqp.executor import ExecutionTrace, Executor, RowTiming
from repro.pqp.interpreter import PolygenOperationInterpreter
from repro.pqp.matrix import (
    IntermediateOperationMatrix,
    LocalOperand,
    MatrixRow,
    Operation,
    PolygenOperationMatrix,
    ResultOperand,
    SchemeOperand,
)
from repro.pqp.optimizer import OptimizationReport, QueryOptimizer, ShapeChoice
from repro.pqp.plandag import PlanDAG
from repro.pqp.processor import PolygenQueryProcessor
from repro.pqp.result import QueryResult
from repro.pqp.runtime import ConcurrentExecutor
from repro.pqp.schedule import (
    PlanSchedule,
    PlanShape,
    ScheduleValidation,
    decompose_merges,
    rank_plan_shapes,
    schedule_plan,
    validate_against_trace,
)
from repro.pqp.syntax_analyzer import SyntaxAnalyzer

__all__ = [
    "Operation",
    "MatrixRow",
    "SchemeOperand",
    "LocalOperand",
    "ResultOperand",
    "PolygenOperationMatrix",
    "IntermediateOperationMatrix",
    "SyntaxAnalyzer",
    "PolygenOperationInterpreter",
    "QueryOptimizer",
    "OptimizationReport",
    "ShapeChoice",
    "CostCalibrator",
    "Executor",
    "ConcurrentExecutor",
    "ExecutionTrace",
    "RowTiming",
    "PlanDAG",
    "PolygenQueryProcessor",
    "QueryResult",
    "PlanSchedule",
    "PlanShape",
    "ScheduleValidation",
    "decompose_merges",
    "rank_plan_shapes",
    "schedule_plan",
    "validate_against_trace",
]
