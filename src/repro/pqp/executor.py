"""The IOM executor: evaluates a query execution plan (paper, §IV).

Rows whose execution location names a local database are shipped to that
database's LQP (Retrieve, or a single-comparison Select) and the returned
data is *materialized* — domain-mapped, identity-resolved, renamed to
polygen attributes and tagged ``({LD}, {})`` per cell.  Rows located at the
PQP evaluate the polygen algebra over earlier results.

Execution is columnar end-to-end: materialization produces a
:class:`~repro.storage.columnar.ColumnarRelation`-backed relation with one
interned tag id shared by every data cell, each PQP row runs a batch kernel
(:mod:`repro.storage.kernels`) over the columns of earlier results, and the
intermediate ``R(#)`` relations never materialize a single
:class:`~repro.core.cell.Cell` — the row-of-cells view is built lazily only
if a caller walks the final ``QueryResult`` (display, explain, tests).

Beyond the relations themselves the executor tracks **attribute lineage**:
for every attribute of every intermediate result, the set of polygen
schemes it flowed through.  The provenance explainer uses this to realize
the paper's §IV observation (3) — mapping a tagged cell back to concrete
``(LD, LS, LA)`` columns — without guessing which scheme an attribute
belongs to.
"""

from __future__ import annotations

import queue
import threading
import time
from collections import deque
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

from repro.catalog.schema import PolygenSchema
from repro.core import algebra, derived
from repro.core.cell import ConflictPolicy
from repro.core.predicate import AttributeRef, Literal
from repro.core.relation import PolygenRelation
from repro.errors import ExecutionError, QueryCancelledError
from repro.integration.domains import TransformRegistry, default_registry
from repro.integration.identity import IdentityResolver
from repro.lqp.registry import LQPRegistry
from repro.lqp.tagging import materialize
from repro.obs.trace import Span, current_span, use_span
from repro.relational.relation import Relation
from repro.storage import kernels
from repro.pqp import stream as pqp_stream
from repro.pqp.matrix import (
    IntermediateOperationMatrix,
    LocalOperand,
    MatrixRow,
    Operation,
    ResultOperand,
)
from repro.pqp.plandag import PlanDAG

__all__ = ["Executor", "ExecutionTrace", "RowTiming"]

#: attribute name → polygen schemes the attribute flowed through.
Lineage = Dict[str, FrozenSet[str]]

#: (relation, lineage, timing) — one finished row.
_Outcome = Tuple[PolygenRelation, Lineage, "RowTiming"]
#: (row, outcome, error) — one local row's completion, as a worker reports it.
_Completion = Tuple[MatrixRow, Optional[_Outcome], Optional[BaseException]]


@dataclass(frozen=True)
class RowTiming:
    """Measured wall-clock interval of one plan row.

    ``start``/``finish`` are seconds relative to the moment the executor
    began the plan, so timings of one trace are directly comparable and the
    scheduling simulator can validate its model against them.
    """

    start: float
    finish: float
    location: str
    worker: str = ""

    @property
    def duration(self) -> float:
        return self.finish - self.start


@dataclass
class ExecutionTrace:
    """Everything the executor produced for one plan."""

    relation: PolygenRelation
    #: every intermediate result, keyed by R(#) index.
    results: Dict[int, PolygenRelation]
    #: attribute lineage of the final relation.
    lineage: Lineage
    #: measured per-row wall-clock timings, keyed by R(#) index.
    timings: Dict[int, RowTiming] = field(default_factory=dict)
    #: attribute lineage of every intermediate result, keyed by R(#) index
    #: (the result cache stores each subtree's lineage alongside its rows).
    lineages: Dict[int, Lineage] = field(default_factory=dict)
    #: the query's full span tree (:mod:`repro.obs.trace`) — coordinator
    #: stages, per-row spans, and any server-side spans stitched in over
    #: the wire.  Populated when the query ran under a trace (the
    #: federation always starts one); empty for bare executor calls.
    spans: List[Span] = field(default_factory=list)

    def result(self, index: int) -> PolygenRelation:
        try:
            return self.results[index]
        except KeyError:
            raise ExecutionError(f"no result R({index}) in this trace") from None

    @property
    def wall_clock(self) -> float:
        """Measured makespan: latest finish over all rows (0 if untimed)."""
        if not self.timings:
            return 0.0
        return max(timing.finish for timing in self.timings.values())

    @property
    def busy_time(self) -> float:
        """Summed per-row durations — the measured analogue of serial cost."""
        return sum(timing.duration for timing in self.timings.values())

    def busy_by_location(self) -> Dict[str, float]:
        """Measured busy seconds per execution location (LQP name or
        ``"PQP"``) — the per-resource breakdown the federation's
        utilization stats aggregate across queries."""
        busy: Dict[str, float] = {}
        for timing in self.timings.values():
            busy[timing.location] = busy.get(timing.location, 0.0) + timing.duration
        return busy


class Executor:
    """Evaluates Intermediate Operation Matrices."""

    #: Worker label of the rows this executor runs on the calling thread
    #: (inline local rows, PQP rows and streamed spines).
    _inline_worker = "serial"

    def __init__(
        self,
        schema: PolygenSchema,
        registry: LQPRegistry,
        resolver: IdentityResolver | None = None,
        transforms: TransformRegistry | None = None,
        policy: ConflictPolicy = ConflictPolicy.DROP,
        tag_pool=None,
    ):
        """``tag_pool`` scopes materialization's tag interning to a caller-
        owned :class:`~repro.storage.tag_pool.TagPool` (a long-lived
        federation shares one across every session's queries); ``None``
        keeps the process-wide default pool."""
        self._schema = schema
        self._registry = registry
        self._resolver = resolver or IdentityResolver.identity()
        self._transforms = transforms or default_registry()
        self._policy = policy
        self._tag_pool = tag_pool

    # ------------------------------------------------------------------

    def execute(
        self,
        iom: IntermediateOperationMatrix,
        *,
        cancel: threading.Event | None = None,
        on_result: Optional[Callable[[PolygenRelation], None]] = None,
        on_chunk: Optional[Callable[[PolygenRelation], None]] = None,
        stream_chunk_size: Optional[int] = None,
    ) -> ExecutionTrace:
        """Evaluate the plan in dependency (DAG) order; the last *listed*
        row is the query result.

        A row starts the moment every ``R(#)`` it consumes is ready.  Local
        rows go through :meth:`_local_dispatcher` — inline on the calling
        thread here, to per-database workers in
        :class:`~repro.pqp.runtime.ConcurrentExecutor` — and PQP rows run
        on the calling thread as their inputs complete.

        ``cancel`` aborts cooperatively with
        :class:`~repro.errors.QueryCancelledError`: it is checked before
        every dispatch and at the head of every queued local job, so a
        cancelled plan stops issuing LQP traffic without interrupting an
        in-flight local call.  ``on_result`` fires with the final relation
        the instant the result row completes.

        ``on_chunk`` opts into pipelined streaming: when the plan is a
        streamable spine (:mod:`repro.pqp.stream`) it fires with each
        batch of fresh result rows *while the scan is still in flight*,
        and ``stream_chunk_size`` sizes the batches.  Non-spine plans
        ignore both and execute whole-relation — ``on_result`` still
        delivers.

        ``execute`` is reentrant: a federation shares one instance across
        many coordinator threads, each call keeping its state on its own
        stack.
        """
        if not len(iom):
            raise ExecutionError("cannot execute an empty operation matrix")
        if on_chunk is not None:
            # A streamable spine is a linear chain — it has no parallelism
            # to exploit, so pipelined chunk flow (first rows before the
            # scan completes) strictly wins.
            chain = pqp_stream.streamable_spine(iom)
            if chain is not None:
                return self._execute_streaming(
                    iom,
                    chain,
                    cancel=cancel,
                    on_result=on_result,
                    on_chunk=on_chunk,
                    stream_chunk_size=stream_chunk_size,
                )
        dag = PlanDAG.from_iom(iom)
        final = iom.rows[-1].result.index
        results: Dict[int, PolygenRelation] = {}
        lineages: Dict[int, Lineage] = {}
        timings: Dict[int, RowTiming] = {}
        completions: "queue.SimpleQueue[_Completion]" = queue.SimpleQueue()
        waiting = {index: len(set(dag.predecessors(index))) for index in dag.indices}
        ready_pqp: deque = deque()
        #: Set on failure/cancel so this plan's queued jobs on a *shared*
        #: pool degrade to no-ops instead of issuing pointless LQP traffic.
        halt = threading.Event()
        # Row spans parent on the ambient span, captured here because
        # pooled rows run on worker threads where the caller's contextvar
        # is invisible.  With no ambient span — a bare executor — rows
        # skip span work entirely.
        parent = current_span()
        origin = time.perf_counter()

        def abandoned() -> bool:
            return halt.is_set() or (cancel is not None and cancel.is_set())

        def job(row: MatrixRow, worker: str) -> None:
            """Run one ready local row; the outcome goes to ``completions``."""
            if abandoned():
                completions.put((row, None, QueryCancelledError(
                    f"row {row.result} skipped: plan abandoned"
                )))
                return
            try:
                outcome = self._run_row(row, results, lineages, parent, origin, worker)
            except BaseException as exc:  # re-raised on the calling thread
                completions.put((row, None, exc))
                return
            completions.put((row, outcome, None))

        def complete(row: MatrixRow, outcome: _Outcome) -> None:
            """Record a finished row and dispatch what it unblocks."""
            index = row.result.index
            results[index], lineages[index], timings[index] = outcome
            if index == final and on_result is not None:
                on_result(results[index])
            for successor in dict.fromkeys(dag.successors(index)):
                waiting[successor] -= 1
                if waiting[successor] == 0:
                    dispatch(successor)

        def consume(completion: _Completion) -> None:
            row, outcome, error = completion
            if error is not None:
                raise error
            complete(row, outcome)

        def dispatch(index: int) -> None:
            row = dag.row(index)
            if row.is_local:
                dispatch_local(row, job)
            else:
                ready_pqp.append(row)

        def check_cancel() -> None:
            if cancel is not None and cancel.is_set():
                raise QueryCancelledError("query cancelled")

        # Wake periodically when cancellable, so a cancel set from another
        # thread cannot be missed while blocked on a local row.
        wait = 0.05 if cancel is not None else None
        try:
            with self._local_dispatcher() as dispatch_local:
                check_cancel()
                for index in sorted(dag.roots()):
                    dispatch(index)
                while len(results) < len(dag):
                    check_cancel()
                    # Drain finished local rows first so freshly unblocked
                    # work reaches idle LQP workers before the PQP computes.
                    try:
                        completion = completions.get_nowait()
                    except queue.Empty:
                        pass
                    else:
                        consume(completion)
                        continue
                    if ready_pqp:
                        row = ready_pqp.popleft()
                        outcome = self._run_row(
                            row, results, lineages, parent, origin, self._inline_worker
                        )
                        complete(row, outcome)
                        continue
                    # Nothing runnable at the PQP: block until a local row
                    # finishes.
                    try:
                        consume(completions.get(timeout=wait))
                    except queue.Empty:
                        continue
        except BaseException:
            halt.set()
            raise
        return ExecutionTrace(
            results[final], results, lineages[final], timings, lineages=lineages
        )

    @contextmanager
    def _local_dispatcher(self):
        """Yield ``dispatch(row, job)``, which starts a ready local row.

        The base executor calls ``job`` inline on the calling thread — the
        paper's row-at-a-time PQP.  Subclasses override this one step to
        hand the row to worker threads instead."""
        yield lambda row, job: job(row, self._inline_worker)

    def _run_row(
        self,
        row: MatrixRow,
        results: Dict[int, PolygenRelation],
        lineages: Dict[int, Lineage],
        parent: Optional[Span],
        origin: float,
        worker: str,
    ) -> _Outcome:
        """Run one plan row under its span and time it.

        The one place a non-streamed row gets its span, its
        :class:`RowTiming` and — for any failure that is not already an
        :class:`~repro.errors.ExecutionError` — its row-context wrapper.
        """
        location = row.el or "PQP"
        span = (
            parent.child(f"row {row.result}", op=row.op.value, location=location)
            if parent is not None
            else None
        )
        started = time.perf_counter() - origin
        try:
            with use_span(span) if span is not None else nullcontext():
                relation, lineage = self._execute_row(row, results, lineages)
        except Exception as exc:
            if span is not None:
                span.end(exc)
            if isinstance(exc, ExecutionError):
                raise
            raise ExecutionError(
                f"row {row.result} ({row.op.value}) failed: {exc}"
            ) from exc
        if span is not None:
            span.set(tuples=len(relation)).end()
        timing = RowTiming(started, time.perf_counter() - origin, location, worker)
        return relation, lineage, timing

    # ------------------------------------------------------------------

    def _execute_row(
        self,
        row: MatrixRow,
        results: Dict[int, PolygenRelation],
        lineages: Dict[int, Lineage],
    ) -> Tuple[PolygenRelation, Lineage]:
        if row.op is Operation.CACHED:
            if row.cached is None:
                raise ExecutionError(f"Cached row {row.result} carries no payload")
            return row.cached.relation, dict(row.cached.lineage)
        if row.is_local:
            return self._execute_local(row)
        return self._execute_at_pqp(row, results, lineages)

    def _execute_local(self, row: MatrixRow) -> Tuple[PolygenRelation, Lineage]:
        if not isinstance(row.lhr, LocalOperand):
            raise ExecutionError(
                f"local row {row.result} must name a local relation, got {row.lhr!r}"
            )
        lqp = self._registry.get(row.el)
        scheme = self._schema.scheme(row.scheme)
        columns = self._shipped_columns(lqp, scheme, row)
        shipped = self._ship_local(row, lqp, columns)
        relation = materialize(
            shipped,
            row.el,
            scheme,
            resolver=self._resolver,
            transforms=self._transforms,
            relation_name=row.lhr.relation,
            attributes=row.project,
            consulted=row.consulted,
            tag_pool=self._tag_pool,
        )
        lineage = {attribute: frozenset({scheme.name}) for attribute in relation.attributes}
        return relation, lineage

    @staticmethod
    def _ship_local(row: MatrixRow, lqp, columns) -> Relation:
        """Run the head verb at its LQP; the shipped, untagged relation."""
        kwargs = {} if columns is None else {"columns": columns}
        if row.op is Operation.RETRIEVE:
            shipped = lqp.retrieve(row.lhr.relation, **kwargs)
        elif row.op is Operation.RETRIEVE_RANGE:
            if row.key_range is None:
                raise ExecutionError(
                    f"RetrieveRange row {row.result} carries no key range"
                )
            key_range = row.key_range
            shipped = lqp.retrieve_range(
                row.lhr.relation,
                key_range.attribute,
                key_range.lower,
                key_range.upper,
                key_range.include_nil,
                **kwargs,
            )
        elif row.op is Operation.SELECT:
            if not isinstance(row.rha, Literal):
                raise ExecutionError(
                    f"local Select {row.result} requires a literal comparand"
                )
            if row.key_range is not None:
                # One key-range shard of a local Select (pqp/shard.py): the
                # LQP evaluates the predicate, then keeps its key interval.
                key_range = row.key_range
                shipped = lqp.select_range(
                    row.lhr.relation,
                    row.lha,
                    row.theta,
                    row.rha.value,
                    key_range.attribute,
                    key_range.lower,
                    key_range.upper,
                    key_range.include_nil,
                    **kwargs,
                )
            else:
                shipped = lqp.select(
                    row.lhr.relation, row.lha, row.theta, row.rha.value, **kwargs
                )
        else:
            raise ExecutionError(
                f"operation {row.op.value} cannot execute at LQP {row.el!r}"
            )
        return shipped

    # -- pipelined streaming -------------------------------------------

    def _execute_streaming(
        self,
        iom: IntermediateOperationMatrix,
        chain: Tuple[MatrixRow, ...],
        *,
        cancel: threading.Event | None,
        on_result: Optional[Callable[[PolygenRelation], None]],
        on_chunk: Callable[[PolygenRelation], None],
        stream_chunk_size: Optional[int],
    ) -> ExecutionTrace:
        """Evaluate a spine plan chunk-at-a-time (:mod:`repro.pqp.stream`).

        Chunks ship from the head LQP — over the wire via its
        ``retrieve_chunks``/``select_chunks`` when it has them, otherwise
        by slicing the whole shipped relation locally, so the caller's
        ``on_chunk`` cadence is uniform across deployments — and flow
        through the PQP stages as they arrive.  The returned trace is
        byte-identical to whole-relation execution: same intermediate
        results, tags, lineages; only the timings differ (every row spans
        the stream).
        """
        head = chain[0]
        if not isinstance(head.lhr, LocalOperand):
            raise ExecutionError(
                f"local row {head.result} must name a local relation, got {head.lhr!r}"
            )
        lqp = self._registry.get(head.el)
        scheme = self._schema.scheme(head.scheme)
        columns = self._shipped_columns(lqp, scheme, head)
        chunk_size = stream_chunk_size or pqp_stream.DEFAULT_STREAM_CHUNK_TUPLES

        def materialize_chunk(chunk: Relation) -> PolygenRelation:
            return materialize(
                chunk,
                head.el,
                scheme,
                resolver=self._resolver,
                transforms=self._transforms,
                relation_name=head.lhr.relation,
                attributes=head.project,
                consulted=head.consulted,
                tag_pool=self._tag_pool,
            )

        pipeline = pqp_stream.ChunkPipeline(chain, materialize_chunk, scheme.name)
        # One span covers the whole pipelined spine (rows overlap in a
        # stream, so per-row spans would all be the same interval); chunk
        # arrivals land as capped span events.
        trace_parent = current_span()
        span = (
            trace_parent.child(
                f"stream {head.result}",
                op=head.op.value,
                location=head.el or "PQP",
                rows=len(chain),
            )
            if trace_parent is not None
            else None
        )
        origin = time.perf_counter()

        def check_cancel() -> None:
            if cancel is not None and cancel.is_set():
                raise QueryCancelledError("query cancelled")

        def emit(chunk: Relation) -> None:
            if span is not None:
                span.add_event("chunk", tuples=len(chunk.rows))
            batch = pipeline.push(chunk)
            if batch is not None:
                on_chunk(batch)

        check_cancel()
        try:
            with use_span(span) if span is not None else nullcontext():
                streamer = self._chunk_streamer(lqp, head, columns, chunk_size, cancel)
                if streamer is not None:
                    wire_stream = streamer()
                    delivered = False
                    for wire_chunk in wire_stream:
                        check_cancel()
                        emit(Relation(wire_chunk.attributes, wire_chunk.rows))
                        delivered = True
                    if not delivered:
                        attributes = wire_stream.attributes
                        if not attributes:
                            raise ExecutionError(
                                f"row {head.result}: stream ended without a heading"
                            )
                        emit(Relation(attributes, []))
                else:
                    shipped = self._ship_local(head, lqp, columns)
                    rows = shipped.rows
                    if rows:
                        for start in range(0, len(rows), chunk_size):
                            check_cancel()
                            emit(Relation(shipped.heading, rows[start : start + chunk_size]))
                    else:
                        emit(Relation(shipped.heading, []))
        except (ExecutionError, QueryCancelledError) as exc:
            if span is not None:
                span.end(exc)
            raise
        except Exception as exc:
            if span is not None:
                span.end(exc)
            raise ExecutionError(
                f"streamed plan failed at row {head.result} "
                f"({head.op.value}): {exc}"
            ) from exc
        check_cancel()
        results, lineages = pipeline.finish()
        finish = time.perf_counter() - origin
        if span is not None:
            final_index = iom.rows[-1].result.index
            span.set(tuples=len(results[final_index])).end()
        timings = {
            row.result.index: RowTiming(
                start=0.0,
                finish=finish,
                location=row.el or "PQP",
                worker=self._inline_worker,
            )
            for row in chain
        }
        final = iom.rows[-1].result.index
        relation = results[final]
        if on_result is not None:
            on_result(relation)
        return ExecutionTrace(
            relation, results, lineages[final], timings, lineages=lineages
        )

    @staticmethod
    def _chunk_streamer(lqp, row: MatrixRow, columns, chunk_size, cancel):
        """A thunk opening a wire chunk stream for the head row, or ``None``
        when this LQP cannot stream (duck-typed: wrappers and in-process
        engines simply lack the methods)."""
        kwargs = {"chunk_size": chunk_size, "abort": cancel}
        if columns is not None:
            kwargs["columns"] = columns
        if row.op is Operation.RETRIEVE:
            opener = getattr(lqp, "retrieve_chunks", None)
            if not callable(opener):
                return None
            return lambda: opener(row.lhr.relation, **kwargs)
        opener = getattr(lqp, "select_chunks", None)
        if not callable(opener):
            return None
        return lambda: opener(
            row.lhr.relation, row.lha, row.theta, row.rha.value, **kwargs
        )

    @staticmethod
    def _shipped_columns(lqp, scheme, row: MatrixRow):
        """Local columns to request from the source, or ``None`` to ship all.

        Projection pruning (``row.project``) historically narrowed columns
        only at materialization; when the LQP's capabilities advertise
        ``native_projection`` the pruned set travels with the verb call
        instead, so dead columns never cross the wire.  Selection and
        key-range predicates are evaluated at the source *before* its
        projection, so the probed columns need not ship.
        """
        if row.project is None or not lqp.capabilities().native_projection:
            return None
        keep = set(row.project)
        columns = [
            local
            for local, polygen in scheme.rename_map(row.el, row.lhr.relation).items()
            if polygen in keep
        ]
        return columns or None

    def _execute_at_pqp(
        self,
        row: MatrixRow,
        results: Dict[int, PolygenRelation],
        lineages: Dict[int, Lineage],
    ) -> Tuple[PolygenRelation, Lineage]:
        def resolve(operand) -> Tuple[PolygenRelation, Lineage]:
            if isinstance(operand, ResultOperand):
                return results[operand.index], lineages[operand.index]
            raise ExecutionError(
                f"PQP row {row.result} references unresolved operand {operand!r}"
            )

        op = row.op
        if op is Operation.MERGE:
            if not isinstance(row.lhr, tuple):
                raise ExecutionError(f"Merge row {row.result} needs a tuple of inputs")
            inputs = [resolve(part) for part in row.lhr]
            scheme = self._schema.scheme(row.scheme)
            if not scheme.primary_key:
                raise ExecutionError(
                    f"scheme {scheme.name!r} has no primary key; Merge undefined"
                )
            relation = derived.merge(
                [relation for relation, _ in inputs],
                scheme.primary_key,
                policy=self._policy,
            )
            lineage = _union_lineages([lineage for _, lineage in inputs])
            return relation, lineage

        if op is Operation.UNION and isinstance(row.lhr, tuple):
            # N-ary reassembly union (pqp/shard.py): one hash pass over all
            # shards instead of a fold of binary unions.
            inputs = [resolve(part) for part in row.lhr]
            first = inputs[0][0]
            aligned = [first] + [
                _align(relation, first) for relation, _ in inputs[1:]
            ]
            for relation in aligned[1:]:
                if relation.heading != first.heading:
                    raise ExecutionError(
                        f"Union row {row.result} has incompatible operand headings"
                    )
            relation = PolygenRelation.from_store(
                kernels.union_all([relation.store for relation in aligned])
            )
            lineage = _union_lineages([lineage for _, lineage in inputs])
            return relation, lineage

        left, left_lineage = resolve(row.lhr)

        if op is Operation.SELECT:
            relation = algebra.restrict(left, row.lha, row.theta, row.rha)
            return relation, dict(left_lineage)
        if op is Operation.RESTRICT:
            relation = algebra.restrict(left, row.lha, row.theta, AttributeRef(row.rha))
            return relation, dict(left_lineage)
        if op is Operation.PROJECT:
            relation = algebra.project(left, row.lha)
            return relation, {name: left_lineage.get(name, frozenset()) for name in row.lha}
        if op is Operation.COALESCE:
            output = row.output or row.lha
            relation = algebra.coalesce(left, row.lha, row.rha, w=output, policy=self._policy)
            lineage = {
                name: source for name, source in left_lineage.items()
                if name not in (row.lha, row.rha)
            }
            lineage[output] = left_lineage.get(row.lha, frozenset()) | left_lineage.get(
                row.rha, frozenset()
            )
            return relation, lineage

        right, right_lineage = resolve(row.rhr)
        if op is Operation.JOIN:
            relation = derived.join(left, right, row.lha, row.theta, row.rha)
            return relation, _merge_lineage(left_lineage, right_lineage)
        if op is Operation.UNION:
            relation = algebra.union(left, _align(right, left))
            return relation, _merge_lineage(left_lineage, right_lineage)
        if op is Operation.DIFFERENCE:
            relation = algebra.difference(left, _align(right, left))
            return relation, _merge_lineage(left_lineage, right_lineage)
        if op is Operation.PRODUCT:
            relation = algebra.product(left, right)
            return relation, _merge_lineage(left_lineage, right_lineage)
        if op is Operation.INTERSECT:
            relation = derived.intersect(left, _align(right, left))
            return relation, _merge_lineage(left_lineage, right_lineage)
        raise ExecutionError(f"unsupported PQP operation {op.value}")


def _align(right: PolygenRelation, left: PolygenRelation) -> PolygenRelation:
    """Reorder ``right``'s columns to ``left``'s heading when both carry the
    same attribute set — a courtesy for union-compatible operands whose
    retrieval order differed."""
    if right.heading == left.heading:
        return right
    if set(right.attributes) == set(left.attributes):
        return algebra.project(right, left.attributes)
    return right  # let the operator raise its usual compatibility error


def _merge_lineage(left: Lineage, right: Lineage) -> Lineage:
    merged = dict(left)
    for name, schemes in right.items():
        merged[name] = merged.get(name, frozenset()) | schemes
    return merged


def _union_lineages(lineages) -> Lineage:
    merged: Lineage = {}
    for lineage in lineages:
        merged = _merge_lineage(merged, lineage)
    return merged
