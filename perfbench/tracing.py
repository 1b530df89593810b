"""Span recording for the traced run, from outside the program.

The traced run replaces attributes of the program's modules with timing
wrappers (:func:`install`), so no tracing code lives in ``src/``.  Each
wrapper records one span: layer name, start, end, parent span, and the
query id when the calling thread knows it.  Spans are kept in memory in a
:class:`Recorder` and summarised when the run ends (:func:`layer_table`).

Parents follow the calling thread's stack of open spans.  Work handed to
the federation's coordinator pool and per-database worker pool carries the
submitting thread's span along (:func:`_carry`), so a worker's spans are
children of the span that dispatched them; spans opened on threads nobody
dispatched to (LQP server handlers, transport loops) are roots.

Only per-relation and per-chunk functions are wrapped, never per-cell ones,
so the tracing overhead stays small enough to report.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple


@dataclass
class Span:
    layer: str
    start: float
    parent: Optional[int]
    query: Optional[int]
    thread: int
    #: CPU seconds the span's own thread spent inside it.
    cpu: float = 0.0
    end: float = 0.0
    #: counts attached by the wrapper (tuples, rows_in, pairs, ...).
    counts: Dict[str, int] = field(default_factory=dict)


class Recorder:
    """An in-memory span book plus the per-thread open-span stacks."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- per-thread context ---------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def context(self) -> Tuple[Optional[int], Optional[int]]:
        """(innermost open span, query id) of the calling thread."""
        stack = self._stack()
        return (stack[-1] if stack else None, getattr(self._local, "query", None))

    def set_query(self, query: Optional[int]) -> None:
        self._local.query = query

    # -- spans ----------------------------------------------------------

    def open(self, layer: str) -> int:
        parent, query = self.context()
        span = Span(layer, time.perf_counter(), parent, query, threading.get_ident())
        span.cpu = time.thread_time()
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        self._stack().append(index)
        return index

    def close(self, index: int, **counts: int) -> None:
        span = self.spans[index]
        span.cpu = time.thread_time() - span.cpu
        span.end = time.perf_counter()
        span.counts.update(counts)
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()

    def record(self, layer: str, start: float, end: float) -> None:
        """A span whose interval was measured elsewhere (a queue wait)."""
        parent, query = self.context()
        span = Span(layer, start, parent, query, threading.get_ident(), 0.0, end)
        with self._lock:
            self.spans.append(span)

    def run_as(self, context, fn: Callable, *args, **kwargs):
        """Run ``fn`` with ``context`` (from :meth:`context`) as this
        thread's parent span and query id, restoring the old one after."""
        parent, query = context
        stack = self._stack()
        saved_stack, saved_query = list(stack), getattr(self._local, "query", None)
        stack[:] = [] if parent is None else [parent]
        self._local.query = query
        try:
            return fn(*args, **kwargs)
        finally:
            stack[:] = saved_stack
            self._local.query = saved_query


# -- wrappers -------------------------------------------------------------


def _timed(recorder: Recorder, layer: str, fn: Callable, count=None) -> Callable:
    """``fn`` wrapped in a span; ``count(args, kwargs, result)`` returns the
    counts to attach to it."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = recorder.open(layer)
        counts = {}
        try:
            result = fn(*args, **kwargs)
            if count is not None:
                counts = count(args, kwargs, result)
            return result
        finally:
            recorder.close(index, **counts)

    return wrapper


class _TimedIterator:
    """Times each ``next()`` of an iterator as one span of ``layer``."""

    def __init__(self, recorder: Recorder, layer: str, iterator, count) -> None:
        self._recorder = recorder
        self._layer = layer
        self._iterator = iter(iterator)
        self._count = count

    def __iter__(self):
        return self

    def __next__(self):
        index = self._recorder.open(self._layer)
        counts = {}
        try:
            item = next(self._iterator)
            counts = self._count(item)
            return item
        finally:
            self._recorder.close(index, **counts)

    def __getattr__(self, name):
        return getattr(self._iterator, name)


def _timed_stream(recorder: Recorder, layer: str, fn: Callable, count) -> Callable:
    """``fn`` returns an iterator; every ``next()`` on it becomes a span."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return _TimedIterator(recorder, layer, fn(*args, **kwargs), count)

    return wrapper


def _carry(recorder: Recorder, submit: Callable, job_position: int, queue_layer=None):
    """Wrap a pool's ``submit`` so the job runs under the submitter's span
    and query id; with ``queue_layer`` the job's wait in the queue is
    recorded as a span of that layer."""

    @functools.wraps(submit)
    def wrapper(*args, **kwargs):
        args = list(args)
        job = args[job_position]
        context = recorder.context()
        queued = time.perf_counter()

        def carried(*job_args, **job_kwargs):
            if queue_layer is not None:
                recorder.run_as(
                    context, recorder.record, queue_layer, queued, time.perf_counter()
                )
            return recorder.run_as(context, job, *job_args, **job_kwargs)

        args[job_position] = carried
        return submit(*args, **kwargs)

    return wrapper


def _rows_counter(args, kwargs, result):
    return {"tuples": result.cardinality}


def _input_rows(args, kwargs, result):
    return {"tuples": args[0].cardinality}


def _chunk_rows(chunk) -> Dict[str, int]:
    return {"tuples": chunk.count}


def _batch_rows(batch) -> Dict[str, int]:
    return {"tuples": batch.cardinality, "chunks": 1}


def _chunk_in(args, kwargs, result):
    return {"tuples": args[1].cardinality}


def _merge_counts(args, kwargs, result):
    return {
        "rows_in": sum(store.cardinality for store in args[0]),
        "rows_out": result.cardinality,
    }


def _join_counts(args, kwargs, result):
    return {"pairs": len(args[0]) * len(args[1]), "rows_out": len(result)}


def _encode_counts(args, kwargs, result):
    return {"tuples": args[4] if len(args) > 4 else kwargs.get("count", 0)}


_UNSET = object()


class Installation:
    """The wrappers one traced run installed; :meth:`remove` restores the
    original attributes."""

    def __init__(self) -> None:
        self._patched: List[Tuple[object, str, object]] = []

    def patch(self, owner, name: str, replacement) -> None:
        self._patched.append((owner, name, vars(owner).get(name, _UNSET)))
        setattr(owner, name, replacement)

    def remove(self) -> None:
        for owner, name, original in reversed(self._patched):
            if original is _UNSET:
                delattr(owner, name)
            else:
                setattr(owner, name, original)
        self._patched.clear()


#: The LQP verbs timed as ``lqp.ship.<backend>``.
_SHIP_VERBS = ("retrieve", "select", "retrieve_range", "select_range")


def install(recorder: Recorder, federation=None) -> Installation:
    """Wrap every layer boundary the per-layer metrics time.

    Each wrapper replaces the attribute its caller looks up: module
    functions imported by name into another module are patched there (the
    federation's ``translate_sql`` and ``fingerprint_plan``, the executor's
    ``materialize``); methods are patched on their class.  ``federation``,
    when given, also gets its coordinator pool wrapped so pipeline spans
    know their query id and the submit → start wait is recorded.
    """
    from repro.backends.kv_lqp import KVStoreLQP
    from repro.backends.log_lqp import LogStoreLQP
    from repro.backends.sqlite_lqp import SqliteLQP
    from repro.core import derived
    from repro.lqp.relational_lqp import RelationalLQP
    from repro.net import binary, protocol
    from repro.net.client import RemoteLQP
    from repro.pqp import executor as executor_module
    from repro.pqp.calibrate import CostCalibrator
    from repro.pqp.executor import Executor
    from repro.pqp.pool import WorkerPool
    from repro.pqp.runtime import ConcurrentExecutor
    from repro.pqp.stream import ChunkPipeline
    from repro.service import federation as federation_module
    from repro.service.cache import ResultCache
    from repro.service.cursor import Cursor
    from repro.service.federation import PolygenFederation
    from repro.storage import kernels

    done = Installation()
    timed = functools.partial(_timed, recorder)

    done.patch(federation_module, "translate_sql",
               timed("translate", federation_module.translate_sql))
    done.patch(federation_module, "fingerprint_plan",
               timed("pqp.fingerprint", federation_module.fingerprint_plan))
    for stage in ("analyze", "plan", "optimize"):
        done.patch(PolygenFederation, stage,
                   timed(f"pqp.{stage}", getattr(PolygenFederation, stage)))
    done.patch(CostCalibrator, "observe", timed("pqp.calibrate", CostCalibrator.observe))
    done.patch(Executor, "execute", timed("pqp.execute", Executor.execute))
    done.patch(ConcurrentExecutor, "execute",
               timed("pqp.execute", ConcurrentExecutor.execute))
    done.patch(WorkerPool, "submit", _carry(recorder, WorkerPool.submit, 2))

    for cls, layer in (
        (RelationalLQP, "lqp.ship.relational"),
        (SqliteLQP, "lqp.ship.sqlite"),
        (LogStoreLQP, "lqp.ship.log"),
        (KVStoreLQP, "lqp.ship.kv"),
        (RemoteLQP, "lqp.ship.remote"),
    ):
        for verb in _SHIP_VERBS:
            if verb in cls.__dict__:
                done.patch(cls, verb, timed(layer, cls.__dict__[verb], _rows_counter))
    for verb in ("retrieve_chunks", "select_chunks"):
        done.patch(RemoteLQP, verb, _timed_stream(
            recorder, "lqp.ship.remote", RemoteLQP.__dict__[verb], _chunk_rows))
    done.patch(KVStoreLQP, "put", timed("backends.kv.put", KVStoreLQP.put))

    for name in ("push", "finish"):
        done.patch(ChunkPipeline, name, timed("pqp.stream", getattr(ChunkPipeline, name),
                                              _chunk_in if name == "push" else None))
    done.patch(executor_module, "materialize",
               timed("lqp.tagging", executor_module.materialize, _input_rows))
    done.patch(kernels, "hash_merge", timed("storage.merge", kernels.hash_merge, _merge_counts))
    for name, layer in (
        ("restrict", "storage.restrict"),
        ("restrict_chunk", "storage.restrict"),
        ("project", "storage.project"),
        ("project_chunk", "storage.project"),
    ):
        done.patch(kernels, name, timed(layer, getattr(kernels, name), _input_rows))
    done.patch(derived, "join", timed("core.join", derived.join, _join_counts))

    done.patch(binary, "encode_chunk_payload",
               timed("net.encode", binary.encode_chunk_payload, _encode_counts))
    done.patch(binary, "decode_chunk_payload",
               timed("net.decode", binary.decode_chunk_payload))
    done.patch(protocol, "encode_frame", timed("net.encode", protocol.encode_frame))
    done.patch(protocol, "decode_payload", timed("net.decode", protocol.decode_payload))

    done.patch(Cursor, "chunks", _timed_stream(
        recorder, "service.cursor", Cursor.chunks, _batch_rows))
    for name in ("lookup", "splice_probe", "put", "invalidate"):
        done.patch(ResultCache, name,
                   timed(f"service.cache.{name}", getattr(ResultCache, name)))
    if federation is not None:
        pool = federation._coordinators
        done.patch(pool, "submit", _carry(recorder, pool.submit, 0, queue_layer="service.queue"))
    return done


# -- summaries --------------------------------------------------------------


def _covered(intervals: List[Tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def own_times(spans: List[Span]) -> List[Tuple[float, float]]:
    """Each span's ``(self, wait)`` seconds.

    Self time is the CPU its thread spent in the span minus the CPU of its
    child spans on the same thread.  Waiting time is the rest of the span's
    wall-clock interval not covered by those children: blocked on a lock,
    a queue, the interpreter lock, the network, or children on other
    threads (a coordinator waiting for its workers).
    """
    children: Dict[int, List[int]] = defaultdict(list)
    for index, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(index)
    result = []
    for index, span in enumerate(spans):
        local = [spans[child] for child in children.get(index, ()) if spans[child].thread == span.thread]
        cpu = span.cpu - sum(child.cpu for child in local)
        wall = (span.end - span.start) - _covered(
            [(max(c.start, span.start), min(c.end, span.end)) for c in local if c.end > c.start]
        )
        cpu = max(0.0, cpu)
        result.append((cpu, max(0.0, wall - cpu)))
    return result


def family(layer: str) -> str:
    """The layer a span reports to: cache verbs share ``service.cache``."""
    return "service.cache" if layer.startswith("service.cache.") else layer


@dataclass
class LayerRow:
    layer: str
    calls: int = 0
    self_s: float = 0.0
    wait_s: float = 0.0
    counts: Dict[str, int] = field(default_factory=lambda: defaultdict(int))


def layer_rows(spans: List[Span]) -> Dict[str, LayerRow]:
    """Per-layer totals; a cache verb counts under its own name and under
    ``service.cache``."""
    rows: Dict[str, LayerRow] = {}
    for span, (own, wait) in zip(spans, own_times(spans)):
        for name in {span.layer, family(span.layer)}:
            row = rows.setdefault(name, LayerRow(name))
            row.calls += 1
            row.self_s += own
            row.wait_s += wait
            for key, value in span.counts.items():
                row.counts[key] += value
    return rows


def group_self(spans: List[Span], prefixes: Tuple[str, ...]) -> float:
    """Self CPU seconds of spans inside a group of layers: spans whose own
    layer, or any ancestor's, starts with one of ``prefixes`` (so the
    kernels a join calls count toward the join)."""
    inside: Dict[int, bool] = {}

    def member(index: int) -> bool:
        chain = []
        found = False
        while index is not None and index not in inside:
            chain.append(index)
            if spans[index].layer.startswith(prefixes):
                found = True
                break
            index = spans[index].parent
        if not found and index is not None:
            found = inside[index]
        for seen in chain:
            inside[seen] = found
        return found

    return sum(own for index, (own, _) in enumerate(own_times(spans)) if member(index))


def layer_table(rows: Dict[str, LayerRow], queries: int) -> str:
    """The per-layer breakdown: self and waiting time per query, calls and
    counts, one layer a line."""
    lines = [
        f"{'layer':<22} {'calls':>8} {'self ms/query':>14} {'wait ms/query':>14}  counts",
    ]
    shown = sorted(
        (row for name, row in rows.items() if not name.startswith("service.cache.")),
        key=lambda row: -(row.self_s + row.wait_s),
    )
    for row in shown:
        counts = ", ".join(f"{key}={value}" for key, value in sorted(row.counts.items()))
        lines.append(
            f"{row.layer:<22} {row.calls:>8} {1e3 * row.self_s / queries:>14.3f} "
            f"{1e3 * row.wait_s / queries:>14.3f}  {counts}"
        )
    return "\n".join(lines)
