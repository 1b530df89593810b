"""``RemoteLQP``: a Local Query Processor living across the network.

The drop-in client of the wire protocol: a :class:`RemoteLQP` implements
the exact :class:`~repro.lqp.base.LocalQueryProcessor` contract —
``retrieve`` / ``select`` / ``relation_names`` / ``cardinality_estimate``
— against an :class:`~repro.net.server.LQPServer`, so the registry, the
executors, the optimizer and the scheduling simulator all treat a remote
database exactly like an in-process one.  Results are tag-identical by
construction: the wire carries the same *untagged* local rows an
in-process LQP returns, and tagging still happens at the PQP boundary
(:mod:`repro.lqp.tagging`).

What changes is the concurrency contract.  An in-process LQP advertises
``native_concurrency == 1`` (the paper's single-connection assumption); a
``RemoteLQP`` advertises its multiplexer's concurrency level, and the
worker pool gives its database that many workers — N requests in flight
over one connection, which is what the ``concurrency=4 vs 1`` network
benchmark measures.

Construction connects eagerly: the server's hello frame names the
database (needed by ``registry.register``) and lists its relations, so a
bad address fails at registration time, not mid-query.  The transport's
measured latency flows into every :class:`~repro.pqp.executor.RowTiming`
exactly as local compute does, so the federation's
:class:`~repro.pqp.calibrate.CostCalibrator` fits *network-inclusive*
cost models for remote sources without any new wiring.
"""

from __future__ import annotations

import queue as _queue
import threading
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.catalog.schema import PolygenSchema
from repro.catalog.serialize import schema_from_dict
from repro.core.predicate import Theta
from repro.errors import ProtocolError, RemoteQueryError
from repro.lqp.base import Capabilities, LocalQueryProcessor, RelationStats
from repro.net import binary, protocol
from repro.net.transport import ConnectionMux, TransportStats
from repro.obs.trace import Span, current_span
from repro.relational.relation import Relation

__all__ = ["RemoteLQP", "RelationChunkStream", "WireChunk"]


@dataclass(frozen=True)
class WireChunk:
    """One streamed chunk of a remote relation.

    ``rows`` is always populated; ``columns`` carries the per-attribute
    value vectors when the chunk travelled as a binary columnar frame
    (``None`` for JSON v1 frames, whose payload is row-major).
    """

    attributes: Tuple[str, ...]
    seq: int
    rows: List[Tuple[Any, ...]] = field(default_factory=list)
    columns: Optional[List[List[Any]]] = None

    @property
    def count(self) -> int:
        return len(self.rows)


class _EitherEvent:
    """``is_set()`` over several optional events — the transport's abort
    handle only ever polls ``is_set``, so a caller's cancel event and the
    stream's own early-exit guard compose without extra threads."""

    __slots__ = ("_events",)

    def __init__(self, *events):
        self._events = tuple(event for event in events if event is not None)

    def is_set(self) -> bool:
        return any(event.is_set() for event in self._events)


class RelationChunkStream:
    """A pull-style, one-shot iterator over a streamed relation request.

    The blocking transport request runs on a private worker thread; its
    chunk messages cross to the consumer through a queue, so iteration
    happens on the *caller's* thread with chunks arriving as the server
    ships them.  Abandoning the iterator early (``break``, an exception,
    garbage collection) aborts the wire stream — the transport sends the
    server a ``cancel`` so it stops shipping tuples nobody will read.

    Transport retries replay a stream from its first chunk; delivered
    ``seq`` numbers are tracked and replayed chunks are skipped, so the
    consumer sees every chunk exactly once.
    """

    def __init__(
        self,
        mux: ConnectionMux,
        op: str,
        params: Dict[str, Any],
        abort: threading.Event | None = None,
    ):
        self._queue: _queue.Queue = _queue.Queue()
        self._guard = threading.Event()
        self._attributes: Optional[Tuple[str, ...]] = None
        self._finished = False
        self._iterated = False
        # The blocking request runs on a private thread, where the
        # caller's contextvar span is invisible — capture it here so the
        # end frame's server spans stitch into the right trace.
        self._span = current_span()
        composite = _EitherEvent(abort, self._guard)
        sink = self._queue.put

        def run() -> None:
            try:
                reply = mux.request(
                    op,
                    on_chunk_message=lambda message: sink(("chunk", message)),
                    abort=composite,
                    **params,
                )
                sink(("end", reply))
            except BaseException as exc:
                sink(("error", exc))

        self._worker = threading.Thread(
            target=run,
            name=f"lqp-chunk-stream-{params.get('relation')}",
            daemon=True,
        )
        self._worker.start()

    @property
    def attributes(self) -> Optional[Tuple[str, ...]]:
        """The relation's heading — known once a chunk (or, for an empty
        result, the end frame) has been consumed."""
        return self._attributes

    def __iter__(self) -> Iterator[WireChunk]:
        if self._iterated:
            raise RuntimeError("RelationChunkStream supports a single iteration")
        self._iterated = True
        next_seq = 0
        try:
            while True:
                kind, payload = self._queue.get()
                if kind == "chunk":
                    seq = payload.get("seq")
                    seq = next_seq if not isinstance(seq, int) else seq
                    if seq < next_seq:
                        continue  # a transport retry replaying delivered chunks
                    next_seq = seq + 1
                    self._attributes = tuple(payload.get("attributes") or ())
                    if "columns" in payload:
                        yield WireChunk(
                            attributes=self._attributes,
                            seq=seq,
                            rows=binary.columns_to_rows(payload),
                            columns=payload["columns"],
                        )
                    else:
                        yield WireChunk(
                            attributes=self._attributes,
                            seq=seq,
                            rows=protocol.rows_from_wire(payload.get("rows", ())),
                        )
                elif kind == "end":
                    if self._attributes is None and payload.get("attributes") is not None:
                        self._attributes = tuple(payload["attributes"])
                    if self._span is not None and payload.get("spans"):
                        self._span.adopt(payload["spans"])
                    self._finished = True
                    return
                else:
                    self._finished = True
                    raise payload
        finally:
            if not self._finished:
                # The consumer bailed mid-stream: flag the transport's
                # abort handle so the request cancels server-side instead
                # of streaming into a queue nobody drains.
                self._guard.set()

    def __del__(self):  # pragma: no cover - GC timing dependent
        self._guard.set()


class RemoteLQP(LocalQueryProcessor):
    """A ``LocalQueryProcessor`` backed by a multiplexed TCP connection.

    >>> lqp = RemoteLQP("polygen://127.0.0.1:9470")     # doctest: +SKIP
    >>> registry.register(lqp)                          # doctest: +SKIP
    """

    def __init__(
        self,
        url: str | None = None,
        *,
        host: str | None = None,
        port: int | None = None,
        concurrency: int = 4,
        timeout: float = 10.0,
        retries: int = 1,
        wire_format: str = "auto",
    ):
        """Address either as a ``polygen://host:port`` URL or as
        ``host=``/``port=``.  ``concurrency`` is this LQP's native
        concurrency level — how many requests the transport keeps in
        flight at once; ``timeout``/``retries`` govern the transport (see
        :class:`~repro.net.transport.ConnectionMux`).  ``wire_format``
        picks the chunk encoding for this connection's relation results:
        ``"auto"`` (binary when the server negotiated protocol v2, JSON
        otherwise), ``"json"`` (force v1 frames), or ``"binary"`` (refuse
        to run against a JSON-only server)."""
        if wire_format not in ("auto", "json", "binary"):
            raise ValueError(
                f'wire_format must be "auto", "json" or "binary", got {wire_format!r}'
            )
        if url is not None:
            if host is not None or port is not None:
                raise ValueError("pass either a URL or host/port, not both")
            host, port = protocol.parse_url(url)
        if host is None or port is None:
            raise ValueError("RemoteLQP needs a polygen:// URL or host and port")
        self._wire_format = wire_format
        self._mux = ConnectionMux(
            host, port, concurrency=concurrency, timeout=timeout, retries=retries
        )
        try:
            hello = self._mux.hello()
            self._binary = protocol.supports_binary(
                hello, f"LQP server at {host}:{port}"
            )
            self._trace = protocol.supports_trace(
                hello, f"LQP server at {host}:{port}"
            )
            if wire_format == "binary" and not self._binary:
                raise ProtocolError(
                    f"LQP server at {host}:{port} cannot speak the binary "
                    'wire format and this client was built with wire_format="binary"'
                )
        except BaseException:
            # A failed handshake (dead port, version mismatch) must not
            # strand the mux's event-loop thread behind the raise.
            self._mux.close()
            raise
        self._name: str = hello["database"]
        self._relations: Tuple[str, ...] = tuple(hello.get("relations", ()))
        #: relation → cardinality served by the remote catalog op.  The
        #: reproduction's sources are static, so first answer wins; a
        #: drifting source would want a TTL here.
        self._cardinalities: Dict[str, Optional[int]] = {}
        self._cardinality_lock = threading.Lock()
        #: relation → stats summary, cached like cardinalities (static
        #: sources; first answer wins) so the shard pass costs at most one
        #: round trip per relation per process.
        self._stats: Dict[str, Optional[RelationStats]] = {}
        #: The server-side engine's capability descriptor, fetched once —
        #: capabilities are fixed for an engine's lifetime, unlike stats.
        self._capabilities: Optional[Capabilities] = None

    # -- identity / catalog -------------------------------------------------

    @property
    def name(self) -> str:
        return self._name

    @property
    def url(self) -> str:
        return protocol.format_url(self._mux.host, self._mux.port)

    @property
    def native_concurrency(self) -> int:
        return self._mux.concurrency

    def relation_names(self) -> Tuple[str, ...]:
        return self._relations

    def cardinality_estimate(self, relation_name: str) -> int | None:
        with self._cardinality_lock:
            if relation_name in self._cardinalities:
                return self._cardinalities[relation_name]
        value = self._mux.request("cardinality", relation=relation_name)["value"]
        with self._cardinality_lock:
            self._cardinalities[relation_name] = value
        return value

    def relation_stats(self, relation_name: str) -> Optional[RelationStats]:
        with self._cardinality_lock:
            if relation_name in self._stats:
                return self._stats[relation_name]
        payload = self._mux.request("relation_stats", relation=relation_name)["value"]
        stats = protocol.stats_from_payload(payload)
        with self._cardinality_lock:
            self._stats[relation_name] = stats
        return stats

    def capabilities(self) -> Capabilities:
        """The remote engine's capabilities, served over the wire and
        cached for the connection's lifetime.

        A pre-capability server answers the op with a typed error; the
        fallback descriptor then matches what such servers demonstrably
        do: select and project server-side, so dropped tuples and columns
        never cross the wire.  Those two flags are forced True either way
        — "native" here means "on the far side of the wire" (see the
        server's ``capabilities`` op).
        """
        with self._cardinality_lock:
            if self._capabilities is not None:
                return self._capabilities
        try:
            payload = self._mux.request("capabilities")["value"]
            capabilities = protocol.capabilities_from_payload(payload)
        except RemoteQueryError:
            capabilities = Capabilities()
        capabilities = replace(
            capabilities, native_select=True, native_projection=True
        )
        with self._cardinality_lock:
            if self._capabilities is None:
                self._capabilities = capabilities
            return self._capabilities

    def catalog(self) -> Dict[str, Optional[int]]:
        """relation → remote cardinality estimate, in one round trip."""
        catalog = self._mux.request("catalog")["value"]
        with self._cardinality_lock:
            self._cardinalities.update(catalog)
        return catalog

    def fetch_schema(self) -> PolygenSchema:
        """The polygen schema the server was configured to publish —
        travelling as the :mod:`repro.catalog.serialize` document, so a
        remote client can bootstrap a whole federation from its sources."""
        return schema_from_dict(self._mux.request("schema")["value"])

    def ping(self) -> float:
        """One round trip; measured seconds (network + server dispatch)."""
        return self._mux.ping()

    # -- the two LQP operations --------------------------------------------

    #: Projection travels over the wire: the server narrows at (or right
    #: after) the source, so dropped columns never cross the network.
    supports_column_projection = True

    @staticmethod
    def _columns_param(columns) -> Dict[str, Any]:
        # Omitted entirely when not narrowing: old servers ignore unknown
        # request keys, but there is no reason to send one at all.
        return {} if columns is None else {"columns": list(columns)}

    @property
    def binary_negotiated(self) -> bool:
        """Whether the server negotiated binary chunk frames at hello."""
        return self._binary

    @property
    def trace_negotiated(self) -> bool:
        """Whether the server advertised the trace capability at hello."""
        return self._trace

    def _trace_param(self) -> Dict[str, Any]:
        """The request's trace-context key: sent only when the server
        negotiated the capability *and* the calling context has an
        ambient span (no span, nothing to stitch server spans into)."""
        if not self._trace:
            return {}
        span = current_span()
        if span is None:
            return {}
        return {"trace": {"id": span.trace_id, "span": span.span_id}}

    @staticmethod
    def _adopt_spans(reply: Dict[str, Any], into: Optional[Span] = None) -> None:
        """Stitch server-shipped spans into the ambient (or given) span's
        trace; silently a no-op when the reply carries none."""
        spans = reply.get("spans")
        if not spans:
            return
        parent = into if into is not None else current_span()
        if parent is not None:
            parent.adopt(spans)

    def _format_param(self) -> Dict[str, Any]:
        """The per-request chunk-encoding key, honouring the connection's
        ``wire_format``.  Never sent to a v1 server: such peers negotiated
        JSON and, being older, would ignore the key anyway (a
        ``"binary"`` client refuses such a server at construction)."""
        if self._wire_format == "json" or not self._binary:
            return {}
        return {"format": "binary"}

    def retrieve(self, relation_name: str, columns=None) -> Relation:
        reply = self._mux.request(
            "retrieve",
            relation=relation_name,
            **self._columns_param(columns),
            **self._format_param(),
            **self._trace_param(),
        )
        return self._assemble(reply)

    def select(
        self,
        relation_name: str,
        attribute: str,
        theta: Theta,
        value: Any,
        columns=None,
    ) -> Relation:
        reply = self._mux.request(
            "select",
            relation=relation_name,
            attribute=attribute,
            theta=theta.symbol,
            value=protocol.wire_value(value),
            **self._columns_param(columns),
            **self._format_param(),
            **self._trace_param(),
        )
        return self._assemble(reply)

    def retrieve_range(
        self,
        relation_name: str,
        attribute: str,
        lower: Any = None,
        upper: Any = None,
        include_nil: bool = False,
        columns=None,
    ) -> Relation:
        reply = self._mux.request(
            "retrieve_range",
            relation=relation_name,
            attribute=attribute,
            lower=protocol.wire_value(lower),
            upper=protocol.wire_value(upper),
            include_nil=include_nil,
            **self._columns_param(columns),
            **self._format_param(),
            **self._trace_param(),
        )
        return self._assemble(reply)

    def select_range(
        self,
        relation_name: str,
        attribute: str,
        theta: Theta,
        value: Any,
        key_attribute: str,
        lower: Any = None,
        upper: Any = None,
        include_nil: bool = False,
        columns=None,
    ) -> Relation:
        reply = self._mux.request(
            "select_range",
            relation=relation_name,
            attribute=attribute,
            theta=theta.symbol,
            value=protocol.wire_value(value),
            key_attribute=key_attribute,
            lower=protocol.wire_value(lower),
            upper=protocol.wire_value(upper),
            include_nil=include_nil,
            **self._columns_param(columns),
            **self._format_param(),
            **self._trace_param(),
        )
        return self._assemble(reply)

    def retrieve_stream(
        self,
        relation_name: str,
        on_chunk: Callable[[Sequence[str], List[Tuple[Any, ...]]], None],
    ) -> Relation:
        """Retrieve with chunk-level streaming: ``on_chunk(attributes,
        rows)`` fires as each bounded chunk lands, while later chunks are
        still in flight — first tuples are usable at first-chunk latency
        instead of whole-result latency (measured in the network bench).
        Chunks travel in the negotiated wire format; the callback always
        sees row-major tuples.

        ``on_chunk`` executes on the transport's event-loop thread and
        must not block (a slow callback starves every other in-flight
        request on this connection); hand rows off and return.  For a
        pull-style iterator yielding *columnar* chunks on the calling
        thread, see :meth:`retrieve_chunks`."""
        reply = self._mux.request(
            "retrieve",
            relation=relation_name,
            on_chunk=on_chunk,
            **self._format_param(),
            **self._trace_param(),
        )
        return self._assemble(reply)

    def retrieve_chunks(
        self,
        relation_name: str,
        *,
        columns: Sequence[str] | None = None,
        chunk_size: int | None = None,
        abort: threading.Event | None = None,
    ) -> "RelationChunkStream":
        """A pull-style stream of a remote relation's chunks.

        Returns a :class:`RelationChunkStream` — iterate it on the calling
        thread to receive :class:`WireChunk` batches (attributes + column
        vectors + rows) as they land, while later chunks are still in
        flight.  This is the executor's pipelined-scan entry point:
        ``chunk_size`` asks the server for a specific granularity,
        and ``abort`` (any ``threading.Event``) cancels the stream
        mid-flight from the consumer's side.  Chunks use the connection's
        ``wire_format``.
        """
        params: Dict[str, Any] = {"relation": relation_name}
        params.update(self._columns_param(columns))
        params.update(self._format_param())
        params.update(self._trace_param())
        if chunk_size is not None:
            params["chunk_size"] = int(chunk_size)
        return RelationChunkStream(self._mux, "retrieve", params, abort)

    def select_chunks(
        self,
        relation_name: str,
        attribute: str,
        theta: Theta,
        value: Any,
        *,
        columns: Sequence[str] | None = None,
        chunk_size: int | None = None,
        abort: threading.Event | None = None,
    ) -> "RelationChunkStream":
        """Like :meth:`retrieve_chunks` for a pushed-down selection."""
        params: Dict[str, Any] = {
            "relation": relation_name,
            "attribute": attribute,
            "theta": theta.symbol,
            "value": protocol.wire_value(value),
        }
        params.update(self._columns_param(columns))
        params.update(self._format_param())
        params.update(self._trace_param())
        if chunk_size is not None:
            params["chunk_size"] = int(chunk_size)
        return RelationChunkStream(self._mux, "select", params, abort)

    def _assemble(self, reply: Dict[str, Any]) -> Relation:
        self._adopt_spans(reply)
        return protocol.relation_from_wire(reply.get("attributes"), reply.get("rows", ()))

    # -- transport observability / lifecycle --------------------------------

    def transport_stats(self) -> TransportStats:
        """A snapshot of this LQP's transport counters."""
        return self._mux.stats()

    @property
    def transport(self) -> ConnectionMux:
        return self._mux

    def close(self) -> None:
        self._mux.close()

    def __enter__(self) -> "RemoteLQP":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._mux.closed else "open"
        return (
            f"RemoteLQP({self._name!r} at {self.url}, "
            f"concurrency={self.native_concurrency}, {state})"
        )
