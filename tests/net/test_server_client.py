"""Integration tests of the network layer: a real LQPServer on loopback,
a RemoteLQP client, concurrency, and fault injection (dead sockets,
dropped connections, timeouts, cancellation).

Every transport in this module carries an explicit short timeout and
every polling loop a deadline, so a regression can fail these tests but
never hang them — CI must survive a dead socket.
"""

import socket
import struct
import threading
import time

import pytest

from repro.core.predicate import Theta
from repro.datasets.paper import paper_databases
from repro.errors import (
    ConnectionLostError,
    ProtocolError,
    RemoteQueryError,
    RemoteTimeoutError,
    ServiceClosedError,
)
from repro.lqp.cost import AccountingLQP, LatencyLQP
from repro.lqp.registry import LQPRegistry
from repro.lqp.relational_lqp import RelationalLQP
from repro.net import LQPServer, RemoteLQP, binary, protocol

#: Transport timeout used throughout: long enough for a loaded CI runner,
#: short enough that a hung socket fails fast.
TIMEOUT = 5.0


def ad_lqp() -> RelationalLQP:
    return RelationalLQP(paper_databases()["AD"])


@pytest.fixture
def server():
    with LQPServer(ad_lqp(), chunk_size=3) as running:
        yield running


def wait_for(predicate, deadline=TIMEOUT):
    limit = time.monotonic() + deadline
    while time.monotonic() < limit:
        if predicate():
            return True
        time.sleep(0.01)
    return False


class _ScriptedServer:
    """A hand-driven TCP peer for fault injection: each accepted
    connection runs the next handler from ``scripts`` — full control over
    hello frames, partial streams, and connection drops."""

    def __init__(self, *scripts):
        self.scripts = list(scripts)
        self.frames_read = []
        self.listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.listener.bind(("127.0.0.1", 0))
        self.listener.listen()
        self.listener.settimeout(TIMEOUT)
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    @property
    def url(self) -> str:
        host, port = self.listener.getsockname()[:2]
        return protocol.format_url(host, port)

    def _serve(self):
        for script in self.scripts:
            try:
                sock, _ = self.listener.accept()
            except OSError:
                return
            sock.settimeout(TIMEOUT)
            try:
                script(self, sock)
            except OSError:
                pass
            finally:
                sock.close()

    def read_frame(self, sock) -> dict:
        def read_exactly(count: int) -> bytes:
            data = b""
            while len(data) < count:
                piece = sock.recv(count - len(data))
                if not piece:
                    raise ConnectionError("peer hung up")
                data += piece
            return data

        frame = protocol.read_frame(read_exactly)
        self.frames_read.append(frame)
        return frame

    def close(self):
        self.listener.close()
        self.thread.join(timeout=TIMEOUT)


class TestLoopbackEquivalence:
    def test_hello_names_the_database_and_relations(self, server):
        with RemoteLQP(server.url, timeout=TIMEOUT) as remote:
            assert remote.name == "AD"
            assert set(remote.relation_names()) == {"ALUMNUS", "CAREER", "BUSINESS"}

    def test_retrieve_matches_in_process(self, server):
        direct = ad_lqp()
        with RemoteLQP(server.url, timeout=TIMEOUT) as remote:
            for relation_name in direct.relation_names():
                assert remote.retrieve(relation_name) == direct.retrieve(
                    relation_name
                )

    def test_select_matches_in_process(self, server):
        direct = ad_lqp()
        with RemoteLQP(server.url, timeout=TIMEOUT) as remote:
            assert remote.select(
                "ALUMNUS", "DEG", Theta.EQ, "MBA"
            ) == direct.select("ALUMNUS", "DEG", Theta.EQ, "MBA")

    def test_empty_select_preserves_heading(self, server):
        with RemoteLQP(server.url, timeout=TIMEOUT) as remote:
            empty = remote.select("ALUMNUS", "DEG", Theta.EQ, "Atlantis")
            assert empty.cardinality == 0
            assert empty.attributes == ("AID#", "ANAME", "DEG", "MAJ")

    def test_cardinality_and_catalog(self, server):
        direct = ad_lqp()
        with RemoteLQP(server.url, timeout=TIMEOUT) as remote:
            assert remote.cardinality_estimate("ALUMNUS") == direct.cardinality_estimate(
                "ALUMNUS"
            )
            catalog = remote.catalog()
            assert catalog == {
                name: direct.cardinality_estimate(name)
                for name in direct.relation_names()
            }

    def test_retrieve_range_matches_in_process(self):
        from repro.relational.database import LocalDatabase
        from repro.relational.schema import RelationSchema

        db = LocalDatabase("XD")
        db.load(
            RelationSchema("NUMS", ["ID", "K"], key=["ID"]),
            [(f"i{n}", n if n % 5 else None) for n in range(30)],
        )
        direct = RelationalLQP(db)
        windows = [
            (None, 10, True),
            (10, 20, False),
            (20, None, False),
            (None, None, True),
            (100, 200, False),  # empty shard
        ]
        with LQPServer(direct, chunk_size=4) as running:
            with RemoteLQP(running.url, timeout=TIMEOUT) as remote:
                for lower, upper, include_nil in windows:
                    assert remote.retrieve_range(
                        "NUMS", "K", lower=lower, upper=upper, include_nil=include_nil
                    ) == direct.retrieve_range(
                        "NUMS", "K", lower=lower, upper=upper, include_nil=include_nil
                    )

    def test_select_range_matches_in_process(self, server):
        direct = ad_lqp()
        with RemoteLQP(server.url, timeout=TIMEOUT) as remote:
            for lower, upper, include_nil in [
                (None, "500", True),
                ("500", None, False),
                (None, None, True),
            ]:
                assert remote.select_range(
                    "ALUMNUS", "DEG", Theta.NE, "PhD", "AID#",
                    lower=lower, upper=upper, include_nil=include_nil,
                ) == direct.select_range(
                    "ALUMNUS", "DEG", Theta.NE, "PhD", "AID#",
                    lower=lower, upper=upper, include_nil=include_nil,
                )

    def test_columns_narrow_over_the_wire(self, server):
        direct = ad_lqp()
        with RemoteLQP(server.url, timeout=TIMEOUT) as remote:
            assert remote.supports_column_projection
            narrowed = remote.retrieve("ALUMNUS", columns=["ANAME", "DEG"])
            assert narrowed == direct.retrieve("ALUMNUS", columns=["ANAME", "DEG"])
            assert narrowed.attributes == ("ANAME", "DEG")
            selected = remote.select(
                "ALUMNUS", "DEG", Theta.EQ, "MBA", columns=["AID#"]
            )
            assert selected.attributes == ("AID#",)

    def test_columns_projected_server_side_for_legacy_lqp(self):
        # An LQP that never heard of ``columns=`` still serves narrowed
        # results: the server projects after the verb, so only the
        # requested columns cross the wire either way.
        class Legacy(RelationalLQP):
            supports_column_projection = False

            def retrieve(self, relation_name):  # the pre-projection signature
                return self._database.relation(relation_name)

        from repro.lqp.base import project_columns

        legacy = Legacy(paper_databases()["AD"])
        with LQPServer(legacy, chunk_size=3) as running:
            with RemoteLQP(running.url, timeout=TIMEOUT) as remote:
                narrowed = remote.retrieve("ALUMNUS", columns=["DEG"])
                assert narrowed.attributes == ("DEG",)
                assert narrowed == project_columns(
                    legacy.retrieve("ALUMNUS"), ["DEG"]
                )

    def test_relation_stats_served_and_cached(self, server):
        direct = ad_lqp()
        with RemoteLQP(server.url, timeout=TIMEOUT) as remote:
            for name in direct.relation_names():
                assert remote.relation_stats(name) == direct.relation_stats(name)
            requests = remote.transport_stats().requests
            # Static sources: the second ask is answered from the cache.
            remote.relation_stats("ALUMNUS")
            assert remote.transport_stats().requests == requests

    def test_relation_stats_unknown_relation_is_a_remote_error(self, server):
        with RemoteLQP(server.url, timeout=TIMEOUT) as remote:
            with pytest.raises(RemoteQueryError):
                remote.relation_stats("NOPE")

    def test_remote_error_carries_server_side_type(self, server):
        with RemoteLQP(server.url, timeout=TIMEOUT) as remote:
            with pytest.raises(RemoteQueryError) as caught:
                remote.retrieve("NO_SUCH_RELATION")
            assert caught.value.error_type == "UnknownRelationError"
            assert caught.value.database == "AD"

    def test_schema_round_trips_when_served(self):
        from repro.datasets.paper import paper_polygen_schema

        schema = paper_polygen_schema()
        with LQPServer(ad_lqp(), schema=schema) as running:
            with RemoteLQP(running.url, timeout=TIMEOUT) as remote:
                fetched = remote.fetch_schema()
        assert sorted(s.name for s in fetched) == sorted(s.name for s in schema)

    def test_schema_refused_when_not_served(self, server):
        with RemoteLQP(server.url, timeout=TIMEOUT) as remote:
            with pytest.raises(RemoteQueryError, match="schema"):
                remote.fetch_schema()


class TestChunkStreaming:
    def test_chunks_arrive_in_order_and_bounded(self, server):
        seen = []
        with RemoteLQP(server.url, timeout=TIMEOUT) as remote:
            relation = remote.retrieve_stream(
                "ALUMNUS", lambda attributes, rows: seen.append(list(rows))
            )
        # chunk_size=3 over 8 tuples: 3+3+2.
        assert [len(batch) for batch in seen] == [3, 3, 2]
        assert [row for batch in seen for row in batch] == list(relation.rows)

    def test_transport_counts_chunks_and_bytes(self, server, monkeypatch):
        with RemoteLQP(server.url, timeout=TIMEOUT) as remote:
            remote.retrieve("ALUMNUS")
            stats = remote.transport_stats()
            assert stats.requests == 1
            assert stats.chunks == 3
            assert stats.tuples == 8
            assert stats.bytes_sent > 0 and stats.bytes_received > 0
            # A chunk stream: counted exactly once per tuple and chunk, and
            # each binary chunk turned into rows once (by the stream), not
            # a second time by the transport just to count it.
            rowified = []
            columns_to_rows = binary.columns_to_rows

            def counting(message):
                rowified.append(message["count"])
                return columns_to_rows(message)

            monkeypatch.setattr(binary, "columns_to_rows", counting)
            rows = [
                row for chunk in remote.retrieve_chunks("ALUMNUS") for row in chunk.rows
            ]
            streamed = remote.transport_stats()
        assert len(rows) == 8
        assert streamed.requests - stats.requests == 1
        assert streamed.chunks - stats.chunks == 3
        assert streamed.tuples - stats.tuples == 8
        assert streamed.binary_chunks - stats.binary_chunks == 3
        assert rowified == [3, 3, 2]


class TestConcurrency:
    def test_requests_overlap_up_to_the_concurrency_level(self):
        delay = 0.15
        slow = LatencyLQP(ad_lqp(), per_query=delay)
        with LQPServer(slow) as running:
            with RemoteLQP(running.url, concurrency=4, timeout=TIMEOUT) as remote:
                workers = []
                began = time.perf_counter()
                for _ in range(4):
                    worker = threading.Thread(
                        target=remote.retrieve, args=("ALUMNUS",)
                    )
                    worker.start()
                    workers.append(worker)
                for worker in workers:
                    worker.join(timeout=TIMEOUT)
                elapsed = time.perf_counter() - began
                stats = remote.transport_stats()
        # Four concurrent requests over one multiplexed connection: the
        # sleeps overlap server-side, so wall clock is ~1 delay, not 4.
        assert elapsed < 4 * delay
        assert stats.in_flight_hwm >= 2

    def test_concurrency_one_serializes(self):
        delay = 0.1
        slow = LatencyLQP(ad_lqp(), per_query=delay)
        with LQPServer(slow) as running:
            with RemoteLQP(running.url, concurrency=1, timeout=TIMEOUT) as remote:
                workers = [
                    threading.Thread(target=remote.retrieve, args=("ALUMNUS",))
                    for _ in range(3)
                ]
                began = time.perf_counter()
                for worker in workers:
                    worker.start()
                for worker in workers:
                    worker.join(timeout=TIMEOUT)
                elapsed = time.perf_counter() - began
                stats = remote.transport_stats()
        assert elapsed >= 3 * delay * 0.9
        assert stats.in_flight_hwm == 1

    def test_native_concurrency_survives_wrapper_chain(self, server):
        with RemoteLQP(server.url, concurrency=6, timeout=TIMEOUT) as remote:
            wrapped = AccountingLQP(LatencyLQP(remote, per_query=0.0))
            assert wrapped.native_concurrency == 6
        assert ad_lqp().native_concurrency == 1


class TestRegistryIntegration:
    def test_register_by_url(self, server):
        registry = LQPRegistry()
        wrapped = registry.register(server.url, concurrency=2, timeout=TIMEOUT)
        assert wrapped.name == "AD"
        assert "AD" in registry
        assert wrapped.native_concurrency == 2
        assert registry.get("AD").retrieve("ALUMNUS") == ad_lqp().retrieve("ALUMNUS")
        inner = wrapped.inner
        assert isinstance(inner, RemoteLQP)
        inner.close()

    def test_remote_options_rejected_for_in_process_lqps(self):
        registry = LQPRegistry()
        with pytest.raises(TypeError, match="polygen://"):
            registry.register(ad_lqp(), concurrency=4)

    def test_bad_url_rejected(self):
        registry = LQPRegistry()
        with pytest.raises(ProtocolError):
            registry.register("http://127.0.0.1:1")


class TestFaults:
    def test_connect_to_dead_port_raises_typed_error(self):
        # Bind-then-close guarantees the port is unserved.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        with pytest.raises(ConnectionLostError):
            RemoteLQP(
                host="127.0.0.1", port=port, timeout=1.0, retries=0
            )

    def test_version_mismatch_raises_protocol_error(self):
        def bad_hello(scripted, sock):
            # A far-future server whose *floor* is beyond us: no overlap.
            hello = protocol.hello_message("XX", [])
            hello["protocol"] = protocol.PROTOCOL_VERSION + 7
            hello["min_protocol"] = protocol.PROTOCOL_VERSION + 7
            sock.sendall(protocol.encode_frame(hello))
            scripted.read_frame(sock)  # wait for the client to give up

        scripted = _ScriptedServer(bad_hello)
        try:
            with pytest.raises(ProtocolError, match="no common protocol version"):
                RemoteLQP(scripted.url, timeout=1.0, retries=0)
        finally:
            scripted.close()

    def test_v1_server_negotiates_json_fallback(self):
        # A PR-5-era server: protocol 1, no min_protocol, no formats.
        v1_hello_frame = {
            "kind": "hello",
            "protocol": 1,
            "database": "XX",
            "relations": ["T"],
        }

        def v1_hello(scripted, sock):
            sock.sendall(protocol.encode_frame(v1_hello_frame))
            request = scripted.read_frame(sock)
            # The v2 client must not ask a v1 peer for binary frames.
            assert "format" not in request
            sock.sendall(
                protocol.encode_frame(
                    protocol.chunk_message(request["id"], 0, ["A"], [[1], [2]])
                )
            )
            sock.sendall(
                protocol.encode_frame(
                    protocol.end_message(request["id"], 1, 2, ["A"])
                )
            )
            scripted.read_frame(sock)  # block until the client closes

        def v1_hello_only(scripted, sock):
            sock.sendall(protocol.encode_frame(v1_hello_frame))
            scripted.read_frame(sock)  # wait for the client to give up

        scripted = _ScriptedServer(v1_hello, v1_hello_only)
        try:
            remote = RemoteLQP(scripted.url, timeout=TIMEOUT, retries=0)
            assert not remote.binary_negotiated
            relation = remote.retrieve("T")
            assert sorted(relation.rows) == [(1,), (2,)]
            assert remote.transport_stats().binary_chunks == 0
            remote.close()
            # A client that insists on binary refuses the v1 peer outright.
            with pytest.raises(ProtocolError, match="binary"):
                RemoteLQP(
                    scripted.url, timeout=TIMEOUT, retries=0, wire_format="binary"
                )
        finally:
            scripted.close()

    def test_connection_dropped_mid_stream_raises_typed_error(self):
        def drop_mid_stream(scripted, sock):
            sock.sendall(protocol.encode_frame(protocol.hello_message("XX", ["T"])))
            request = scripted.read_frame(sock)
            # One chunk, then hang up: no end frame ever arrives.
            sock.sendall(
                protocol.encode_frame(
                    protocol.chunk_message(request["id"], 0, ["A"], [[1]])
                )
            )

        scripted = _ScriptedServer(drop_mid_stream)
        try:
            remote = RemoteLQP(scripted.url, timeout=TIMEOUT, retries=0)
            with pytest.raises(ConnectionLostError, match="dropped"):
                remote.retrieve("T")
            remote.close()
        finally:
            scripted.close()

    def test_dropped_connection_is_retried_on_a_fresh_one(self):
        def drop_after_request(scripted, sock):
            sock.sendall(protocol.encode_frame(protocol.hello_message("XX", ["T"])))
            scripted.read_frame(sock)  # swallow the request, hang up

        def serve_properly(scripted, sock):
            sock.sendall(protocol.encode_frame(protocol.hello_message("XX", ["T"])))
            request = scripted.read_frame(sock)
            sock.sendall(
                protocol.encode_frame(
                    protocol.chunk_message(request["id"], 0, ["A"], [[1], [2]])
                )
            )
            sock.sendall(
                protocol.encode_frame(
                    protocol.end_message(request["id"], 1, 2, ["A"])
                )
            )

        scripted = _ScriptedServer(drop_after_request, serve_properly)
        try:
            remote = RemoteLQP(scripted.url, timeout=TIMEOUT, retries=1)
            relation = remote.retrieve("T")
            assert relation.rows == ((1,), (2,))
            stats = remote.transport_stats()
            assert stats.retries == 1
            assert stats.reconnects == 1
            remote.close()
        finally:
            scripted.close()

    def test_silent_server_raises_timeout_and_sends_cancel(self):
        def hello_then_silence(scripted, sock):
            sock.sendall(protocol.encode_frame(protocol.hello_message("XX", ["T"])))
            scripted.read_frame(sock)  # the request
            scripted.read_frame(sock)  # the cancel the timeout must send

        scripted = _ScriptedServer(hello_then_silence)
        try:
            remote = RemoteLQP(scripted.url, timeout=0.4, retries=0)
            with pytest.raises(RemoteTimeoutError):
                remote.retrieve("T")
            assert wait_for(
                lambda: any(
                    frame.get("op") == "cancel" for frame in scripted.frames_read
                )
            ), "timeout did not propagate a cancel to the server"
            assert remote.transport_stats().timeouts == 1
            remote.close()
        finally:
            scripted.close()

    def test_client_timeout_cancels_server_side_stream(self):
        # A real LQPServer with an injected 1s delay and a 0.2s client
        # timeout: the client gives up and sends cancel; once the LQP call
        # returns, the server sees the cancel *before* streaming and
        # counts the request as cancelled instead of shipping tuples.
        slow = LatencyLQP(ad_lqp(), per_query=1.0)
        with LQPServer(slow) as running:
            remote = RemoteLQP(running.url, timeout=0.2, retries=0)
            with pytest.raises(RemoteTimeoutError):
                remote.retrieve("ALUMNUS")
            assert wait_for(lambda: running.stats.cancelled >= 1), (
                "cancel never reached the serving thread"
            )
            assert running.stats.tuples_sent == 0
            remote.close()

    def test_closed_transport_refuses_new_requests(self, server):
        remote = RemoteLQP(server.url, timeout=TIMEOUT)
        remote.close()
        with pytest.raises(ServiceClosedError):
            remote.retrieve("ALUMNUS")

    def test_server_stop_is_idempotent_and_fast(self):
        running = LQPServer(ad_lqp()).start()
        with RemoteLQP(running.url, timeout=TIMEOUT) as remote:
            remote.retrieve("ALUMNUS")
        began = time.perf_counter()
        running.stop()
        running.stop()
        assert time.perf_counter() - began < TIMEOUT


class TestReviewRegressions:
    """Pinned behaviours for bugs found in review."""

    def test_long_healthy_chunk_stream_outlives_the_watchdog_window(
        self, monkeypatch
    ):
        # Per-frame timeouts only: a stream whose frames keep flowing may
        # run far longer than timeout + slack without tripping the outer
        # watchdog (which fires on *inactivity*, not duration).
        from repro.net import transport as transport_module

        monkeypatch.setattr(transport_module, "_OUTER_SLACK", 0.5)
        pause, chunks = 0.25, 6  # total 1.5s >> timeout 0.4 + slack 0.5

        def slow_stream(scripted, sock):
            sock.sendall(protocol.encode_frame(protocol.hello_message("XX", ["T"])))
            request = scripted.read_frame(sock)
            for seq in range(chunks):
                time.sleep(pause)
                sock.sendall(
                    protocol.encode_frame(
                        protocol.chunk_message(request["id"], seq, ["A"], [[seq]])
                    )
                )
            sock.sendall(
                protocol.encode_frame(
                    protocol.end_message(request["id"], chunks, chunks, ["A"])
                )
            )

        scripted = _ScriptedServer(slow_stream)
        try:
            remote = RemoteLQP(scripted.url, timeout=0.4, retries=0)
            relation = remote.retrieve("T")
            assert relation.cardinality == chunks
            assert remote.transport_stats().timeouts == 0
            remote.close()
        finally:
            scripted.close()

    def test_lqp_oserror_becomes_a_remote_error_frame_not_a_timeout(self):
        # A file-backed LQP failing with OSError must reach the client as
        # RemoteQueryError (an error frame), not be mistaken for a dead
        # peer and leave the client stalling to its timeout.
        class BrokenLQP(RelationalLQP):
            def retrieve(self, relation_name):
                raise FileNotFoundError(f"backing file for {relation_name} missing")

        with LQPServer(BrokenLQP(paper_databases()["AD"])) as running:
            with RemoteLQP(running.url, timeout=TIMEOUT, retries=0) as remote:
                began = time.perf_counter()
                with pytest.raises(RemoteQueryError) as caught:
                    remote.retrieve("ALUMNUS")
                assert time.perf_counter() - began < TIMEOUT / 2
            assert caught.value.error_type == "FileNotFoundError"
            assert running.stats.errors == 1

    def test_failed_url_registration_closes_the_dialed_connection(self, server):
        registry = LQPRegistry()
        registry.register(server.url, timeout=TIMEOUT)
        mux_threads = lambda: sum(
            1
            for thread in threading.enumerate()
            if thread.name.startswith("lqp-mux-") and thread.is_alive()
        )
        before = mux_threads()
        with pytest.raises(Exception, match="already registered"):
            registry.register(server.url, timeout=TIMEOUT)
        # The losing RemoteLQP's event-loop thread must be gone, not
        # leaked until GC.
        assert wait_for(lambda: mux_threads() == before)
        registry.get("AD").inner.close()

    def test_bad_hello_leaves_no_half_open_connection(self):
        from repro.net.transport import ConnectionMux

        def bad_hello(scripted, sock):
            hello = protocol.hello_message("XX", [])
            hello["protocol"] = protocol.PROTOCOL_VERSION + 1
            hello["min_protocol"] = protocol.PROTOCOL_VERSION + 1
            sock.sendall(protocol.encode_frame(hello))
            time.sleep(0.2)

        scripted = _ScriptedServer(bad_hello, bad_hello)
        host, port = protocol.parse_url(scripted.url)
        try:
            mux = ConnectionMux(host, port, timeout=TIMEOUT, retries=0)
            with pytest.raises(ProtocolError):
                mux.hello()
            # The failed handshake must have dropped the connection: the
            # next attempt re-handshakes and fails *fast* with the same
            # typed error, instead of writing into a half-open connection
            # nobody reads and stalling to the timeout.
            began = time.perf_counter()
            with pytest.raises(ProtocolError):
                mux.request("ping")
            assert time.perf_counter() - began < TIMEOUT / 2
            mux.close()
        finally:
            scripted.close()


def _mux_threads() -> int:
    return sum(
        1
        for thread in threading.enumerate()
        if thread.name.startswith("lqp-mux-") and thread.is_alive()
    )


class TestLifecycleLeaks:
    """Connections and event-loop threads must die with their owners."""

    def test_failed_remote_lqp_construction_leaks_no_loop_thread(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        before = _mux_threads()
        with pytest.raises(ConnectionLostError):
            RemoteLQP(host="127.0.0.1", port=port, timeout=1.0, retries=0)
        assert wait_for(lambda: _mux_threads() == before), (
            "a failed handshake stranded the mux's event-loop thread"
        )

    def test_abandoned_mux_is_reaped_by_gc(self, server):
        import gc

        from repro.net.transport import ConnectionMux

        host, port = server.address
        before = _mux_threads()
        mux = ConnectionMux(host, port, timeout=TIMEOUT)
        mux.hello()
        assert _mux_threads() == before + 1
        del mux  # no close(): the GC finalizer must stop the loop
        gc.collect()
        assert wait_for(lambda: _mux_threads() == before), (
            "the loop thread kept the abandoned mux alive forever"
        )

    def test_federation_close_closes_url_dialed_transports(self, server):
        from repro.datasets.paper import paper_polygen_schema
        from repro.service.federation import PolygenFederation

        registry = LQPRegistry()
        wrapped = registry.register(server.url, timeout=TIMEOUT)
        remote = wrapped.inner
        with PolygenFederation(paper_polygen_schema(), registry) as federation:
            assert not remote.transport.closed
        assert remote.transport.closed, (
            "federation.close() left the registry-dialed connection open"
        )

    def test_registry_close_spares_caller_constructed_lqps(self, server):
        registry = LQPRegistry()
        mine = RemoteLQP(server.url, timeout=TIMEOUT)
        registry.register(mine)
        registry.close()
        assert not mine.transport.closed  # mine to close, not the registry's
        mine.close()


class TestGarbageInbound:
    def test_server_drops_garbage_speaking_peers(self, server):
        host, port = server.address
        sock = socket.create_connection((host, port), timeout=TIMEOUT)
        sock.settimeout(TIMEOUT)
        # Read the hello, then send an impossible length prefix.
        header = sock.recv(4)
        length = struct.unpack(">I", header)[0]
        while length:
            length -= len(sock.recv(length))
        sock.sendall(struct.pack(">I", protocol.MAX_FRAME_BYTES + 5))
        # The server must hang up rather than allocate.
        sock.settimeout(TIMEOUT)
        assert sock.recv(1) == b""
        sock.close()
        # ... and keep serving well-behaved clients.
        with RemoteLQP(server.url, timeout=TIMEOUT) as remote:
            assert remote.retrieve("ALUMNUS").cardinality == 8


class TestTransportFaultCounters:
    """TransportStats retry/timeout/reconnect accounting under injected
    faults — the counters the federation's metrics collector exports."""

    def test_repeated_timeouts_accumulate_and_are_not_retried(self):
        def hello_then_silence(scripted, sock):
            sock.sendall(protocol.encode_frame(protocol.hello_message("XX", ["T"])))
            while True:  # swallow requests and cancels, never reply
                scripted.read_frame(sock)

        scripted = _ScriptedServer(hello_then_silence)
        try:
            remote = RemoteLQP(scripted.url, timeout=0.4, retries=2)
            for expected in (1, 2):
                with pytest.raises(RemoteTimeoutError):
                    remote.retrieve("T")
                assert remote.transport_stats().timeouts == expected
            stats = remote.transport_stats()
            # A timeout is not a dropped connection: no retry, no redial.
            assert stats.retries == 0
            assert stats.reconnects == 0
            remote.close()
        finally:
            scripted.close()

    def test_exhausted_retries_count_every_extra_attempt(self):
        def drop_after_request(scripted, sock):
            sock.sendall(protocol.encode_frame(protocol.hello_message("XX", ["T"])))
            scripted.read_frame(sock)  # swallow the request, hang up

        scripted = _ScriptedServer(
            drop_after_request, drop_after_request, drop_after_request
        )
        try:
            remote = RemoteLQP(scripted.url, timeout=TIMEOUT, retries=2)
            with pytest.raises(ConnectionLostError):
                remote.retrieve("T")
            stats = remote.transport_stats()
            assert stats.retries == 2  # two extra attempts after the first
            assert stats.reconnects == 2  # each retry dialed a fresh socket
            remote.close()
        finally:
            scripted.close()

    def test_counters_settle_after_recovery(self):
        def drop_after_request(scripted, sock):
            sock.sendall(protocol.encode_frame(protocol.hello_message("XX", ["T"])))
            scripted.read_frame(sock)

        def serve_properly(scripted, sock):
            sock.sendall(protocol.encode_frame(protocol.hello_message("XX", ["T"])))
            while True:
                request = scripted.read_frame(sock)
                sock.sendall(
                    protocol.encode_frame(
                        protocol.chunk_message(request["id"], 0, ["A"], [[1]])
                    )
                )
                sock.sendall(
                    protocol.encode_frame(
                        protocol.end_message(request["id"], 1, 1, ["A"])
                    )
                )

        scripted = _ScriptedServer(drop_after_request, serve_properly)
        try:
            remote = RemoteLQP(scripted.url, timeout=TIMEOUT, retries=1)
            assert remote.retrieve("T").rows == ((1,),)
            after_fault = remote.transport_stats()
            assert (after_fault.retries, after_fault.reconnects) == (1, 1)
            # A healthy follow-up request moves requests, not the fault
            # counters.
            assert remote.retrieve("T").rows == ((1,),)
            settled = remote.transport_stats()
            assert (settled.retries, settled.reconnects) == (1, 1)
            assert settled.timeouts == 0
            assert settled.requests == after_fault.requests + 1
            remote.close()
        finally:
            scripted.close()


class TestWireTraceNegotiation:
    """Trace-context propagation is capability-gated: v2 peers that
    advertise ``trace`` receive the context and ship spans back; v1
    peers must never see the key."""

    def test_v1_peer_never_receives_trace_context(self):
        from repro.obs.trace import Tracer, use_span

        def v1_hello(scripted, sock):
            hello = {
                "kind": "hello",
                "protocol": 1,
                "database": "XX",
                "relations": ["T"],
            }
            sock.sendall(protocol.encode_frame(hello))
            request = scripted.read_frame(sock)
            sock.sendall(
                protocol.encode_frame(
                    protocol.end_message(request["id"], 0, 0, ["A"])
                )
            )
            scripted.read_frame(sock)  # block until the client closes

        scripted = _ScriptedServer(v1_hello)
        try:
            remote = RemoteLQP(scripted.url, timeout=TIMEOUT, retries=0)
            assert not remote.trace_negotiated
            root = Tracer().start("query")
            with use_span(root):
                remote.retrieve("T")
            requests = [
                frame for frame in scripted.frames_read
                if frame.get("op") == "retrieve"
            ]
            assert requests and all("trace" not in f for f in requests)
            remote.close()
        finally:
            scripted.close()

    def test_trace_context_sent_and_shipped_spans_adopted(self):
        from repro.obs.trace import Tracer, use_span

        shipped = {
            "name": "serve.retrieve",
            "span": "remote-1",
            "parent": None,  # patched to the propagated id by the script
            "start": 1.0,
            "finish": 2.0,
            "status": "ok",
            "attributes": {"database": "XX"},
        }

        def traced_server(scripted, sock):
            sock.sendall(protocol.encode_frame(protocol.hello_message("XX", ["T"])))
            request = scripted.read_frame(sock)
            context = request["trace"]
            payload = dict(shipped, trace=context["id"], parent=context["span"])
            sock.sendall(
                protocol.encode_frame(
                    protocol.end_message(
                        request["id"], 0, 0, ["A"], spans=[payload]
                    )
                )
            )
            scripted.read_frame(sock)  # block until the client closes

        scripted = _ScriptedServer(traced_server)
        try:
            remote = RemoteLQP(scripted.url, timeout=TIMEOUT, retries=0)
            assert remote.trace_negotiated
            root = Tracer().start("query")
            with use_span(root):
                remote.retrieve("T")
            request = next(
                frame for frame in scripted.frames_read
                if frame.get("op") == "retrieve"
            )
            assert request["trace"] == {
                "id": root.trace_id,
                "span": root.span_id,
            }
            adopted = [span for span in root.trace_spans() if span.remote]
            assert [span.name for span in adopted] == ["serve.retrieve"]
            assert adopted[0].parent_id == root.span_id
            assert adopted[0].trace_id == root.trace_id
            remote.close()
        finally:
            scripted.close()

    def test_no_ambient_span_sends_no_trace_context(self):
        def traced_server(scripted, sock):
            sock.sendall(protocol.encode_frame(protocol.hello_message("XX", ["T"])))
            request = scripted.read_frame(sock)
            sock.sendall(
                protocol.encode_frame(
                    protocol.end_message(request["id"], 0, 0, ["A"])
                )
            )
            scripted.read_frame(sock)

        scripted = _ScriptedServer(traced_server)
        try:
            remote = RemoteLQP(scripted.url, timeout=TIMEOUT, retries=0)
            remote.retrieve("T")
            request = next(
                frame for frame in scripted.frames_read
                if frame.get("op") == "retrieve"
            )
            assert "trace" not in request
            remote.close()
        finally:
            scripted.close()
