"""Unit tests for the structured event log and the slow-query payload."""

import json
import threading

from repro.obs.events import EventLog, slow_query_event


class TestEventLog:
    def test_emit_and_filtered_records(self):
        log = EventLog()
        log.emit("slow_query", query="q1")
        log.emit("other", detail=1)
        log.emit("slow_query", query="q2")
        assert len(log) == 3
        slow = log.records("slow_query")
        assert [r["query"] for r in slow] == ["q1", "q2"]
        assert all(r["at"] > 0 for r in slow)

    def test_tail_is_bounded_but_len_counts_everything(self):
        log = EventLog(tail=4)
        for i in range(10):
            log.emit("e", n=i)
        assert len(log) == 10
        assert [r["n"] for r in log.records()] == [6, 7, 8, 9]

    def test_jsonl_sink_appends_parseable_lines(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(path)
        log.emit("slow_query", elapsed_ms=12.5)
        log.emit("slow_query", elapsed_ms=80.0)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        records = [json.loads(line) for line in lines]
        assert records[1]["elapsed_ms"] == 80.0
        assert records[0]["event"] == "slow_query"

    def test_concurrent_emitters_never_tear_lines(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(path)
        workers, rounds = 6, 50

        def work(worker):
            for i in range(rounds):
                log.emit("e", worker=worker, i=i)

        threads = [
            threading.Thread(target=work, args=(w,)) for w in range(workers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        lines = path.read_text().strip().splitlines()
        assert len(lines) == workers * rounds
        for line in lines:
            json.loads(line)  # every line is a whole record
        assert len(log) == workers * rounds


class TestSlowQueryEvent:
    def test_payload_shape(self):
        payload = slow_query_event(
            query="SELECT ...",
            elapsed_ms=123.4567,
            threshold_ms=100,
            fingerprint="abc123",
            shape="pushdown",
            cache="miss",
            busy_by_location={"AD": 0.12345678, "PQP": 0.001},
            sources=["CD", "AD"],
            session="alice",
        )
        assert payload == {
            "query": "SELECT ...",
            "elapsed_ms": 123.457,
            "threshold_ms": 100.0,
            "fingerprint": "abc123",
            "shape": "pushdown",
            "cache": "miss",
            "busy_by_location": {"AD": 0.123457, "PQP": 0.001},
            "sources": ["AD", "CD"],
            "session": "alice",
        }
