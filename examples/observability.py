"""Unified telemetry over a distributed federation.

The paper's worked CEO query runs against two loopback LQP servers (AD
and CD over TCP, PD in-process), and the federation's three telemetry
surfaces show what happened:

1. **one stitched trace** — the coordinator's ``query`` span with the
   pipeline stages and per-row spans underneath, plus the *server-side*
   spans each :class:`~repro.net.server.LQPServer` opened, shipped back
   on the wire and stitched into the same tree (``[remote]``);
2. **the slow-query log** — with a deliberately tiny ``slow_query_ms``
   threshold the query trips the structured event log, recording its
   plan fingerprint, cache disposition, per-LQP busy time and the
   source tags it consulted;
3. **the metrics registry** — Prometheus text exposition with query
   counters, per-source-tag counters and the latency histogram.

Run with::

    PYTHONPATH=src python examples/observability.py
"""

from repro.datasets.paper import (
    paper_databases,
    paper_identity_resolver,
    paper_polygen_schema,
)
from repro.display.trace import render_span_tree, render_timeline
from repro.lqp.registry import LQPRegistry
from repro.lqp.relational_lqp import RelationalLQP
from repro.net import LQPServer
from repro.service.federation import PolygenFederation

PAPER_SQL = """
SELECT ONAME, CEO
FROM PORGANIZATION, PALUMNUS
WHERE CEO = ANAME AND ONAME IN
    (SELECT ONAME FROM PCAREER WHERE AID# IN
        (SELECT AID# FROM PALUMNUS WHERE DEGREE = "MBA"))
"""


def main() -> None:
    # -- two sources behind real TCP servers, one in-process ----------------
    databases = paper_databases()
    servers = [
        LQPServer(RelationalLQP(databases[name])).start() for name in ("AD", "CD")
    ]
    registry = LQPRegistry()
    for server in servers:
        registry.register(server.url, timeout=10.0)
    registry.register(RelationalLQP(databases["PD"]))
    print("Sources: " + ", ".join(
        f"{s.database} @ {s.url}" for s in servers
    ) + ", PD in-process")

    with PolygenFederation(
        paper_polygen_schema(), registry, resolver=paper_identity_resolver()
    ) as federation:
        # A 0ms threshold makes every query "slow" — handy for a demo.
        with federation.session(
            name="analyst", slow_query_ms=0.0
        ) as session:
            result = session.execute(PAPER_SQL)
        print("\nThe paper's CEO query, over the wire:")
        print(result.render())

        # -- 1. one stitched trace: coordinator + server-side spans ---------
        remote = [span for span in result.trace.spans if span.remote]
        print(
            f"\nStitched trace: {len(result.trace.spans)} spans, "
            f"{len(remote)} shipped back by the LQP servers"
        )
        print(render_span_tree(result, attributes=False))
        print("\nTimeline (* = server-side span):")
        print(render_timeline(result, width=48))

        # -- 2. the slow-query log ------------------------------------------
        entry = federation.events.records("slow_query")[-1]
        print("\nSlow-query log entry:")
        for key in (
            "session", "elapsed_ms", "cache", "fingerprint",
            "busy_by_location", "sources",
        ):
            print(f"  {key}: {entry[key]}")

        # -- 3. the metrics registry ----------------------------------------
        text = federation.metrics_text()
        wanted = (
            "polygen_queries_total",
            "polygen_source_consulted_total",
            "polygen_query_seconds_bucket",
            "polygen_slow_queries_total",
            "polygen_transport_requests",
        )
        print("\nMetrics snapshot (selected families):")
        for line in text.splitlines():
            if line.startswith(wanted):
                print(f"  {line}")

    for server in servers:
        server.stop()


if __name__ == "__main__":
    main()
