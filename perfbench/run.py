"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload scan_merge --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` of the checkout the script sits in.
A run sets the workload up several times (``setup_s`` is the median; all
but the last are torn down again), computes the expected answers, runs
the closed-loop clients for ``--seconds`` (finishing the current cycle of
query shapes), tears everything down and counts leaked threads and file
descriptors.

``--trace 0`` prints the end-to-end metrics, measured with no tracing
installed.  ``--trace 1`` runs the workload twice, each for half of
``--seconds``: untraced, then with the layer wrappers of
:mod:`tracing` installed; it prints the per-layer breakdown table and the
per-layer metrics, ``trace.overhead`` included.

Human-readable lines go first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Without ``src/repro`` the script exits with status 2 and
prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent

#: A run sets up at least :data:`SETUPS` times and for at least
#: :data:`SETUP_SECONDS` in all; ``setup_s`` reports the median.
SETUPS = 3
SETUP_SECONDS = 2.0

#: Layer groups that should carry most of each workload's CPU time.
DOMINANT_LAYERS = {
    "scan_merge": ("lqp.ship", "lqp.tagging", "storage.merge"),
    "remote_stream": ("net.", "lqp.ship", "pqp.stream", "service.cursor"),
    "service_mix": (
        "translate", "pqp.analyze", "pqp.plan", "pqp.optimize", "pqp.fingerprint",
        "pqp.calibrate", "service.cache", "core.join",
    ),
}


def _load_program():
    """Import the workloads, and through them the program in ``src/`` of
    this checkout (never an installed copy); exit 2 when it is missing."""
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program at {source / 'repro'}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(source))
    try:
        import tracing
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {source}: {exc}", file=sys.stderr)
        sys.exit(2)
    return workloads, tracing


# -- measurement helpers -------------------------------------------------------


def _threads() -> int:
    return threading.active_count()


def _fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def _settled(baseline_threads: int, patience: float = 10.0) -> int:
    """Thread count once stopping threads have had ``patience`` seconds to
    exit (a stopped server's handler threads end asynchronously)."""
    deadline = time.perf_counter() + patience
    while _threads() > baseline_threads and time.perf_counter() < deadline:
        gc.collect()
        time.sleep(0.05)
    return _threads()


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _percentile(values: List[float], fraction: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


@dataclass
class Phase:
    outcomes: List = field(default_factory=list)
    #: the query shape of each outcome: its index within the cycle.
    shapes: List[int] = field(default_factory=list)
    busy: List[float] = field(default_factory=list)
    clients: int = 1
    cycle: int = 1
    elapsed: float = 0.0

    @property
    def reads(self):
        return [o for o in self.outcomes if o.kind != "write" and o.ok]

    def latencies(self, kind=None) -> List[float]:
        return [
            o.latency for o in self.outcomes
            if o.ok and (o.kind == kind if kind else o.kind != "write")
        ]

    @property
    def failed(self) -> int:
        return sum(1 for o in self.outcomes if not o.ok)


def run_phase(workload, seconds: float, recorder=None) -> Phase:
    """Closed-loop clients for ``seconds``; each stops at its next cycle
    boundary after the deadline."""
    phase = Phase(clients=workload.clients, cycle=workload.cycle, busy=[0.0] * workload.clients)
    lock = threading.Lock()
    counter = iter(range(1, 1 << 62))
    errors: List[BaseException] = []
    deadline = time.perf_counter() + seconds

    def client(number: int) -> None:
        index = 0
        try:
            while index % workload.cycle or time.perf_counter() < deadline:
                op = workload.next_op(number, index)
                shape = index % workload.cycle
                index += 1
                with lock:
                    query_id = next(counter)
                span = None
                if recorder is not None:
                    recorder.set_query(query_id)
                    span = recorder.open(f"client.{'write' if op.kind == 'write' else 'read'}")
                try:
                    outcome = workload.attempt(number, op)
                finally:
                    if span is not None:
                        recorder.close(span)
                        recorder.set_query(None)
                with lock:
                    phase.outcomes.append(outcome)
                    phase.shapes.append(shape)
                    phase.busy[number] += outcome.latency
        except BaseException as exc:
            errors.append(exc)

    began = time.perf_counter()
    if workload.clients == 1:
        client(0)
    else:
        threads = [
            threading.Thread(target=client, args=(number,), name=f"perfbench-client-{number}")
            for number in range(workload.clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    phase.elapsed = time.perf_counter() - began
    if errors:
        raise errors[0]
    return phase


def _shape_medians(phase: Phase) -> List[tuple]:
    """``(latency, rows)`` medians of each query shape's correct reads, for
    a single client running whole cycles of fixed shapes; else empty."""
    if phase.clients > 1 or phase.cycle == 1:
        return []
    by_shape: Dict[int, List] = {}
    for shape, outcome in zip(phase.shapes, phase.outcomes):
        if outcome.ok and outcome.kind != "write":
            by_shape.setdefault(shape, []).append(outcome)
    return [
        (statistics.median(o.latency for o in runs), statistics.median(o.rows for o in runs))
        for runs in by_shape.values()
    ]


def throughput(phase: Phase) -> tuple:
    """Reads and result rows per second.

    A cycle workload is timed as one cycle with every shape at its median
    latency, so the few reads a busy host slows down do not set the
    figure.  Otherwise it is reads over the time clients spent waiting on
    the federation, so answer checking between operations does not dilute
    it.
    """
    shapes = _shape_medians(phase)
    if shapes:
        seconds = sum(latency for latency, _ in shapes)
        return len(shapes) / seconds, sum(rows for _, rows in shapes) / seconds
    reads = phase.reads
    serving = sum(phase.busy) / phase.clients
    return len(reads) / serving, sum(o.rows for o in reads) / serving


def tail_latency(phase: Phase) -> float:
    """Nearest-rank p99 of read latency where ten reads or more lie beyond
    it (1,000 reads or more).  A cycle workload with fewer reads reports
    its slowest shape's median latency: its reads fall into a few fixed
    shapes, so any high percentile of a few dozen reads is the slowest
    read of the slowest shape.  Other short runs report the highest
    percentile that still has ten reads beyond it."""
    latency = sorted(phase.latencies())
    if len(latency) >= 1000:
        return _percentile(latency, 0.99)
    shapes = _shape_medians(phase)
    if shapes:
        return max(median for median, _ in shapes)
    return latency[max(0, len(latency) - 11)]


def end_to_end(phase: Phase, setups: List[float]) -> Dict[str, tuple]:
    reads = phase.reads
    qps, rows_per_s = throughput(phase)
    latency = phase.latencies()
    p50 = statistics.median(latency)

    def kind_p50(kind: str) -> float:
        # The median of that operation kind; workloads without it report
        # the median read latency.
        values = phase.latencies(kind)
        return statistics.median(values) if values else p50

    return {
        "setup_s": (statistics.median(setups), "s"),
        "qps": (qps, "1/s"),
        "rows_per_s": (rows_per_s, "rows/s"),
        "latency_p50_ms": (1e3 * p50, "ms"),
        "latency_p99_ms": (1e3 * tail_latency(phase), "ms"),
        "first_chunk_p50_ms": (1e3 * statistics.median(o.first_chunk for o in reads), "ms"),
        "paper_ceo_p50_ms": (1e3 * kind_p50("paper_ceo"), "ms"),
        "join_p50_ms": (1e3 * kind_p50("join"), "ms"),
        "write_p50_ms": (1e3 * kind_p50("write"), "ms"),
        "peak_rss_mb": (_peak_rss_mb(), "MiB"),
    }


# -- traced run -----------------------------------------------------------------


def _snapshot(workload) -> Dict[str, float]:
    """Cumulative program counters the per-layer metrics difference."""
    federation = workload.federation
    stats = federation.stats()
    cache = stats.cache
    snap = {
        "tuples_shipped": sum(stats.lqp_tuples_shipped.values()),
        "cache_hits": cache.hits,
        "cache_misses": cache.misses,
        "cache_splices": cache.splices,
        "cache_evictions": cache.evictions,
        "cache_invalidated": cache.invalidated,
        "wire_tuples": 0,
        "wire_bytes": 0,
        "server_tuples": 0,
    }
    for transport in stats.remote_transports.values():
        snap["wire_tuples"] += transport.tuples
        snap["wire_bytes"] += transport.bytes_received
    for server in getattr(workload, "servers", ()):
        snap["server_tuples"] += server.stats.tuples_sent
    return snap


def per_layer(tracing, recorder, phase: Phase, before, after):
    """The per-layer metrics of a traced phase, from its spans and from the
    program's counters ``before`` and ``after`` it; also the layer rows."""
    rows = tracing.layer_rows(recorder.spans)
    queries = max(1, len(phase.reads))
    writes = len(phase.latencies("write"))
    delta = {key: after[key] - before[key] for key in before}

    def row(name):
        return rows.get(name) or tracing.LayerRow(name)

    def per_query(name):
        return 1e6 * row(name).self_s / queries

    def per_count(name, count_key="tuples", total=None):
        count = row(name).counts.get(count_key, 0) if total is None else total
        return 1e6 * row(name).self_s / count if count else 0.0

    def per_call(name):
        r = row(name)
        return 1e6 * (r.self_s + r.wait_s) / r.calls if r.calls else 0.0

    join = row("core.join")
    join_rows = join.counts.get("rows_out", 0)
    merge = row("storage.merge")
    cursor = row("service.cursor")
    chunks = cursor.counts.get("chunks", 0)
    probes = delta["cache_hits"] + delta["cache_misses"]
    metrics = {
        "translate.us_per_query": (per_query("translate"), "us"),
        "pqp.analyze.us_per_query": (per_query("pqp.analyze"), "us"),
        "pqp.plan.us_per_query": (per_query("pqp.plan"), "us"),
        "pqp.optimize.us_per_query": (per_query("pqp.optimize"), "us"),
        "pqp.fingerprint.us_per_query": (per_query("pqp.fingerprint"), "us"),
        "pqp.calibrate.us_per_query": (per_query("pqp.calibrate"), "us"),
        "pqp.execute.self_us_per_query": (per_query("pqp.execute"), "us"),
        "pqp.stream.us_per_tuple": (per_count("pqp.stream"), "us"),
    }
    for backend in ("relational", "sqlite", "log", "kv", "remote"):
        name = f"lqp.ship.{backend}"
        metrics[f"{name}.us_per_tuple"] = (per_count(name), "us")
    metrics.update({
        "lqp.ship.tuples": (delta["tuples_shipped"] / queries, "tuples/query"),
        "lqp.tagging.us_per_tuple": (per_count("lqp.tagging"), "us"),
        "storage.merge.us_per_input_tuple": (per_count("storage.merge", "rows_in"), "us"),
        "storage.merge.rows_in": (merge.counts.get("rows_in", 0) / queries, "rows/query"),
        "storage.merge.rows_out": (merge.counts.get("rows_out", 0) / queries, "rows/query"),
        "storage.restrict.us_per_tuple": (per_count("storage.restrict"), "us"),
        "storage.project.us_per_tuple": (per_count("storage.project"), "us"),
        "core.join.us_per_output_row": (
            1e6 * tracing.group_self(recorder.spans, ("core.join",)) / join_rows
            if join_rows else 0.0, "us"),
        "core.join.pairs_per_output_row": (
            join.counts.get("pairs", 0) / join_rows if join_rows else 0.0, "ratio"),
        "net.encode.us_per_tuple": (per_count("net.encode", total=delta["server_tuples"]), "us"),
        "net.decode.us_per_tuple": (per_count("net.decode", total=delta["wire_tuples"]), "us"),
        "net.bytes_per_tuple": (
            delta["wire_bytes"] / delta["wire_tuples"] if delta["wire_tuples"] else 0.0, "B"),
        "service.cursor.chunks": (chunks / queries, "chunks/query"),
        "service.cursor.wait_us_per_chunk": (
            1e6 * (cursor.self_s + cursor.wait_s) / chunks if chunks else 0.0, "us"),
        "service.queue_wait_us": (per_call("service.queue"), "us"),
        "service.cache.lookup_us": (per_call("service.cache.lookup"), "us"),
        "service.cache.hit_rate": (delta["cache_hits"] / probes if probes else 0.0, "fraction"),
        "service.cache.splice_rate": (
            delta["cache_splices"] / probes if probes else 0.0, "subtrees/lookup"),
        "service.cache.evictions": (delta["cache_evictions"] / queries, "entries/query"),
        "service.cache.invalidated_per_write": (
            delta["cache_invalidated"] / writes if writes else 0.0, "entries"),
        "backends.kv.put_us": (per_call("backends.kv.put"), "us"),
    })
    return metrics, rows


def _print_metrics(metrics: Dict[str, tuple], samples: Dict[str, int]) -> None:
    for name, (value, unit) in metrics.items():
        note = f"  ({samples[name]} samples)" if name in samples else ""
        print(f"{name:<36} {value:16.4f} {unit}{note}")


# -- main ---------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workloads, tracing = _load_program()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; pick one of {sorted(workloads.WORKLOADS)}")
    cls = workloads.WORKLOADS[args.workload]
    workdir = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)

    baseline_threads, baseline_fds = _threads(), _fds()
    setups: List[float] = []
    workload = None
    try:
        while True:
            gc.collect()
            began = time.perf_counter()
            workload = cls(args.seed, str(workdir / f"setup-{len(setups)}"))
            setups.append(time.perf_counter() - began)
            if len(setups) >= SETUPS and sum(setups) >= SETUP_SECONDS:
                break
            workload.close()
            workload = None
        workload.prepare()
        if workload.warmup_ops:
            for index in range(workload.warmup_ops):
                workload.run(index % workload.clients, workload.next_op(0, index))
        gc.collect()

        if args.trace:
            half = args.seconds / 2
            untraced = run_phase(workload, half)
            recorder = tracing.Recorder()
            before = _snapshot(workload)
            installed = tracing.install(recorder, workload.federation)
            cpu0 = time.process_time()
            try:
                traced = run_phase(workload, half, recorder)
            finally:
                installed.remove()
            cpu_s = time.process_time() - cpu0
            after = _snapshot(workload)
            phases = [untraced, traced]
        else:
            phases = [run_phase(workload, args.seconds)]
        faults = workload.transport_faults() if hasattr(workload, "transport_faults") else 0
    finally:
        if workload is not None:
            workload.close()
        workload_name = args.workload
        del workload
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still uses it
            pass
    leaked_threads = max(0, _settled(baseline_threads) - baseline_threads)
    gc.collect()
    leaked_fds = max(0, _fds() - baseline_fds)

    attempted = sum(len(phase.outcomes) for phase in phases) + 1  # +1: lifecycle
    failed = sum(phase.failed for phase in phases) + (1 if leaked_threads or leaked_fds else 0)
    for phase in phases:
        for outcome in phase.outcomes:
            if not outcome.ok:
                print(f"FAILED {outcome.kind}: {outcome.error}")

    for phase in phases:
        print(f"workload {workload_name}  seed {args.seed}  clients {phase.clients}  "
              f"{phase.elapsed:.1f} s measured, {len(phase.outcomes)} operations "
              f"({len(phase.reads)} reads)")
    print(f"set-ups {', '.join(f'{s:.3f}' for s in setups)} s")
    print(f"error_rate {(failed / attempted):.4f} ({failed} failed of {attempted} attempted, "
          f"the last the set-up/teardown lifecycle check)")
    print(f"leaked threads {leaked_threads}, leaked fds {leaked_fds}, net faults {faults}")

    # End-to-end metrics come from the untraced phase; a traced run prints
    # them too, next to the per-layer ones it reports.
    measured = phases[0]
    metrics = end_to_end(measured, setups)
    metrics["success_rate"] = ((attempted - failed) / attempted, "fraction")
    samples = {
        "setup_s": len(setups),
        "latency_p50_ms": len(measured.latencies()),
        "latency_p99_ms": len(measured.latencies()),
        "paper_ceo_p50_ms": len(measured.latencies("paper_ceo")),
        "join_p50_ms": len(measured.latencies("join")),
        "write_p50_ms": len(measured.latencies("write")),
    }
    if args.trace:
        print("\nend-to-end, untraced half:")
    _print_metrics(metrics, samples)

    if args.trace:
        metrics, rows = per_layer(tracing, recorder, traced, before, after)
        p50_untraced = statistics.median(untraced.latencies())
        p50_traced = statistics.median(traced.latencies())
        metrics["net.faults"] = (faults, "count")
        metrics["service.leaked_threads"] = (leaked_threads, "count")
        metrics["service.leaked_fds"] = (leaked_fds, "count")
        metrics["trace.overhead"] = ((p50_traced - p50_untraced) / p50_untraced, "fraction")
        print(f"\nper-layer breakdown, traced half: {len(traced.reads)} reads, "
              f"{len(recorder.spans)} spans, {cpu_s:.2f} s process CPU")
        print(tracing.layer_table(rows, max(1, len(traced.reads))))
        group = DOMINANT_LAYERS[workload_name]
        share = tracing.group_self(recorder.spans, group) / cpu_s if cpu_s else 0.0
        print(f"\n{' + '.join(group)}: {100 * share:.1f}% of process CPU "
              f"(mean read latency {1e3 * statistics.mean(traced.latencies()):.2f} ms)")
        print(f"latency_p50_ms untraced {1e3 * p50_untraced:.3f} "
              f"({len(untraced.latencies())} samples), traced {1e3 * p50_traced:.3f} "
              f"({len(traced.latencies())} samples)\n")
        _print_metrics(metrics, {})

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
