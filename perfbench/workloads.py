"""The benchmark's three workloads, generated from a seed.

Every workload builds its sources in-process from ``--seed`` (the program
receives only the generated inputs), serves them through a
:class:`~repro.service.federation.PolygenFederation`, and runs closed-loop
clients that wait for each reply.  Each read is checked against an answer
computed once at set-up: a row count plus an order-independent digest of
every row's data *and* tags, so a wrong tag is a wrong answer.

- ``scan_merge`` — one client, large federated scans plus Merge over three
  in-process relational sources (~10^5 tuples retrieved per query).
- ``remote_stream`` — one client streaming single-source spines through
  ``handle.stream().chunks()`` from SQLite, log-store and key-value
  backends, each behind its own loopback ``LQPServer``.
- ``service_mix`` — two sessions drawing point, select, join and paper
  queries plus key-value writes from one seeded Zipf sequence, with the
  result cache on.
"""

from __future__ import annotations

import bisect
import os
import random
import shutil
import threading
import time
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.backends import KVStoreLQP, LogStoreLQP, SqliteLQP
from repro.catalog.mapping import AttributeMapping
from repro.catalog.schema import PolygenSchema
from repro.catalog.scheme import PolygenScheme
from repro.datasets.expected import expected_table_9
from repro.datasets.generators import FederationSpec, generate_federation
from repro.datasets.paper import (
    paper_databases,
    paper_identity_resolver,
    paper_polygen_schema,
)
from repro.lqp.registry import LQPRegistry
from repro.lqp.relational_lqp import RelationalLQP
from repro.net import LQPServer, RemoteLQP
from repro.relational.database import LocalDatabase
from repro.relational.schema import RelationSchema
from repro.service.federation import PolygenFederation
from repro.service.options import QueryOptions

#: Seconds any single reply may take before the read counts as failed.
TIMEOUT = 30.0

PAPER_CEO_SQL = """
SELECT ONAME, CEO
FROM PORGANIZATION, PALUMNUS
WHERE CEO = ANAME AND ONAME IN
    (SELECT ONAME FROM PCAREER WHERE AID# IN
        (SELECT AID# FROM PALUMNUS WHERE DEGREE = "MBA"))
"""


# -- answers ------------------------------------------------------------------


def _label(origins: Iterable[str], intermediates: Iterable[str]) -> str:
    return ",".join(sorted(origins)) + "|" + ",".join(sorted(intermediates))


@dataclass(frozen=True)
class Digest:
    """An answer's heading, row count, and the sum of its rows' hashes,
    each row hashed with its cells' origin and intermediate tags."""

    attributes: Tuple[str, ...]
    rows: int
    checksum: int

    def __add__(self, other: "Digest") -> "Digest":
        return Digest(
            self.attributes or other.attributes,
            self.rows + other.rows,
            self.checksum + other.checksum,
        )


EMPTY = Digest((), 0, 0)


def digest(relation) -> Digest:
    """Digest of a :class:`~repro.core.relation.PolygenRelation` (or one
    streamed batch of it), read straight off its columnar store."""
    store = relation.store
    labels: Dict[int, str] = {}
    for column in store.tags:
        for tag in set(column).difference(labels):
            origins, intermediates = store.pool.pair(tag)
            labels[tag] = _label(origins, intermediates)
    tags = [map(labels.__getitem__, column) for column in store.tags]
    checksum = sum(map(hash, zip(*store.columns, *tags))) if store.columns else 0
    return Digest(tuple(relation.attributes), store.cardinality, checksum)


def rows_digest(attributes: Sequence[str], rows: Iterable[tuple]) -> Digest:
    """Digest of expected rows given as ``data + tag labels`` tuples."""
    count = checksum = 0
    for row in rows:
        count += 1
        checksum += hash(row)
    return Digest(tuple(attributes), count, checksum)


# -- the operation record -----------------------------------------------------


@dataclass
class Op:
    kind: str
    query: str
    #: the expected answer; ``None`` for writes.
    expected: Optional[Digest] = None
    #: for writes: the key-value row to upsert.
    row: Optional[tuple] = None


@dataclass
class Outcome:
    kind: str
    latency: float
    first_chunk: float
    rows: int
    ok: bool
    error: str = ""


def _timed_read(session, op: Op, stream: bool) -> Outcome:
    """Submit ``op`` and wait for its whole answer.  With ``stream`` the
    answer is read batch by batch from ``chunks()``; the digest is taken
    after the clock stops."""
    began = time.perf_counter()
    handle = session.submit(op.query)
    if stream:
        batches = []
        first = None
        for batch in handle.stream().chunks(timeout=TIMEOUT):
            if first is None:
                first = time.perf_counter() - began
            batches.append(batch)
        handle.result(timeout=TIMEOUT)
        latency = time.perf_counter() - began
        got = EMPTY
        for batch in batches:
            got = got + digest(batch)
        if not batches:
            first = latency
    else:
        relation = handle.result(timeout=TIMEOUT).relation
        latency = first = time.perf_counter() - began
        got = digest(relation)
    ok = got.rows == op.expected.rows and got.checksum == op.expected.checksum and (
        got.attributes == op.expected.attributes or got.rows == 0
    )
    return Outcome(op.kind, latency, first, got.rows, ok, "" if ok else "wrong answer")


# -- workloads -----------------------------------------------------------------


class Workload:
    """One workload's environment: built by :meth:`__init__` (the timed
    set-up, warm-up included), checked by :meth:`prepare`, driven by
    :meth:`next_op`/:meth:`run`, torn down by :meth:`close`."""

    name = ""
    clients = 1
    #: operations per cycle; a run ends only on a cycle boundary, so every
    #: run holds each query shape equally often.
    cycle = 1
    #: untimed operations run before the clock starts, to fill caches.
    warmup_ops = 0

    def prepare(self) -> None:
        """Compute the expected answers (after set-up, outside its timing)."""

    def next_op(self, client: int, index: int) -> Op:
        raise NotImplementedError

    def run(self, client: int, op: Op) -> Outcome:
        raise NotImplementedError

    def attempt(self, client: int, op: Op) -> Outcome:
        """:meth:`run`, with an exception turned into a failed operation."""
        try:
            return self.run(client, op)
        except Exception as exc:
            return Outcome(op.kind, 0.0, 0.0, 0, False, repr(exc))

    def close(self) -> None:
        raise NotImplementedError

    # shared by the workloads whose clients each own one session
    def _open_sessions(self, federation: PolygenFederation) -> None:
        self.federation = federation
        self.sessions = [
            federation.session(f"client-{client}") for client in range(self.clients)
        ]

    def _close_federation(self) -> None:
        for session in self.sessions:
            session.close()
        self.federation.close()


class ScanMerge(Workload):
    """Large federated scans plus Merge over three relational sources."""

    name = "scan_merge"
    #: ROADMAP's profile shape: 3 sources, 55k-organization universe, 0.62
    #: coverage, ~10^5 tuples retrieved and merged per query.
    SPEC = dict(databases=3, organizations=55_000, coverage=0.62, people_per_database=10)
    COLUMNS = "[NAME, INDUSTRY, HEADQUARTERS]"

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(seed)
        self.generated = generate_federation(FederationSpec(seed=seed, **self.SPEC))
        org = next(iter(self.generated.databases.values())).relation("ORG")
        industries = sorted({row[1] for row in org.rows})
        states = sorted({row[2] for row in org.rows})
        self.industry, self.state = rng.choice(industries), rng.choice(states)
        # Three shapes: whole scan and two low-selectivity restrictions.
        self.queries = [
            f"GORGANIZATION {self.COLUMNS}",
            f'(GORGANIZATION [INDUSTRY != "{self.industry}"]) {self.COLUMNS}',
            f'(GORGANIZATION [HEADQUARTERS != "{self.state}"]) {self.COLUMNS}',
        ]
        self.cycle = len(self.queries)
        federation = PolygenFederation(self.generated.schema, self.generated.registry())
        self._open_sessions(federation)
        federation.run(self.queries[0])  # warm-up

    def prepare(self) -> None:
        """Expected answers straight from the generated rows: every
        organization any source covers, each cell tagged with the covering
        sources as origins and (through Merge's key match) intermediates."""
        cover: Dict[str, List[str]] = {}
        values: Dict[str, Tuple[str, str]] = {}
        for name, database in self.generated.databases.items():
            for org, industry, state in database.relation("ORG").rows:
                cover.setdefault(org, []).append(name)
                values[org] = (industry, state)
        attributes = ("NAME", "INDUSTRY", "HEADQUARTERS")

        def expected(keep: Callable[[str, str], bool]) -> Digest:
            rows = []
            for org, sources in cover.items():
                industry, state = values[org]
                if keep(industry, state):
                    tag = _label(sources, sources)
                    rows.append((org, industry, state, tag, tag, tag))
            return rows_digest(attributes, rows)

        self.expected = [
            expected(lambda industry, state: True),
            expected(lambda industry, state: industry != self.industry),
            expected(lambda industry, state: state != self.state),
        ]

    def next_op(self, client: int, index: int) -> Op:
        shape = index % len(self.queries)
        return Op("scan", self.queries[shape], self.expected[shape])

    def run(self, client: int, op: Op) -> Outcome:
        began = time.perf_counter()
        relation = self.federation.run(op.query).relation
        latency = time.perf_counter() - began
        got = digest(relation)
        ok = got == op.expected
        return Outcome(op.kind, latency, latency, got.rows, ok, "" if ok else "wrong answer")

    def close(self) -> None:
        self._close_federation()


# First and last names for generated people: 256 x 256 combinations.
_SYLLABLES = ("ka", "ri", "mo", "ta", "len", "sa", "vi", "dor", "na", "bel", "jo", "ex", "un", "pa", "qu", "ze")
_FIRST = tuple(a.capitalize() + b for a in _SYLLABLES for b in _SYLLABLES)
_LAST = tuple(a.capitalize() + b + "son" for a in _SYLLABLES for b in _SYLLABLES)


def _people(database: str, count: int, employers: int, rng: random.Random) -> List[tuple]:
    rows = []
    for index in range(count):
        bits = rng.getrandbits(40)
        rows.append(
            (
                f"{database}-P{index:06d}",
                f"{_FIRST[bits & 255]} {_LAST[(bits >> 8) & 255]}",
                f"Org-{(bits >> 16) % employers:05d}",
            )
        )
    return rows


class RemoteStream(Workload):
    """Single-source spines streamed from three backends over loopback."""

    name = "remote_stream"
    PEOPLE = 100_000
    EMPLOYERS = 2_000
    #: database name → backend; one LQPServer and one RemoteLQP each.
    BACKENDS = (("D00", "sqlite"), ("D01", "log"), ("D02", "kv"))
    ATTRIBUTES = ("PID", "PNAME", "EMPLOYER")

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(seed)
        self.rows: Dict[str, List[tuple]] = {}
        self.stores = []
        self.servers: List[LQPServer] = []
        self.remotes: List[RemoteLQP] = []
        self.logdir = os.path.join(workdir, "log")
        schema = PolygenSchema()
        registry = LQPRegistry()
        try:
            for database, backend in self.BACKENDS:
                rows = self.rows[database] = _people(database, self.PEOPLE, self.EMPLOYERS, rng)
                local = LocalDatabase(database)
                local.load(RelationSchema("PERSON", list(self.ATTRIBUTES), key=["PID"]), rows)
                if backend == "sqlite":
                    store = SqliteLQP.from_database(local)
                elif backend == "log":
                    store = LogStoreLQP.from_database(local, os.path.join(self.logdir, database))
                else:
                    store = KVStoreLQP.from_database(local)
                self.stores.append(store)
                server = LQPServer(store).start()
                self.servers.append(server)
                remote = RemoteLQP(server.url, wire_format="auto", timeout=TIMEOUT)
                self.remotes.append(remote)
                registry.register(remote)
                schema.add(
                    PolygenScheme(
                        "GPERSON" + database[1:],
                        {a: [AttributeMapping(database, "PERSON", a)] for a in self.ATTRIBUTES},
                        primary_key=["PID"],
                    )
                )
            # Per backend: a full projection, a ~2.5% range spine and three
            # one-employer spines, all pushed down to the source.  The
            # one-employer spines of the three backends overlap in latency,
            # so the median read falls inside one wide cluster rather than
            # on the edge between two shapes.
            cut = f"Org-{self.EMPLOYERS // 40:05d}"
            employers = [f"Org-{e:05d}" for e in rng.sample(range(self.EMPLOYERS), 3)]
            self.shapes = []
            for database, _ in self.BACKENDS:
                scheme = "GPERSON" + database[1:]
                self.shapes += [
                    (database, f"{scheme} [PNAME, EMPLOYER]", ("PNAME", "EMPLOYER"), None),
                    (
                        database,
                        f'({scheme} [EMPLOYER < "{cut}"]) [PNAME, EMPLOYER]',
                        ("PNAME", "EMPLOYER"),
                        lambda row, cut=cut: row[2] < cut,
                    ),
                ] + [
                    (
                        database,
                        f'({scheme} [EMPLOYER = "{employer}"]) [PID, PNAME]',
                        ("PID", "PNAME"),
                        lambda row, employer=employer: row[2] == employer,
                    )
                    for employer in employers
                ]
            self.cycle = len(self.shapes)
            self._open_sessions(PolygenFederation(schema, registry))
        except BaseException:
            self._close_sources()
            raise
        _timed_read(self.sessions[0], Op("stream", self.shapes[0][1], EMPTY), stream=True)  # warm-up

    def prepare(self) -> None:
        """Expected answers from the generated rows: the distinct projected
        rows of the source, each cell tagged with that source alone."""
        self.expected = []
        for database, _, columns, keep in self.shapes:
            positions = [self.ATTRIBUTES.index(column) for column in columns]
            tag = _label([database], [])
            projected = {
                tuple(row[p] for p in positions)
                for row in self.rows[database]
                if keep is None or keep(row)
            }
            self.expected.append(
                rows_digest(columns, (data + (tag,) * len(data) for data in projected))
            )
        self.rows.clear()  # the digests suffice from here on

    def next_op(self, client: int, index: int) -> Op:
        shape = index % len(self.shapes)
        return Op("stream", self.shapes[shape][1], self.expected[shape])

    def run(self, client: int, op: Op) -> Outcome:
        return _timed_read(self.sessions[client], op, stream=True)

    def _close_sources(self) -> None:
        for remote in self.remotes:
            remote.close()
        for server in self.servers:
            server.stop()
        for store in self.stores:
            close = getattr(store, "close", None)
            if close is not None:
                close()
        shutil.rmtree(self.logdir, ignore_errors=True)

    def close(self) -> None:
        self._close_federation()
        self._close_sources()

    def transport_faults(self) -> int:
        faults = 0
        for remote in self.remotes:
            stats = remote.transport_stats()
            faults += stats.retries + stats.timeouts + stats.reconnects
        return faults + sum(server.stats.errors for server in self.servers)


class ServiceMix(Workload):
    """Two sessions on a Zipfian mix of reads and key-value writes."""

    name = "service_mix"
    clients = 2
    warmup_ops = 1_000
    ZIPF_S = 1.1
    #: 4 generated sources; the last is key-value backed and takes writes.
    SPEC = dict(databases=4, organizations=600, coverage=0.5, people_per_database=300)
    KV_DATABASE = "D03"
    #: operation kind → share of requests.
    MIX = (("point", 0.50), ("select", 0.20), ("join", 0.15), ("paper_ceo", 0.10), ("write", 0.05))

    def __init__(self, seed: int, workdir: str):
        generated = generate_federation(FederationSpec(seed=seed, **self.SPEC))
        registry = LQPRegistry()
        for name, database in generated.databases.items():
            if name == self.KV_DATABASE:
                self.kv = KVStoreLQP.from_database(database)
                registry.register(self.kv)
            else:
                registry.register(RelationalLQP(database))
        for database in paper_databases().values():
            registry.register(RelationalLQP(database))
        schema = PolygenSchema(list(generated.schema) + list(paper_polygen_schema()))
        self.kv_rows = list(generated.databases[self.KV_DATABASE].relation("ORG").rows)

        # The query space; each kind's list is permuted by the seed so the
        # Zipf head differs from seed to seed.
        rng = random.Random(seed)
        org = generated.databases["D00"].relation("ORG")
        industries = sorted({row[1] for row in org.rows})
        states = sorted({row[2] for row in org.rows})
        self.space: Dict[str, List[str]] = {
            "point": [f'GORGANIZATION [NAME = "{name}"]' for name in generated.universe],
            "select": [f'GORGANIZATION [INDUSTRY = "{v}"]' for v in industries]
            + [f'GORGANIZATION [HEADQUARTERS = "{v}"]' for v in states],
            "join": [
                f"GPERSON{index:02d} [EMPLOYER = NAME] "
                f'(GORGANIZATION [HEADQUARTERS = "{state}"])'
                for index in range(self.SPEC["databases"])
                for state in states
            ],
            "paper_ceo": [PAPER_CEO_SQL],
        }
        for queries in self.space.values():
            rng.shuffle(queries)
        self.cumulative = {
            kind: list(accumulate(1.0 / rank**self.ZIPF_S for rank in range(1, len(queries) + 1)))
            for kind, queries in self.space.items()
        }
        self.kinds = [kind for kind, _ in self.MIX]
        self.kind_cumulative = list(accumulate(share for _, share in self.MIX))
        self.sequence = random.Random(seed + 1)
        self.sequence_lock = threading.Lock()

        federation = PolygenFederation(
            schema,
            registry,
            resolver=paper_identity_resolver(),
            defaults=QueryOptions(cache="on"),
        )
        self._open_sessions(federation)
        for queries in self.space.values():  # warm-up: one of each kind
            federation.run(queries[0])

    def prepare(self) -> None:
        """Expected answers: every read in the space run once with the
        cache off; the paper's CEO query against Table 9."""
        off = self.federation.defaults.replace(cache="off")
        self.expected: Dict[str, Digest] = {}
        for kind, queries in self.space.items():
            for query in queries:
                if kind == "paper_ceo":
                    self.expected[query] = digest(expected_table_9())
                else:
                    self.expected[query] = digest(self.federation.run(query, off).relation)

    def next_op(self, client: int, index: int) -> Op:
        with self.sequence_lock:
            draw = self.sequence.random() * self.kind_cumulative[-1]
            kind = self.kinds[bisect.bisect_right(self.kind_cumulative, draw)]
            if kind == "write":
                return Op("write", "", row=self.sequence.choice(self.kv_rows))
            cumulative = self.cumulative[kind]
            rank = bisect.bisect_right(cumulative, self.sequence.random() * cumulative[-1])
        query = self.space[kind][min(rank, len(cumulative) - 1)]
        return Op(kind, query, self.expected[query])

    def run(self, client: int, op: Op) -> Outcome:
        if op.kind != "write":
            return _timed_read(self.sessions[client], op, stream=False)
        # An upsert of an organization with its current values, then the
        # write notification: the data, and so every answer, stay fixed.
        began = time.perf_counter()
        self.kv.put("ORG", [op.row])
        self.federation.invalidate(self.KV_DATABASE)
        latency = time.perf_counter() - began
        return Outcome("write", latency, latency, 0, True)

    def close(self) -> None:
        self._close_federation()


WORKLOADS = {cls.name: cls for cls in (ScanMerge, RemoteStream, ServiceMix)}
