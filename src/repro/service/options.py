"""Per-query execution options, collapsed into one immutable dataclass.

The historical :class:`~repro.pqp.processor.PolygenQueryProcessor` grew a
pile of constructor flags (``optimize``, ``pushdown``,
``prune_projections``, …) that froze one behaviour into each processor
instance.  A federation serves many users with different needs, so the same
knobs live here instead: a :class:`QueryOptions` is defaulted on the
federation, optionally specialized per session, and overridable per
``submit()`` call — resolution is just :meth:`QueryOptions.replace`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Union

from repro.core.cell import ConflictPolicy

__all__ = ["QueryOptions"]

#: Valid ``optimize`` settings: the rewrite pipeline on/off, or the
#: cost-based mode that picks the cheapest simulated plan shape.
_OPTIMIZE_MODES = (True, False, "cost")

#: Valid ``cache`` settings for the semantic result cache
#: (:mod:`repro.service.cache`).
_CACHE_MODES = ("off", "on", "refresh")


@dataclass(frozen=True)
class QueryOptions:
    """How one query should be planned and executed.

    Every query runs through the federation's one pooled executor; the
    wire encoding of remote traffic is a per-connection setting
    (``RemoteLQP(wire_format=...)``), not a per-query one.

    - ``optimize`` / ``pushdown`` / ``prune_projections`` — the optimizer
      master switch and its two semantic rewrites (selection pushdown into
      LQPs; dead-column pruning at materialization).  ``optimize="cost"``
      selects the cost-based mode: candidate plan shapes (rewrites on/off,
      Merge chains ordered by predicted source availability) are scored by
      simulated makespan under the federation's calibrated per-LQP cost
      models and the cheapest wins; ``pushdown`` still gates whether
      pushdown shapes are candidates at all.
    - ``policy`` — the Merge/Coalesce conflict policy.
    - ``materialize_full_scheme`` — interpreter fidelity knob: retrieve
      every relation a scheme maps even when the probe needs only some.
    - ``fetch_size`` — how many result tuples a streaming cursor hands out
      per batch.
    - ``stream_chunk_size`` — tuples per chunk when a streamable-spine
      plan pipelines through the executor
      (:mod:`repro.pqp.stream`); plans that cannot stream ignore it.
    - ``shard_width`` — scan sharding (:mod:`repro.pqp.shard`): ``0`` (the
      default) leaves every Retrieve whole; ``"auto"`` splits large
      retrieves into one key-range shard per server the LQP advertises
      (``native_concurrency``); an integer ≥ 2 forces that many shards.
    - ``cache`` — the semantic result cache (:mod:`repro.service.cache`):
      ``"off"`` (the default) bypasses it entirely; ``"on"`` consults it
      before execution (whole-plan hits return instantly, cached subtrees
      are spliced into the plan as pre-materialized inputs) and stores
      fresh results; ``"refresh"`` skips consultation but still stores —
      a forced recomputation that repopulates the cache.
    - ``slow_query_ms`` — the slow-query log threshold
      (:mod:`repro.obs.events`): a query whose end-to-end wall time
      reaches this many milliseconds emits a ``slow_query`` event on the
      federation's event log (plan fingerprint, shape, cache disposition,
      per-LQP busy time, consulted sources).  ``None`` (the default)
      disables the log.
    """

    optimize: Union[bool, str] = True
    pushdown: bool = True
    prune_projections: bool = False
    policy: ConflictPolicy = ConflictPolicy.DROP
    materialize_full_scheme: bool = False
    fetch_size: int = 64
    shard_width: Union[int, str] = 0
    cache: str = "off"
    stream_chunk_size: int = 1024
    slow_query_ms: Optional[float] = None

    def __post_init__(self):
        """Validate every field at construction.

        A typo'd or ill-typed knob must fail loudly *here*: these options
        flow through three levels of defaulting (federation → session →
        submit), and a value that merely truthy-coerces — ``cache=0``,
        ``pushdown="no"`` — would otherwise silently run the query with
        behaviour the caller never asked for.  Every rejection names the
        offending field.
        """
        # Equality, not identity: the historical facade accepted any 0/1
        # truthy optimize (``optimize=1`` == True), and that tolerance is
        # part of its unchanged-signature contract.
        if self.optimize not in _OPTIMIZE_MODES:
            raise ValueError(
                f"optimize must be one of {_OPTIMIZE_MODES}, got {self.optimize!r}"
            )
        for flag in ("pushdown", "prune_projections", "materialize_full_scheme"):
            value = getattr(self, flag)
            if not isinstance(value, bool):
                raise ValueError(
                    f"{flag} must be a bool, got {value!r} "
                    f"({type(value).__name__})"
                )
        if not isinstance(self.policy, ConflictPolicy):
            raise ValueError(
                f"policy must be a ConflictPolicy, got {self.policy!r} "
                f"({type(self.policy).__name__})"
            )
        if isinstance(self.fetch_size, bool) or not isinstance(self.fetch_size, int):
            raise ValueError(
                f"fetch_size must be an int, got {self.fetch_size!r} "
                f"({type(self.fetch_size).__name__})"
            )
        if self.fetch_size < 1:
            raise ValueError(f"fetch_size must be >= 1, got {self.fetch_size}")
        if isinstance(self.shard_width, bool) or not (
            self.shard_width == 0
            or self.shard_width == "auto"
            or (isinstance(self.shard_width, int) and self.shard_width >= 2)
        ):
            raise ValueError(
                "shard_width must be 0 (off), 'auto', or an int >= 2, "
                f"got {self.shard_width!r}"
            )
        if not isinstance(self.cache, str) or self.cache not in _CACHE_MODES:
            raise ValueError(
                f"cache must be one of {_CACHE_MODES}, got {self.cache!r}"
            )
        if isinstance(self.stream_chunk_size, bool) or not isinstance(
            self.stream_chunk_size, int
        ):
            raise ValueError(
                f"stream_chunk_size must be an int, got {self.stream_chunk_size!r} "
                f"({type(self.stream_chunk_size).__name__})"
            )
        if self.stream_chunk_size < 1:
            raise ValueError(
                f"stream_chunk_size must be >= 1, got {self.stream_chunk_size}"
            )
        if self.slow_query_ms is not None:
            if isinstance(self.slow_query_ms, bool) or not isinstance(
                self.slow_query_ms, (int, float)
            ):
                raise ValueError(
                    f"slow_query_ms must be a number of milliseconds or None, "
                    f"got {self.slow_query_ms!r} "
                    f"({type(self.slow_query_ms).__name__})"
                )
            if self.slow_query_ms < 0:
                raise ValueError(
                    f"slow_query_ms must be >= 0, got {self.slow_query_ms}"
                )

    def replace(self, **overrides) -> "QueryOptions":
        """A copy with ``overrides`` applied; unknown names raise
        :class:`ValueError` naming the bogus field.

        This is the per-call resolution step: federation defaults →
        session defaults → ``submit(..., **overrides)`` — which is exactly
        where a typo'd keyword (``submit(q, fetch_sise=8)``) would
        otherwise vanish into ``**overrides`` and become a silent no-op.
        """
        if not overrides:
            return self
        unknown = set(overrides) - {f.name for f in dataclasses.fields(self)}
        if unknown:
            raise ValueError(
                f"unknown QueryOptions field(s): {', '.join(sorted(unknown))}"
            )
        return dataclasses.replace(self, **overrides)
