"""``repro.connect`` — one call from a URL (or a federation) to a session.

The long way round to a streaming cursor is four objects deep: build an
:class:`~repro.lqp.registry.LQPRegistry`, register each source, fetch or
assemble a :class:`~repro.catalog.schema.PolygenSchema`, construct a
:class:`~repro.service.federation.PolygenFederation`, open a session.
:func:`connect` collapses the common cases:

- ``connect(federation)`` — just ``federation.session(...)``;
- ``connect("polygen://host:port")`` or ``connect([url, ...])`` — dial
  every URL, bootstrap the schema from the first ``polygen://`` server's
  published catalog (or take an explicit ``schema=``), and open a session
  on a federation built *for* this session: closing the session closes the
  federation, which closes the dialed connections.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from repro.catalog.schema import PolygenSchema
from repro.lqp.registry import LQPRegistry
from repro.service.federation import PolygenFederation
from repro.service.options import QueryOptions
from repro.service.session import Session

__all__ = ["connect"]


def connect(
    target: Union["PolygenFederation", str, Sequence[str]],
    *,
    name: Optional[str] = None,
    schema: Optional[PolygenSchema] = None,
    resolver=None,
    transforms=None,
    defaults: Optional[QueryOptions] = None,
    **option_overrides,
) -> Session:
    """Open a :class:`~repro.service.session.Session` on ``target``.

    ``target`` is an existing federation, one LQP URL, or a sequence of
    LQP URLs (``polygen://``, ``sqlite://``, ``file://`` — the schemes
    :meth:`~repro.lqp.registry.LQPRegistry.register` accepts).
    ``option_overrides`` specialize the session's default
    :class:`~repro.service.options.QueryOptions` — e.g.
    ``connect(url, cache="on", stream_chunk_size=256)``.

    For URL targets, ``schema=`` supplies the polygen schema explicitly;
    without it, the first ``polygen://`` server's published schema is
    fetched (:meth:`~repro.net.client.RemoteLQP.fetch_schema`), which
    covers the single-server and homogeneous-fleet cases.  The session
    owns everything ``connect`` built: ``session.close()`` (or the
    ``with`` block) tears the federation and its connections down.
    """
    if isinstance(target, PolygenFederation):
        if schema is not None or resolver is not None or transforms is not None:
            raise ValueError(
                "schema/resolver/transforms only apply when connect() builds "
                "the federation from URLs; this one already exists"
            )
        return target.session(name, **option_overrides)
    if isinstance(target, str):
        urls = [target]
    elif isinstance(target, (list, tuple)):
        urls = list(target)
    else:
        urls = None
    if not urls or not all(isinstance(url, str) for url in urls):
        raise TypeError(
            "connect() takes a PolygenFederation, an LQP URL, or a "
            f"sequence of LQP URLs; got {target!r}"
        )
    registry = LQPRegistry()
    federation = None
    try:
        registered = [registry.register(url) for url in urls]
        if schema is None:
            for url, lqp in zip(urls, registered):
                if url.startswith("polygen://"):
                    schema = lqp.inner.fetch_schema()
                    break
            else:
                raise ValueError(
                    "connect() needs a schema: pass schema=..., or include "
                    "a polygen:// URL whose server publishes one"
                )
        federation = PolygenFederation(
            schema,
            registry,
            resolver=resolver,
            transforms=transforms,
            defaults=defaults,
        )
        session = federation.session(name, **option_overrides)
    except BaseException:
        # A half-built connection set must not leak its sockets/handles.
        if federation is not None:
            federation.close()
        else:
            registry.close()
        raise
    session._owned_federation = federation
    return session
