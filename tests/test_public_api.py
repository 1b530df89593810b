"""Tests for the package-level public API and the error hierarchy."""

import pytest

import repro
from repro import errors


class TestLazyExports:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_build_paper_federation(self):
        pqp = repro.build_paper_federation()
        assert pqp.registry.names() == ("AD", "PD", "CD")

    def test_schema_and_databases(self):
        assert len(repro.paper_polygen_schema()) == 6
        assert set(repro.paper_databases()) == {"AD", "PD", "CD"}

    def test_processor_class(self):
        from repro.pqp.processor import PolygenQueryProcessor

        assert repro.PolygenQueryProcessor is PolygenQueryProcessor

    def test_service_classes(self):
        from repro.pqp.result import QueryResult
        from repro.service.federation import PolygenFederation
        from repro.service.options import QueryOptions

        assert repro.PolygenFederation is PolygenFederation
        assert repro.QueryOptions is QueryOptions
        assert repro.QueryResult is QueryResult

    def test_dir_lists_the_flat_api(self):
        listed = dir(repro)
        for name in repro.__all__:
            assert name in listed
        # Lazy exports are discoverable without having been touched.
        assert "PolygenFederation" in listed and "QueryOptions" in listed

    def test_service_package_dir_and_lazy_exports(self):
        from repro import service

        assert "PolygenFederation" in dir(service)
        assert service.Session.__name__ == "Session"
        with pytest.raises(AttributeError):
            service.nonexistent_thing

    def test_unknown_attribute(self):
        with pytest.raises(AttributeError):
            repro.nonexistent_thing

    def test_streaming_api_classes(self):
        from repro.service.cursor import Cursor
        from repro.service.handle import QueryHandle
        from repro.service.session import Session

        assert repro.Cursor is Cursor
        assert repro.QueryHandle is QueryHandle
        assert repro.Session is Session
        assert callable(repro.connect)
        assert "connect" in repro.__all__

    def test_every_all_entry_resolves(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None


class TestConnect:
    def test_connect_to_existing_federation(self):
        from repro.datasets.paper import (
            paper_databases,
            paper_identity_resolver,
            paper_polygen_schema,
        )
        from repro.lqp.registry import LQPRegistry
        from repro.lqp.relational_lqp import RelationalLQP

        registry = LQPRegistry()
        for database in paper_databases().values():
            registry.register(RelationalLQP(database))
        with repro.PolygenFederation(
            paper_polygen_schema(), registry, resolver=paper_identity_resolver()
        ) as federation:
            with repro.connect(federation, fetch_size=5) as session:
                assert session.defaults.fetch_size == 5
                result = session.execute('SELECT ANAME FROM PALUMNUS')
                assert result.relation.cardinality > 0
            assert not federation.closed  # caller's federation stays up

    def test_connect_rejects_nonsense(self):
        with pytest.raises(TypeError, match="connect"):
            repro.connect(42)
        with pytest.raises(TypeError, match="connect"):
            repro.connect([])

    def test_connect_urls_owns_the_federation(self):
        from repro.datasets.paper import (
            paper_databases,
            paper_identity_resolver,
            paper_polygen_schema,
        )
        from repro.lqp.relational_lqp import RelationalLQP
        from repro.net import LQPServer

        servers = [
            LQPServer(
                RelationalLQP(database), schema=paper_polygen_schema()
            ).start()
            for database in paper_databases().values()
        ]
        try:
            session = repro.connect(
                [server.url for server in servers],
                resolver=paper_identity_resolver(),
            )
            with session:
                result = session.execute(
                    'SELECT ANAME FROM PALUMNUS WHERE DEGREE = "MBA"'
                )
                assert result.relation.cardinality == 5
                owned = session._owned_federation
                assert owned is not None
            assert owned.closed  # closing the session tears it all down
        finally:
            for server in servers:
                server.stop()


class TestDeprecationShims:
    def test_new_homes_do_not_warn(self):
        import warnings

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            from repro.pqp.pool import WorkerPool  # noqa: F401
            from repro.pqp.result import QueryResult  # noqa: F401
        assert not [
            w for w in caught if issubclass(w.category, DeprecationWarning)
        ]

    def test_unknown_module_attributes_still_raise(self):
        import repro.pqp.processor as processor
        import repro.pqp.runtime as runtime

        with pytest.raises(AttributeError):
            processor.not_a_thing
        with pytest.raises(AttributeError):
            runtime.not_a_thing


class TestErrorHierarchy:
    def test_every_error_is_a_polygen_error(self):
        for name in errors.__all__:
            exception_class = getattr(errors, name)
            assert issubclass(exception_class, errors.PolygenError)

    def test_key_errors_render_cleanly(self):
        # KeyError subclasses normally repr() their message; ours override
        # __str__ so error text reads naturally.
        err = errors.UnknownSchemeError("NOPE")
        assert str(err) == "unknown polygen scheme 'NOPE'"
        err = errors.UnknownDatabaseError("XX")
        assert "XX" in str(err) and not str(err).startswith('"')

    def test_catch_all_family(self):
        from repro.core.heading import Heading

        with pytest.raises(errors.PolygenError):
            Heading([])


class TestSelfJoinLimitation:
    """Self-joins of a polygen scheme are not expressible (documented).

    The paper's SQL subset has no table aliases, so a self-join would need
    two copies of the same polygen relation with colliding attribute names;
    the Cartesian product rejects that explicitly rather than guessing.
    """

    def test_self_join_raises_attribute_collision(self):
        pqp = repro.build_paper_federation()
        from repro.errors import AttributeCollisionError, ExecutionError

        with pytest.raises((AttributeCollisionError, ExecutionError)) as err:
            pqp.run_algebra("PALUMNUS [AID# = AID#] PALUMNUS")
        assert "share" in str(err.value) or "collision" in str(err.value).lower()

    def test_self_union_is_fine(self):
        pqp = repro.build_paper_federation()
        result = pqp.run_algebra("(PALUMNUS [ANAME]) UNION (PALUMNUS [ANAME])")
        assert result.relation.cardinality == 8
        # The optimizer deduplicated the two ALUMNUS retrieves.
        retrieves = [row for row in result.iom if row.op.value == "Retrieve"]
        assert len(retrieves) == 1
