"""A batch that fails to open must leave no pin behind.

``open_batch`` pins a dynamic view's serving version once per cursor
(behind the sharded facade, on every shard the batch reaches) before
the cursors that will release those pins exist. Whatever makes the k-th
group fail — an unknown view, a τ that is not positive, even a
``BaseException`` out of the shared scan — every cursor opened before
it must be closed and every pin released, or the version it pinned
stays live forever.

Nor may a cursor whose pull raises: the error ends its serving life,
so its close hooks — the pin's release among them — fire before the
error reaches the caller, who may well drop the cursor unclosed.
"""

import gc

import pytest

import repro.engine.server as server_module
from repro.database.catalog import Database
from repro.database.relation import Relation
from repro.engine.api import AccessRequest
from repro.engine.server import ViewServer
from repro.engine.sharding import ShardedViewServer
from repro.engine.telemetry import Telemetry
from repro.exceptions import ParameterError, QueryError, SchemaError

ROUTED = "Q^bff(a, b, c) = R(a, b), S(b, c)"
POINT = "Q^bbf(a, b, c) = R(a, b), S(b, c)"
SCATTER = "F^fff(a, b, c) = R(a, b), S(b, c)"


def database():
    return Database(
        [
            Relation("R", 2, [(i, i % 7) for i in range(40)]),
            Relation("S", 2, [(i % 7, i) for i in range(40)]),
        ]
    )


class Interrupt(BaseException):
    """Stands in for KeyboardInterrupt / cancellation mid-open."""


@pytest.fixture
def opened(monkeypatch):
    """Every cursor a shared scan hands out, and a fuse to blow one up.

    ``opened.fail_at = k`` makes the k-th scan constructed from now on
    raise :class:`Interrupt` instead.
    """

    class Spy(server_module.SharedScan):
        cursors_seen = []
        fail_at = None
        built = 0

        def __init__(self, representation, requests):
            Spy.built += 1
            if Spy.built == Spy.fail_at:
                raise Interrupt()
            super().__init__(representation, requests)

        def cursors(self):
            made = super().cursors()
            Spy.cursors_seen.extend(made)
            return made

    monkeypatch.setattr(server_module, "SharedScan", Spy)
    return Spy


def failing_batches(name, good):
    """(label, expected error, batch) whose LAST group fails to open."""
    return [
        (
            "unknown view",
            SchemaError,
            good + [AccessRequest("nope", (1,))],
        ),
        (
            "a tau that is not positive",
            ParameterError,
            good + [AccessRequest(name, good[0].access, tau=-1.0)],
        ),
    ]


class TestViewServerOpenBatch:
    def _server(self):
        server = ViewServer(database(), telemetry=Telemetry())
        name = server.register(ROUTED, tau=4.0)
        other = server.register(SCATTER, tau=4.0)
        # Version both views: their groups pin what they open on.
        server.apply_deltas("S", inserts=[(6, 998)])
        good = [
            AccessRequest(name, (1,)),
            AccessRequest(other, ()),
            AccessRequest(name, (2,)),
        ]
        return server, name, other, good

    def _gauges(self, server, names):
        registry = server.telemetry.registry
        return [
            registry.gauge(gauge, view=name).value
            for name in names
            for gauge in ("dynamic_cursor_pins", "dynamic_live_versions")
        ]

    def _assert_drained(self, server, names, gauges_before, opened):
        for name in names:
            state = server._dynamic_state(name)
            assert state.pin_count() == 0
        assert all(cursor._closed for cursor in opened.cursors_seen)
        assert self._gauges(server, names) == gauges_before
        # Nothing holds version 1: the next delta retires it.
        server.apply_deltas("R", inserts=[(1, 3)])
        for name in names:
            assert server._dynamic_state(name).live_versions() == (2,)

    @pytest.mark.parametrize("case", [0, 1])
    def test_failed_group_releases_the_batch(self, opened, case):
        server, name, other, good = self._server()
        label, error, batch = failing_batches(name, good)[case]
        before = self._gauges(server, (name, other))
        with pytest.raises(error):
            server.open_batch(batch)
        assert opened.cursors_seen, label
        self._assert_drained(server, (name, other), before, opened)
        server.close()
        server.telemetry.close()

    def test_base_exception_mid_batch_releases_the_batch(self, opened):
        server, name, other, good = self._server()
        before = self._gauges(server, (name, other))
        opened.fail_at = opened.built + 2  # the second group's scan
        with pytest.raises(Interrupt):
            server.open_batch(good)
        assert opened.cursors_seen
        self._assert_drained(server, (name, other), before, opened)
        server.close()
        server.telemetry.close()


class TestShardedOpenBatch:
    def _server(self):
        server = ShardedViewServer(database(), 3, {"R": 0})
        name = server.register(ROUTED, tau=4.0)
        scatter = server.register(SCATTER, tau=4.0)
        # Version both views on every shard (S is replicated).
        server.apply_deltas("S", inserts=[(6, 998)])
        # Routed requests on every shard plus a scatter request: every
        # shard opens a group before the last one gets to fail.
        good = [AccessRequest(name, (a,)) for a in range(12)]
        good.append(AccessRequest(scatter, ()))
        assert {server.shard_of(name, r.access) for r in good[:12]} == {
            0,
            1,
            2,
        }
        return server, name, scatter, good

    def _assert_drained(self, server, names, opened):
        for shard in server.shards:
            for name in names:
                assert shard._dynamic_state(name).pin_count() == 0
        assert all(cursor._closed for cursor in opened.cursors_seen)
        server.apply_deltas("S", inserts=[(6, 999)])
        for shard in server.shards:
            for name in names:
                assert shard._dynamic_state(name).live_versions() == (2,)

    def test_failed_routed_group_releases_every_shard(self, opened):
        server, name, scatter, good = self._server()
        last = [r for r in good[:12] if server.shard_of(name, r.access) == 2]
        bad = AccessRequest(name, last[0].access, tau=-1.0)
        with pytest.raises(ParameterError):
            server.open_batch(good + [bad])
        assert opened.cursors_seen
        self._assert_drained(server, (name, scatter), opened)
        server.close()

    def test_failed_scatter_group_releases_every_shard(self, opened):
        server, name, scatter, good = self._server()
        with pytest.raises(ParameterError):
            server.open_batch(good + [AccessRequest(scatter, (), tau=-1.0)])
        assert opened.cursors_seen
        self._assert_drained(server, (name, scatter), opened)
        server.close()

    def test_base_exception_on_a_later_shard_releases_every_shard(
        self, opened
    ):
        server, name, scatter, good = self._server()
        # Two scans per shard (routed group, scatter group): the fifth
        # is the third shard's first.
        opened.fail_at = opened.built + 5
        with pytest.raises(Interrupt):
            server.open_batch(good)
        assert opened.cursors_seen
        self._assert_drained(server, (name, scatter), opened)
        server.close()


class TestAPullThatRaises:
    #: Both raise at the first pull: an access of the wrong arity, and a
    #: token whose value no coordinate's domain orders against.
    BAD = [
        AccessRequest("v", (1,)),
        AccessRequest("v", (1, 1), start_after=("x",)),
    ]
    PULLS = {
        "fetchall": lambda cursor: cursor.fetchall(),
        "fetchmany": lambda cursor: cursor.fetchmany(3),
        "next": next,
    }

    def _server(self):
        server = ViewServer(database(), telemetry=Telemetry())
        server.register(POINT, tau=4.0, name="v")
        server.apply_deltas("S", inserts=[(6, 998)])  # versioned
        return server

    def _open(self, server, how, request):
        if how == "open":
            return [server.open(request)]
        copies = 2 if how == "duplicates" else 1  # lanes, or a solo cursor
        return server.open_batch([request] * copies)

    @pytest.mark.parametrize("pull", sorted(PULLS))
    @pytest.mark.parametrize("how", ["open", "open_batch", "duplicates"])
    def test_the_error_releases_the_pin(self, how, pull):
        server = self._server()
        state = server._dynamic_state("v")
        pull = self.PULLS[pull]
        opened = 0
        for request in self.BAD:
            cursors = self._open(server, how, request)
            for cursor in cursors:
                with pytest.raises(QueryError):
                    pull(cursor)
            assert state.pin_count() == 0
            for cursor in cursors:
                # The cursor is finished, but never as a short answer:
                # a later pull raises the error again.
                with pytest.raises(QueryError):
                    pull(cursor)
                assert not cursor.exhausted and cursor.delivered == 0
            opened += len(cursors)
        gc.collect()
        assert state.pin_count() == 0
        # Telemetry saw each cursor end once, as a close() would record.
        registry = server.telemetry.registry
        served = registry.find_histogram("serve_seconds", view="v")
        assert served.count == opened
        server.close()
        server.telemetry.close()
