"""The engine differential machine: random interleavings, one oracle.

A hypothesis ``RuleBasedStateMachine`` drives one back end — a plain
``ViewServer``, a ``ShardedViewServer``, an ``AsyncViewServer`` over
either, or a ``ReplicaServer`` fed by ``ship_deltas`` — through every
public operation of the ``Serving`` contract and the delta lifecycle:
register, unregister, ``apply_deltas``, open, ``fetchmany``, resume (a
live, a stale and a wrong-arity token), invalidate, ``ship_deltas`` in
delta mode and by snapshot adoption, a primary restart and a warm
restart. The view is one of ``tests/test_build_kernel.py``'s fifteen
shapes (``NULLARY_VIEWS`` included) or its wide path view, over a small
random database.

The model is plain data: per registration, the database of every
version it has served, and per label the durable state a restart
resumes from. After every step:

* every answer equals ``tests/oracle.py``'s over the version it was
  served from — a cursor opened before a delta drains its own version;
* every cursor's ``stats().outputs`` equals the rows it returned;
* every error is a typed ``repro`` exception, and only where the model
  expects one.

``make fuzz`` runs the machine under the ``fuzz`` hypothesis profile
(``tests/conftest.py``); tier-1 runs the default budget below.
"""

from __future__ import annotations

import asyncio
import shutil
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    precondition,
    rule,
)

from repro.joins.hash_join import evaluate_by_hash_join
from repro.database.catalog import Database
from repro.database.relation import Relation
from repro.engine import (
    AsyncViewServer,
    ReplicaServer,
    ShardedViewServer,
    ViewServer,
)
from repro.engine.api import AccessRequest
from repro.query.atoms import Atom
from repro.engine.dynamic_serving import ship_deltas
from repro.engine.sharding import infer_shard_key
from repro.exceptions import ParameterError, QueryError, SchemaError
from repro.workloads.queries import path_view
from test_build_kernel import SHAPES, databases

#: Every shape the machine draws: the fifteen build-kernel shapes and
#: one path view (P₄ with both endpoints bound).
MACHINE_SHAPES = {**SHAPES, "path4-bfffb": path_view(4)}

KINDS = ("plain", "sharded", "async-plain", "async-sharded", "replica")
NAMES = st.sampled_from(("v0", "v1"))
TAUS = st.sampled_from((1.0, 2.0, 8.0))


def apply_rows(db: Database, relation: str, inserts, deletes):
    """``(db', effective changes)``: the delta as the engine buffers it.

    Inserts first, then deletes, one row at a time: an insert of a
    present row and a delete of an absent one change nothing; a delete
    of a row inserted earlier in the batch takes it out again.
    """
    rows = set(db[relation].rows)
    applied = 0
    for row in inserts:
        if row not in rows:
            rows.add(row)
            applied += 1
    for row in deletes:
        if row in rows:
            rows.discard(row)
            applied += 1
    if not applied:
        return db, 0
    return db.replace(Relation(relation, db[relation].arity, rows)), applied


class Oracle:
    """``tests/oracle.py``'s hash-join evaluation, once per database.

    The oracle evaluates the whole view and filters by access; a machine
    asks it about the same few databases many times, so each full
    answer is kept, grouped by access, for as long as its database is.
    """

    def __init__(self, view):
        self.view = view
        self.bound = [i for i, c in enumerate(view.pattern) if c == "b"]
        self.free = [i for i, c in enumerate(view.pattern) if c == "f"]
        self._answers: Dict[int, Tuple[Database, Dict]] = {}

    def grouped(self, db: Database) -> Dict[Tuple, List[Tuple]]:
        kept = self._answers.get(id(db))
        if kept is None:
            groups: Dict[Tuple, List[Tuple]] = {}
            for row in evaluate_by_hash_join(self.view.query, db):
                access = tuple(row[i] for i in self.bound)
                groups.setdefault(access, []).append(
                    tuple(row[i] for i in self.free)
                )
            for rows in groups.values():
                rows.sort()
            kept = self._answers[id(db)] = (db, groups)
        return kept[1]

    def answer(self, db: Database, access: Tuple) -> List[Tuple]:
        return list(self.grouped(db).get(tuple(access), ()))

    def accesses(self, db: Database, limit: int) -> List[Tuple]:
        """Some productive accesses, plus two misses."""
        width = len(self.bound)
        return sorted(self.grouped(db))[:limit] + [
            (-1,) * width,
            (10**9,) * width,
        ]


class Registered:
    """The model of one registration: its versions' databases."""

    def __init__(self, view, tau: float, version: int, db: Database):
        self.view = view
        self.tau = tau
        self.version = version
        self.versions: Dict[int, Database] = {version: db}
        #: Whether the view has taken a delta (or warm-started from one).
        self.versioned = False

    @property
    def db(self) -> Database:
        return self.versions[self.version]


class EngineMachine(RuleBasedStateMachine):
    """One back end, one view shape, every public operation."""

    def __init__(self):
        super().__init__()
        self.directory: Optional[Path] = None
        self.backend = self.front = self.primary = self.replica = None
        self.cursors: List[Tuple] = []

    # ------------------------------------------------------------------
    # set-up and tear-down
    # ------------------------------------------------------------------
    @initialize(
        kind=st.sampled_from(KINDS),
        shape=st.sampled_from(sorted(MACHINE_SHAPES)),
        data=st.data(),
    )
    def start(self, kind, shape, data):
        self.view = MACHINE_SHAPES[shape]
        self.base = self._plant(data, data.draw(databases(self.view), label="database"))
        self.natural = self.view.is_natural_join()
        self.oracle = Oracle(self.view)
        if kind.endswith("sharded"):
            try:
                self.shard_key = infer_shard_key(self.view)
            except SchemaError:
                kind = kind.replace("sharded", "plain")
        self.kind = kind
        values = sorted(
            {v for relation in self.base for row in relation for v in row}
            | {0, 1, 2}
        )
        self.values = st.sampled_from(values)
        self.arities = {
            relation.name: relation.arity for relation in self.base
        }
        self.directory = Path(tempfile.mkdtemp(prefix="engine-machine-"))
        self.registered: Dict[str, Registered] = {}
        #: label (name, τ) -> (version, database) a warm start resumes.
        self.durable: Dict[Tuple[str, float], Tuple[int, Database]] = {}
        self._boot()

    def _plant(self, data, db: Database) -> Database:
        """``db`` plus every atom's share of a few drawn answers.

        Small random relations seldom join, so a view over three of them
        would nearly always answer nothing; planted answers make every
        back end stream, page and merge real rows.
        """
        head = list(self.view.head)
        values = sorted({v for relation in db for row in relation for v in row})
        planted = data.draw(
            st.lists(
                st.tuples(*[st.sampled_from(values or [0])] * len(head)),
                max_size=4,
            ),
            label="planted",
        )
        rows = {relation.name: set(relation.rows) for relation in db}
        for answer in planted:
            value = dict(zip(head, answer))
            # An all-constant atom holds or fails as a whole: what the
            # draw gave it stays, so a view can still answer nothing.
            for atom in filter(Atom.variables, self.view.atoms):
                rows[atom.relation].add(
                    tuple(value.get(term, getattr(term, "value", None)) for term in atom.terms)
                )
        return Database(
            [Relation(r.name, r.arity, rows[r.name]) for r in db]
        )

    def _boot(self) -> None:
        """(Re)start the back end over the base data and the directory."""
        if self.kind == "replica":
            self.primary = ViewServer(self.base, snapshot_dir=self.directory)
            self.replica = ReplicaServer(self.base, self.directory)
            self.backend = self.primary
            return
        if self.kind.endswith("sharded"):
            self.backend = ShardedViewServer(
                self.base, 2, self.shard_key, snapshot_dir=self.directory
            )
        else:
            self.backend = ViewServer(
                self.base, max_entries=1, snapshot_dir=self.directory
            )
        if self.kind.startswith("async"):
            self.front = AsyncViewServer(self.backend, max_workers=2)

    def _close_cursors(self) -> None:
        for cursor, *_ in self.cursors:
            cursor.close()
        self.cursors = []

    def _shutdown(self) -> None:
        self._close_cursors()
        for server in (self.front, self.backend, self.replica):
            if server is not None:
                server.close()
        self.backend = self.front = self.primary = self.replica = None

    def teardown(self):
        self._shutdown()
        if self.directory is not None:
            shutil.rmtree(self.directory, ignore_errors=True)

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    @property
    def reader(self):
        """Where reads go: the replica, or the back end itself."""
        return self.replica if self.kind == "replica" else self.backend

    def served(self, name: str) -> Database:
        """The database ``name`` serves new requests from now."""
        registered = self.registered[name]
        if self.kind == "replica":
            return registered.versions[self.replica.delta_version(name)]
        return registered.db

    def expected(self, db, access, limit=None, start_after=None):
        rows = self.oracle.answer(db, access)
        if start_after is not None:
            rows = [row for row in rows if row > tuple(start_after)]
        return rows if limit is None else rows[:limit]

    def draw_access(self, data, name: str) -> Tuple:
        return data.draw(
            st.sampled_from(self.oracle.accesses(self.served(name), 6)),
            label="access",
        )

    def draw_token(self, data, name: str, access):
        """None, a token from the answer, any tuple, or a wrong width."""
        width = len(self.registered[name].view.free_variables)
        rows = self.oracle.answer(self.served(name), access)
        choices = [st.none(), st.tuples(*[self.values] * width)]
        if rows:
            choices.append(st.sampled_from(rows))
        if width:
            choices.append(st.tuples(*[self.values] * (width + 1)))
        return data.draw(st.one_of(*choices), label="start_after")

    def draw_tau(self, data, name: str) -> Optional[float]:
        if self.kind == "replica":
            return None  # a replica serves the τ it was shipped
        return data.draw(st.one_of(st.none(), TAUS), label="tau")

    def bad_token(self, name: str, token) -> bool:
        width = len(self.registered[name].view.free_variables)
        return token is not None and len(token) != width

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    @rule(name=NAMES, tau=TAUS, data=st.data())
    def register(self, name, tau, data):
        database = None
        if self.kind == "plain" and data.draw(st.booleans(), label="override"):
            # Other data under the same label: what the disk tier holds
            # for it must not answer for this registration.
            database = self._plant(
                data, data.draw(databases(self.view), label="database=")
            )
        if name in self.registered:
            try:
                self._register(name, tau, database)
            except SchemaError:
                return
            raise AssertionError(f"{name!r} registered twice")
        self._register(name, tau, database)
        # A label with a durable log warm-starts, versioned at once.
        version, db = self.durable.get((name, tau), (0, database or self.base))
        self.registered[name] = Registered(self.view, tau, version, db)
        self.registered[name].versioned = (name, tau) in self.durable
        if self.kind == "plain":
            assert self.backend.delta_version(name) == version
            assert (name in self.backend.dynamic_views()) == (
                (name, tau) in self.durable
            )

    def _register(self, name, tau, database=None) -> None:
        if self.kind == "replica":
            self.primary.register(self.view, tau=tau, name=name)
            if (name, tau) not in self.durable:
                self.primary.representation(name)
                self.primary.cache.demote_all()
            self.replica.register(self.view, tau=tau, name=name)
            self.replica.hydrate([name])
        elif self.front is not None:
            self.front.register(self.view, tau=tau, name=name)
        else:
            extra = {} if database is None else {"database": database}
            self.backend.register(self.view, tau=tau, name=name, **extra)

    @rule(name=NAMES, data=st.data())
    def reregister(self, name, data):
        """Replace a registration by one under the same name and τ —
        over other data on a plain server, whose disk tier may still hold
        blobs of the old one's evicted τ."""
        if name not in self.registered:
            return
        tau = self.registered[name].tau
        self.unregister(name)
        self.register(name, tau, data)

    @rule(name=NAMES)
    def unregister(self, name):
        known = name in self.registered
        for server in (self.backend, self.replica):
            if server is not None:
                assert server.unregister(name) == known
        self.registered.pop(name, None)

    @rule(name=NAMES)
    def invalidate(self, name):
        try:
            self.reader.invalidate(name)
        except SchemaError:
            assert name not in self.registered
            return
        assert name in self.registered

    # ------------------------------------------------------------------
    # deltas
    # ------------------------------------------------------------------
    @rule(data=st.data())
    def apply_deltas(self, data):
        relation = data.draw(
            st.sampled_from(sorted(self.arities)), label="relation"
        )
        arity = self.arities[relation]
        # Rows already there (deletes that bite, inserts that do not)
        # and rows that may not be, from the values the data uses.
        row = st.tuples(*[self.values] * arity)
        if self.base[relation].rows:
            row = st.sampled_from(sorted(self.base[relation].rows)) | row
        inserts = data.draw(st.lists(row, max_size=3), label="inserts")
        deletes = data.draw(st.lists(row, max_size=3), label="deletes")
        # One row twice in a batch counts once (a buffered insert is
        # present, a buffered delete absent).
        inserts += inserts[: data.draw(st.integers(0, 1), label="again")]
        targets = [
            name
            for name, registered in self.registered.items()
            if self.natural
            and relation in {atom.relation for atom in registered.view.atoms}
        ]
        if data.draw(st.booleans(), label="bad arity"):
            # One row of the wrong arity refuses the whole batch, on
            # every view and shard: nothing versioned, logged or shipped.
            batch = data.draw(st.sampled_from([inserts, deletes]))
            batch.append((0,) * (arity + 1))
            before = self._versions()
            try:
                self.backend.apply_deltas(
                    relation, inserts=inserts, deletes=deletes
                )
            except (ParameterError, SchemaError) as error:
                assert isinstance(error, SchemaError) or not targets
                assert self._versions() == before
                return
            raise AssertionError("a wrong-arity row must refuse the batch")
        try:
            applied = self.backend.apply_deltas(
                relation, inserts=inserts, deletes=deletes
            )
        except ParameterError:
            assert not targets
            return
        assert sorted(applied) == sorted(targets)
        for name in targets:
            registered = self.registered[name]
            # The first delta versions a view over the server's own data,
            # whatever ``database=`` it was registered over.
            db, effective = apply_rows(
                registered.db if registered.versioned else self.base,
                relation,
                inserts,
                deletes,
            )
            if self.kind.endswith("sharded"):
                assert bool(applied[name]) == bool(effective)
            else:
                assert applied[name] == effective
            if effective:
                registered.version += 1
                registered.versions[registered.version] = db
                registered.versioned = True
                self.durable[(name, registered.tau)] = (
                    registered.version,
                    db,
                )

    def _versions(self) -> Dict[str, object]:
        """Every server's view of every registration's version."""
        servers = [self.backend, self.replica]
        if isinstance(self.backend, ShardedViewServer):
            servers = self.backend.shards
        return {
            (index, name): server.delta_version(name)
            for index, server in enumerate(servers)
            if server is not None
            for name in self.registered
        }

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def _request(self, data, name):
        access = self.draw_access(data, name)
        limit = data.draw(st.one_of(st.none(), st.integers(0, 4)), label="limit")
        start_after = self.draw_token(data, name, access)
        return AccessRequest(
            name,
            access,
            limit=limit,
            start_after=start_after,
            tau=self.draw_tau(data, name),
            measure=True,
        )

    @precondition(lambda self: self.registered)
    @rule(data=st.data())
    def read_batch(self, data):
        """A batch through open_batch, or the async front's one drain."""
        names = sorted(self.registered)
        batch = [
            self._request(
                data, data.draw(st.sampled_from(names), label="name")
            )
            for _ in range(data.draw(st.integers(1, 3), label="size"))
        ]
        wanted = [
            self.expected(self.served(r.view), r.access, r.limit, r.start_after)
            for r in batch
        ]
        bad = any(self.bad_token(r.view, r.start_after) for r in batch)
        try:
            if self.front is not None:
                self.front.reset()
                drained = asyncio.run(self.front._drain(batch))[0]
            else:
                drained = self.reader.drain(batch)
        except QueryError:
            assert bad
            return
        for request, want, (rows, stats) in zip(batch, wanted, drained):
            if self.bad_token(request.view, request.start_after):
                want = []  # a miss never reaches the token's check
            assert rows == want, request
            assert stats.outputs == len(rows), request

    @precondition(lambda self: self.registered and self.front is None)
    @rule(data=st.data())
    def open(self, data):
        name = data.draw(st.sampled_from(sorted(self.registered)), label="name")
        request = self._request(data, name)
        want = self.expected(
            self.served(name),
            request.access,
            request.limit,
            request.start_after,
        )
        bad = self.bad_token(name, request.start_after)
        try:
            cursor = self.reader.open(request)
            first = cursor.fetchmany(1)
        except QueryError:
            assert bad
            return
        if bad:
            want = []  # a miss never reaches the token's check
        assert first == want[:1]
        self.cursors.append((cursor, name, want, len(first)))

    @precondition(lambda self: self.cursors)
    @rule(data=st.data())
    def fetchmany(self, data):
        index = data.draw(st.integers(0, len(self.cursors) - 1), label="cursor")
        cursor, name, want, done = self.cursors[index]
        size = data.draw(st.integers(0, 3), label="size")
        rows = cursor.fetchmany(size)
        assert rows == want[done : done + size]
        done += len(rows)
        assert cursor.stats().outputs == done
        if done >= len(want) and size > len(rows):
            cursor.close()
            del self.cursors[index]
        else:
            self.cursors[index] = (cursor, name, want, done)

    @precondition(lambda self: self.cursors)
    @rule(data=st.data())
    def resume(self, data):
        """Re-open after a cursor's token: live, or stale after deltas."""
        index = data.draw(st.integers(0, len(self.cursors) - 1), label="cursor")
        cursor, name, _, _ = self.cursors[index]
        if name not in self.registered:
            return
        token = cursor.resume_token()
        request = cursor.request
        want = self.expected(self.served(name), request.access, None, token)
        try:
            with self.reader.open(
                AccessRequest(
                    name, request.access, start_after=token, tau=request.tau
                )
            ) as resumed:
                rows = resumed.fetchall()
                assert resumed.stats().outputs == len(rows)
        except QueryError:
            assert self.bad_token(name, token)
            return
        if self.bad_token(name, token):
            want = []  # a miss never reaches the token's check
        assert rows == want

    @precondition(lambda self: self.cursors)
    @rule(data=st.data())
    def close(self, data):
        index = data.draw(st.integers(0, len(self.cursors) - 1), label="cursor")
        self.cursors.pop(index)[0].close()

    # ------------------------------------------------------------------
    # replicas and restarts
    # ------------------------------------------------------------------
    @precondition(lambda self: self.kind == "replica")
    @rule(adopt=st.booleans())
    def ship(self, adopt):
        """Converge the replica: records, or the primary's snapshot."""
        names = sorted(
            name
            for name, registered in self.registered.items()
            if registered.versioned
        )
        behind = {
            name
            for name in names
            if self.replica.delta_version(name) < self.registered[name].version
        }
        if adopt:
            for name in names:
                self.primary.save_dynamic_snapshot(name)
        shipped = ship_deltas(self.primary, self.replica)
        assert sorted(shipped) == names
        for name in names:
            assert self.replica.delta_version(name) == (
                self.registered[name].version
            )
            if adopt and name in behind:
                assert shipped[name][0] == "snapshot"
        self._check_replica()

    def _check_replica(self) -> None:
        for name, registered in self.registered.items():
            for access in self.oracle.accesses(self.served(name), 4):
                assert self.replica.answer(name, access) == self.expected(
                    self.served(name), access
                )

    @precondition(lambda self: self.kind == "replica")
    @rule()
    def restart_primary(self):
        """A new primary over the same directory; the replica lives on."""
        self._close_cursors()
        self.primary.close()
        self.primary = self.backend = ViewServer(
            self.base, snapshot_dir=self.directory
        )
        for name, registered in self.registered.items():
            self.primary.register(registered.view, tau=registered.tau, name=name)
            assert self.primary.delta_version(name) == registered.version

    @precondition(lambda self: self.kind != "replica")
    @rule()
    def warm_restart(self):
        """Everything down, everything up: state comes back from disk."""
        self._shutdown()
        self._boot()
        for name, registered in self.registered.items():
            if not registered.versioned:
                self._register(
                    name,
                    registered.tau,
                    registered.db if registered.db is not self.base else None,
                )
                continue
            self._register(name, registered.tau)
            # The log holds the versions; the pinned old ones are gone.
            version, db = self.durable[(name, registered.tau)]
            assert (registered.version, registered.db) == (version, db)
            registered.versions = {version: db}
        for name, registered in self.registered.items():
            for access in self.oracle.accesses(registered.db, 4):
                assert self.reader.answer(name, access) == self.expected(
                    registered.db, access
                )


TestEngineMachine = EngineMachine.TestCase
#: Tier-1's budget; ``make fuzz`` runs under the ``fuzz`` profile instead.
TestEngineMachine.settings = (
    settings.get_profile("fuzz")
    if settings.get_current_profile_name() == "fuzz"
    else settings(max_examples=60, stateful_step_count=25, deadline=None)
)
