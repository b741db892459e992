"""One tree per view: a higher τ is a cut of the lowest τ built, not a build.

For a fixed view, database and cover, τ only decides where a node of the
delay-balanced tree stops and which (node, v_b) pairs are heavy, so
:meth:`~repro.core.structure.CompressedRepresentation.cut` derives the
structure at any higher τ from a built one's columns in one linear pass
(``tests/test_build_kernel.py`` holds every cut equal to the direct
build). Here:

* a cut runs none of the build's machinery — no Algorithm 1, no cost
  walk, no join;
* a :class:`~repro.engine.server.ViewServer` keeps, per registration
  generation, a weak reference to the lowest-τ default-cover structure it
  built (the *base*) and cuts every higher default-cover τ from it;
  ``total_builds()`` / ``build_count()`` still count a cut as the build
  of its key;
* what never cuts: the optimiser's cover at a budget's own τ, another
  generation's base, a freed base, a request below the base, a replica.
"""

from __future__ import annotations

import gc
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor

import pytest

from oracle import oracle_accesses, oracle_answer
from test_build_kernel import comparable
from repro.core import balanced_tree as tree_mod
from repro.core import dictionary as dictionary_mod
from repro.core import structure as structure_mod
from repro.core.cost import CostModel
from repro.core.structure import CompressedRepresentation
from repro.engine import ReplicaServer, ShardedViewServer, ViewServer
from repro.exceptions import SnapshotError
from repro.workloads import triangle_database, triangle_view

LADDER = (2.0, 4.0, 8.0, 16.0, 32.0, 64.0)


@pytest.fixture
def setup():
    return triangle_view("bff"), triangle_database(nodes=30, edges=300, seed=7)


@pytest.fixture
def full_builds(monkeypatch):
    """How many trees Algorithm 1 has built since the fixture started."""
    calls = []
    real = structure_mod.build_tree_columns

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(structure_mod, "build_tree_columns", counting)
    return calls


def assert_direct(rep, view, db, weights=None):
    """``rep`` is what a direct build at its τ holds, bit for bit."""
    direct = CompressedRepresentation(view, db, rep.tau, weights=weights)
    assert comparable(rep.snapshot_state()) == comparable(direct.snapshot_state())


def assert_oracle(answer, view, db):
    for access in oracle_accesses(view, db, limit=6):
        assert answer(access) == oracle_answer(view, db, access)


def test_a_cut_builds_nothing(setup, monkeypatch):
    view, db = setup
    base = CompressedRepresentation(view, db, tau=1.0)
    calls = []

    def spy(module, name):
        real = getattr(module, name)

        def counting(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)

    for module, name in (
        (structure_mod, "build_tree_columns"),
        (tree_mod, "split_points"),
        (CostModel, "evaluator"),
        (structure_mod, "join_rows"),
        (structure_mod, "array_join"),
        (dictionary_mod, "array_join"),
        (structure_mod, "bound_candidates"),
        (dictionary_mod, "bound_candidates"),
    ):
        spy(module, name)
    cuts = [base.cut(tau) for tau in (1.0, 4.0, 64.0, 1e9)]
    assert calls == []
    CompressedRepresentation(view, db, tau=1.0)  # the spies do see a build
    assert set(calls) == {
        "build_tree_columns",
        "split_points",
        "evaluator",
        "array_join",
        "bound_candidates",
    }
    monkeypatch.undo()
    for cut in cuts:
        assert_direct(cut, view, db)
        assert_oracle(cut.answer, view, db)


def test_a_ladder_is_one_build_and_five_cuts(setup, full_builds):
    view, db = setup
    server = ViewServer(db, max_entries=None)
    name = server.register(view, tau=8.0)
    ladder = {tau: server.representation(name, tau) for tau in LADDER}
    assert len(full_builds) == 1
    # A cut is still the build of its key: the counts keep their meaning.
    assert server.total_builds() == len(LADDER)
    assert all(server.build_count(name, tau) == 1 for tau in LADDER)
    base = ladder[2.0]
    for tau, rep in ladder.items():
        assert rep.ctx is base.ctx
        assert_direct(rep, view, db)
        assert_oracle(
            lambda access: server.open(name, access, tau=tau).fetchall(), view, db
        )


def test_a_request_below_the_base_builds_and_becomes_the_base(
    setup, full_builds
):
    view, db = setup
    server = ViewServer(db, max_entries=None)
    name = server.register(view, tau=8.0)
    server.representation(name, 8.0)
    server.representation(name, 16.0)  # cut from 8
    assert len(full_builds) == 1
    low = server.representation(name, 2.0)  # below the base: built
    assert len(full_builds) == 2
    between = server.representation(name, 4.0)  # cut from 2
    assert len(full_builds) == 2
    for rep in (low, between):
        assert_direct(rep, view, db)


def test_an_evicted_base_is_freed_and_the_next_build_is_direct(
    setup, full_builds
):
    view, db = setup
    server = ViewServer(db, max_entries=1)
    name = server.register(view, tau=8.0)
    base = weakref.ref(server.representation(name, 2.0))
    server.representation(name, 4.0)  # a cut; evicts the base
    assert len(full_builds) == 1
    gc.collect()
    assert base() is None  # nothing new kept it resident
    rebuilt = server.representation(name, 8.0)
    assert len(full_builds) == 2
    above = server.representation(name, 16.0)  # cut from the new base
    assert len(full_builds) == 2
    assert_direct(rebuilt, view, db)
    assert_direct(above, view, db)


def test_a_re_registration_never_cuts_from_the_old_generation(
    setup, full_builds
):
    # Same name, other data: the old base is alive (held here) and lower.
    view, db = setup
    other = triangle_database(nodes=30, edges=300, seed=8)
    server = ViewServer(db, max_entries=None)
    name = server.register(view, tau=8.0)
    old_base = server.representation(name, 2.0)
    assert server.unregister(name)
    server.register(view, tau=8.0, database=other)
    served = server.representation(name, 4.0)
    assert len(full_builds) == 2
    assert served.db is other and served.ctx is not old_base.ctx
    assert_oracle(
        lambda access: server.open(name, access, tau=4.0).fetchall(),
        view,
        other,
    )
    server.representation(name, 8.0)  # cut from the new generation's base
    assert len(full_builds) == 2


def test_a_budgets_own_tau_is_built_with_the_optimisers_cover(
    setup, full_builds
):
    view, db = setup
    server = ViewServer(db, max_entries=None)
    name = server.register(view, space_budget=4000)
    registration = server.registration(name)
    assert registration.weights is not None and registration.tau > 0.5
    server.representation(name, 0.5)  # the default-cover base
    own = server.representation(name)
    assert len(full_builds) == 2
    # Any other τ is a default-cover one: cut from the base.
    above = server.representation(name, registration.tau * 2)
    assert len(full_builds) == 2
    assert own.weights == registration.weights != above.weights
    assert_direct(own, view, db, weights=registration.weights)
    assert_direct(above, view, db)


def test_a_sharded_server_cuts_per_shard(setup, full_builds):
    view, db = setup
    sharded = ShardedViewServer(db, 3, {"R": 0, "T": 1}, max_entries=None)
    try:
        name = sharded.register(view, tau=8.0)
        for tau in LADDER:
            sharded.prebuild(name, tau)
        assert len(full_builds) == 3  # one base per shard
        assert sharded.total_builds() == 3 * len(LADDER)
        for tau in (2.0, 64.0):
            assert_oracle(
                lambda access: sharded.open(name, access, tau=tau).fetchall(),
                view,
                db,
            )
    finally:
        sharded.close()


def test_concurrent_misses_over_one_base_stay_direct_builds(setup):
    # The base is read and replaced without a lock: a race may leave a
    # higher base than the lowest built (a later miss then builds), never
    # a structure that differs from its direct build.
    view, db = setup
    taus = [0.5 * 2**k for k in range(8)] * 2
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        server = ViewServer(db, max_entries=None)
        name = server.register(view, tau=8.0)
        with ThreadPoolExecutor(max_workers=12) as pool:
            got = list(pool.map(lambda t: server.representation(name, t), taus))
    finally:
        sys.setswitchinterval(switch)
    assert server.total_builds() == len(set(taus))
    for tau, rep in zip(taus, got):
        assert rep.tau == tau and rep.ctx is got[0].ctx
    for rep in got[: len(taus) // 2]:
        assert_direct(rep, view, db)


def test_a_replica_still_refuses_to_build_and_never_cuts(setup, tmp_path):
    view, db = setup
    primary = ViewServer(db, snapshot_dir=tmp_path)
    name = primary.register(view, tau=8.0)
    primary.representation(name, 2.0)
    primary.representation(name, 8.0)  # a cut, shipped like a build
    primary.cache.demote_all()
    primary.close()
    replica = ReplicaServer(db, snapshot_dir=tmp_path)
    try:
        replica.register(view, tau=8.0)
        assert replica.hydrate() == 1
        assert replica.representation(name, 2.0) is not None
        with pytest.raises(SnapshotError, match="refuses to build"):
            replica.representation(name, 4.0)
        assert replica.total_builds() == 0
    finally:
        replica.close()
