import gc
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dvesim.scene import (
    ApplyResult,
    DuplicateCreate,
    ExistenceUpdate,
    SceneReplica,
    UnknownEntity,
)
from helpers import LwwModel, digest, live_records, run_lww_trial


def upd(entity, alive, ts, origin="node-a", seq=0):
    return ExistenceUpdate(entity, alive, (ts, origin, seq))


#: the update that creating entity 1 at ts 1 on a fresh replica stamps, as
#: the ``replica`` fixture does
CREATED = upd(1, True, ts=1, seq=0)


def assert_visible(replica, *winners):
    """The replica shows exactly what a fresh one given only the winning
    updates shows: nothing more, nothing less."""
    reference = SceneReplica("reference")
    for u in winners:
        reference.apply_update(u)
    assert digest(replica) == digest(reference)


@pytest.fixture
def replica():
    r = SceneReplica("node-a")
    r.create_entities([1], ts_us=1)
    return r


class TestApplyUpdate:
    def test_higher_timestamp_wins(self, replica):
        replica.apply_update(upd(1, True, ts=3, seq=10))
        result = replica.apply_update(upd(1, True, ts=5, seq=11))
        assert result is ApplyResult.ACCEPTED
        assert replica.stamp_of(1) == (5, "node-a", 11)
        assert_visible(replica, upd(1, True, ts=5, seq=11))

    def test_lower_timestamp_superseded(self, replica):
        replica.apply_update(upd(1, True, ts=5, seq=10))
        result = replica.apply_update(upd(1, False, ts=3, seq=11))
        assert result is ApplyResult.SUPERSEDED
        assert_visible(replica, upd(1, True, ts=5, seq=10))

    def test_timestamp_tie_broken_by_origin(self, replica):
        replica.apply_update(upd(1, True, ts=5, origin="node-b", seq=0))
        result = replica.apply_update(upd(1, False, ts=5, origin="node-c", seq=0))
        assert result is ApplyResult.ACCEPTED
        assert_visible(replica)

    def test_unknown_entity_raises(self, replica):
        with pytest.raises(UnknownEntity):
            replica.apply_update(upd(99, False, ts=5))

    def test_idempotent(self, replica):
        u = upd(1, True, ts=3, seq=10)
        replica.apply_update(u)
        before = digest(replica)
        assert replica.apply_update(u) is ApplyResult.SUPERSEDED
        assert digest(replica) == before


class TestEntityLifecycle:
    def test_create_makes_the_entity_live(self):
        r = SceneReplica("node-a")
        assert r.create_entities([1], ts_us=1) == CREATED.stamp
        assert r.live_count() == 1 and r.stamp_of(1) == CREATED.stamp
        assert_visible(r, CREATED)

    def test_duplicate_create_rejected(self, replica):
        with pytest.raises(DuplicateCreate):
            replica.create_entities([1], ts_us=9)

    def test_recreation_after_tombstone(self):
        # hand-enumerated two-op schedule: delete@5 then create@7 revives
        r = SceneReplica("node-a")
        r.create_entities([1], ts_us=1)
        r.delete_entity(1, ts_us=5)
        assert_visible(r)
        r.create_entities([1], ts_us=7)
        assert_visible(r, upd(1, True, ts=7, seq=2))

    def test_delete_with_higher_ts_wins(self, replica):
        replica.delete_entity(1, ts_us=9)
        assert_visible(replica)

    def test_stale_delete_superseded(self, replica):
        # existence was re-stamped at ts=8; a ts=4 delete is stale
        replica.apply_update(upd(1, True, ts=8, seq=50))
        result = replica.apply_update(upd(1, False, ts=4, seq=51))
        assert result is ApplyResult.SUPERSEDED
        assert_visible(replica, upd(1, True, ts=8, seq=50))

    def test_stale_create_blocked_by_tombstone(self, replica):
        # hand-enumerated: delete@9, then a re-creation stamped 4 arrives
        replica.delete_entity(1, ts_us=9)
        result = replica.apply_update(upd(1, True, ts=4, seq=60))
        assert result is ApplyResult.SUPERSEDED
        r2 = SceneReplica("r2")
        # reversed arrival order converges to the same visible state
        for u in [upd(1, True, 1, "node-a", 0),
                  upd(1, True, 4, "node-a", 60),
                  upd(1, False, 9, "node-a", 1)]:
            r2.apply_update(u)
        assert digest(replica) == digest(r2)

    def test_delete_unknown_entity_raises(self):
        r = SceneReplica("node-a")
        with pytest.raises(UnknownEntity):
            r.delete_entity(42, ts_us=1)

    def test_local_updates_are_stamped_in_order_on_consecutive_seqs(self):
        r = SceneReplica("o")
        assert r.create_entities([1], ts_us=5) == (5, "o", 0)
        assert r.delete_entity(1, ts_us=7) == upd(1, False, 7, "o", 1)
        assert r.create_entities([1, 2], ts_us=9) == (9, "o", 2)
        assert r.delete_entity(2, ts_us=9) == upd(2, False, 9, "o", 3)


class TestBatchCreate:
    def test_a_batch_is_one_update_on_one_seq(self, replica):
        replica.create_entities([2], ts_us=1)
        replica.delete_entity(2, ts_us=2)
        seq = replica._seq
        stamp = replica.create_entities([5, 2, 3], ts_us=4)
        assert stamp == (4, "node-a", seq) and replica._seq == seq + 1
        # every id holds the returned object: the tombstoned id through
        # apply_update, the fresh ones directly
        assert all(replica.stamp_of(e) is stamp for e in (5, 2, 3))
        assert not replica._tombs and replica.live_count() == 4
        created = [upd(e, True, ts=4, seq=seq) for e in (5, 2, 3)]
        assert_visible(replica, CREATED, *created)

    def test_a_batch_older_than_a_tombstone_leaves_it_dead(self, replica):
        replica.delete_entity(1, ts_us=9)
        stamp = replica.create_entities([1, 2], ts_us=5)
        assert replica._tombs == {1: (9, "node-a", 1)}
        assert live_records(replica) == {2: stamp}

    @pytest.mark.parametrize("batch", [[3, 1], [3, 3], [4, 2, 4]])
    def test_a_refused_batch_leaves_the_replica_unchanged(self, replica, batch):
        """A live id (1) or a repeated one refuses the whole batch, also
        when it holds a fresh id (3, 4) or a tombstoned one (2)."""
        replica.create_entities([2], ts_us=1)
        replica.delete_entity(2, ts_us=2)
        before = (live_records(replica), dict(replica._tombs), replica._seq,
                  digest(replica))
        with pytest.raises(DuplicateCreate):
            replica.create_entities(batch, ts_us=5)
        assert (live_records(replica), replica._tombs, replica._seq, digest(replica)) == before


class TestDigest:
    def test_empty_replicas_equal(self):
        assert digest(SceneReplica("a")) == digest(SceneReplica("b"))

    def test_order_independent(self):
        updates = [
            upd(1, True, 1, "node-a", 0),
            upd(1, False, 2, "node-a", 1),
            upd(1, True, 3, "node-b", 0),
            upd(2, True, 1, "node-b", 1),
            upd(2, False, 4, "node-a", 2),
            upd(3, True, 2, "node-a", 3),
        ]
        r1, r2 = SceneReplica("r1"), SceneReplica("r2")
        for u in updates:
            r1.apply_update(u)
        for u in [updates[3], updates[5], updates[0], updates[4], updates[2], updates[1]]:
            r2.apply_update(u)
        assert digest(r1) == digest(r2)

    def test_value_difference_changes_digest(self):
        # a live entity differs from a deleted one, and from one created
        # under another stamp
        r1, r2, r3 = (SceneReplica("node-a") for _ in range(3))
        for r in (r1, r2):
            r.create_entities([1], ts_us=1)
        r2.delete_entity(1, ts_us=2)
        r3.create_entities([1], ts_us=2)
        assert len({digest(r1), digest(r2), digest(r3)}) == 3


class TestConvergence:
    def test_random_schedules_converge(self):
        # smaller sibling of the acceptance suite's 1,000-trial run
        rng = random.Random(1234)
        for _ in range(100):
            d1, d2 = run_lww_trial(rng)
            assert d1 == d2

    def test_stored_stamp_never_decreases(self):
        # a live entity's stamp, or a deleted one's tombstone
        rng = random.Random(99)
        r = SceneReplica("node-a")
        r.create_entities([1], ts_us=0)
        last = (0, "", 0)
        for i in range(500):
            u = upd(1, rng.random() < 0.5, ts=rng.randint(0, 100), origin="node-b", seq=i)
            r.apply_update(u)
            stored = live_records(r).get(1) or r._tombs[1]
            assert stored >= last
            last = stored


class TestEntityRecords:
    def test_each_record_is_its_bare_stamp(self):
        r = SceneReplica("node-a")
        for entity in (1, 2):
            r.create_entities([entity], ts_us=entity)
        r.delete_entity(2, ts_us=12)
        # each record is its bare stamp, an exact tuple, live or tombstoned
        live = live_records(r)
        assert live == {1: (1, "node-a", 0)} and r._tombs == {2: (12, "node-a", 2)}
        assert all(type(stamp) is tuple for stamp in [*live.values(), *r._tombs.values()])

    def test_a_record_moves_between_live_and_tombstone_and_forget_drops_it(self):
        r = SceneReplica("node-a")
        r.create_entities([1], ts_us=1)
        r.delete_entity(1, ts_us=2)
        assert (live_records(r), r._tombs) == ({}, {1: (2, "node-a", 1)})
        # a re-creation takes the record out of the tombstones
        r.create_entities([1], ts_us=3)
        assert (live_records(r), r._tombs) == ({1: (3, "node-a", 2)}, {})
        r.delete_entity(1, ts_us=4)
        r.forget(1)
        assert (r._pages, r._tombs) == ({}, {})

    @pytest.mark.parametrize("path", ["create", "apply"])
    def test_a_live_entity_costs_at_most_140_bytes(self, path):
        """Traced bytes per live entity, slots included, of a replica
        that creates or applies the existence of 20,000 entities, one
        update each; inputs are built before tracing starts.  CPython 3.11
        reads 104 B (create), most of it the stamp that each create builds,
        and 8.5 B (apply), the page slots.  A replica that kept a dict keyed
        by id reads 29.5 B (apply), so the apply path has a bound of its
        own; each bound leaves room for other interpreters' list and tuple
        layouts."""
        n = 20_000
        creates = [((e,), 10**6 + e) for e in range(1, n + 1)]
        updates = [upd(e, True, ts=t, origin="script", seq=e) for (e,), t in creates]
        r = SceneReplica("script")
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            if path == "create":
                for args in creates:
                    r.create_entities(*args)
            else:
                for u in updates:
                    r.apply_update(u)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert r.live_count() == n
        assert held / n <= {"create": 140, "apply": 16}[path]

    def test_an_entity_created_in_a_drop_costs_at_most_12_bytes(self):
        """Traced bytes per live entity of a replica that creates 20,088
        entities in batches of 108, as the pegboard script drops them; ids
        and timestamps are built before tracing starts.  CPython 3.11 reads
        9.1 B, its page slots: a batch stores one stamp, and the replica
        keeps no id object.  A dict keyed by id read 30 B, and a stamp of
        its own per entity 125 B."""
        n = 20_088
        ids = list(range(1, n + 1))
        drops = [(ids[i:i + 108], 10**6 + i) for i in range(0, n, 108)]
        r = SceneReplica("script")
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for batch, ts in drops:
                r.create_entities(batch, ts)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert r.live_count() == n
        assert held / n <= 12


class TestPages:
    #: ids at and beside the edges of the first pages, and the pegboard
    #: tests' script id base
    EDGES = (0, 255, 256, 257, 511, 512, 10**6)

    def test_ids_at_page_edges_keep_their_own_records(self):
        r, model = SceneReplica("node-a"), LwwModel("node-a")
        for replica in (r, model):
            stamp = replica.create_entities(list(self.EDGES), ts_us=1)
            for entity in self.EDGES[::2]:
                replica.delete_entity(entity, ts_us=2)
        assert live_records(r) == {e: stamp for e in self.EDGES[1::2]}
        assert r._tombs == {e: (2, "node-a", i) for i, e in enumerate(self.EDGES[::2], 1)}
        # 10**6 was alone on its page, which went with its delete
        assert sorted(r._pages) == [0, 1, 2]
        assert r.live_count() == model.live_count() == 3 and digest(r) == model.digest()
        # a stale re-create stays behind its tombstone, a newer one revives
        for entity in self.EDGES[::2]:
            stale = upd(entity, True, ts=1, origin="node-b")
            assert r.apply_update(stale) is ApplyResult.SUPERSEDED
        assert r.create_entities([0, 511], ts_us=3) == (3, "node-a", 5)
        assert sorted(live_records(r)) == [0, 255, 257, 511, 512]
        assert set(r._tombs) == {256, 10**6}

    def test_a_page_goes_with_its_last_live_entity(self):
        r = SceneReplica("node-a")
        r.create_entities(list(self.EDGES), ts_us=1)
        r.delete_entity(256, ts_us=2)
        r.forget(257)
        # 511 keeps page 1; page 2 held only 512
        r.delete_entity(512, ts_us=2)
        assert sorted(r._pages) == [0, 1, 10**6 >> 8]
        for entity in self.EDGES:
            if entity != 257:
                r.forget(entity)
            with pytest.raises(KeyError):
                r.stamp_of(entity)
        assert (r._pages, r._tombs, r.live_count()) == ({}, {}, 0)
        # a forgotten id is unknown; a re-created one takes a fresh page
        with pytest.raises(UnknownEntity):
            r.delete_entity(255, ts_us=3)
        r.create_entities([255], ts_us=3)
        assert list(r._pages) == [0] and r.live_count() == 1


class TestForget:
    def test_forgetting_an_unknown_entity_raises(self, replica):
        with pytest.raises(UnknownEntity):
            replica.forget(99)
        replica.forget(1)
        with pytest.raises(UnknownEntity):
            replica.forget(1)

    def test_forgetting_a_live_entity_lowers_live_count_a_tombstone_does_not(self, replica):
        replica.create_entities([2], ts_us=1)
        replica.delete_entity(2, ts_us=2)
        assert replica.live_count() == 1
        replica.forget(2)
        assert replica.live_count() == 1
        replica.forget(1)
        assert replica.live_count() == 0

    @pytest.mark.parametrize("deleted", [False, True])
    def test_forgotten_entity_is_unknown(self, replica, deleted):
        replica.apply_update(upd(1, True, ts=3, seq=10))
        if deleted:
            replica.delete_entity(1, ts_us=4)
        replica.forget(1)
        with pytest.raises(UnknownEntity):
            replica.apply_update(upd(1, False, ts=5, seq=11))
        with pytest.raises(UnknownEntity):
            replica.delete_entity(1, ts_us=5)
        # a replayed creation, older than the forgotten stamps, is a first
        # incarnation
        assert replica.apply_update(CREATED) is ApplyResult.ACCEPTED
        assert replica.live_count() == 1
        assert_visible(replica, CREATED)


@st.composite
def update_deliveries(draw):
    """A pool of stamped updates and a delivery order that reorders,
    duplicates and drops them; equal and older stamps get superseded."""
    update = st.builds(
        ExistenceUpdate,
        entity=st.integers(min_value=1, max_value=4),
        alive=st.booleans(),
        stamp=st.tuples(st.integers(min_value=0, max_value=12),
                        st.sampled_from(["node-a", "node-b"]),
                        st.integers(min_value=0, max_value=3)),
    )
    pool = draw(st.lists(update, min_size=1, max_size=20))
    order = draw(st.lists(st.integers(min_value=0, max_value=len(pool) - 1),
                          max_size=40))
    return [pool[i] for i in order]


@settings(max_examples=300, deadline=None)
@given(deliveries=update_deliveries())
def test_live_count_matches_a_scan_of_the_records(deliveries):
    """The replica's count of live records matches the LWW model's scan of
    its own records, and no entity is both live and tombstoned."""
    r, model = SceneReplica("r"), LwwModel("r")
    for u in deliveries:
        assert outcome(r.apply_update, u) == outcome(model.apply_update, u)
        assert r.live_count() == model.live_count()
        assert not live_records(r).keys() & r._tombs.keys()


@st.composite
def local_and_replicated_ops(draw):
    """Creates, batch creates, re-creations after deletes, deletes, forgets,
    and replicated updates: fresh, stale, or replays of the updates that
    earlier local operations returned.  A local operation is stamped by the
    replica, node-a; a replicated update comes from node-a or node-b."""
    entity = st.integers(min_value=1, max_value=4)
    ts = st.integers(min_value=0, max_value=12)
    origin = st.sampled_from(["node-a", "node-b"])
    op = st.one_of(
        st.tuples(st.just("create"), st.lists(entity, min_size=1, max_size=1), ts),
        st.tuples(st.just("create"), st.lists(entity, min_size=1, max_size=3), ts),
        st.tuples(st.just("delete"), entity, ts),
        st.tuples(st.just("forget"), entity),
        st.tuples(st.just("apply"), st.builds(
            ExistenceUpdate, entity=entity, alive=st.booleans(),
            stamp=st.tuples(ts, origin, st.integers(min_value=0, max_value=6)))),
        st.tuples(st.just("replay"), st.integers(min_value=0)),
    )
    return draw(st.lists(op, max_size=40))


def outcome(call, *args):
    """What a call returned, or the type of what it raised."""
    try:
        return call(*args)
    except (UnknownEntity, DuplicateCreate) as e:
        return type(e)


@settings(max_examples=300, deadline=None)
@given(ops=local_and_replicated_ops())
def test_replica_matches_the_lww_model(ops):
    replica, model = SceneReplica("node-a"), LwwModel("node-a")
    sent = []  # every update a local operation returned, to replay
    for name, *args in ops:
        if name == "replay":
            if not sent:
                continue
            name, args = "apply", [sent[args[0] % len(sent)]]
        method = {"create": "create_entities", "delete": "delete_entity",
                  "forget": "forget", "apply": "apply_update"}[name]
        got = outcome(getattr(replica, method), *args)
        assert got == outcome(getattr(model, method), *args)
        if name == "create" and isinstance(got, tuple):
            sent += [ExistenceUpdate(e, True, got) for e in args[0]]
        elif name == "delete" and isinstance(got, ExistenceUpdate):
            sent.append(got)
        assert replica.live_count() == model.live_count()
        assert digest(replica) == model.digest()


def test_records_of_created_and_deleted_entities_are_untracked():
    r = SceneReplica("node-a")
    for entity in range(1, 2001):
        r.create_entities([entity], ts_us=entity)
        if entity % 2:
            r.delete_entity(entity, ts_us=entity + 1)
    live = live_records(r)
    assert len(live) == len(r._tombs) == 1000
    # a tuple is untracked once a collection sees that it holds no tracked
    # object.  A full collection checks the youngest generation's tuples
    # before the middle one's, so a record built after its stamp tuple was
    # promoted stays tracked until the next collection.
    gc.collect()
    gc.collect()
    assert not any(gc.is_tracked(stamp)
                   for stamp in [*live.values(), *r._tombs.values()])
