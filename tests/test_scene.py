import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dvesim.scene import (
    EXISTENCE,
    ApplyResult,
    DuplicateCreate,
    PropertyUpdate,
    SceneReplica,
    UnknownEntity,
    digest,
)
from helpers import run_lww_trial


def upd(entity, prop, value, ts, origin="node-a", seq=0):
    return PropertyUpdate(entity, prop, value, ts, origin, seq)


@pytest.fixture
def replica():
    r = SceneReplica("r")
    r.create_entity(1, {"position": 0}, ts_us=1, origin="node-a")
    return r


class TestApplyUpdate:
    def test_higher_timestamp_wins(self, replica):
        replica.apply_update(upd(1, "position", 10, ts=3, seq=10))
        result = replica.apply_update(upd(1, "position", 20, ts=5, seq=11))
        assert result is ApplyResult.ACCEPTED
        assert replica.get(1, "position") == 20

    def test_lower_timestamp_superseded(self, replica):
        replica.apply_update(upd(1, "position", 10, ts=5, seq=10))
        result = replica.apply_update(upd(1, "position", 99, ts=3, seq=11))
        assert result is ApplyResult.SUPERSEDED
        assert replica.get(1, "position") == 10

    def test_timestamp_tie_broken_by_origin(self, replica):
        replica.apply_update(upd(1, "position", 10, ts=5, origin="node-b", seq=0))
        result = replica.apply_update(upd(1, "position", 20, ts=5, origin="node-c", seq=0))
        assert result is ApplyResult.ACCEPTED
        assert replica.get(1, "position") == 20

    def test_unknown_entity_raises(self, replica):
        with pytest.raises(UnknownEntity):
            replica.apply_update(upd(99, "position", 1, ts=5))

    def test_idempotent(self, replica):
        u = upd(1, "position", 10, ts=3, seq=10)
        replica.apply_update(u)
        before = digest(replica)
        assert replica.apply_update(u) is ApplyResult.SUPERSEDED
        assert digest(replica) == before


class TestEntityLifecycle:
    def test_create_makes_properties_readable(self):
        r = SceneReplica("r")
        r.create_entity(1, {"position": 5}, ts_us=1, origin="node-a")
        assert r.is_live(1)
        assert r.get(1, "position") == 5

    def test_duplicate_create_rejected(self, replica):
        with pytest.raises(DuplicateCreate):
            replica.create_entity(1, {}, ts_us=9, origin="node-a")

    def test_recreation_after_tombstone(self):
        # hand-enumerated two-op schedule: delete@5 then create@7 revives
        r = SceneReplica("r")
        r.create_entity(1, {}, ts_us=1, origin="node-a")
        r.delete_entity(1, ts_us=5, origin="node-a")
        assert not r.is_live(1)
        r.create_entity(1, {"position": 3}, ts_us=7, origin="node-a")
        assert r.is_live(1)
        assert r.get(1, "position") == 3

    def test_delete_with_higher_ts_wins(self, replica):
        replica.delete_entity(1, ts_us=9, origin="node-a")
        assert not replica.is_live(1)

    def test_stale_delete_superseded(self, replica):
        # existence was re-stamped at ts=8; a ts=4 delete is stale
        replica.apply_update(upd(1, EXISTENCE, True, ts=8, seq=50))
        result = replica.apply_update(upd(1, EXISTENCE, False, ts=4, seq=51))
        assert result is ApplyResult.SUPERSEDED
        assert replica.is_live(1)

    def test_stale_property_update_blocked_by_tombstone(self, replica):
        # hand-enumerated: delete@9, then a position write stamped 4 arrives
        replica.delete_entity(1, ts_us=9, origin="node-a")
        result = replica.apply_update(upd(1, "position", 123, ts=4, seq=60))
        assert result is ApplyResult.SUPERSEDED
        r2 = SceneReplica("r2")
        # reversed arrival order converges to the same visible state
        for u in [upd(1, EXISTENCE, True, 1, "node-a", 0),
                  upd(1, "position", 123, 4, "node-a", 60),
                  upd(1, EXISTENCE, False, 9, "node-a", 1)]:
            r2.apply_update(u)
        assert digest(replica) == digest(r2)

    def test_delete_unknown_entity_raises(self):
        r = SceneReplica("r")
        with pytest.raises(UnknownEntity):
            r.delete_entity(42, ts_us=1, origin="node-a")


class TestDigest:
    def test_empty_replicas_equal(self):
        assert digest(SceneReplica("a")) == digest(SceneReplica("b"))

    def test_order_independent(self):
        updates = [
            upd(1, EXISTENCE, True, 1, "node-a", 0),
            upd(1, "position", 10, 2, "node-a", 1),
            upd(1, "position", 20, 3, "node-b", 0),
            upd(2, EXISTENCE, True, 1, "node-b", 1),
            upd(2, "velocity", 7, 4, "node-a", 2),
        ]
        r1, r2 = SceneReplica("r1"), SceneReplica("r2")
        for u in updates:
            r1.apply_update(u)
        for u in [updates[3], updates[0], updates[4], updates[2], updates[1]]:
            r2.apply_update(u)
        assert digest(r1) == digest(r2)

    def test_value_difference_changes_digest(self):
        r1, r2 = SceneReplica("r1"), SceneReplica("r2")
        r1.create_entity(1, {"position": 1}, ts_us=1, origin="node-a")
        r2.create_entity(1, {"position": 2}, ts_us=1, origin="node-a")
        assert digest(r1) != digest(r2)


class TestConvergence:
    def test_random_schedules_converge(self):
        # smaller sibling of the acceptance suite's 1,000-trial run
        rng = random.Random(1234)
        for _ in range(100):
            d1, d2 = run_lww_trial(rng)
            assert d1 == d2

    def test_stored_stamp_never_decreases(self):
        rng = random.Random(99)
        r = SceneReplica("r")
        r.create_entity(1, {}, ts_us=0, origin="node-a")
        last = (0, "", 0)
        for i in range(500):
            u = upd(1, "position", i, ts=rng.randint(0, 100), origin="node-b", seq=i)
            r.apply_update(u)
            rec = r._entities[1].props.get("position")
            if rec is not None:
                assert rec[1] >= last
                last = rec[1]


class TestEntityRecords:
    def test_entities_without_property_updates_share_no_props_container(self):
        r = SceneReplica("r")
        for entity in (1, 2):
            r.create_entity(entity, {}, ts_us=entity, origin="node-a")
            r.delete_entity(entity, ts_us=10 + entity, origin="node-a")
        first, second = r._entities[1], r._entities[2]
        assert first.props is second.props and len(first.props) == 0
        assert not hasattr(first, "__dict__")

    def test_first_property_update_gives_the_entity_its_own_props(self):
        r = SceneReplica("r")
        r.create_entity(1, {}, ts_us=1, origin="node-a")
        r.create_entity(2, {}, ts_us=1, origin="node-a")
        assert r.apply_update(upd(1, "position", 5, ts=2)) is ApplyResult.ACCEPTED
        assert r.get(1, "position") == 5 and r.get(2, "position") is None
        assert len(r._entities[2].props) == 0


@st.composite
def update_deliveries(draw):
    """A pool of stamped updates and a delivery order that reorders,
    duplicates and drops them; equal and older stamps get superseded."""
    update = st.builds(
        PropertyUpdate,
        entity=st.integers(min_value=1, max_value=4),
        property=st.sampled_from([EXISTENCE, EXISTENCE, "position"]),
        value=st.booleans(),
        ts_us=st.integers(min_value=0, max_value=12),
        origin=st.sampled_from(["node-a", "node-b"]),
        seq=st.integers(min_value=0, max_value=3),
    )
    pool = draw(st.lists(update, min_size=1, max_size=20))
    order = draw(st.lists(st.integers(min_value=0, max_value=len(pool) - 1),
                          max_size=40))
    return [pool[i] for i in order]


@settings(max_examples=300, deadline=None)
@given(deliveries=update_deliveries())
def test_live_count_matches_a_scan_of_the_records(deliveries):
    r = SceneReplica("r")
    for u in deliveries:
        try:
            r.apply_update(u)
        except UnknownEntity:
            pass
        assert r.live_count() == sum(rec.alive for rec in r._entities.values())
