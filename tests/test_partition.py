import random
import tracemalloc
from collections import defaultdict
from contextlib import ExitStack
from unittest import mock

import numpy as np
import pytest

from dvesim.actors import GaltonGeometry, PhysicsActor
from dvesim.engine import Engine, seconds_to_us
from dvesim.harness import GaltonExperimentConfig, run_galton
from dvesim.netsim import Network
from dvesim.partition import (
    AlreadyMigrating,
    MigrationTracker,
    OutOfRegion,
    PartitionMap,
    RegionSpec,
    UnknownMigration,
)
from helpers import detect_crossing, owner_of


@pytest.fixture
def region():
    return RegionSpec(256.0, 256.0, 16.0)


@pytest.fixture
def half_split(region):
    return PartitionMap.split(region, 0, 128.0, (1, "physics-1"), (2, "physics-2"))


class TestRegionSpec:
    def test_grid_dimensions(self, region):
        assert (region.nx, region.ny) == (16, 16)

    def test_extent_must_be_multiple_of_cell(self):
        with pytest.raises(ValueError):
            RegionSpec(250.0, 256.0, 16.0)

    def test_every_point_maps_to_one_cell(self, region):
        # a partition per microcell, numbered i * ny + j
        cells = np.arange(region.nx * region.ny).reshape(region.nx, region.ny)
        pmap = PartitionMap(region, cells, {p: f"node-{p}" for p in range(cells.size)})
        assert owner_of(pmap, 0.0, 0.0) == 0
        assert owner_of(pmap, 16.0, 0.0) == 16
        assert owner_of(pmap, 255.999, 255.999) == 255
        with pytest.raises(OutOfRegion):
            owner_of(pmap, 256.0, 10.0)
        xs = np.array([0.0, 16.0, 255.999, 40.0])
        ys = np.array([0.0, 0.0, 255.999, 16.0])
        assert pmap.owners_xy(xs, ys).tolist() == [0, 16, 255, 33]
        with pytest.raises(OutOfRegion):
            pmap.owners_xy(np.array([256.0]), np.array([10.0]))


class TestOwnerOf:
    """The vectorized ``owners_xy`` against the scalar reference ``owner_of``."""

    def test_point_left_of_split(self, half_split):
        assert owner_of(half_split, 127.9, 10.0) == 1
        assert half_split.owners_xy(np.array([127.9]), np.array([10.0])).tolist() == [1]

    def test_boundary_point_belongs_to_higher_cell(self, half_split):
        assert owner_of(half_split, 128.0, 10.0) == 2
        assert half_split.owners_xy(np.array([128.0]), np.array([10.0])).tolist() == [2]

    def test_single_partition_owns_everything(self, region):
        pmap = PartitionMap.single(region, 1, "physics-1")
        points = [(0.0, 0.0), (100.0, 200.0), (255.9, 255.9)]
        for x, y in points:
            assert owner_of(pmap, x, y) == 1
        xs, ys = np.array(points).T
        assert pmap.owners_xy(xs, ys).tolist() == [1, 1, 1]

    def test_split_must_lie_on_cell_boundary(self, region):
        for axis in (0, 1):
            with pytest.raises(ValueError):
                PartitionMap.split(region, axis, 120.5, (1, "a"), (2, "b"))

    def test_vectorized_lookup_matches_scalar(self, region):
        rng = np.random.default_rng(5)
        xs = rng.uniform(0, 256, size=200)
        ys = rng.uniform(0, 256, size=200)
        # cell boundaries, the split line among them, on either axis
        xs[:4] = ys[4:8] = [0.0, 112.0, 128.0, 240.0]
        for axis, cut in ((0, xs), (1, ys)):
            pmap = PartitionMap.split(region, axis, 128.0, (1, "physics-1"),
                                      (2, "physics-2"))
            owners = pmap.owners_xy(xs, ys)
            for x, y, o in zip(xs, ys, owners):
                assert owner_of(pmap, float(x), float(y)) == o
            assert owners.tolist() == np.where(cut >= 128.0, 2, 1).tolist()


class TestDetectCrossing:
    def test_crossing_detected(self, half_split):
        assert detect_crossing((127.9, 10.0), (128.1, 10.0), half_split) == (1, 2)

    def test_no_crossing_within_partition(self, half_split):
        assert detect_crossing((10.0, 10.0), (20.0, 20.0), half_split) is None

    def test_exit_from_region_raises(self, half_split):
        with pytest.raises(OutOfRegion):
            detect_crossing((255.0, 10.0), (256.5, 10.0), half_split)


class TestMigrationHandshake:
    def test_begin_emits_exactly_one_transfer(self):
        tracker = MigrationTracker()
        msgs = tracker.begin_migration(7, 1, 2, now_us=100, state={"level": 3})
        assert len(msgs) == 1
        assert msgs[0].entity == 7 and msgs[0].to_partition == 2

    def test_second_migration_while_in_flight_rejected(self):
        tracker = MigrationTracker()
        tracker.begin_migration(7, 1, 2, now_us=100, state={})
        with pytest.raises(AlreadyMigrating):
            tracker.begin_migration(7, 2, 1, now_us=200, state={})

    def test_duplicate_ack_rejected(self):
        tracker = MigrationTracker()
        (t,) = tracker.begin_migration(7, 1, 2, now_us=100, state={})
        ack = MigrationTracker.acknowledge(t)
        record = tracker.complete_migration(ack, now_us=300)
        assert record.completed_at_us == 300
        with pytest.raises(UnknownMigration):
            tracker.complete_migration(ack, now_us=301)

    def test_settled_record_has_all_six_fields(self):
        tracker = MigrationTracker()
        tracker.begin_migration(3, 2, 1, now_us=50, state={})
        (t,) = tracker.begin_migration(7, 1, 2, now_us=100, state={})
        record = tracker.complete_migration(MigrationTracker.acknowledge(t), now_us=300)
        assert record._fields == ("entity", "from_partition", "to_partition",
                                  "initiated_at_us", "token", "completed_at_us")
        assert record == (7, 1, 2, 100, 1, 300) and t.token == 1
        assert tracker.in_flight_count() == 1

    def test_stale_token_and_duplicate_ack_are_unknown(self):
        tracker = MigrationTracker()
        (first,) = tracker.begin_migration(7, 1, 2, now_us=100, state={})
        stale = MigrationTracker.acknowledge(first)
        tracker.complete_migration(stale, now_us=200)
        (second,) = tracker.begin_migration(7, 2, 1, now_us=300, state={})
        with pytest.raises(UnknownMigration):
            tracker.complete_migration(stale, now_us=400)
        # the open handshake outlives the stale ack
        assert tracker.in_flight_count() == 1
        ack = MigrationTracker.acknowledge(second)
        assert tracker.complete_migration(ack, now_us=500) == (7, 2, 1, 300, 1, 500)
        with pytest.raises(UnknownMigration):
            tracker.complete_migration(ack, now_us=501)
        assert tracker.in_flight_count() == 0

    def test_settled_migrations_are_returned_not_retained(self):
        tracker = MigrationTracker()

        def cycles(first, count):
            for i in range(first, first + count):
                (t,) = tracker.begin_migration(i, 1, 2, now_us=10 * i, state={})
                record = tracker.complete_migration(
                    MigrationTracker.acknowledge(t), now_us=10 * i + 7)
                assert (record.initiated_at_us, record.completed_at_us) == \
                    (10 * i, 10 * i + 7)

        def sizes():
            return {name: len(value) for name, value in vars(tracker).items()
                    if hasattr(value, "__len__")}

        cycles(0, 10)
        after_ten = sizes()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            cycles(10, 1_000)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert sizes() == after_ten
        assert tracker.in_flight_count() == 0
        # a retained record costs over 100 B; 1,000 of them would show
        assert grown < 16_000

    def test_completion_takes_at_least_the_link_latency(self):
        # handshake over simulated links: transfer out, ack back
        latency_s = 0.25
        engine = Engine(seed=1)
        network = Network(engine)
        network.add_link("physics-1", "physics-2", latency_s, 1e9)
        network.add_link("physics-2", "physics-1", latency_s, 1e9)
        tracker = MigrationTracker()
        done = {}

        def on_p2(msg):
            network.send("physics-2", "physics-1", "ack",
                         MigrationTracker.acknowledge(msg.payload))

        def on_p1(msg):
            record = tracker.complete_migration(msg.payload, engine.now_us)
            done["record"] = record

        network.register_handler("physics-2", on_p2)
        network.register_handler("physics-1", on_p1)
        (t,) = tracker.begin_migration(7, 1, 2, engine.now_us, state={})
        network.send("physics-1", "physics-2", "migrate", t)
        engine.run_until(seconds_to_us(10.0))
        record = done["record"]
        assert record.completed_at_us - record.initiated_at_us >= seconds_to_us(latency_s)

    def test_conservation_over_10000_random_migrations(self):
        # exactly-one-owner audit over a long random transfer workload
        rng = random.Random(2024)
        entities = list(range(1, 201))
        owner = {e: rng.choice([1, 2]) for e in entities}
        trackers = {1: MigrationTracker(), 2: MigrationTracker()}
        in_flight = []
        migrations = 0
        while migrations < 10_000 or in_flight:
            candidates = [e for e in entities if owner[e] is not None]
            start = (migrations < 10_000 and candidates
                     and (not in_flight or rng.random() < 0.7))
            if start:
                e = rng.choice(candidates)
                src = owner[e]
                dst = 2 if src == 1 else 1
                (t,) = trackers[src].begin_migration(e, src, dst, migrations, owner)
                owner[e] = None  # ghosted: simulated by nobody while in flight
                in_flight.append(t)
                migrations += 1
            else:
                t = in_flight.pop(rng.randrange(len(in_flight)))
                owner[t.entity] = t.to_partition
                ack = MigrationTracker.acknowledge(t)
                trackers[t.from_partition].complete_migration(ack, migrations)
            counts = [0, 0, 0]
            for e in entities:
                if owner[e] is not None:
                    counts[owner[e]] += 1
            ghosted = sum(1 for e in entities if owner[e] is None)
            assert counts[1] + counts[2] + ghosted == len(entities)
        # quiescence: every entity owned by exactly one partition
        assert all(owner[e] in (1, 2) for e in entities)
        assert all(t.in_flight_count() == 0 for t in trackers.values())


def test_ghost_count_is_the_open_handshakes_at_every_sample():
    # a small centre split: each node's ghosts, counted from the transfers
    # it sent and the acks it received, are its tracker's open handshakes
    geometry = GaltonGeometry(n_levels=10, boxes=2, rows_per_box=3, droppers_per_row=2,
                              balls_per_dropper=5, nominal_descent_s=12.0)
    config = GaltonExperimentConfig(geometry=geometry, topology="B", split="center_x",
                                    period_t_s=2.0, capacity_c=200, duration_cap_s=600.0,
                                    sample_period_s=0.5, seed=3)
    actors, ghosts, samples = [], defaultdict(set), []
    actor_init, on_message = PhysicsActor.__init__, PhysicsActor.on_message
    send, sample_queues = Network.send, Network.sample_queues

    def record_actor(self, *args, **kwargs):
        actor_init(self, *args, **kwargs)
        actors.append(self)

    def record_ack(self, msg):
        if msg.kind == "ack":
            ghosts[self.node_id].remove(msg.payload.entity)
        on_message(self, msg)

    def record_transfer(self, src, dst, kind, payload, size_bytes=None):
        if kind == "migrate" and src.startswith("physics"):
            ghosts[src].add(payload.entity)
        return send(self, src, dst, kind, payload, size_bytes)

    def check(self, t_us):
        for actor in actors:
            assert actor.ghost_count == actor.tracker.in_flight_count() \
                == len(ghosts[actor.node_id])
            assert set(actor.tracker._in_flight) == ghosts[actor.node_id]
        samples.append(sum(actor.ghost_count for actor in actors))
        return sample_queues(self, t_us)

    with ExitStack() as patches:
        patches.enter_context(mock.patch.object(PhysicsActor, "__init__", record_actor))
        patches.enter_context(mock.patch.object(PhysicsActor, "on_message", record_ack))
        patches.enter_context(mock.patch.object(Network, "send", record_transfer))
        patches.enter_context(mock.patch.object(Network, "sample_queues", check))
        report = run_galton(config)
    assert report.audit_ok and report.migrations_total > 0
    assert len(actors) == 2 and len(samples) > 10
    assert max(samples) > 0 and samples[-1] == 0


def crossing_probability_dp(start_offset: int, steps: int, check_steps: int) -> float:
    """Exact probability a +-1 walk changes sign of (pos >= 0) within the
    first check_steps steps, starting at start_offset (half-bucket units)."""
    state = {(start_offset, False): 1.0}
    for s in range(1, steps + 1):
        check = s <= check_steps
        new: dict[tuple[int, bool], float] = {}
        for (pos, crossed), pr in state.items():
            cur = pos >= 0
            for d in (-1, 1):
                np_ = pos + d
                ncross = crossed or (check and (np_ >= 0) != cur)
                key = (np_, ncross)
                new[key] = new.get(key, 0.0) + pr / 2
        state = new
    return sum(pr for (_, crossed), pr in state.items() if crossed)


class TestCenterSplitCrossing:
    def test_majority_of_paths_cross_the_center(self):
        # rows drop 2 half-buckets left, on, and 2 right of the split line;
        # migration checks run on steps whose resulting level < n
        n = 93
        probs = [crossing_probability_dp(off, n, n - 1) for off in (-2, 0, 2)]
        assert probs[0] == pytest.approx(0.835846, abs=1e-5)
        assert probs[1] == pytest.approx(0.917041, abs=1e-5)
        assert probs[2] == pytest.approx(0.754652, abs=1e-5)
        assert sum(probs) / 3 > 0.5
