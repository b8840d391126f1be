import random
import tracemalloc

import numpy as np
import pytest

from dvesim.engine import Engine, seconds_to_us
from dvesim.netsim import Network
from dvesim.partition import (
    AlreadyMigrating,
    MigrationTracker,
    OutOfRegion,
    PartitionMap,
    RegionSpec,
    UnknownMigration,
    detect_crossing,
)


@pytest.fixture
def region():
    return RegionSpec(256.0, 256.0, 16.0)


@pytest.fixture
def half_split(region):
    return PartitionMap.split_x(region, 128.0, (1, "physics-1"), (2, "physics-2"))


class TestRegionSpec:
    def test_grid_dimensions(self, region):
        assert (region.nx, region.ny) == (16, 16)

    def test_extent_must_be_multiple_of_cell(self):
        with pytest.raises(ValueError):
            RegionSpec(250.0, 256.0, 16.0)

    def test_every_point_maps_to_one_cell(self, region):
        assert region.microcell_of(0.0, 0.0) == (0, 0)
        assert region.microcell_of(255.999, 255.999) == (15, 15)
        with pytest.raises(OutOfRegion):
            region.microcell_of(256.0, 10.0)


class TestOwnerOf:
    def test_point_left_of_split(self, half_split):
        assert half_split.owner_of(127.9, 10.0) == 1

    def test_boundary_point_belongs_to_higher_cell(self, half_split):
        assert half_split.owner_of(128.0, 10.0) == 2

    def test_single_partition_owns_everything(self, region):
        pmap = PartitionMap.single(region, 1, "physics-1")
        for x, y in [(0.0, 0.0), (100.0, 200.0), (255.9, 255.9)]:
            assert pmap.owner_of(x, y) == 1

    def test_split_must_lie_on_cell_boundary(self, region):
        with pytest.raises(ValueError):
            PartitionMap.split_x(region, 120.5, (1, "a"), (2, "b"))

    def test_vectorized_lookup_matches_scalar(self, half_split):
        rng = np.random.default_rng(5)
        xs = rng.uniform(0, 256, size=200)
        ys = rng.uniform(0, 256, size=200)
        owners = half_split.owners_xy(xs, ys)
        for x, y, o in zip(xs, ys, owners):
            assert half_split.owner_of(float(x), float(y)) == o

    def test_rect_map_requires_total_cover(self, region):
        with pytest.raises(ValueError):
            PartitionMap.from_rects(region, [(0, 0, 8, 16, 1)], {1: "a"})


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
        assert record.state == "applied"
        assert record.completed_at_us == 300
        with pytest.raises(UnknownMigration):
            tracker.complete_migration(ack, now_us=301)

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
