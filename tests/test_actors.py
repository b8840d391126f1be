import gc
import itertools
import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from dvesim.actors import (
    _BLOCK,
    _ENTITY,
    _FIELDS,
    DispatcherActor,
    GaltonGeometry,
    PhysicsActor,
    RunLedger,
    ScriptActor,
    UnroutableMessage,
    owner_table,
)
from dvesim.engine import Engine, RandomStream, seconds_to_us
from dvesim.netsim import Message, Network
from dvesim.partition import MigrationTracker, PartitionMap, RegionSpec
from dvesim.scene import ExistenceUpdate, UnknownEntity
from dvesim.harness.galton import GaltonExperimentConfig
from dvesim.stats import binomial_pmf, theoretical_distribution
from helpers import (
    Ball,
    ball_key,
    decode_key,
    descend_one_level,
    detect_crossing,
    key_layout,
    live_records,
    owner_of,
    seat,
)


class TestGeometry:
    def test_paper_dimensions(self):
        geo = GaltonGeometry()
        assert geo.bucket_count == 96
        assert geo.dropper_count == 108
        assert geo.total_balls == 37_800
        assert geo.balls_per_row == 12_600

    def test_bucket_mapping_extremes(self):
        geo = GaltonGeometry()
        assert geo.final_bucket(column=-93, row=0) == 0
        assert geo.final_bucket(column=93, row=2) == 95

    def test_row_drop_positions_straddle_the_center(self):
        geo = GaltonGeometry()
        region = RegionSpec()
        xs = [geo.ball_x_m(region, r, 0) for r in range(3)]
        assert xs[0] == pytest.approx(125.3333, abs=1e-3)
        assert xs[1] == 128.0
        assert xs[2] == pytest.approx(130.6667, abs=1e-3)

    def test_center_split_separates_one_row_from_two(self):
        geo = GaltonGeometry()
        region = RegionSpec()
        pmap = PartitionMap.split(region, 0, 128.0, (1, "physics-1"), (2, "physics-2"))
        owners = [owner_of(pmap, geo.ball_x_m(region, r, 0), geo.box_center_y_m(region, 0))
                  for r in range(3)]
        assert owners == [1, 2, 2]

    def test_final_x_is_bucket_center(self):
        geo = GaltonGeometry()
        region = RegionSpec()
        bw = geo.bucket_width_m(region)
        x = geo.ball_x_m(region, row=2, column=93)
        assert x == pytest.approx((95 + 0.5) * bw)

    def test_validation(self):
        with pytest.raises(ValueError):
            GaltonGeometry(n_levels=0)


class TestDescendOneLevel:
    class FixedStream:
        def __init__(self, value):
            self.value = value

        def uniform(self):
            return self.value

    def test_draw_below_half_steps_left(self):
        ball = Ball(id=1, box=0, row=0)
        descend_one_level(ball, self.FixedStream(0.2))
        assert (ball.level, ball.column) == (1, -1)

    def test_draw_above_half_steps_right(self):
        ball = Ball(id=1, box=0, row=0)
        descend_one_level(ball, self.FixedStream(0.7))
        assert (ball.level, ball.column) == (1, 1)

    def test_column_parity_matches_level_parity(self):
        eng = Engine(seed=11)
        stream = eng.stream("d")
        ball = Ball(id=1, box=0, row=0)
        for _ in range(93):
            descend_one_level(ball, stream)
        assert ball.level == 93
        assert abs(ball.column) <= 93
        assert (ball.column - 93) % 2 == 0

    def test_collected_ball_cannot_descend(self):
        ball = Ball(id=1, box=0, row=0, state="collected")
        with pytest.raises(ValueError):
            descend_one_level(ball, self.FixedStream(0.1))


def wire_physics(geometry, capacity, seed=1, tick_len_s=0.1):
    """Single physics node; its deletes reach a script node with no handler."""
    engine = Engine(seed=seed)
    network = Network(engine)
    region = RegionSpec()
    pmap = PartitionMap.single(region, 1, "physics-1")
    table = owner_table(geometry, pmap)
    ledger = RunLedger(geometry.total_balls)
    network.add_link("physics-1", "dispatcher", 0.001, 1e9)
    network.add_link("dispatcher", "physics-1", 0.001, 1e9)
    network.add_link("dispatcher", "script", 0.001, 1e9)
    actor = PhysicsActor("physics-1", 1, table, geometry, capacity, tick_len_s,
                         engine, network, ledger)
    dispatcher = DispatcherActor(network, pmap.partitions, table)
    network.register_handler("physics-1", actor.on_message)
    network.register_handler("dispatcher", dispatcher.dispatcher_relay)
    return engine, actor, ledger


class TestPhysicsMessages:
    GEO = GaltonGeometry(n_levels=10, boxes=1, rows_per_box=1, droppers_per_row=1,
                         balls_per_dropper=1, nominal_descent_s=1.0)

    @pytest.mark.parametrize("kind", ["delete", "update"])
    def test_scene_updates_are_unroutable(self, kind):
        # a physics node deletes only the balls it simulates, itself
        engine, actor, ledger = wire_physics(self.GEO, capacity=10)
        seat(actor, Ball(id=1, box=0, row=0))
        delete = ExistenceUpdate(1, False, (10, "physics-2", 0))
        with pytest.raises(UnroutableMessage):
            actor.on_message(Message(kind, 256, delete, 0, 0))
        assert actor.replica.live_count() == actor.active_count == 1


class TestDescentDistribution:
    def test_final_columns_match_binomial(self):
        # 10^5 balls over a 10-level board vs the exact pmf, chi-square
        geo = GaltonGeometry(n_levels=10, boxes=1, rows_per_box=1,
                             droppers_per_row=1, balls_per_dropper=1,
                             nominal_descent_s=1.0)
        n_balls = 100_000
        engine, actor, ledger = wire_physics(geo, capacity=n_balls, seed=17)
        for i in range(n_balls):
            seat(actor, Ball(id=i + 1, box=0, row=0), scene_seq=i)
        engine.run_until(seconds_to_us(5.0))
        assert ledger.collected == n_balls
        expected = binomial_pmf(10, 0.5) * n_balls
        result = scipy_stats.chisquare(
            np.bincount(np.array(ledger.collections)[3::4], minlength=geo.bucket_count),
            expected)
        assert result.pvalue > 0.01


class TestDilation:
    def run_population(self, n_balls, capacity):
        geo = GaltonGeometry(n_levels=10, boxes=1, rows_per_box=1,
                             droppers_per_row=1, balls_per_dropper=1,
                             nominal_descent_s=10.0)
        engine, actor, ledger = wire_physics(geo, capacity=capacity, seed=5)
        for i in range(n_balls):
            seat(actor, Ball(id=i + 1, box=0, row=0), scene_seq=i)
        engine.run_until(seconds_to_us(600.0))
        assert ledger.collected == n_balls
        intervals = np.array(ledger.collections)[1::4] / 1e6
        return intervals.mean(), actor

    def test_unloaded_interval_matches_nominal(self):
        mean, actor = self.run_population(10, capacity=100)
        assert 0.99 * 10.0 <= mean <= 1.01 * 10.0

    def test_two_to_one_overload_doubles_interval(self):
        mean, _ = self.run_population(200, capacity=100)
        assert mean == pytest.approx(2 * 10.0, rel=0.05)

    def test_three_to_one_overload_triples_interval(self):
        mean, _ = self.run_population(300, capacity=100)
        assert mean == pytest.approx(3 * 10.0, rel=0.05)

    def test_per_tick_work_bound(self, monkeypatch):
        # every tick's served count, as physics_tick returns it
        steps = []
        tick = PhysicsActor.physics_tick

        def counted(actor, now_us):
            result = tick(actor, now_us)
            steps.append(result["stepped"])
            return result

        monkeypatch.setattr(PhysicsActor, "physics_tick", counted)
        _, actor = self.run_population(250, capacity=100)
        assert 0 < sum(steps) <= len(steps) * actor.capacity
        report = actor.physics_tick(actor.engine.now_us)
        assert report["stepped"] == min(actor.active_count, actor.capacity)


class TestPhysicsTickOracle:
    """The vectorized physics_tick against a scalar model of the same tick.

    The model is built from Ball, descend_one_level and detect_crossing and
    replays the node's descent stream: each tick it serves the first
    min(n, capacity) balls in order, draws in index order, removes landed
    and migrated balls and rotates the served survivors to the back.  Balls
    that arrive between ticks join the back before the next tick.  Both
    record what the node sends: for each round of crossings, a delete per
    landed ball, then a transfer per migrating ball, each in service order.
    """

    GEO = GaltonGeometry(n_levels=10, boxes=1, rows_per_box=1, droppers_per_row=1,
                         balls_per_dropper=1, nominal_descent_s=10.0)
    #: two boxes of two rows: the balls take turns over the four lanes of the
    #: owner table and start spread over the states a drop reaches in their
    #: node's partition, the lanes' edge columns included
    LANES = GaltonGeometry(n_levels=10, boxes=2, rows_per_box=2, droppers_per_row=1,
                           balls_per_dropper=1, nominal_descent_s=10.0)
    CAPACITY = 100
    TICK_S = 0.1
    SEED = 23
    #: (t_s, count) of later arrivals per initial population.  1,000 balls
    #: over capacity 100 plus 24 arrivals fill the 1,024-row ring, so the
    #: served window wraps, and served in place it overlaps the back where
    #: the survivors go; the next 40 grow the ring from an offset head.
    ARRIVALS = {1000: ((0.25, 24), (3.05, 40))}

    def place(self, geo, pmap, partition_id, entity):
        """(box, row, level, column) at which a ball starts, in the
        partition."""
        if geo is self.GEO:
            return 0, 0, 0, 0
        region = pmap.region
        box, row = divmod((entity - 1) % 4, 2)
        y = geo.box_center_y_m(region, box)
        states = [(level, c) for level in range(geo.n_levels)
                  for c in range(-level, level + 1, 2)
                  if owner_of(pmap, geo.ball_x_m(region, row, c), y) == partition_id]
        return (box, row, *states[(entity - 1) // 4 % len(states)])

    def scalar_model(self, geo, n_balls, node, pmap):
        """Ordered (t_us, bucket) collections, (entity, t_us) migrations and
        (t_us, kind, entity) sends."""
        region = pmap.region
        partition_id = next(p for p, n in pmap.partitions.items() if n == node)
        stream = RandomStream(f"{node}:descent", self.SEED)
        tick_us = seconds_to_us(self.TICK_S)
        level_us = geo.level_time_us

        def ball(entity):
            box, row, level, column = self.place(geo, pmap, partition_id, entity)
            return Ball(id=entity, box=box, row=row, level=level, column=column)

        def position(b):
            return geo.ball_x_m(region, b.row, b.column), geo.box_center_y_m(region, b.box)

        balls = [ball(i + 1) for i in range(n_balls)]
        arrivals = [(seconds_to_us(t_s), count)
                    for t_s, count in self.ARRIVALS.get(n_balls, ())]
        progress = {b.id: 0 for b in balls}
        collections, migrations, sends = [], [], []
        now = 0
        while balls or arrivals:
            now += tick_us
            while arrivals and arrivals[0][0] < now:
                _, count = arrivals.pop(0)
                for _ in range(count):
                    b = ball(len(progress) + 1)
                    balls.append(b)
                    progress[b.id] = 0
            served = balls[:self.CAPACITY]
            gone = set()
            for b in served:
                progress[b.id] += tick_us
            crossed = [b for b in served if progress[b.id] >= level_us]
            while crossed:
                prev = {}
                for b in crossed:
                    progress[b.id] -= level_us
                    prev[b.id] = position(b)
                    descend_one_level(b, stream)
                landed = [b for b in crossed if b.level >= geo.n_levels]
                moved = [b for b in crossed if b.level < geo.n_levels
                         and detect_crossing(prev[b.id], position(b), pmap)]
                collections += [(now, geo.final_bucket(b.column, b.row)) for b in landed]
                sends += [(now, "delete", b.id) for b in landed]
                sends += [(now, "migrate", b.id) for b in moved]
                migrations += [(b.id, now) for b in moved]
                gone.update(b.id for b in landed + moved)
                crossed = [b for b in crossed
                           if b.id not in gone and progress[b.id] >= level_us]
            balls = balls[self.CAPACITY:] + [b for b in served if b.id not in gone]
        return collections, migrations, sends

    def vectorized_run(self, geo, n_balls, node, pmap, monkeypatch):
        """The actor on a sink dispatcher: what it sends is never answered."""
        engine = Engine(seed=self.SEED)
        network = Network(engine)
        network.add_link(node, "dispatcher", 0.001, 1e9)
        total = n_balls + sum(count for _, count in self.ARRIVALS.get(n_balls, ()))
        ledger = RunLedger(total)
        partition_id = next(p for p, n in pmap.partitions.items() if n == node)
        actor = PhysicsActor(node, partition_id, owner_table(geo, pmap), geo,
                             self.CAPACITY, self.TICK_S, engine, network, ledger)
        migrations, sends = [], []
        begin, send = actor.tracker.begin_migration, network.send

        def record(entity, from_partition, to_partition, now_us, state):
            migrations.append((entity, now_us))
            return begin(entity, from_partition, to_partition, now_us, state)

        def record_send(src, dst, kind, payload):
            sends.append((engine.now_us, kind, payload.entity))
            return send(src, dst, kind, payload)

        monkeypatch.setattr(actor.tracker, "begin_migration", record)
        monkeypatch.setattr(network, "send", record_send)
        entities = iter(range(1, 10**6))

        def inject(count):
            for _ in range(count):
                entity = next(entities)
                box, row, level, column = self.place(geo, pmap, partition_id, entity)
                seat(actor, Ball(id=entity, box=box, row=row, level=level, column=column),
                     scene_seq=entity - 1)

        inject(n_balls)
        for t_s, count in self.ARRIVALS.get(n_balls, ()):
            engine.schedule(seconds_to_us(t_s), lambda count=count: inject(count))
        engine.run_until(seconds_to_us(600.0))
        assert actor.active_count == 0
        # the replica forgot every ball it collected, and keeps only the
        # shipped ones, whose acks never come
        assert not actor.replica._tombs
        assert sorted(live_records(actor.replica)) == sorted(e for e, _ in migrations)
        rows = np.array(ledger.collections).reshape(-1, 4)
        return list(map(tuple, rows[:, [0, 3]].tolist())), migrations, sends

    @pytest.mark.parametrize("n_balls", [50, 250, _BLOCK + 76, 1000])
    @pytest.mark.parametrize("split", [False, True])
    def test_matches_scalar_model(self, n_balls, split, monkeypatch):
        # the drop column lies right of the centre split
        self.check(self.GEO, n_balls, split, "physics-2" if split else "physics-1",
                   monkeypatch)

    @pytest.mark.parametrize("n_balls", [250, 1000])
    @pytest.mark.parametrize("split", [False, True])
    def test_four_lanes_match_scalar_model(self, n_balls, split, monkeypatch):
        # on the split, each node in turn holds the balls of its own half
        for node in ("physics-1", "physics-2") if split else ("physics-1",):
            self.check(self.LANES, n_balls, split, node, monkeypatch)

    def check(self, geo, n_balls, split, node, monkeypatch):
        region = RegionSpec()
        if split:
            pmap = PartitionMap.split(region, 0, 128.0, (1, "physics-1"), (2, "physics-2"))
        else:
            pmap = PartitionMap.single(region, 1, "physics-1")
        want_collections, want_migrations, want_sends = self.scalar_model(
            geo, n_balls, node, pmap)
        got_collections, got_migrations, got_sends = self.vectorized_run(
            geo, n_balls, node, pmap, monkeypatch)
        assert got_collections == want_collections
        assert got_migrations == want_migrations
        assert got_sends == want_sends
        total = n_balls + sum(count for _, count in self.ARRIVALS.get(n_balls, ()))
        assert sorted(entity for _, _, entity in want_sends) == list(range(1, total + 1))
        assert bool(want_migrations) == split
        # every ball that leaves lands or migrates: none is discarded
        assert len(want_sends) == len(want_collections) + len(want_migrations)


def seated_ids(actor):
    """Entity ids of the seated balls, in service order, read from their
    ring rows."""
    ring = actor._ring.view(np.int64).reshape(-1, _FIELDS)
    rows = (actor._head + np.arange(actor._n)) % len(ring)
    return ring[rows, _ENTITY].tolist()


def ring_ids(actor, count):
    """Entity ids of the first ``count`` balls in the actor's service order:
    the seated balls, then the arrivals that the next tick seats."""
    return (seated_ids(actor) + actor._arrivals[_ENTITY::_FIELDS])[:count]


class TestBallRing:
    """The ring's service order against a deque that rotates served
    survivors to the back and appends arrivals, and its ids against the
    balls the node's replica holds."""

    GEO = GaltonGeometry(n_levels=10, boxes=1, rows_per_box=1, droppers_per_row=1,
                         balls_per_dropper=1, nominal_descent_s=1.0)
    CAPACITY = 7

    def drain(self, monkeypatch, schedule):
        """Inject ``(t_s, count)`` balls, drain them and check every tick
        against the deque; returns what the ticks did to the ring."""
        engine, actor, ledger = wire_physics(self.GEO, capacity=self.CAPACITY, seed=8)
        reference = deque()
        seen = {"wrapped": 0, "grew_offset": False,
                "unmasked_aliased": 0, "unmasked_wrapped": 0}
        next_id = iter(range(1, 10**6))

        def inject(count):
            for _ in range(count):
                entity = next(next_id)
                seat(actor, Ball(id=entity, box=0, row=0), scene_seq=entity)
                reference.append(entity)

        tick, delete = actor.physics_tick, actor.replica.delete_entity
        retired = set()

        def recorded_delete(entity, ts_us):
            retired.add(entity)
            return delete(entity, ts_us)

        def checked_tick(now_us):
            k = min(len(reference), self.CAPACITY)
            served = [reference.popleft() for _ in range(k)]
            n = k + len(reference)
            assert ring_ids(actor, actor.active_count) == served + list(reference)
            # the tick seats the arrivals first, growing a full ring
            head, size, gone = actor._head, len(actor._ring), len(retired)
            result = tick(now_us)
            if len(actor._ring) != size:
                seen["grew_offset"] |= head != 0
            elif head + k > size:
                seen["wrapped"] += 1
            # nobody left, so the survivors are pushed from the window itself
            if len(retired) == gone and k < n and len(actor._ring) == size:
                if head + k > size:
                    seen["unmasked_wrapped"] += 1
                elif n + k > size:
                    seen["unmasked_aliased"] += 1
            reference.extend(e for e in served if e not in retired)
            # every ball the replica holds, less the ghosts, is seated once or
            # buffered once, never both
            seated = seated_ids(actor)
            buffered = actor._arrivals[_ENTITY::_FIELDS]
            assert len(set(seated)) == len(seated)
            held = set(live_records(actor.replica)) - set(actor.tracker._in_flight)
            assert sorted(seated + buffered) == sorted(held)
            return result

        monkeypatch.setattr(actor, "physics_tick", checked_tick)
        monkeypatch.setattr(actor.replica, "delete_entity", recorded_delete)
        for t_s, count in schedule:
            engine.schedule(seconds_to_us(t_s), lambda count=count: inject(count))
        engine.run_until(seconds_to_us(3600.0))
        total = sum(count for _, count in schedule)
        assert ledger.collected == total
        # a tick that skipped the check would leave the deque out of step
        # with the ring, or balls in it after the drain
        assert actor.active_count == 0 and not reference
        return seen, actor

    def test_service_order_matches_deque(self, monkeypatch):
        # arrivals land while earlier balls are mid-descent and the head has
        # moved, so the ring grows from an offset head and later wraps
        schedule = [(0.0, 600), (0.35, 5), (2.05, 450), (7.3, 3), (40.0, 200)]
        seen, actor = self.drain(monkeypatch, schedule)
        assert sum(count for _, count in schedule) > _BLOCK
        assert seen["grew_offset"] and seen["wrapped"] > 0 and len(actor._ring) > _BLOCK

    @pytest.mark.parametrize("balls, case", [(_BLOCK - 4, "unmasked_aliased"),
                                             (700, "unmasked_wrapped")])
    def test_unmasked_rotation_matches_deque(self, monkeypatch, balls, case):
        # one burst, so no ball lands for the first ~balls / capacity ticks
        # while the head walks round the ring: with n + k past the ring's
        # length the window and the back it is pushed to share rows
        seen, actor = self.drain(monkeypatch, [(0.0, balls)])
        assert len(actor._ring) == _BLOCK and seen[case] > 0


def layout_map(layout, region):
    """A one- or two-partition map of the region, split at its middle."""
    if layout == "single":
        return PartitionMap.single(region, 1, "physics-1")
    axis = ("split_x", "split_y").index(layout)
    return PartitionMap.split(region, axis, 128.0, (1, "physics-1"), (2, "physics-2"))


class TestOwnerTable:
    GEO = GaltonGeometry()
    #: a short board whose rows drop three buckets apart
    OFFSET = GaltonGeometry(n_levels=7, row_offset_buckets=3)

    @pytest.mark.parametrize("layout", ["single", "split_x", "split_y"])
    def test_table_equals_owners_xy(self, layout):
        geo = self.GEO
        region = RegionSpec()
        pmap = layout_map(layout, region)
        owners, drops, _ = owner_table(geo, pmap)
        n = geo.n_levels
        assert key_layout(geo) == (-n, 2 * n + 1)
        assert len(owners) == geo.boxes * geo.rows_per_box * (2 * n + 1)
        want = []
        for key in range(len(owners)):
            box, row, column = decode_key(geo, key)
            assert -n <= column <= n
            want.append(owner_of(pmap, geo.ball_x_m(region, row, column),
                                 geo.box_center_y_m(region, box)))
            # a seated ball's step, either way, stays in its lane
            if abs(column) < n:
                assert decode_key(geo, key - 1) == (box, row, column - 1)
                assert decode_key(geo, key + 1) == (box, row, column + 1)
        assert owners == want
        assert set(want) == set(pmap.partitions)
        # each (box, row) lane drops its balls at its column 0
        assert drops == [[ball_key(geo, box, row, 0) for row in range(geo.rows_per_box)]
                         for box in range(geo.boxes)]

    def test_buckets_match_the_scalar_decode(self):
        # a 2-box, 3-row board, so that a key's lane decodes to a different
        # (box, row) under the box count than under the rows per box
        geo = GaltonGeometry(n_levels=10, boxes=2, rows_per_box=3, row_offset_buckets=2)
        _, _, buckets = owner_table(geo, PartitionMap.single(RegionSpec(), 1, "physics-1"))
        want = [geo.final_bucket(column, row)
                for _, row, column in (decode_key(geo, key) for key in range(len(buckets)))]
        assert buckets == want
        assert set(want) == set(range(geo.bucket_count))

    @pytest.mark.parametrize("layout", ["single", "split_x", "split_y"])
    def test_create_routes_equal_owner_of(self, layout):
        # a create is routed by its drop key, the lane's column 0
        region = RegionSpec()
        pmap = layout_map(layout, region)
        for geo in (self.GEO, self.OFFSET):
            dispatcher = DispatcherActor(Network(Engine(seed=1)), pmap.partitions,
                                         owner_table(geo, pmap))
            want = {ball_key(geo, box, row, 0):
                    pmap.partitions[owner_of(pmap, geo.ball_x_m(region, row, 0),
                                             geo.box_center_y_m(region, box))]
                    for box in range(geo.boxes) for row in range(geo.rows_per_box)}
            assert dispatcher._create_nodes == want


@st.composite
def boards(draw):
    """A geometry on a region of whole microcells, split in either way or
    not at all: an even cell count on each axis puts either split on a
    cell boundary."""
    n = draw(st.integers(min_value=1, max_value=40))
    geometry = GaltonGeometry(
        n_levels=n,
        boxes=draw(st.integers(min_value=1, max_value=5)),
        rows_per_box=draw(st.integers(min_value=1, max_value=4)),
        row_offset_buckets=draw(st.integers(min_value=0, max_value=2 * n + 4)),
    )
    microcell = draw(st.sampled_from([0.5, 3.0, 16.0]))
    topology, split = draw(st.sampled_from(
        [("A", "center_x"), ("B", "center_x"), ("B", "between_boxes")]))
    config = GaltonExperimentConfig(
        geometry=geometry, topology=topology, split=split, microcell_m=microcell,
        region_width_m=microcell * 2 * draw(st.integers(min_value=1, max_value=20)),
        region_depth_m=microcell * 2 * draw(st.integers(min_value=1, max_value=20)))
    return geometry, config.build_partition_map()


@settings(max_examples=200, deadline=None)
@given(board=boards())
def test_every_key_of_the_owner_table_is_a_reachable_position(board):
    # owners_xy raises OutOfRegion if any key's position lies off the region
    geo, pmap = board
    owners, drops, buckets = owner_table(geo, pmap)
    n = geo.n_levels
    assert len(owners) == len(buckets) == geo.boxes * geo.rows_per_box * (2 * n + 1)
    assert set(owners) <= set(pmap.partitions)
    assert all(0 <= bucket < geo.bucket_count for bucket in buckets)
    # a ball lands at level n, on a column of n's parity; the buckets it
    # reaches are those that theory expects a ball in, and every bucket once
    # the rows' ranges of n + 1 buckets overlap or touch
    landing = {buckets[ball_key(geo, box, row, column)]
               for box in range(geo.boxes) for row in range(geo.rows_per_box)
               for column in range(-n, n + 1, 2)}
    expected = theoretical_distribution(geo)
    assert landing == set(np.flatnonzero(expected > 0).tolist())
    if geo.row_offset_buckets <= n + 1:
        assert landing == set(range(geo.bucket_count))


def wire_run(geometry, topology, period_s, capacity, seed=1):
    from dvesim.harness.galton import (
        SPLIT_CENTER_X,
        GaltonExperimentConfig,
    )
    return GaltonExperimentConfig(
        geometry=geometry, topology=topology, split=SPLIT_CENTER_X,
        period_t_s=period_s, capacity_c=capacity, seed=seed,
        duration_cap_s=3600.0,
    )


class TestScriptActor:
    GEO = GaltonGeometry(balls_per_dropper=3)

    def small_script(self, period_s=6.0, seed=1):
        geo = self.GEO
        engine = Engine(seed=seed)
        network = Network(engine)
        ledger = RunLedger(geo.total_balls)
        network.add_link("script", "dispatcher", 0.001, 1e9)
        sink = []
        network.register_handler("dispatcher", sink.append)
        table = owner_table(geo, PartitionMap.single(RegionSpec(), 1, "physics-1"))
        script = ScriptActor(engine, network, table, geo, period_s, ledger)
        return engine, script, ledger, sink

    def test_one_creation_per_dropper_per_period(self):
        engine, script, ledger, sink = self.small_script()
        script.start()
        engine.run_until(seconds_to_us(6.5))
        # bursts at t=0 and t=6: 108 droppers each
        assert ledger.created == 216

    def test_exhausted_droppers_stop_creating(self):
        engine, script, ledger, sink = self.small_script()
        script.start()
        engine.run_until(seconds_to_us(60.0))
        assert ledger.created == self.GEO.total_balls == 324
        assert script.exhausted
        msgs = script.dropper_tick(engine.now_us)
        assert msgs == []

    def test_creation_schedule_independent_of_physics_load(self):
        # the script is never throttled: same send times at any capacity
        def send_times(capacity):
            geo = GaltonGeometry(balls_per_dropper=5)
            cfg = wire_run(geo, "A", 2.0, capacity, seed=3)
            from dvesim.harness.galton import run_galton
            report = run_galton(cfg)
            return report.link_totals["script->dispatcher"]

        slow = send_times(capacity=1)
        fast = send_times(capacity=10_000)
        assert slow["sent_count"] == fast["sent_count"]
        assert slow["sent_bytes"] == fast["sent_bytes"]

    def test_create_ships_a_ball_record(self):
        # the (row, stamp) record a transfer ships: a ring row at progress
        # and level 0 on its dropper's drop key, with the stamp object the
        # script's replica stored: exact tuples of atomic values, which the
        # cyclic collector stops tracking
        engine, script, ledger, sink = self.small_script()
        geo = self.GEO
        msgs = script.dropper_tick(0)
        drops = [ball_key(geo, box, row, 0) for box in range(geo.boxes)
                 for row in range(geo.rows_per_box) for _ in range(geo.droppers_per_row)]
        assert [m.payload[0] for m in msgs] == [(0, 0, key, entity, 0)
                                                for entity, key in enumerate(drops, 1)]
        assert all(m.payload[1] is script.replica.stamp_of(m.payload[0][_ENTITY]) for m in msgs)
        assert {m.payload[1][1] for m in msgs} == {"script"}
        # the first collection untracks the rows, the next the records
        gc.collect()
        gc.collect()
        assert not any(gc.is_tracked(m.payload) for m in msgs)

    def test_a_drop_is_one_update_with_one_stamp(self):
        # every create of a drop carries the stamp object that the script's
        # replica stored for all of them, on one seq; the next drop takes
        # the next seq and a new object.
        engine, script, ledger, sink = self.small_script()
        drops = [script.dropper_tick(0) for _ in range(3)]
        stamps = [msgs[0].payload[1] for msgs in drops]
        assert [stamp[2] for stamp in stamps] == [0, 1, 2] and script.replica._seq == 3
        assert len({id(stamp) for stamp in stamps}) == 3
        for msgs, stamp in zip(drops, stamps):
            assert len(msgs) == len(script.drop_keys)
            for m in msgs:
                entity = m.payload[0][_ENTITY]
                assert m.payload[1] is stamp and script.replica.stamp_of(entity) is stamp

    def test_applies_deletes_and_rejects_every_other_kind(self):
        engine, script, ledger, sink = self.small_script()
        script.dropper_tick(0)
        live = script.replica.live_count()
        delete = ExistenceUpdate(1, False, (10, "physics-1", 0))
        script.on_message(Message("delete", 256, delete, 0, 0))
        assert script.replica.live_count() == live - 1
        for kind in ("create", "migrate", "ack", "update"):
            with pytest.raises(UnroutableMessage):
                script.on_message(Message(kind, 256, delete, 0, 0))
        assert script.replica.live_count() == live - 1

    def test_forgets_a_ball_once_its_delete_applies(self):
        engine, script, ledger, sink = self.small_script()
        script.dropper_tick(0)
        live = script.replica.live_count()
        delete = ExistenceUpdate(1, False, (10**6, "physics-1", 0))
        script.on_message(Message("delete", 256, delete, 0, 0))
        assert 1 not in live_records(script.replica) and 1 not in script.replica._tombs
        with pytest.raises(UnknownEntity):
            script.on_message(Message("delete", 256, delete, 0, 0))
        # stamped before ball 2's creation: superseded, so the ball stays
        # live and held
        created_ts = script.replica.stamp_of(2)[0]
        stale = ExistenceUpdate(2, False, (created_ts - 1, "physics-1", 1))
        script.on_message(Message("delete", 256, stale, 0, 0))
        assert 2 in live_records(script.replica)
        assert script.replica.live_count() == live - 1


def queued_on(network, msg) -> str:
    """The node that the link holding ``msg`` in its queue leads to."""
    (node,) = [link.to_node for link in network.links()
               if any(queued is msg for queued in link._queue)]
    return node


class TestDispatcher:
    def wire(self):
        geo = GaltonGeometry()
        engine = Engine(seed=1)
        network = Network(engine)
        region = RegionSpec()
        pmap = PartitionMap.split(region, 0, 128.0, (1, "physics-1"), (2, "physics-2"))
        for node in ("script", "physics-1", "physics-2"):
            network.add_link("dispatcher", node, 0.001, 1e9)
            network.add_link(node, "dispatcher", 0.001, 1e9)
        dispatcher = DispatcherActor(network, pmap.partitions, owner_table(geo, pmap))
        return engine, network, dispatcher

    def test_create_routes_to_owning_partition(self):
        engine, network, dispatcher = self.wire()
        geo = GaltonGeometry()
        # (progress, level, key, id, created), then the stamp
        spawn = ((0, 0, ball_key(geo, 0, 0, 0), 1, 0), (0, "script", 0))
        msg = Message("create", 1024, spawn, 0, 0)
        out = dispatcher.dispatcher_relay(msg)
        assert len(out) == 1
        assert queued_on(network, out[0]) == "physics-1"  # row 0 drops left of the split
        spawn2 = ((0, 0, ball_key(geo, 0, 2, 0), 2, 0), (0, "script", 1))
        out2 = dispatcher.dispatcher_relay(Message("create", 1024, spawn2, 0, 0))
        assert queued_on(network, out2[0]) == "physics-2"

    def test_delete_routes_to_script(self):
        engine, network, dispatcher = self.wire()
        out = dispatcher.dispatcher_relay(Message("delete", 256, None, 0, 0))
        assert [(m.kind, queued_on(network, m)) for m in out] == [("delete", "script")]

    @pytest.mark.parametrize("losing, gaining", [(1, 2), (2, 1)])
    def test_transfer_and_ack_route_by_their_partitions(self, losing, gaining):
        engine, network, dispatcher = self.wire()
        (transfer,) = MigrationTracker().begin_migration(7, losing, gaining, 0, None)
        ack = MigrationTracker.acknowledge(transfer)
        assert ack.from_partition == losing
        out = dispatcher.dispatcher_relay(Message("migrate", 1024, transfer, 0, 0))
        assert [queued_on(network, m) for m in out] == [f"physics-{gaining}"]
        out = dispatcher.dispatcher_relay(Message("ack", 64, ack, 0, 0))
        assert [queued_on(network, m) for m in out] == [f"physics-{losing}"]
        assert out[0].payload is ack

    def test_unroutable_kind(self):
        engine, network, dispatcher = self.wire()
        with pytest.raises(UnroutableMessage):
            dispatcher.dispatcher_relay(Message("bogus", 1, None, 0, 0))

    def test_update_is_unroutable(self):
        # no node sends scene updates, so the dispatcher has no route for one
        engine, network, dispatcher = self.wire()
        with pytest.raises(UnroutableMessage):
            dispatcher.dispatcher_relay(Message("update", 256, None, 0, 0))

    def test_relay_preserves_per_source_ordering(self):
        engine, network, dispatcher = self.wire()
        network.register_handler("dispatcher", dispatcher.dispatcher_relay)
        arrivals = []
        network.register_handler("script", lambda m: arrivals.append(m.payload))
        rng = Engine(seed=9).stream("traffic")
        sent = []
        t = 0
        for i in range(200):
            t += int(rng.uniform() * 5000)
            engine.schedule(t, lambda i=i: network.send("physics-1", "dispatcher",
                                                        "delete", i))
            sent.append(i)
        engine.run_until(seconds_to_us(10.0))
        assert arrivals == sent


class TestMigrationFlow:
    def test_border_crossing_emits_transfer_and_ack(self):
        from dvesim.harness.galton import run_galton
        geo = GaltonGeometry(balls_per_dropper=2)
        cfg = wire_run(geo, "B", 1.0, 5000, seed=12)
        report = run_galton(cfg)
        assert report.collected_total == geo.total_balls
        assert report.migrations_total > 0

    def test_ownership_exclusive_after_run(self):
        from dvesim.harness.galton import run_galton
        geo = GaltonGeometry(balls_per_dropper=4)
        cfg = wire_run(geo, "B", 0.5, 5000, seed=12)
        report = run_galton(cfg)
        assert report.created_total == report.collected_total


def wire_split(geometry, max_entity):
    """Two physics nodes on a centre split, behind a dispatcher; deletes
    reach a script node with no handler.  Returns the engine, the ledger
    and the nodes left and right of the split."""
    engine = Engine(seed=4)
    network = Network(engine)
    pmap = PartitionMap.split(RegionSpec(), 0, 128.0, (1, "physics-1"), (2, "physics-2"))
    table = owner_table(geometry, pmap)
    ledger = RunLedger(max_entity)
    dispatcher = DispatcherActor(network, pmap.partitions, table)
    network.register_handler("dispatcher", dispatcher.dispatcher_relay)
    network.add_link("dispatcher", "script", 0.001, 1e9)
    actors = {}
    for pid, node in pmap.partitions.items():
        network.add_link(node, "dispatcher", 0.001, 1e9)
        network.add_link("dispatcher", node, 0.001, 1e9)
        actors[node] = PhysicsActor(node, pid, table, geometry, 10, 0.1, engine,
                                    network, ledger)
        network.register_handler(node, actors[node].on_message)
    return engine, ledger, actors["physics-1"], actors["physics-2"]


class TestReplicaForgets:
    """A physics replica holds only the balls its node simulates or ghosts."""

    GEO = GaltonGeometry(n_levels=10, boxes=1, rows_per_box=1, droppers_per_row=1,
                         balls_per_dropper=1, nominal_descent_s=1.0)

    def test_collecting_node_forgets_the_ball(self):
        engine, actor, ledger = wire_physics(self.GEO, capacity=10)
        seat(actor, Ball(id=1, box=0, row=0))
        assert actor.replica.live_count() == 1
        engine.run_until(seconds_to_us(5.0))
        assert ledger.collected == 1 and actor.replica.live_count() == 0
        with pytest.raises(UnknownEntity):
            actor.replica.delete_entity(1, engine.now_us)

    def test_losing_node_forgets_the_ball_when_the_ack_returns(self):
        # every level takes one 0.1 s tick, so the first tick steps each ball
        # once: from column -1 at level 1, just left of the split, half of
        # them step right onto column 0 and migrate; their acks are back by
        # 0.15 s, before the second tick
        engine, ledger, losing, gaining = wire_split(self.GEO, 8)
        for entity in range(1, 9):
            seat(losing, Ball(id=entity, box=0, row=0, level=1, column=-1),
                 scene_seq=entity)
        engine.run_until(seconds_to_us(0.15))
        moved = [entity for entity, flag in enumerate(ledger.migrated_entities) if flag]
        assert 0 < len(moved) < 8 and ledger.migrations_completed == len(moved)
        assert losing.ghost_count == 0
        for entity in moved:
            with pytest.raises(UnknownEntity):
                losing.replica.delete_entity(entity, engine.now_us)
        for actor in (losing, gaining):
            assert actor.replica.live_count() == actor.active_count
        assert gaining.active_count == len(moved)


class TestOneStampPerBall:
    """A ball's existence stamp is one object, built by the script's replica
    and held by every replica that applies it; a node's ring row and the
    owner-table key hold the rest of what the node knows of a ball."""

    GEO = GaltonGeometry(n_levels=10, boxes=1, rows_per_box=1, droppers_per_row=1,
                         balls_per_dropper=1, nominal_descent_s=1.0)
    #: two boxes of three rows, so that a key's lane decodes to a different
    #: (box, row) under the box count than under the rows per box
    LANES = GaltonGeometry(n_levels=10, boxes=2, rows_per_box=3, droppers_per_row=1,
                           balls_per_dropper=1, nominal_descent_s=1.0)

    def drop_once(self):
        """One drop of 12 balls from a script through a dispatcher to one
        physics node, delivered before the node's first tick; returns the
        engine, the script, the node, the ledger and the creates sent."""
        geo = GaltonGeometry(n_levels=10, boxes=2, rows_per_box=3, droppers_per_row=2,
                             balls_per_dropper=1, nominal_descent_s=10.0)
        engine = Engine(seed=2)
        network = Network(engine)
        pmap = PartitionMap.single(RegionSpec(), 1, "physics-1")
        table = owner_table(geo, pmap)
        ledger = RunLedger(geo.total_balls)
        for a, b in (("script", "dispatcher"), ("dispatcher", "physics-1")):
            network.add_link(a, b, 0.001, 1e9)
        script = ScriptActor(engine, network, table, geo, 1.0, ledger)
        dispatcher = DispatcherActor(network, pmap.partitions, table)
        physics = PhysicsActor("physics-1", 1, table, geo, 100, 0.1, engine, network,
                               ledger)
        network.register_handler("dispatcher", dispatcher.dispatcher_relay)
        network.register_handler("physics-1", physics.on_message)
        # ids far past the first page of a replica's live registers
        script._entities = itertools.count(10**6)
        sent, drop = [], script.dropper_tick

        def recorded_drop(now_us):
            msgs = drop(now_us)
            sent.extend(msgs)
            return msgs

        script.dropper_tick = recorded_drop
        script.start()
        engine.run_until(seconds_to_us(0.05))
        assert ledger.creates_delivered == geo.total_balls == len(sent) == 12
        return engine, script, physics, ledger, sent

    def test_a_delivered_create_holds_the_script_replicas_stamp(self):
        engine, script, physics, ledger, sent = self.drop_once()
        ids = range(10**6, 10**6 + 12)
        for entity in ids:
            assert physics.replica.stamp_of(entity) is script.replica.stamp_of(entity)
        # one drop of 12 balls, one stamp
        assert len({id(physics.replica.stamp_of(e)) for e in ids}) == 1
        assert sorted(live_records(physics.replica)) == list(ids)

    def test_a_create_row_is_the_row_the_node_seats(self):
        engine, script, physics, ledger, sent = self.drop_once()
        rows = [m.payload[0] for m in sent]
        # buffered as they came, then seated by the next tick, which adds
        # its length to the progress of every ball it serves
        assert physics._arrivals == [field for row in rows for field in row]
        physics.physics_tick(engine.now_us)
        ring = physics._ring[:physics._n].view(np.int64).reshape(-1, _FIELDS)
        assert list(map(tuple, ring.tolist())) == [(physics.tick_us, *row[1:]) for row in rows]

    def test_the_gaining_replica_holds_the_losing_replicas_stamp(self):
        engine, ledger, losing, gaining = wire_split(self.GEO, 8)
        for entity in range(1, 9):
            seat(losing, Ball(id=entity, box=0, row=0, level=1, column=-1),
                 scene_seq=entity)
        held = {entity: losing.replica.stamp_of(entity) for entity in range(1, 9)}
        engine.run_until(seconds_to_us(0.15))
        moved = [entity for entity, flag in enumerate(ledger.migrated_entities) if flag]
        assert 0 < len(moved) < 8 and gaining.active_count == len(moved)
        for entity in moved:
            assert gaining.replica.stamp_of(entity) is held[entity]

    def test_a_transfer_ships_the_position_its_key_encodes(self, monkeypatch):
        # per lane, balls sit on the last column left of the split, at the
        # first level that reaches it, and take one step in the first tick:
        # those that step right migrate.  Each
        # ships the ring row it left with, unchanged, whose key names its
        # box, row and new column, and the stamp that the losing replica
        # holds, whose ack never comes back
        geo = self.LANES
        engine = Engine(seed=6)
        network = Network(engine)
        pmap = PartitionMap.split(RegionSpec(), 0, 128.0, (1, "physics-1"), (2, "physics-2"))
        owners, _, _ = table = owner_table(geo, pmap)
        ledger = RunLedger(48)
        network.add_link("physics-1", "dispatcher", 0.001, 1e9)
        shipped = []
        network.register_handler("dispatcher", shipped.append)
        actor = PhysicsActor("physics-1", 1, table, geo, 100, 0.1, engine, network, ledger)
        left, leave = {}, actor._leave

        def recorded_leave(rows, now_us):
            left.update((row[_ENTITY], tuple(row)) for row in rows.tolist())
            leave(rows, now_us)

        monkeypatch.setattr(actor, "_leave", recorded_leave)
        seated = {}
        for box in range(2):
            for row in range(3):
                column = next(c for c in range(-geo.n_levels, geo.n_levels)
                              if owners[ball_key(geo, box, row, c)] == 1
                              and owners[ball_key(geo, box, row, c + 1)] == 2)
                for entity in range(len(seated) + 1, len(seated) + 9):
                    seat(actor, Ball(id=entity, box=box, row=row, level=abs(column),
                                     column=column, created_at_us=1000 + entity),
                         scene_seq=entity)
                    seated[entity] = (box, row, column)
        engine.run_until(seconds_to_us(0.15))
        transfers = [m.payload for m in shipped if m.kind == "migrate"]
        assert {seated[t.entity][:2] for t in transfers} == {
            (b, r) for b in range(2) for r in range(3)}
        assert len({seated[t.entity][2] for t in transfers}) > 1
        for t in transfers:
            ball, stamp = t.state
            box, row, column = seated[t.entity]
            assert ball == left[t.entity]
            assert ball == (0, abs(column) + 1, ball_key(geo, box, row, column + 1),
                            t.entity, 1000 + t.entity)
            assert stamp is actor.replica.stamp_of(t.entity)

    def test_a_seated_ball_costs_at_most_56_bytes(self):
        """Traced bytes per ball that one node holds once it has seated
        20,000 arrivals: its replica's page slot and its ring row.  The
        records and their stamps are built before tracing starts, as a
        message's payload is.  CPython 3.11 reads 48.5 B; a replica that
        keys a dict by id reads 69.6 B, and a node that also keeps a slab
        row, its free slot list and a stamp of its own 231 B."""
        n = 20_000
        engine, actor, ledger = wire_physics(self.GEO, capacity=1)
        key = ball_key(self.GEO, 0, 0, 0)
        records = [((0, 0, key, e, e), (0, "script", e)) for e in range(1, n + 1)]
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for record in records:
                actor._arrive(*record)
            actor.physics_tick(engine.now_us)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert actor.active_count == actor.replica.live_count() == n
        assert held / n <= 56
