import gc
from collections import deque

import numpy as np
import pytest
from scipy import stats as scipy_stats

from dvesim.actors import (
    _ARRIVAL_FIELDS,
    _BLOCK,
    _HOT_FIELDS,
    _HOT_SLOT,
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
from dvesim.scene import EXISTENCE, PropertyUpdate, UnknownEntity
from dvesim.stats import binomial_pmf
from helpers import Ball, descend_one_level, detect_crossing, owner_of, seat


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
    ledger = RunLedger(geometry.bucket_count)
    network.add_link("physics-1", "dispatcher", 0.001, 1e9)
    network.add_link("dispatcher", "physics-1", 0.001, 1e9)
    network.add_link("dispatcher", "script", 0.001, 1e9)
    actor = PhysicsActor("physics-1", 1, table, geometry, capacity, tick_len_s,
                         engine, network, "dispatcher", ledger)
    dispatcher = DispatcherActor("dispatcher", network, pmap.partitions, table, "script")
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
        delete = PropertyUpdate(1, EXISTENCE, False, 10, "physics-2", 0)
        with pytest.raises(UnroutableMessage):
            actor.on_message(Message(kind, "dispatcher", "physics-1", 256, delete, 0, 0))
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
        result = scipy_stats.chisquare(ledger.histogram, expected)
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
        intervals = np.array([c[1] for c in ledger.collections]) / 1e6
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

    def test_per_tick_work_bound(self):
        _, actor = self.run_population(250, capacity=100)
        assert actor.steps_executed <= actor.ticks * actor.capacity
        report = actor.physics_tick(actor.engine.now_us)
        assert report["stepped"] == min(actor.active_count, actor.capacity)


class TestPhysicsTickOracle:
    """The vectorized physics_tick against a scalar model of the same tick.

    The model is built from Ball, descend_one_level and detect_crossing and
    replays the node's descent stream: each tick it serves the first
    min(n, capacity) balls in order, draws in index order, removes landed,
    off-region and migrated balls and rotates the served survivors to the
    back.  Balls that arrive between ticks join the back before the next
    tick.  Both record what the node sends: for each round of crossings, a
    delete per landed ball, then a delete per ball off the region, then a
    transfer per migrating ball, each in service order.
    """

    GEO = GaltonGeometry(n_levels=10, boxes=1, rows_per_box=1, droppers_per_row=1,
                         balls_per_dropper=1, nominal_descent_s=10.0)
    #: two boxes of two rows: the balls take turns over the four lanes of the
    #: owner table and start spread over their partition's columns, edges
    #: included, so that some step off the region
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
        """(box, row, column) at which a ball starts, in the partition."""
        if geo is self.GEO:
            return 0, 0, 0
        region = pmap.region
        box, row = divmod((entity - 1) % 4, 2)
        y = geo.box_center_y_m(region, box)
        columns = [c for c in range(-2 * geo.n_levels, 2 * geo.n_levels)
                   if 0 <= geo.ball_x_m(region, row, c) < region.width_m
                   and owner_of(pmap, geo.ball_x_m(region, row, c), y) == partition_id]
        return box, row, columns[(entity - 1) // 4 % len(columns)]

    def scalar_model(self, geo, n_balls, node, pmap):
        """Ordered (t_us, bucket) collections, (entity, t_us) migrations and
        (t_us, kind, entity) sends."""
        region = pmap.region
        partition_id = next(p for p, n in pmap.partitions.items() if n == node)
        stream = RandomStream(f"{node}:descent", self.SEED)
        tick_us = seconds_to_us(self.TICK_S)
        level_us = geo.level_time_us

        def ball(entity):
            box, row, column = self.place(geo, pmap, partition_id, entity)
            return Ball(id=entity, box=box, row=row, column=column)

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
                off = [b for b in crossed if b.level < geo.n_levels
                       and not 0 <= position(b)[0] < region.width_m]
                moved = [b for b in crossed if b.level < geo.n_levels and b not in off
                         and detect_crossing(prev[b.id], position(b), pmap)]
                for b in landed:
                    bucket = geo.final_bucket(b.column, b.row)
                    if 0 <= bucket < geo.bucket_count:
                        collections.append((now, bucket))
                sends += [(now, "delete", b.id) for b in landed + off]
                sends += [(now, "migrate", b.id) for b in moved]
                migrations += [(b.id, now) for b in moved]
                gone.update(b.id for b in landed + off + moved)
                crossed = [b for b in crossed
                           if b.id not in gone and progress[b.id] >= level_us]
            balls = balls[self.CAPACITY:] + [b for b in served if b.id not in gone]
        return collections, migrations, sends

    def vectorized_run(self, geo, n_balls, node, pmap, monkeypatch):
        """The actor on a sink dispatcher: what it sends is never answered."""
        engine = Engine(seed=self.SEED)
        network = Network(engine)
        network.add_link(node, "dispatcher", 0.001, 1e9)
        ledger = RunLedger(geo.bucket_count)
        partition_id = next(p for p, n in pmap.partitions.items() if n == node)
        actor = PhysicsActor(node, partition_id, owner_table(geo, pmap), geo,
                             self.CAPACITY, self.TICK_S, engine, network, "dispatcher",
                             ledger)
        migrations, sends = [], []
        begin, send = actor.tracker.begin_migration, network.send

        def record(entity, from_partition, to_partition, now_us, state):
            migrations.append((entity, now_us))
            return begin(entity, from_partition, to_partition, now_us, state)

        def record_send(src, dst, kind, payload, size_bytes=None):
            sends.append((engine.now_us, kind, payload.entity))
            return send(src, dst, kind, payload, size_bytes)

        monkeypatch.setattr(actor.tracker, "begin_migration", record)
        monkeypatch.setattr(network, "send", record_send)
        entities = iter(range(1, 10**6))

        def inject(count):
            for _ in range(count):
                entity = next(entities)
                box, row, column = self.place(geo, pmap, partition_id, entity)
                seat(actor, Ball(id=entity, box=box, row=row, column=column),
                     scene_seq=entity - 1)

        inject(n_balls)
        for t_s, count in self.ARRIVALS.get(n_balls, ()):
            engine.schedule(seconds_to_us(t_s), lambda count=count: inject(count))
        engine.run_until(seconds_to_us(600.0))
        assert actor.active_count == 0
        return [(c[0], c[3]) for c in ledger.collections], migrations, sends

    @pytest.mark.parametrize("n_balls", [50, 250, _BLOCK + 76, 1000])
    @pytest.mark.parametrize("split", [False, True])
    def test_matches_scalar_model(self, n_balls, split, monkeypatch):
        self.check(self.GEO, n_balls, split, monkeypatch)

    @pytest.mark.parametrize("n_balls", [250, 1000])
    @pytest.mark.parametrize("split", [False, True])
    def test_four_lanes_match_scalar_model(self, n_balls, split, monkeypatch):
        self.check(self.LANES, n_balls, split, monkeypatch)

    def check(self, geo, n_balls, split, monkeypatch):
        region = RegionSpec()
        if split:
            pmap = PartitionMap.split(region, 0, 128.0, (1, "physics-1"), (2, "physics-2"))
            node = "physics-2"
        else:
            pmap = PartitionMap.single(region, 1, "physics-1")
            node = "physics-1"
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
        discards = len(want_sends) - len(want_collections) - len(want_migrations)
        assert (discards > 0) == (geo is self.LANES)


def seated_slots(actor):
    """Slab slots of the seated balls, in service order."""
    ring = actor._ring.view(np.int64).reshape(-1, _HOT_FIELDS)
    rows = (actor._head + np.arange(actor._n)) % len(ring)
    return ring[rows, _HOT_SLOT]


def ring_ids(actor, count):
    """Entity ids of the first ``count`` balls in the actor's service order:
    the seated balls, through their slab slots, then the arrivals that the
    next tick seats."""
    seated = actor._slab[seated_slots(actor), 0].tolist()
    return (seated + actor._arrivals[_HOT_FIELDS::_ARRIVAL_FIELDS])[:count]


class TestBallRing:
    """The hot ring's service order against a deque that rotates served
    survivors to the back and appends arrivals, and the slab's slots
    against the balls that hold them."""

    GEO = GaltonGeometry(n_levels=10, boxes=1, rows_per_box=1, droppers_per_row=1,
                         balls_per_dropper=1, nominal_descent_s=1.0)
    CAPACITY = 7

    def drain(self, monkeypatch, schedule):
        """Inject ``(t_s, count)`` balls, drain them and check every tick
        against the deque; returns what the ticks did to the ring."""
        engine, actor, ledger = wire_physics(self.GEO, capacity=self.CAPACITY, seed=8)
        reference = deque()
        seen = {"ticks": 0, "wrapped": 0, "grew_offset": False,
                "unmasked_aliased": 0, "unmasked_wrapped": 0}
        next_id = iter(range(1, 10**6))

        def inject(count):
            for _ in range(count):
                entity = next(next_id)
                seat(actor, Ball(id=entity, box=0, row=0), scene_seq=entity)
                reference.append(entity)

        tick, delete = actor.physics_tick, actor.replica.delete_entity
        retired = set()

        def recorded_delete(entity, ts_us, origin):
            retired.add(entity)
            return delete(entity, ts_us, origin)

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
            seen["ticks"] += 1
            # every slot is held by one seated ball, by one buffered
            # arrival or is free, never two of these
            seated = seated_slots(actor).tolist()
            buffered = actor._arrivals[_HOT_SLOT::_ARRIVAL_FIELDS]
            assert len(set(seated)) == len(seated)
            assert not set(seated) & set(actor._free)
            assert sorted(seated + buffered + actor._free) == list(range(len(actor._slab)))
            return result

        monkeypatch.setattr(actor, "physics_tick", checked_tick)
        monkeypatch.setattr(actor.replica, "delete_entity", recorded_delete)
        for t_s, count in schedule:
            engine.schedule(seconds_to_us(t_s), lambda count=count: inject(count))
        engine.run_until(seconds_to_us(3600.0))
        total = sum(count for _, count in schedule)
        assert ledger.collected + ledger.discarded == total
        assert actor.active_count == 0 and not reference
        assert seen["ticks"] == actor.ticks
        return seen, actor

    def test_service_order_matches_deque(self, monkeypatch):
        # arrivals land while earlier balls are mid-descent and the head has
        # moved, so the ring grows from an offset head and later wraps, and
        # the slab grows while its first slots are held
        schedule = [(0.0, 600), (0.35, 5), (2.05, 450), (7.3, 3), (40.0, 200)]
        seen, actor = self.drain(monkeypatch, schedule)
        assert sum(count for _, count in schedule) > _BLOCK
        assert seen["grew_offset"] and seen["wrapped"] > 0 and len(actor._slab) > _BLOCK

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
        owners, lanes = owner_table(geo, pmap)
        # every lane spans the same columns, and box 0 row 0's starts the table
        width = len(owners) // (geo.boxes * geo.rows_per_box)
        columns = range(-lanes[0][0], width - lanes[0][0])
        want, keys = [], []
        for box in range(geo.boxes):
            for row in range(geo.rows_per_box):
                for column in columns:
                    x = geo.ball_x_m(region, row, column)
                    y = geo.box_center_y_m(region, box)
                    inside = 0.0 <= x < region.width_m
                    want.append(int(pmap.owners_xy(np.array([x]), np.array([y]))[0])
                                if inside else -1)
                    keys.append(lanes[box][row] + column)
                    # a seated ball's step, either way, stays in its lane
                    if inside:
                        assert columns[0] < column < columns[-1]
        assert [owners[key] for key in keys] == want
        assert set(want) == set(pmap.partitions) | {-1}
        # the lanes tile the table: each (box, row) has a lane of its own
        assert sorted(keys) == list(range(len(owners)))

    @pytest.mark.parametrize("layout", ["single", "split_x", "split_y"])
    def test_create_routes_equal_owner_of(self, layout):
        # a create is routed from the table's column 0, the drop position
        region = RegionSpec()
        pmap = layout_map(layout, region)
        for geo in (self.GEO, self.OFFSET):
            dispatcher = DispatcherActor("dispatcher", Network(Engine(seed=1)),
                                         pmap.partitions, owner_table(geo, pmap), "script")
            want = [[pmap.partitions[owner_of(pmap, geo.ball_x_m(region, row, 0),
                                              geo.box_center_y_m(region, box))]
                     for row in range(geo.rows_per_box)] for box in range(geo.boxes)]
            assert dispatcher._create_nodes == want


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
    def small_script(self, period_s=6.0, seed=1):
        geo = GaltonGeometry(balls_per_dropper=3)
        engine = Engine(seed=seed)
        network = Network(engine)
        ledger = RunLedger(geo.bucket_count)
        network.add_link("script", "dispatcher", 0.001, 1e9)
        sink = []
        network.register_handler("dispatcher", sink.append)
        script = ScriptActor("script", engine, network, "dispatcher", geo,
                             period_s, ledger)
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
        assert ledger.created == script.geometry.total_balls == 324
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
        # the (row, origin) record a transfer ships, at level, column and
        # progress 0: exact tuples of atomic values, which the cyclic
        # collector stops tracking
        engine, script, ledger, sink = self.small_script()
        msgs = script.dropper_tick(0)
        assert [m.payload[0][:7] for m in msgs[:2]] == [(1, 0, 0, 0, 0, 0, 0),
                                                        (2, 0, 0, 0, 0, 0, 0)]
        assert {(len(m.payload[0]), m.payload[1]) for m in msgs} == {(9, "script")}
        # the first collection untracks the rows, the next the records
        gc.collect()
        gc.collect()
        assert not any(gc.is_tracked(m.payload) for m in msgs)

    def test_applies_deletes_and_rejects_every_other_kind(self):
        engine, script, ledger, sink = self.small_script()
        script.dropper_tick(0)
        live = script.replica.live_count()
        delete = PropertyUpdate(1, EXISTENCE, False, 10, "physics-1", 0)
        script.on_message(Message("delete", "dispatcher", "script", 256, delete, 0, 0))
        assert script.replica.live_count() == live - 1
        for kind in ("create", "migrate", "ack", "update"):
            with pytest.raises(UnroutableMessage):
                script.on_message(Message(kind, "dispatcher", "script", 256, delete, 0, 0))
        assert script.replica.live_count() == live - 1


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
        dispatcher = DispatcherActor("dispatcher", network, pmap.partitions,
                                     owner_table(geo, pmap), "script")
        return engine, network, dispatcher

    def test_create_routes_to_owning_partition(self):
        engine, network, dispatcher = self.wire()
        # (id, box, row, level, column, progress, created, scene ts, scene seq)
        spawn = ((1, 0, 0, 0, 0, 0, 0, 0, 0), "script")
        msg = Message("create", "script", "dispatcher", 1024, spawn, 0, 0)
        out = dispatcher.dispatcher_relay(msg)
        assert len(out) == 1
        assert out[0].dst == "physics-1"  # row 0 drops left of the split
        spawn2 = ((2, 0, 2, 0, 0, 0, 0, 0, 1), "script")
        out2 = dispatcher.dispatcher_relay(
            Message("create", "script", "dispatcher", 1024, spawn2, 0, 0))
        assert out2[0].dst == "physics-2"

    def test_delete_routes_to_script(self):
        engine, network, dispatcher = self.wire()
        for src in ("physics-1", "physics-2"):
            out = dispatcher.dispatcher_relay(Message("delete", src, "dispatcher", 256,
                                                      None, 0, 0))
            assert [(m.kind, m.dst) for m in out] == [("delete", "script")]

    @pytest.mark.parametrize("losing, gaining", [(1, 2), (2, 1)])
    def test_transfer_and_ack_route_by_their_partitions(self, losing, gaining):
        engine, network, dispatcher = self.wire()
        (transfer,) = MigrationTracker().begin_migration(7, losing, gaining, 0, None)
        ack = MigrationTracker.acknowledge(transfer)
        assert ack.from_partition == losing
        out = dispatcher.dispatcher_relay(Message("migrate", f"physics-{losing}",
                                                  "dispatcher", 1024, transfer, 0, 0))
        assert [m.dst for m in out] == [f"physics-{gaining}"]
        out = dispatcher.dispatcher_relay(Message("ack", f"physics-{gaining}",
                                                  "dispatcher", 64, ack, 0, 0))
        assert [m.dst for m in out] == [f"physics-{losing}"] and out[0].payload is ack

    def test_unroutable_kind(self):
        engine, network, dispatcher = self.wire()
        with pytest.raises(UnroutableMessage):
            dispatcher.dispatcher_relay(Message("bogus", "script", "dispatcher", 1, None, 0, 0))

    def test_update_is_unroutable(self):
        # no node sends scene updates, so the dispatcher has no route for one
        engine, network, dispatcher = self.wire()
        with pytest.raises(UnroutableMessage):
            dispatcher.dispatcher_relay(Message("update", "physics-1", "dispatcher", 256,
                                                None, 0, 0))

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
        # every transfer was delivered and acknowledged by run end
        assert report.audit_ok

    def test_ownership_exclusive_after_run(self):
        from dvesim.harness.galton import run_galton
        geo = GaltonGeometry(balls_per_dropper=4)
        cfg = wire_run(geo, "B", 0.5, 5000, seed=12)
        report = run_galton(cfg)
        assert report.created_total == report.collected_total + report.discarded


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
            actor.replica.delete_entity(1, engine.now_us, "physics-1")

    def test_losing_node_forgets_the_ball_when_the_ack_returns(self):
        # every level takes one 0.1 s tick, so the first tick steps each ball
        # once: from column -1, just left of the split, half of them step
        # right onto column 0 and migrate; their acks are back by 0.15 s,
        # before the second tick
        engine = Engine(seed=4)
        network = Network(engine)
        pmap = PartitionMap.split(RegionSpec(), 0, 128.0, (1, "physics-1"), (2, "physics-2"))
        table = owner_table(self.GEO, pmap)
        ledger = RunLedger(self.GEO.bucket_count)
        dispatcher = DispatcherActor("dispatcher", network, pmap.partitions, table, "script")
        network.register_handler("dispatcher", dispatcher.dispatcher_relay)
        network.add_link("dispatcher", "script", 0.001, 1e9)
        actors = {}
        for pid, node in pmap.partitions.items():
            network.add_link(node, "dispatcher", 0.001, 1e9)
            network.add_link("dispatcher", node, 0.001, 1e9)
            actors[node] = PhysicsActor(node, pid, table, self.GEO, 10, 0.1, engine,
                                        network, "dispatcher", ledger)
            network.register_handler(node, actors[node].on_message)
        losing, gaining = actors["physics-1"], actors["physics-2"]
        for entity in range(1, 9):
            seat(losing, Ball(id=entity, box=0, row=0, column=-1), scene_seq=entity)
        engine.run_until(seconds_to_us(0.15))
        moved = ledger.migrated_entities
        assert 0 < len(moved) < 8 and ledger.migrations_completed == len(moved)
        assert losing.ghost_count == 0
        for entity in moved:
            with pytest.raises(UnknownEntity):
                losing.replica.delete_entity(entity, engine.now_us, "physics-1")
        for actor in (losing, gaining):
            assert actor.replica.live_count() == actor.active_count
        assert gaining.active_count == len(moved)
