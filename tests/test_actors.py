import numpy as np
import pytest
from scipy import stats as scipy_stats

from dvesim.actors import (
    Ball,
    DispatcherActor,
    GaltonGeometry,
    PhysicsActor,
    RunLedger,
    ScriptActor,
    UnroutableMessage,
    descend_one_level,
)
from dvesim.engine import Engine, RandomStream, seconds_to_us
from dvesim.netsim import Message, Network
from dvesim.partition import PartitionMap, RegionSpec, detect_crossing
from dvesim.stats import binomial_pmf


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
        xs = [geo.drop_x_m(region, r) for r in range(3)]
        assert xs[0] == pytest.approx(125.3333, abs=1e-3)
        assert xs[1] == 128.0
        assert xs[2] == pytest.approx(130.6667, abs=1e-3)

    def test_center_split_separates_one_row_from_two(self):
        geo = GaltonGeometry()
        region = RegionSpec()
        pmap = PartitionMap.split_x(region, 128.0, (1, "physics-1"),
                                    (2, "physics-2"))
        owners = [pmap.owner_of(geo.drop_x_m(region, r),
                                geo.box_center_y_m(region, 0))
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
    """Single physics node with a sink dispatcher (no delete subscribers)."""
    engine = Engine(seed=seed)
    network = Network(engine)
    region = RegionSpec()
    pmap = PartitionMap.single(region, 1, "physics-1")
    ledger = RunLedger(geometry.bucket_count)
    network.add_link("physics-1", "dispatcher", 0.001, 1e9)
    network.add_link("dispatcher", "physics-1", 0.001, 1e9)
    actor = PhysicsActor("physics-1", 1, pmap, geometry, capacity, tick_len_s,
                         engine, network, "dispatcher", ledger)
    dispatcher = DispatcherActor("dispatcher", engine, network, pmap, geometry,
                                 subscribers={"delete": [], "update": []},
                                 ledger=ledger)
    network.register_handler("physics-1", actor.on_message)
    network.register_handler("dispatcher", dispatcher.on_message)
    return engine, actor, ledger


class TestDescentDistribution:
    def test_final_columns_match_binomial(self):
        # 10^5 balls over a 10-level board vs the exact pmf, chi-square
        geo = GaltonGeometry(n_levels=10, boxes=1, rows_per_box=1,
                             droppers_per_row=1, balls_per_dropper=1,
                             nominal_descent_s=1.0)
        n_balls = 100_000
        engine, actor, ledger = wire_physics(geo, capacity=n_balls, seed=17)
        for i in range(n_balls):
            actor.inject_ball(Ball(id=i + 1, box=0, row=0), scene_seq=i)
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
            actor.inject_ball(Ball(id=i + 1, box=0, row=0), scene_seq=i)
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
    min(n, capacity) balls in order, draws in index order, removes landed
    and migrated balls and rotates the served survivors to the back.
    """

    GEO = GaltonGeometry(n_levels=10, boxes=1, rows_per_box=1, droppers_per_row=1,
                         balls_per_dropper=1, nominal_descent_s=10.0)
    CAPACITY = 100
    TICK_S = 0.1
    SEED = 23

    def scalar_model(self, n_balls, node, pmap):
        """Ordered (t_us, bucket) collections and (entity, t_us) migrations."""
        geo = self.GEO
        region = pmap.region
        multi = len(pmap.partitions) > 1
        stream = RandomStream(f"{node}:descent", self.SEED)
        tick_us = seconds_to_us(self.TICK_S)
        level_us = geo.level_time_us
        y = geo.box_center_y_m(region, 0)
        balls = [Ball(id=i + 1, box=0, row=0) for i in range(n_balls)]
        progress = {b.id: 0 for b in balls}
        collections, migrations = [], []
        now = 0
        while balls:
            now += tick_us
            served = balls[:self.CAPACITY]
            gone = set()
            for b in served:
                progress[b.id] += tick_us
            crossed = [b for b in served if progress[b.id] >= level_us]
            while crossed:
                prev_x = {}
                for b in crossed:
                    progress[b.id] -= level_us
                    prev_x[b.id] = geo.ball_x_m(region, b.row, b.column)
                    descend_one_level(b, stream)
                for b in crossed:
                    if b.level >= geo.n_levels:
                        collections.append((now, geo.final_bucket(b.column, b.row)))
                        gone.add(b.id)
                if multi:
                    for b in crossed:
                        x = geo.ball_x_m(region, b.row, b.column)
                        if b.id not in gone and detect_crossing((prev_x[b.id], y),
                                                                (x, y), pmap):
                            migrations.append((b.id, now))
                            gone.add(b.id)
                crossed = [b for b in crossed
                           if b.id not in gone and progress[b.id] >= level_us]
            balls = balls[self.CAPACITY:] + [b for b in served if b.id not in gone]
        return collections, migrations

    def vectorized_run(self, n_balls, node, pmap, monkeypatch):
        """The actor on a sink dispatcher: what it sends is never answered."""
        engine = Engine(seed=self.SEED)
        network = Network(engine)
        network.add_link(node, "dispatcher", 0.001, 1e9)
        ledger = RunLedger(self.GEO.bucket_count)
        partition_id = next(p for p, n in pmap.partitions.items() if n == node)
        actor = PhysicsActor(node, partition_id, pmap, self.GEO, self.CAPACITY,
                             self.TICK_S, engine, network, "dispatcher", ledger)
        migrations = []
        begin = actor.tracker.begin_migration

        def record(entity, from_partition, to_partition, now_us, state):
            migrations.append((entity, now_us))
            return begin(entity, from_partition, to_partition, now_us, state)

        monkeypatch.setattr(actor.tracker, "begin_migration", record)
        for i in range(n_balls):
            actor.inject_ball(Ball(id=i + 1, box=0, row=0), scene_seq=i)
        engine.run_until(seconds_to_us(600.0))
        assert actor.active_count == 0
        return [(c[0], c[3]) for c in ledger.collections], migrations

    @pytest.mark.parametrize("n_balls", [50, 250])
    @pytest.mark.parametrize("split", [False, True])
    def test_matches_scalar_model(self, n_balls, split, monkeypatch):
        region = RegionSpec()
        if split:
            pmap = PartitionMap.split_x(region, 128.0, (1, "physics-1"),
                                        (2, "physics-2"))
            node = "physics-2"
        else:
            pmap = PartitionMap.single(region, 1, "physics-1")
            node = "physics-1"
        want_collections, want_migrations = self.scalar_model(n_balls, node, pmap)
        got_collections, got_migrations = self.vectorized_run(n_balls, node, pmap,
                                                               monkeypatch)
        assert got_collections == want_collections
        assert got_migrations == want_migrations
        assert len(want_collections) + len(want_migrations) == n_balls
        assert bool(want_migrations) == split


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


class TestDispatcher:
    def wire(self, subscribers):
        geo = GaltonGeometry()
        engine = Engine(seed=1)
        network = Network(engine)
        region = RegionSpec()
        pmap = PartitionMap.split_x(region, 128.0, (1, "physics-1"), (2, "physics-2"))
        ledger = RunLedger(geo.bucket_count)
        for node in ("script", "physics-1", "physics-2", "extra"):
            network.add_link("dispatcher", node, 0.001, 1e9)
            network.add_link(node, "dispatcher", 0.001, 1e9)
        dispatcher = DispatcherActor("dispatcher", engine, network, pmap, geo,
                                     subscribers=subscribers, ledger=ledger)
        return engine, network, dispatcher

    def test_create_routes_to_owning_partition(self):
        from dvesim.actors import BallSpawn
        engine, network, dispatcher = self.wire({"delete": ["script"]})
        spawn = BallSpawn(1, box=0, row=0, created_at_us=0,
                          scene_ts_us=0, scene_origin="script", scene_seq=0)
        msg = Message("create", "script", "dispatcher", 1024, spawn)
        out = dispatcher.dispatcher_relay(msg)
        assert len(out) == 1
        assert out[0].dst == "physics-1"  # row 0 drops left of the split
        spawn2 = BallSpawn(2, box=0, row=2, created_at_us=0,
                           scene_ts_us=0, scene_origin="script", scene_seq=1)
        out2 = dispatcher.dispatcher_relay(
            Message("create", "script", "dispatcher", 1024, spawn2))
        assert out2[0].dst == "physics-2"

    def test_update_fans_out_to_all_subscribers(self):
        engine, network, dispatcher = self.wire(
            {"update": ["script", "physics-1", "extra"], "delete": []})
        msg = Message("update", "physics-2", "dispatcher", 256, None)
        out = dispatcher.dispatcher_relay(msg)
        assert sorted(m.dst for m in out) == ["extra", "physics-1", "script"]

    def test_source_not_echoed(self):
        engine, network, dispatcher = self.wire({"update": ["script", "physics-1"]})
        msg = Message("update", "script", "dispatcher", 256, None)
        out = dispatcher.dispatcher_relay(msg)
        assert [m.dst for m in out] == ["physics-1"]

    def test_unroutable_kind(self):
        engine, network, dispatcher = self.wire({})
        with pytest.raises(UnroutableMessage):
            dispatcher.dispatcher_relay(Message("bogus", "script", "dispatcher", 1, None))

    def test_relay_preserves_per_source_ordering(self):
        engine, network, dispatcher = self.wire({"update": ["physics-1"]})
        network.register_handler("dispatcher", dispatcher.on_message)
        arrivals = []
        network.register_handler("physics-1", lambda m: arrivals.append(m.payload))
        rng = Engine(seed=9).stream("traffic")
        sent = []
        t = 0
        for i in range(200):
            t += int(rng.uniform() * 5000)
            engine.schedule(t, "script", "send",
                            lambda i=i: network.send("script", "dispatcher",
                                                     "update", i))
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
