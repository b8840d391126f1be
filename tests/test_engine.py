import pytest

from dvesim.engine import Engine, SchedulingInPast, seconds_to_us


def test_schedule_at_current_time_is_accepted():
    eng = Engine(seed=1)
    fired = []
    eng.schedule(0, "a", "x", lambda: fired.append(0))
    eng.run_until(0)
    assert fired == [0]


def test_schedule_in_past_rejected():
    eng = Engine(seed=1)
    eng.schedule(seconds_to_us(6.0), "a", "x", lambda: None)
    eng.run_until(seconds_to_us(6.0))
    with pytest.raises(SchedulingInPast):
        eng.schedule(seconds_to_us(5.0), "a", "x", lambda: None)


def test_same_time_events_fire_in_scheduling_order():
    eng = Engine(seed=1)
    fired = []
    eng.schedule(seconds_to_us(3.0), "a", "x", lambda: fired.append(7))
    eng.schedule(seconds_to_us(3.0), "a", "x", lambda: fired.append(8))
    eng.run_until(seconds_to_us(3.0))
    assert fired == [7, 8]


def test_run_until_empty_queue_processes_nothing():
    eng = Engine(seed=1)
    stats = eng.run_until(seconds_to_us(10.0))
    assert stats.events_processed == 0


def test_run_until_stops_at_bound():
    eng = Engine(seed=1)
    fired = []
    for t in (1.0, 2.0, 3.0):
        eng.schedule(seconds_to_us(t), "a", "x", lambda t=t: fired.append(t))
    stats = eng.run_until(seconds_to_us(2.0))
    assert fired == [1.0, 2.0]
    assert stats.events_processed == 2
    assert eng.now_us == seconds_to_us(2.0)


def test_deterministic_event_log():
    def build():
        eng = Engine(seed=9, keep_event_log=True)
        stream = eng.stream("noise")
        for i in range(50):
            at = seconds_to_us(stream.uniform() * 10)
            eng.schedule(at, f"n{i % 3}", "k", lambda: None)
        stats = eng.run_until(seconds_to_us(10.0))
        return eng.event_log, (stats.events_processed, stats.end_time_us)

    assert build() == build()


def test_event_log_file_dump(tmp_path):
    eng = Engine(seed=9, keep_event_log=True)
    eng.schedule(100, "a", "ping", lambda: None)
    eng.schedule(200, "b", "pong", lambda: None)
    eng.run_until(1000)
    path = tmp_path / "events.log"
    eng.write_event_log(path)
    lines = path.read_text().splitlines()
    assert lines == ["100\t0\ta\tping", "200\t1\tb\tpong"]
    with pytest.raises(ValueError):
        Engine(seed=1).write_event_log(path)


def test_local_now_applies_offset():
    eng = Engine(seed=1)
    a = eng.clock("a", offset_us=0)
    b = eng.clock("b", offset_us=50_000)
    eng.schedule(seconds_to_us(100.0), "a", "x", lambda: None)
    eng.run_until(seconds_to_us(100.0))
    assert eng.local_now_us(a) == seconds_to_us(100.0)
    assert eng.local_now_us(b) == seconds_to_us(100.05)


def test_clock_offsets_differ_and_skew_is_bounded():
    eng = Engine(seed=5, epsilon_max_s=0.05)
    clocks = [eng.clock(f"node-{i}") for i in range(20)]
    eps = eng.epsilon_max_us
    for c in clocks:
        assert abs(c.offset_us) <= eps
    for a in clocks:
        for b in clocks:
            assert abs(eng.local_now_us(a) - eng.local_now_us(b)) <= 2 * eps


def test_explicit_offset_above_bound_rejected():
    eng = Engine(seed=5, epsilon_max_s=0.05)
    with pytest.raises(ValueError):
        eng.clock("z", offset_us=60_000)


def test_clock_is_stable_per_node():
    eng = Engine(seed=5)
    assert eng.clock("a") is eng.clock("a")


class TestRandomStream:
    def test_same_seed_same_sequence(self):
        a = Engine(seed=42).stream("phys")
        b = Engine(seed=42).stream("phys")
        assert [a.uniform() for _ in range(10)] == [b.uniform() for _ in range(10)]

    def test_distinct_stream_ids_give_distinct_sequences(self):
        eng = Engine(seed=42)
        xs = eng.stream("a").uniform_many(5)
        ys = eng.stream("b").uniform_many(5)
        assert list(xs) != list(ys)

    def test_batch_draws_match_scalar_draws(self):
        a = Engine(seed=7).stream("s")
        b = Engine(seed=7).stream("s")
        assert list(a.uniform_many(8)) == [b.uniform() for _ in range(8)]

    def test_million_draw_mean(self):
        # Monte Carlo check of the generator, seed 42
        stream = Engine(seed=42).stream("engine:uniform")
        mean = stream.uniform_many(10**6).mean()
        assert 0.498 <= mean <= 0.502

