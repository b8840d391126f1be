import pytest

from dvesim.engine import Engine, SchedulingInPast, seconds_to_us


def test_schedule_at_current_time_is_accepted():
    eng = Engine(seed=1)
    fired = []
    eng.schedule(0, lambda: fired.append(0))
    eng.run_until(0)
    assert fired == [0]


def test_schedule_in_past_rejected():
    eng = Engine(seed=1)
    eng.schedule(seconds_to_us(6.0), lambda: None)
    eng.run_until(seconds_to_us(6.0))
    with pytest.raises(SchedulingInPast):
        eng.schedule(seconds_to_us(5.0), lambda: None)


def test_same_time_events_fire_in_scheduling_order():
    eng = Engine(seed=1)
    fired = []
    eng.schedule(seconds_to_us(3.0), lambda: fired.append(7))
    eng.schedule(seconds_to_us(3.0), lambda: fired.append(8))
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
        eng.schedule(seconds_to_us(t), lambda t=t: fired.append(t))
    stats = eng.run_until(seconds_to_us(2.0))
    assert fired == [1.0, 2.0]
    assert stats.events_processed == 2
    assert eng.now_us == seconds_to_us(2.0)


def test_deterministic_event_log():
    def build():
        eng = Engine(seed=9)
        stream = eng.stream("noise")
        fired = []
        for i in range(50):
            at = seconds_to_us(stream.uniform() * 10)
            eng.schedule(at, lambda i=i: fired.append((eng.now_us, i)))
        stats = eng.run_until(seconds_to_us(10.0))
        return fired, stats.events_processed, eng.now_us

    fired, processed, now_us = build()
    assert processed == len(fired) == 50
    assert fired == sorted(fired)
    assert now_us == fired[-1][0]
    assert build() == (fired, processed, now_us)


def test_clock_offsets_differ_and_skew_is_bounded():
    eng = Engine(seed=5, epsilon_max_s=0.05)
    offsets = [eng.clock(f"node-{i}") for i in range(20)]
    eps = eng.epsilon_max_us
    assert len(set(offsets)) > 1
    for a in offsets:
        assert abs(a) <= eps
        for b in offsets:
            assert abs(a - b) <= 2 * eps


def test_clock_is_stable_per_node():
    eng = Engine(seed=5)
    first = eng.clock("a")
    eng.clock("b")
    assert eng.clock("a") == first


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

