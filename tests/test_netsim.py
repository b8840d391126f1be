import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dvesim.engine import Engine, seconds_to_us
from dvesim.netsim import DEFAULT_MESSAGE_SIZES, Link, Network


def make_net(latency_s=0.001, byte_rate=125_000.0):
    engine = Engine(seed=1)
    network = Network(engine)
    network.add_link("a", "b", latency_s, byte_rate)
    return engine, network


def test_idle_link_delivery_time():
    # 1 ms latency, 1,000 bytes at 125,000 B/s: 1 ms + 8 ms
    engine, network = make_net()
    arrivals = []
    network.register_handler("b", lambda m: arrivals.append(engine.now_us))
    network.send("a", "b", "request", None, size_bytes=1000)
    engine.run_until(seconds_to_us(1.0))
    assert arrivals == [seconds_to_us(0.009)]


def test_fifo_back_to_back():
    engine, network = make_net()
    arrivals = []
    network.register_handler("b", lambda m: arrivals.append((m.payload, engine.now_us)))
    network.send("a", "b", "request", 1, size_bytes=1000)
    network.send("a", "b", "request", 2, size_bytes=1000)
    engine.run_until(seconds_to_us(1.0))
    assert [p for p, _ in arrivals] == [1, 2]
    assert arrivals[1][1] >= arrivals[0][1]
    # the second message waits for the first to finish serializing
    assert arrivals[1][1] == seconds_to_us(0.017)


def test_queue_growth_matches_closed_form():
    # send at 2x drain rate for T seconds: depth ~= (send - drain) * T
    engine, network = make_net(latency_s=0.0, byte_rate=100_000.0)
    size = 1000  # drain rate: 100 msg/s
    send_rate = 200
    T = 10.0
    for i in range(int(send_rate * T)):
        at = seconds_to_us(i / send_rate)
        engine.schedule(at, "a", "send",
                        lambda: network.send("a", "b", "request", None, size_bytes=size))
    network.register_handler("b", lambda m: None)
    engine.run_until(seconds_to_us(T))
    depth = network.link("a", "b").depth
    expected = (send_rate - 100) * T
    assert depth == pytest.approx(expected, rel=0.02)


def test_deliver_due_empty():
    engine, network = make_net()
    assert network.deliver_due(network.link("a", "b")) == []


def test_deliver_due_returns_in_enqueue_order():
    engine, network = make_net(latency_s=0.0, byte_rate=1e9)
    link = network.link("a", "b")
    for i in range(3):
        network.send("a", "b", "request", i)
    engine._now_us = seconds_to_us(1.0)  # past all delivery times
    out = network.deliver_due(link)
    assert [m.payload for _, m in out] == [0, 1, 2]


def test_work_conservation_after_send():
    engine, network = make_net()
    network.send("a", "b", "request", None)
    assert network.link("a", "b").depth == 1
    assert engine.pending() == 1  # the delivery event exists


def test_bandwidth_accounting():
    # over any window: delivered bytes <= rate * window + one message size
    engine, network = make_net(latency_s=0.0, byte_rate=50_000.0)
    network.register_handler("b", lambda m: None)
    for i in range(200):
        engine.schedule(seconds_to_us(i * 0.001), "a", "send",
                        lambda: network.send("a", "b", "request", None, size_bytes=512))
    window = 1.0
    engine.run_until(seconds_to_us(window))
    link = network.link("a", "b")
    assert link.delivered_bytes <= 50_000.0 * window + 512


def test_sample_queues():
    engine, network = make_net()
    samples = network.sample_queues(0)
    assert samples[0].depth == 0 and samples[0].bytes_pending == 0
    network.send("a", "b", "update", None)
    samples = network.sample_queues(1)
    assert samples[0].depth == 1
    assert samples[0].bytes_pending == DEFAULT_MESSAGE_SIZES["update"]
    with pytest.raises(ValueError):
        network.sample_queues(1)  # samples must strictly increase in time
    assert len(network.samples) == 2


@pytest.mark.parametrize("byte_rate", [0.0, 0.5, 0.999])
def test_link_rejects_rates_below_one_byte_per_second(byte_rate):
    with pytest.raises(ValueError, match="byte rate"):
        Link("a", "b", 0, byte_rate)


def test_unknown_link_rejected():
    engine, network = make_net()
    with pytest.raises(KeyError):
        network.send("a", "zz", "request", None)


def test_jitter_delays_within_bounds():
    engine = Engine(seed=4)
    network = Network(engine)
    network.add_link("a", "b", 0.001, 1e9, jitter_s=0.010)
    link = network.link("a", "b")
    arrivals = []
    network.register_handler("b", lambda m: arrivals.append(engine.now_us))
    base = seconds_to_us(0.001) + link.transmission_us(128)
    for i in range(20):
        # spaced sends: the link is idle each time
        engine.schedule(seconds_to_us(float(i)), "a", "send",
                        lambda: network.send("a", "b", "request", None))
    engine.run_until(seconds_to_us(30.0))
    deltas = [t - seconds_to_us(float(i)) - base for i, t in enumerate(arrivals)]
    assert all(0 <= d <= seconds_to_us(0.010) for d in deltas)
    assert len(set(deltas)) > 1  # jitter actually moved deliveries


def test_default_links_are_jitter_free():
    engine, network = make_net()
    assert network.link("a", "b").jitter_us == 0


@settings(max_examples=200, deadline=None)
@given(
    sizes=st.lists(st.integers(min_value=1, max_value=10_000), min_size=1, max_size=30),
    gaps_ms=st.lists(st.integers(min_value=0, max_value=50), min_size=30, max_size=30),
    latency_ms=st.integers(min_value=0, max_value=100),
    byte_rate=st.integers(min_value=1_000, max_value=10_000_000),
)
def test_delivery_never_beats_latency_plus_serialization(sizes, gaps_ms, latency_ms, byte_rate):
    engine = Engine(seed=1)
    network = Network(engine)
    network.add_link("a", "b", latency_ms / 1000, float(byte_rate))
    link = network.link("a", "b")
    t = 0
    for size, gap in zip(sizes, gaps_ms):
        t += gap * 1000
        engine._now_us = t
        msg = network.send("a", "b", "request", None, size_bytes=size)
        qm = link._queue[-1]
        assert qm.message is msg
        min_delivery = t + link.transmission_us(size) + link.latency_us
        assert qm.deliver_at_us >= min_delivery
    # FIFO: delivery times never reorder
    times = [qm.deliver_at_us for qm in link._queue]
    assert times == sorted(times)


@settings(max_examples=200, deadline=None)
@given(
    ops=st.lists(st.one_of(
        st.tuples(st.just("send"), st.integers(min_value=1, max_value=5_000)),
        st.tuples(st.just("run"), st.integers(min_value=0, max_value=30_000))),
        min_size=1, max_size=60),
    jitter_ms=st.integers(min_value=0, max_value=20),
)
def test_bytes_pending_is_the_sum_of_queued_sizes(ops, jitter_ms):
    engine = Engine(seed=2)
    network = Network(engine)
    network.add_link("a", "b", 0.001, 200_000.0, jitter_s=jitter_ms / 1000)
    received = []
    network.register_handler("b", lambda m: received.append(m.size_bytes))
    link = network.link("a", "b")

    def check():
        assert link.bytes_pending == sum(qm.message.size_bytes for qm in link._queue)
        assert link.delivered_bytes == sum(received)
        assert link.delivered_count == len(received)

    t = 0
    for op, value in ops:
        if op == "send":
            network.send("a", "b", "request", None, size_bytes=value)
        else:
            t += value
            engine.run_until(max(t, engine.now_us))
        check()
    engine.run_until(engine.now_us + seconds_to_us(60.0))
    check()
    assert link.bytes_pending == 0 and link.depth == 0
