import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dvesim.engine import Engine, RandomStream, seconds_to_us
from dvesim.netsim import DEFAULT_MESSAGE_SIZES, Link, Network


def serialization_us(size_bytes, byte_rate):
    """Time to put a message on the wire, rounded up to whole microseconds."""
    return math.ceil(Fraction(size_bytes * 1_000_000, int(byte_rate)))


def send_sized(network, src, dst, payload, size):
    """Send a request of ``size`` bytes: a message is as large as the
    network's size for its kind."""
    network.message_sizes["request"] = size
    return network.send(src, dst, "request", payload)


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
    send_sized(network, "a", "b", None, 1000)
    engine.run_until(seconds_to_us(1.0))
    assert arrivals == [seconds_to_us(0.009)]


def test_fifo_back_to_back():
    engine, network = make_net()
    arrivals = []
    network.register_handler("b", lambda m: arrivals.append((m.payload, engine.now_us)))
    send_sized(network, "a", "b", 1, 1000)
    send_sized(network, "a", "b", 2, 1000)
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
        engine.schedule(at, lambda: send_sized(network, "a", "b", None, size))
    network.register_handler("b", lambda m: None)
    engine.run_until(seconds_to_us(T))
    [link] = network.links()
    depth = link.depth
    expected = (send_rate - 100) * T
    assert depth == pytest.approx(expected, rel=0.02)


def test_deliver_due_empty():
    engine, network = make_net()
    handled = []
    network.register_handler("b", handled.append)
    [link] = network.links()
    assert network.deliver_due(link) == []
    assert handled == []


def test_deliver_due_returns_in_enqueue_order():
    engine, network = make_net(latency_s=0.0, byte_rate=1e9)
    [link] = network.links()
    handled = []
    network.register_handler("b", handled.append)
    sent = [network.send("a", "b", "request", i) for i in range(3)]
    engine.now_us = seconds_to_us(1.0)  # past all delivery times
    out = network.deliver_due(link)
    assert [m.payload for m in out] == [0, 1, 2]
    # the handler got the very records that send queued, in the same order
    assert all(m is s for m, s in zip(handled, sent)) and handled == out


def test_same_instant_events_fire_in_scheduling_order():
    # two links whose messages fall due at the same microsecond, and an
    # engine action at that instant: all handled in the order scheduled
    engine = Engine(seed=1)
    network = Network(engine)
    network.add_link("a", "c", 0.0015, 1e6)
    bc = network.add_link("b", "c", 0.002, 2e6)
    handled = []
    network.register_handler("c", lambda m: handled.append(m.payload))
    due_us = seconds_to_us(0.0015) + 1000  # 1,000 bytes at 1 MB/s
    assert due_us == seconds_to_us(0.002) + 500  # 1,000 bytes at 2 MB/s
    send_sized(network, "b", "c", "b1", 1000)
    engine.schedule(due_us, lambda: handled.append("action"))
    send_sized(network, "a", "c", "a1", 1000)
    send_sized(network, "b", "c", "b2", 1)
    engine.run_until(due_us)
    assert handled == ["b1", "action", "a1"]
    assert engine.now_us == due_us and bc.depth == 1


def test_work_conservation_after_send():
    engine, network = make_net()
    network.send("a", "b", "request", None)
    [link] = network.links()
    assert link.depth == 1
    assert engine.pending() == 1  # the delivery event exists


def test_bandwidth_accounting():
    # over any window: delivered bytes <= rate * window + one message size
    engine, network = make_net(latency_s=0.0, byte_rate=50_000.0)
    network.register_handler("b", lambda m: None)
    for i in range(200):
        engine.schedule(seconds_to_us(i * 0.001),
                        lambda: send_sized(network, "a", "b", None, 512))
    window = 1.0
    engine.run_until(seconds_to_us(window))
    [link] = network.links()
    assert link.delivered_bytes <= 50_000.0 * window + 512


def test_sample_queues():
    engine, network = make_net()
    samples = network.sample_queues(0)
    assert samples[0].depth == 0 and samples[0].bytes_pending == 0
    network.send("a", "b", "delete", None)
    samples = network.sample_queues(1)
    assert samples[0].depth == 1
    assert samples[0].bytes_pending == DEFAULT_MESSAGE_SIZES["delete"]
    with pytest.raises(ValueError):
        network.sample_queues(1)  # samples must strictly increase in time
    assert len(network.samples) == 2


@pytest.mark.parametrize("byte_rate", [0.0, 0.5, 0.999])
def test_link_rejects_rates_below_one_byte_per_second(byte_rate):
    with pytest.raises(ValueError, match="byte rate"):
        Link("a", "b", 0, byte_rate)


@pytest.mark.parametrize("latency_us,jitter_us", [(-1, 0), (0, -1)])
def test_link_rejects_negative_latency_and_jitter(latency_us, jitter_us):
    # send pushes deliveries onto the engine heap unchecked: never into the past
    with pytest.raises(ValueError, match="latency and jitter"):
        Link("a", "b", latency_us, 1e3, jitter_us)


@pytest.mark.parametrize("size", [0, -64])
def test_non_positive_message_sizes_fail_when_the_network_is_built(size):
    with pytest.raises(ValueError, match="'ack' must be positive"):
        Network(Engine(seed=1), {"ack": size})


def test_unknown_link_rejected():
    engine, network = make_net()
    with pytest.raises(KeyError):
        network.send("a", "zz", "request", None)


def test_jitter_delays_within_bounds():
    engine = Engine(seed=4)
    network = Network(engine)
    link = network.add_link("a", "b", 0.001, 1e9, jitter_s=0.010)
    arrivals = []
    network.register_handler("b", lambda m: arrivals.append(engine.now_us))
    base = seconds_to_us(0.001) + serialization_us(128, 1e9)
    for i in range(20):
        # spaced sends: the link is idle each time
        engine.schedule(seconds_to_us(float(i)),
                        lambda: network.send("a", "b", "request", None))
    engine.run_until(seconds_to_us(30.0))
    deltas = [t - seconds_to_us(float(i)) - base for i, t in enumerate(arrivals)]
    assert all(0 <= d <= seconds_to_us(0.010) for d in deltas)
    assert len(set(deltas)) > 1  # jitter actually moved deliveries


def test_default_links_are_jitter_free():
    engine, network = make_net()
    [link] = network.links()
    assert link.jitter_us == 0


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
    link = network.add_link("a", "b", latency_ms / 1000, float(byte_rate))
    t = 0
    for size, gap in zip(sizes, gaps_ms):
        t += gap * 1000
        engine.now_us = t
        msg = send_sized(network, "a", "b", None, size)
        assert link._queue[-1] is msg
        min_delivery = t + serialization_us(size, byte_rate) + link.latency_us
        assert msg.deliver_at_us >= min_delivery
    # FIFO: delivery times never reorder
    times = [m.deliver_at_us for m in link._queue]
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
    link = network.add_link("a", "b", 0.001, 200_000.0, jitter_s=jitter_ms / 1000)
    received = []
    network.register_handler("b", lambda m: received.append(m.size_bytes))

    def check():
        assert link.bytes_pending == sum(m.size_bytes for m in link._queue)
        assert link.delivered_bytes == sum(received)
        assert link.delivered_count == len(received)

    t = 0
    for op, value in ops:
        if op == "send":
            send_sized(network, "a", "b", None, value)
        else:
            t += value
            engine.run_until(max(t, engine.now_us))
        check()
    engine.run_until(engine.now_us + seconds_to_us(60.0))
    check()
    assert link.bytes_pending == 0 and link.depth == 0


def reference_deliveries(sends, latency_us, byte_rate, jitter_us, seed):
    """A plain model of one jittered link: per send ``(t_us, size)`` its
    ``(enqueued_at_us, deliver_at_us)``, and the instant it is handed over.

    A message serializes once the one before it has (ceil to whole
    microseconds), then takes the latency and a jitter draw from the link's
    own stream.  Each send schedules one delivery event at its due time; a
    message is handed over at the first such event at or after its own due
    time where every earlier message has already gone."""
    stream = RandomStream("net-jitter:a->b", seed)
    busy, times = 0, []
    for t_us, size in sends:
        busy = max(busy, t_us) + serialization_us(size, byte_rate)
        times.append((t_us, busy + latency_us + int(round(stream.uniform() * jitter_us))))
    events = sorted(due for _, due in times)
    handed, gone_by = [], 0
    for _, due in times:
        gone_by = min(e for e in events if e >= due and e >= gone_by)
        handed.append(gone_by)
    return times, handed


@settings(max_examples=200, deadline=None)
@given(
    sends=st.lists(st.tuples(st.integers(min_value=0, max_value=20_000),
                             st.integers(min_value=1, max_value=5_000)),
                   min_size=1, max_size=40),
    latency_ms=st.integers(min_value=0, max_value=10),
    jitter_ms=st.integers(min_value=1, max_value=30),
    byte_rate=st.integers(min_value=10_000, max_value=10_000_000),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_jittered_link_matches_reference_model(sends, latency_ms, jitter_ms,
                                               byte_rate, seed):
    # sends at non-decreasing instants; gaps drawn as increments
    instants = list(itertools.accumulate(gap for gap, _ in sends))
    sends = [(t, size) for t, (_, size) in zip(instants, sends)]
    engine = Engine(seed=seed)
    network = Network(engine)
    link = network.add_link("a", "b", latency_ms / 1000, float(byte_rate),
                            jitter_s=jitter_ms / 1000)
    handled = []
    network.register_handler("b", lambda m: handled.append((engine.now_us, m)))
    for i, (t_us, size) in enumerate(sends):
        engine.run_until(t_us)
        engine.now_us = t_us
        send_sized(network, "a", "b", i, size)
    engine.run_until(engine.now_us + seconds_to_us(3600.0))

    times, handed = reference_deliveries(sends, link.latency_us, byte_rate,
                                         link.jitter_us, seed)
    assert [m.payload for _, m in handled] == list(range(len(sends)))
    assert [t for t, _ in handled] == handed
    assert [(m.enqueued_at_us, m.deliver_at_us) for _, m in handled] == times
    # one delivery event per send, though under jitter some deliver nothing
    assert engine.stats.events_processed == len(sends)
    assert link.depth == 0 and link.bytes_pending == 0
