"""Point-to-point link simulation with FIFO queues and depth instrumentation.

Every cross-node message rides a link with a propagation latency and a
serialization rate.  Queues are unbounded and lossless on purpose: when a
sender outpaces a link, the growing backlog *is* the phenomenon under
study, so it must be observable rather than dropped.  Delivery order per
link always equals send order.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, NamedTuple, Optional

from .engine import Engine, RandomStream, seconds_to_us

#: Default declared size per message kind, in bytes.  The transport cost of
#: a message is size/byte_rate serialization plus link latency; these sizes
#: are configuration estimates and can be overridden per run.
DEFAULT_MESSAGE_SIZES: dict[str, int] = {
    "update": 256,
    "create": 1024,
    "delete": 256,
    "migrate": 1024,
    "ack": 64,
    "request": 128,
    "response": 512,
}


class Message(NamedTuple):
    kind: str
    src: str
    dst: str
    size_bytes: int
    payload: Any


class QueuedMessage(NamedTuple):
    message: Message
    enqueued_at_us: int
    deliver_at_us: int


@dataclass(frozen=True)
class QueueSample:
    link_id: str
    t_us: int
    depth: int
    bytes_pending: int


class Link:
    """One directed channel: latency, byte rate, unbounded FIFO queue."""

    def __init__(self, from_node: str, to_node: str, latency_us: int,
                 byte_rate: float, jitter_us: int = 0):
        if latency_us < 0:
            raise ValueError("latency must be >= 0")
        if byte_rate < 1:
            raise ValueError("byte rate must be >= 1 B/s")
        self.link_id = f"{from_node}->{to_node}"
        self.from_node = from_node
        self.to_node = to_node
        self.latency_us = latency_us
        self.byte_rate = byte_rate
        self._rate = int(byte_rate)
        self.jitter_us = jitter_us
        self._queue: deque[QueuedMessage] = deque()
        self._busy_until_us = 0
        self.sent_count = 0
        self.sent_bytes = 0
        #: bytes of the messages queued now, kept as a running sum
        self.bytes_pending = 0
        self._last_sample_us: Optional[int] = None

    def transmission_us(self, size_bytes: int) -> int:
        # ceil so accounted bandwidth never exceeds the configured rate
        return -(-size_bytes * 1_000_000 // self._rate)

    def enqueue(self, message: Message, now_us: int, jitter_draw: float = 0.0) -> QueuedMessage:
        """Append a message; returns it with its delivery time fixed.

        Delivery happens after the link finishes serializing everything
        ahead of it (back-to-back sends share the serializer) plus the
        propagation latency.
        """
        size = message.size_bytes
        start = now_us if now_us > self._busy_until_us else self._busy_until_us
        self._busy_until_us = start + self.transmission_us(size)
        deliver = self._busy_until_us + self.latency_us
        if self.jitter_us:
            deliver += int(round(jitter_draw * self.jitter_us))
        qm = QueuedMessage(message, now_us, deliver)
        self._queue.append(qm)
        self.sent_count += 1
        self.sent_bytes += size
        self.bytes_pending += size
        return qm

    def pop_due(self, now_us: int) -> list[QueuedMessage]:
        """Remove and return the queue head(s) whose delivery time arrived."""
        out: list[QueuedMessage] = []
        queue = self._queue
        while queue and queue[0].deliver_at_us <= now_us:
            qm = queue.popleft()
            self.bytes_pending -= qm.message.size_bytes
            out.append(qm)
        return out

    @property
    def depth(self) -> int:
        return len(self._queue)

    @property
    def delivered_count(self) -> int:
        return self.sent_count - len(self._queue)

    @property
    def delivered_bytes(self) -> int:
        return self.sent_bytes - self.bytes_pending

    def sample(self, t_us: int) -> QueueSample:
        if self._last_sample_us is not None and t_us <= self._last_sample_us:
            raise ValueError("queue samples must be strictly increasing in time")
        self._last_sample_us = t_us
        return QueueSample(self.link_id, t_us, self.depth, self.bytes_pending)


class Network:
    """All links of a deployment, driven by the shared engine timeline."""

    def __init__(self, engine: Engine,
                 message_sizes: Optional[dict[str, int]] = None):
        self.engine = engine
        self.message_sizes = dict(DEFAULT_MESSAGE_SIZES)
        if message_sizes:
            self.message_sizes.update(message_sizes)
        #: (src, dst) -> (link, its delivery action, its jitter stream or None)
        self._routes: dict[tuple[str, str],
                           tuple[Link, Callable[[], None], Optional[RandomStream]]] = {}
        self._handlers: dict[str, Callable[[Message], None]] = {}
        self._deliver_kinds: dict[str, str] = {}
        self.samples: list[QueueSample] = []

    def add_link(self, from_node: str, to_node: str, latency_s: float,
                 byte_rate: float, jitter_s: float = 0.0) -> Link:
        link = Link(from_node, to_node, seconds_to_us(latency_s), byte_rate,
                    seconds_to_us(jitter_s))
        jitter = (self.engine.stream(f"net-jitter:{link.link_id}")
                  if link.jitter_us else None)
        self._routes[(from_node, to_node)] = (link, partial(self._deliver, link), jitter)
        return link

    def link(self, from_node: str, to_node: str) -> Link:
        return self._routes[(from_node, to_node)][0]

    def links(self) -> list[Link]:
        """Every link, in link id order."""
        return sorted((route[0] for route in self._routes.values()),
                      key=lambda link: link.link_id)

    def register_handler(self, node_id: str, handler: Callable[[Message], None]) -> None:
        self._handlers[node_id] = handler

    # ------------------------------------------------------------------
    # traffic
    # ------------------------------------------------------------------

    def send(self, src: str, dst: str, kind: str, payload: Any,
             size_bytes: Optional[int] = None) -> Message:
        """Queue a message on the src->dst link and schedule its delivery."""
        route = self._routes.get((src, dst))
        if route is None:
            raise KeyError(f"no link {src}->{dst}")
        link, action, jitter = route
        if size_bytes is None:
            size_bytes = self.message_sizes[kind]
        if size_bytes <= 0:
            raise ValueError("message size must be positive")
        msg = Message(kind, src, dst, size_bytes, payload)
        engine = self.engine
        qm = link.enqueue(msg, engine.now_us,
                          jitter.uniform() if jitter is not None else 0.0)
        label = self._deliver_kinds.get(kind)
        if label is None:
            label = self._deliver_kinds[kind] = f"deliver:{kind}"
        engine.schedule(qm.deliver_at_us, dst, label, action)
        return msg

    def _deliver(self, link: Link) -> None:
        handler = self._handlers.get(link.to_node)
        due = self.deliver_due(link)
        if handler is not None:
            for _, message in due:
                handler(message)

    def deliver_due(self, link: Link) -> list[tuple[str, Message]]:
        """Pop exactly the messages whose delivery time has arrived, in order."""
        due = link.pop_due(self.engine.now_us)
        return [(qm.message.dst, qm.message) for qm in due]

    # ------------------------------------------------------------------
    # instrumentation
    # ------------------------------------------------------------------

    def sample_queues(self, t_us: Optional[int] = None) -> list[QueueSample]:
        """One sample per link at time t, appended to the metrics store."""
        if t_us is None:
            t_us = self.engine.now_us
        batch = [link.sample(t_us) for link in self.links()]
        self.samples.extend(batch)
        return batch
