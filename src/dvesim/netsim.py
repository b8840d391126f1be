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
from heapq import heappush
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
    """One message, built once by ``Network.send`` and queued on its link."""

    kind: str
    src: str
    dst: str
    size_bytes: int
    payload: Any
    enqueued_at_us: int
    deliver_at_us: int


#: a NamedTuple from a tuple of its fields, without the Python-level
#: ``__new__`` frame that calling the class adds to every send
_new_tuple = tuple.__new__


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
        if latency_us < 0 or jitter_us < 0:
            raise ValueError("latency and jitter must be >= 0")
        if byte_rate < 1:
            raise ValueError("byte rate must be >= 1 B/s")
        self.link_id = f"{from_node}->{to_node}"
        self.from_node = from_node
        self.to_node = to_node
        self.latency_us = latency_us
        self._rate = int(byte_rate)
        self.jitter_us = jitter_us
        self._queue: deque[Message] = deque()
        #: when the serializer finishes the last message sent
        self._busy_until_us = 0
        self.sent_count = 0
        self.sent_bytes = 0
        self.delivered_bytes = 0
        self._last_sample_us: Optional[int] = None

    def pop_due(self, now_us: int) -> list[Message]:
        """Remove and return the queue head(s) whose delivery time arrived."""
        out: list[Message] = []
        queue = self._queue
        while queue and queue[0].deliver_at_us <= now_us:
            msg = queue.popleft()
            self.delivered_bytes += msg.size_bytes
            out.append(msg)
        return out

    @property
    def depth(self) -> int:
        return len(self._queue)

    @property
    def delivered_count(self) -> int:
        return self.sent_count - len(self._queue)

    @property
    def bytes_pending(self) -> int:
        """Bytes of the messages queued now."""
        return self.sent_bytes - self.delivered_bytes

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
        #: the engine's event heap and seq counter, which send pushes onto
        self._heap, self._seq = engine._heap, engine._seq
        self.message_sizes = dict(DEFAULT_MESSAGE_SIZES)
        if message_sizes:
            self.message_sizes.update(message_sizes)
        for kind, size in self.message_sizes.items():
            if size <= 0:
                raise ValueError(f"message size of {kind!r} must be positive")
        #: (src, dst) -> (link, its delivery action, its jitter stream or None)
        self._routes: dict[tuple[str, str],
                           tuple[Link, Callable[[], None], Optional[RandomStream]]] = {}
        self._handlers: dict[str, Callable[[Message], None]] = {}
        self.samples: list[QueueSample] = []

    def add_link(self, from_node: str, to_node: str, latency_s: float,
                 byte_rate: float, jitter_s: float = 0.0) -> Link:
        link = Link(from_node, to_node, seconds_to_us(latency_s), byte_rate,
                    seconds_to_us(jitter_s))
        jitter = (self.engine.stream(f"net-jitter:{link.link_id}")
                  if link.jitter_us else None)
        self._routes[(from_node, to_node)] = (link, partial(self.deliver_due, link), jitter)
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
        """Queue a message on the src->dst link and schedule its delivery.

        It waits for the messages ahead of it to serialize, then takes its
        own serialization, the latency and the jitter draw, if any."""
        try:
            link, action, jitter = self._routes[src, dst]
        except KeyError:
            raise KeyError(f"no link {src}->{dst}") from None
        if size_bytes is None:
            size_bytes = self.message_sizes[kind]
        elif size_bytes <= 0:
            raise ValueError("message size must be positive")
        now_us = self.engine.now_us
        start = link._busy_until_us
        if now_us > start:
            start = now_us
        # ceil so accounted bandwidth never exceeds the configured rate
        link._busy_until_us = busy = start - (-size_bytes * 1_000_000 // link._rate)
        deliver_at_us = busy + link.latency_us
        if jitter is not None:
            deliver_at_us += int(round(jitter.uniform() * link.jitter_us))
        msg = _new_tuple(Message, (kind, src, dst, size_bytes, payload, now_us, deliver_at_us))
        link._queue.append(msg)
        link.sent_count += 1
        link.sent_bytes += size_bytes
        # Pushed straight onto the engine heap, past Engine.schedule's check:
        # delivery is never before now, since serializing even one byte
        # takes at least 1 us and latency and jitter are never negative.
        heappush(self._heap, (deliver_at_us, next(self._seq), action))
        return msg

    def deliver_due(self, link: Link) -> list[Message]:
        """Pop the link's messages whose delivery time has arrived and hand
        each, in order, to the receiving node's handler; returns them.  This
        is the action of every delivery event that ``send`` schedules."""
        due = link.pop_due(self.engine.now_us)
        handler = self._handlers.get(link.to_node)
        if handler is not None:
            for msg in due:
                handler(msg)
        return due

    # ------------------------------------------------------------------
    # instrumentation
    # ------------------------------------------------------------------

    def sample_queues(self, t_us: int) -> list[QueueSample]:
        """One sample per link at time t, appended to the metrics store."""
        batch = [link.sample(t_us) for link in self.links()]
        self.samples.extend(batch)
        return batch
