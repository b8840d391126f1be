"""Deterministic discrete-event core.

A single virtual timeline drives every node in a simulated deployment.
Time is kept as integer microseconds so event ordering never depends on
platform floating-point behaviour.  Per-node wall clocks are modelled as
a constant signed offset from the shared timeline (the level of agreement
an NTP-synchronized cluster provides), and all randomness comes from
named, independently seeded streams so that adding a consumer in one
subsystem never perturbs the draw sequence of another.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

US_PER_SECOND = 1_000_000


def seconds_to_us(seconds: float) -> int:
    """Convert seconds to the integer microsecond timebase."""
    return int(round(seconds * US_PER_SECOND))


def us_to_seconds(us: int) -> float:
    return us / US_PER_SECOND


class SchedulingInPast(Exception):
    """Raised when an event is scheduled before the current virtual time."""


@dataclass(frozen=True)
class NodeClock:
    """A node's wall clock: the shared timeline plus a constant offset.

    The offset is bounded by the engine's configured maximum skew, so for
    any two clocks the mutual disagreement never exceeds twice that bound.
    """

    node_id: str
    offset_us: int


@dataclass
class EngineStats:
    events_processed: int = 0
    end_time_us: int = 0


class RandomStream:
    """A named, seeded uniform random stream.

    The sequence is fully determined by ``(seed, stream_id)``; the same pair
    yields the same draws on every platform.  Drawing ``n`` values at once
    consumes the stream exactly like ``n`` single draws, which lets batch
    consumers and scalar consumers share oracle tests.
    """

    def __init__(self, stream_id: str, seed: int):
        self.stream_id = stream_id
        self.seed = seed
        key = int.from_bytes(hashlib.sha256(stream_id.encode()).digest()[:8], "big")
        self._gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, key))))

    def uniform(self) -> float:
        """Next value in [0, 1)."""
        return float(self._gen.random())

    def uniform_many(self, n: int) -> np.ndarray:
        """Next ``n`` values in [0, 1) as an array (same stream as uniform())."""
        return self._gen.random(n)


class Engine:
    """Single-threaded event scheduler over one virtual timeline.

    Events fire in strict ``(fire_at, seq)`` order; ``seq`` is a per-run
    monotone counter, so ties at the same instant resolve in scheduling
    order.  Runs with the same seed and the same schedule of actions are
    reproducible event for event.
    """

    def __init__(self, seed: int = 0, epsilon_max_s: float = 0.05,
                 keep_event_log: bool = False):
        self.seed = seed
        self.epsilon_max_us = seconds_to_us(epsilon_max_s)
        self._now_us = 0
        self._seq = itertools.count()
        #: (fire_at_us, seq, action, target, kind); seq is unique, so
        #: entries compare on (fire_at_us, seq) only
        self._heap: list[tuple[int, int, Callable[[], None], str, str]] = []
        self._streams: dict[str, RandomStream] = {}
        self._clocks: dict[str, NodeClock] = {}
        self.stats = EngineStats()
        self.event_log: Optional[list[tuple[int, int, str, str]]] = [] if keep_event_log else None

    # ------------------------------------------------------------------
    # time
    # ------------------------------------------------------------------

    @property
    def now_us(self) -> int:
        return self._now_us

    @property
    def now_s(self) -> float:
        return us_to_seconds(self._now_us)

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------

    def schedule(self, fire_at_us: int, target: str, kind: str,
                 action: Callable[[], None]) -> None:
        """Queue an action at an absolute virtual time (>= now)."""
        if fire_at_us < self._now_us:
            raise SchedulingInPast(
                f"cannot schedule at {fire_at_us} us; engine time is {self._now_us} us"
            )
        heapq.heappush(self._heap, (fire_at_us, next(self._seq), action, target, kind))

    def run_until(self, t_end_us: int) -> EngineStats:
        """Process every event with fire_at <= t_end, in (fire_at, seq) order.

        Engine time advances only on events: after the call it equals the
        time of the last processed event (and never exceeds t_end).
        """
        if t_end_us < self._now_us:
            raise SchedulingInPast(
                f"run_until target {t_end_us} us is before engine time {self._now_us} us"
            )
        while self._heap and self._heap[0][0] <= t_end_us:
            fire_at_us, seq, action, target, kind = heapq.heappop(self._heap)
            self._now_us = fire_at_us
            if self.event_log is not None:
                self.event_log.append((fire_at_us, seq, target, kind))
            action()
            self.stats.events_processed += 1
        self.stats.end_time_us = self._now_us
        return self.stats

    def pending(self) -> int:
        return len(self._heap)

    def write_event_log(self, path) -> None:
        """Dump the ordered event log as newline-delimited records.

        One record per processed event: time_us, seq, target, kind.  The
        engine must have been built with keep_event_log=True.
        """
        if self.event_log is None:
            raise ValueError("engine was not built with keep_event_log=True")
        with open(path, "w") as f:
            for t_us, seq, target, kind in self.event_log:
                f.write(f"{t_us}\t{seq}\t{target}\t{kind}\n")

    # ------------------------------------------------------------------
    # clocks
    # ------------------------------------------------------------------

    def clock(self, node_id: str, offset_us: Optional[int] = None) -> NodeClock:
        """Return the node's clock, creating it on first use.

        Without an explicit offset the clock gets a deterministic offset in
        [-epsilon_max, +epsilon_max] drawn from the node's own named stream,
        so wiring order cannot change any node's clock.
        """
        existing = self._clocks.get(node_id)
        if existing is not None:
            return existing
        if offset_us is None:
            u = self.stream(f"clock-offset:{node_id}").uniform()
            offset_us = int(round((2.0 * u - 1.0) * self.epsilon_max_us))
        if abs(offset_us) > self.epsilon_max_us:
            raise ValueError(
                f"clock offset {offset_us} us exceeds epsilon_max {self.epsilon_max_us} us"
            )
        clock = NodeClock(node_id, offset_us)
        self._clocks[node_id] = clock
        return clock

    def local_now_us(self, clock: NodeClock) -> int:
        """The node's wall-clock reading at the current instant."""
        return self._now_us + clock.offset_us

    # ------------------------------------------------------------------
    # randomness
    # ------------------------------------------------------------------

    def stream(self, stream_id: str) -> RandomStream:
        """Named random stream, created on first use from the engine seed."""
        s = self._streams.get(stream_id)
        if s is None:
            s = RandomStream(stream_id, self.seed)
            self._streams[stream_id] = s
        return s
