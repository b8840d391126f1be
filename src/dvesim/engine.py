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
from typing import Callable

import numpy as np

US_PER_SECOND = 1_000_000


def seconds_to_us(seconds: float) -> int:
    """Convert seconds to the integer microsecond timebase."""
    return int(round(seconds * US_PER_SECOND))


def us_to_seconds(us: int) -> float:
    return us / US_PER_SECOND


class SchedulingInPast(Exception):
    """Raised when an event is scheduled before the current virtual time."""


@dataclass
class EngineStats:
    events_processed: int = 0


class RandomStream:
    """A named, seeded uniform random stream.

    The sequence is fully determined by ``(seed, stream_id)``; the same pair
    yields the same draws on every platform.  Drawing ``n`` values at once
    consumes the stream exactly like ``n`` single draws, which lets batch
    consumers and scalar consumers share oracle tests.
    """

    def __init__(self, stream_id: str, seed: int):
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

    def __init__(self, seed: int = 0, epsilon_max_s: float = 0.05):
        self.seed = seed
        self.epsilon_max_us = seconds_to_us(epsilon_max_s)
        #: virtual time of the event being processed; only run_until moves it
        self.now_us = 0
        self._seq = itertools.count()
        #: (fire_at_us, seq, action); seq is unique, so entries compare on
        #: (fire_at_us, seq) only
        self._heap: list[tuple[int, int, Callable[[], None]]] = []
        self._streams: dict[str, RandomStream] = {}
        self._clocks: dict[str, int] = {}
        self.stats = EngineStats()

    # ------------------------------------------------------------------
    # time
    # ------------------------------------------------------------------

    @property
    def now_s(self) -> float:
        return us_to_seconds(self.now_us)

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------

    def schedule(self, fire_at_us: int, action: Callable[[], None]) -> None:
        """Queue an action at an absolute virtual time (>= now)."""
        if fire_at_us < self.now_us:
            raise SchedulingInPast(
                f"cannot schedule at {fire_at_us} us; engine time is {self.now_us} us"
            )
        heapq.heappush(self._heap, (fire_at_us, next(self._seq), action))

    def run_until(self, t_end_us: int) -> EngineStats:
        """Process every event with fire_at <= t_end, in (fire_at, seq) order.

        Engine time advances only on events: after the call it equals the
        time of the last processed event (and never exceeds t_end).
        """
        if t_end_us < self.now_us:
            raise SchedulingInPast(
                f"run_until target {t_end_us} us is before engine time {self.now_us} us"
            )
        heap, pop = self._heap, heapq.heappop
        fired = 0
        while heap and heap[0][0] <= t_end_us:
            fire_at_us, _, action = pop(heap)
            self.now_us = fire_at_us
            action()
            fired += 1
        self.stats.events_processed += fired
        return self.stats

    def pending(self) -> int:
        return len(self._heap)

    def clear(self) -> None:
        """Drop every pending event, whose actions may hold this engine."""
        self._heap.clear()

    # ------------------------------------------------------------------
    # clocks
    # ------------------------------------------------------------------

    def clock(self, node_id: str) -> int:
        """The node's clock: its constant offset (us) from the timeline.

        Drawn on first use, in [-epsilon_max, +epsilon_max], from the node's
        own named stream, so wiring order cannot change any node's clock.
        """
        offset_us = self._clocks.get(node_id)
        if offset_us is None:
            u = self.stream(f"clock-offset:{node_id}").uniform()
            offset_us = int(round((2.0 * u - 1.0) * self.epsilon_max_us))
            self._clocks[node_id] = offset_us
        return offset_us

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
