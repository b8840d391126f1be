"""Span tracer that wraps dvesim's public functions from the outside.

The traced run installs a wrapper on each layer boundary listed in
``install_layers`` before it builds a run; nothing inside ``src/`` is
edited.  Each call of a named wrapper becomes a span (name, start, end,
parent).
Self time is the span's duration minus the durations of its direct child
spans, accumulated online so that runs with millions of calls stay small
in memory; the first ``keep_spans`` spans are also kept whole and written
out when the run ends.  Untraced runs never import this module.
"""

from __future__ import annotations

import time
from array import array
from typing import Callable, Optional

import numpy as np

#: Spans kept whole per traced run; later spans still count towards the
#: self times, counts and waits, but are not written out.
KEEP_SPANS = 100_000


class Tracer:
    """Per-name self time and call counts, plus the first spans in full."""

    def __init__(self, keep_spans: int = KEEP_SPANS,
                 clock: Callable[[], int] = time.perf_counter_ns):
        self.keep_spans = keep_spans
        self.clock = clock
        #: [name, start_ns, end_ns, parent index or -1], in start order
        self.spans: list[list] = []
        self.dropped = 0
        #: name -> [self_ns, calls]
        self.totals: dict[str, list[int]] = {}
        self._stack: list[list[int]] = []
        self._installed: list[tuple[object, str, object]] = []

    # ---- recording -----------------------------------------------------

    def spanning(self, name: str, fn: Callable,
                 after: Optional[Callable] = None) -> Callable:
        """``fn`` wrapped in a span; ``after(args, result)`` runs inside it."""
        clock = self.clock
        stack = self._stack
        spans = self.spans
        keep = self.keep_spans
        acc = self.totals.setdefault(name, [0, 0])
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else -1
            start = clock()
            if len(spans) < keep:
                index = len(spans)
                spans.append([name, start, 0, parent])
            else:
                index = -1
                tracer.dropped += 1
            frame = [0, index]        # child span ns, kept span index
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, result)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                acc[0] += duration - frame[0]
                acc[1] += 1
                if stack:
                    stack[-1][0] += duration
                if index >= 0:
                    spans[index][2] = end
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` once inside a span."""
        return self.spanning(name, fn)(*args, **kwargs)

    def wrap(self, owner, attr: str, name: Optional[str],
             after: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` until ``uninstall``.

        With a name the wrapper records a span; without one it only runs
        ``after(args, result)``, whose time then counts to the caller's span.
        """
        fn = getattr(owner, attr)
        if name is not None:
            wrapper = self.spanning(name, fn, after)
        else:
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                after(args, result)
                return result
            wrapper.__wrapped__ = fn
        self._installed.append((owner, attr, fn))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._installed):
            setattr(owner, attr, fn)
        self._installed.clear()

    # ---- results ---------------------------------------------------------

    def self_s(self, name: str) -> float:
        return self.totals.get(name, [0, 0])[0] / 1e9

    def calls(self, name: str) -> int:
        return self.totals.get(name, [0, 0])[1]

    def write_spans(self, path) -> None:
        """Write the kept spans as CSV: index, name, start, end, parent."""
        with open(path, "w") as f:
            f.write("index,name,start_ns,end_ns,parent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                f.write(f"{i},{name},{start},{end},{parent}\n")


def _quantile(values, q: float) -> float:
    """Linearly interpolated q-quantile of the values; 0.0 when there are none."""
    if len(values) == 0:
        return 0.0
    return float(np.quantile(np.asarray(values, dtype=np.float64), q))


class LayerCounts:
    """Counts and simulated waits gathered at the wrapped boundaries."""

    def __init__(self):
        self.events = 0
        self.pending_peak = 0
        self.msgs = 0
        self.bytes = 0
        self.delivered = 0
        self.sojourn_us = array("q")
        self.depth_max = 0
        self.ball_steps = 0
        self.tick_capacity = 0
        self.relayed = 0
        self.creates = 0
        self.applies = 0
        self.superseded = 0
        self.lookups = 0
        self.migrations = 0
        self.handshake_us = array("q")
        #: host time at the end of each sample window's run_until
        self.window_marks_ns: list[int] = []


def install_layers(tracer: Tracer) -> LayerCounts:
    """Wrap each layer boundary of the importable ``dvesim`` package.

    The engine's event actions (``Network._deliver``, ``PhysicsActor._tick``,
    ``ScriptActor._fire``) are private, so whatever they do outside the
    wrapped public calls counts as engine self time.
    """
    from dvesim import actors, engine, netsim, partition, scene
    from dvesim.harness import galton, report

    counts = LayerCounts()
    marks = counts.window_marks_ns
    superseded = scene.ApplyResult.SUPERSEDED

    def after_run_until(args, stats):
        marks.append(tracer.clock())
        counts.events = stats.events_processed
        # a span of its own, so the scan is nobody's self time
        pending = tracer.call("trace.probe", args[0].pending)
        counts.pending_peak = max(counts.pending_peak, pending)

    tracer.wrap(engine.Engine, "run_until", "engine.run_until", after_run_until)
    tracer.wrap(engine.Engine, "schedule", "engine.schedule")

    def after_send(args, msg):
        counts.msgs += 1
        counts.bytes += msg.size_bytes

    def after_pop(args, due):
        counts.delivered += len(due)
        counts.sojourn_us.extend(q.deliver_at_us - q.enqueued_at_us for q in due)

    def after_sample(args, batch):
        for s in batch:
            if s.depth > counts.depth_max:
                counts.depth_max = s.depth

    tracer.wrap(netsim.Network, "send", "netsim.send", after_send)
    tracer.wrap(netsim.Network, "deliver_due", "netsim.deliver")
    tracer.wrap(netsim.Link, "pop_due", None, after_pop)
    tracer.wrap(netsim.Network, "sample_queues", "netsim.sample", after_sample)

    def after_tick(args, result):
        counts.ball_steps += result["stepped"]
        counts.tick_capacity += args[0].capacity

    def after_relay(args, out):
        counts.relayed += len(out)

    def after_drop(args, msgs):
        counts.creates += len(msgs)

    tracer.wrap(actors.PhysicsActor, "physics_tick", "physics.tick", after_tick)
    tracer.wrap(actors.PhysicsActor, "on_message", "physics.on_message")
    tracer.wrap(actors.DispatcherActor, "dispatcher_relay", "dispatcher.relay",
                after_relay)
    tracer.wrap(actors.ScriptActor, "dropper_tick", "script.drop", after_drop)

    def after_apply(args, result):
        counts.applies += 1
        if result is superseded:
            counts.superseded += 1

    tracer.wrap(scene.SceneReplica, "apply_update", "scene.apply", after_apply)
    tracer.wrap(scene.SceneReplica, "live_count", "scene.live_count")

    def after_lookup(args, owners):
        counts.lookups += len(owners)

    def after_begin(args, transfers):
        counts.migrations += len(transfers)

    def after_complete(args, record):
        counts.handshake_us.append(record.completed_at_us - record.initiated_at_us)

    tracer.wrap(partition.PartitionMap, "owners_xy", "partition.lookup", after_lookup)
    tracer.wrap(partition.MigrationTracker, "begin_migration", None, after_begin)
    tracer.wrap(partition.MigrationTracker, "complete_migration", None,
                after_complete)

    tracer.wrap(galton, "run_galton", "harness.run_galton")
    tracer.wrap(report, "export", "harness.export")
    return counts


def layer_metrics(tracer: Tracer, counts: LayerCounts) -> dict[str, float]:
    """Every per-layer metric of a traced run, keyed by its benchmark name."""
    t = tracer
    events = counts.events
    engine_self = t.self_s("engine.run_until")
    netsim_s = t.self_s("netsim.send") + t.self_s("netsim.deliver")
    tick_s = t.self_s("physics.tick")
    relay_s = t.self_s("dispatcher.relay")
    windows_ms = [(b - a) / 1e6 for a, b in
                  zip(counts.window_marks_ns, counts.window_marks_ns[1:])]
    return {
        "engine.events": events,
        "engine.self_s": engine_self,
        "engine.schedule_s": t.self_s("engine.schedule"),
        "engine.ns_per_event": engine_self * 1e9 / events if events else 0.0,
        "engine.pending_peak": counts.pending_peak,
        "netsim.msgs": counts.msgs,
        "netsim.bytes": counts.bytes,
        "netsim.send_s": t.self_s("netsim.send"),
        "netsim.deliver_s": t.self_s("netsim.deliver"),
        "netsim.ns_per_msg": netsim_s * 1e9 / counts.msgs if counts.msgs else 0.0,
        "netsim.undelivered": counts.msgs - counts.delivered,
        "netsim.sample_s": t.self_s("netsim.sample"),
        "netsim.depth_max": counts.depth_max,
        "netsim.sojourn_p50_ms": _quantile(counts.sojourn_us, 0.5) / 1e3,
        "netsim.sojourn_max_ms": max(counts.sojourn_us, default=0) / 1e3,
        "physics.ball_steps": counts.ball_steps,
        "physics.ticks": t.calls("physics.tick"),
        "physics.tick_s": tick_s,
        "physics.ns_per_ball_step":
            tick_s * 1e9 / counts.ball_steps if counts.ball_steps else 0.0,
        "physics.util": counts.ball_steps / counts.tick_capacity
            if counts.tick_capacity else 0.0,
        "physics.on_message_s": t.self_s("physics.on_message"),
        "dispatcher.relayed": counts.relayed,
        "dispatcher.relay_s": relay_s,
        "dispatcher.us_per_relay":
            relay_s * 1e6 / counts.relayed if counts.relayed else 0.0,
        "script.creates": counts.creates,
        "script.drop_s": t.self_s("script.drop"),
        "scene.applies": counts.applies,
        "scene.apply_s": t.self_s("scene.apply"),
        "scene.superseded_ratio":
            counts.superseded / counts.applies if counts.applies else 0.0,
        "scene.live_count_s": t.self_s("scene.live_count"),
        "partition.lookups": counts.lookups,
        "partition.lookup_s": t.self_s("partition.lookup"),
        "partition.migrations": counts.migrations,
        "partition.handshake_p50_ms": _quantile(counts.handshake_us, 0.5) / 1e3,
        "partition.handshake_max_ms": max(counts.handshake_us, default=0) / 1e3,
        "harness.loop_self_s": t.self_s("harness.run_galton"),
        "harness.window_ms_p50": _quantile(windows_ms, 0.5),
        "harness.window_ms_p90": _quantile(windows_ms, 0.9),
        "harness.export_s": t.self_s("harness.export"),
    }
