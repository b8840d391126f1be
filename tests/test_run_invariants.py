"""Whole-run invariants over randomized small pegboard configurations.

Each example runs ``run_galton`` on a small geometry, in topology A or B
with either split, with or without link jitter and a slow link class.  The run's own audits
(conservation and ghost count, checked at every sample tick) must never
fire, the run must drain, every link must deliver in send order, the
histogram must account for every created ball, and a re-run must export
the same bytes.  After the run the remaining events are processed, so
that every message in flight arrives; then no migration may be left open.
"""

from __future__ import annotations

import tempfile
from collections import defaultdict
from contextlib import ExitStack
from pathlib import Path
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from dvesim.actors import GaltonGeometry, PhysicsActor
from dvesim.harness import GaltonExperimentConfig, export, run_galton
from dvesim.netsim import Link

EXPORTS = ("metrics.csv", "queues.csv", "histogram.csv", "report.json")


@st.composite
def small_configs(draw):
    geometry = GaltonGeometry(
        n_levels=draw(st.integers(min_value=1, max_value=11)),
        boxes=draw(st.integers(min_value=1, max_value=2)),
        rows_per_box=draw(st.integers(min_value=1, max_value=3)),
        droppers_per_row=draw(st.integers(min_value=1, max_value=3)),
        balls_per_dropper=draw(st.integers(min_value=1, max_value=4)),
        nominal_descent_s=draw(st.sampled_from([2.0, 12.0])),
    )
    # the centre split twice: it is the one layout that migrates balls
    topology, split = draw(st.sampled_from(
        [("A", "center_x"), ("B", "center_x"), ("B", "center_x"),
         ("B", "between_boxes")]))
    return GaltonExperimentConfig(
        geometry=geometry, topology=topology, split=split,
        period_t_s=draw(st.sampled_from([0.5, 2.0])),
        capacity_c=draw(st.sampled_from([3, 50])),
        link_jitter_s=draw(st.sampled_from([0.0, 0.02])),
        # a slow dispatcher->physics class backs its queues up
        link_overrides=draw(st.sampled_from([{}, {"dispatcher->physics": {
            "latency_s": 0.05, "byte_rate": 20_000.0}}])),
        duration_cap_s=3600.0, sample_period_s=2.0,
        seed=draw(st.integers(min_value=0, max_value=2**16)),
    )


class _Observed:
    """Physics actors built, and per link the messages sent and delivered."""

    def __init__(self):
        self.physics: list[PhysicsActor] = []
        self.sent: dict[str, list] = defaultdict(list)
        self.delivered: dict[str, list] = defaultdict(list)


def _observed_run(config: GaltonExperimentConfig, out: Path):
    seen = _Observed()
    actor_init, enqueue, pop_due = (PhysicsActor.__init__, Link.enqueue,
                                    Link.pop_due)

    def record_actor(self, *args, **kwargs):
        actor_init(self, *args, **kwargs)
        seen.physics.append(self)

    def record_send(self, message, *args):
        seen.sent[self.link_id].append(message)
        return enqueue(self, message, *args)

    def record_delivery(self, now_us):
        due = pop_due(self, now_us)
        seen.delivered[self.link_id].extend(qm.message for qm in due)
        return due

    with ExitStack() as patches:
        patches.enter_context(mock.patch.object(PhysicsActor, "__init__", record_actor))
        patches.enter_context(mock.patch.object(Link, "enqueue", record_send))
        patches.enter_context(mock.patch.object(Link, "pop_due", record_delivery))
        report = run_galton(config)
        export(report, out)
        engine = seen.physics[0].engine
        engine.run_until(engine.now_us + 10**12)
        assert engine.pending() == 0
    return report, seen


@settings(max_examples=200, deadline=None)
@given(config=small_configs())
def test_small_runs_keep_every_invariant(config):
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "first"), Path(tmp, "second")
        report, seen = _observed_run(config, first)
        export(run_galton(config), second)
        for name in EXPORTS:
            assert (first / name).read_bytes() == (second / name).read_bytes(), name

    assert not report.hit_cap and report.audit_ok
    assert report.collected_total + report.discarded == report.created_total
    assert report.created_total == config.geometry.total_balls
    assert int(report.histogram.counts.sum()) + report.discarded == report.created_total

    for link_id, sent in seen.sent.items():
        delivered = seen.delivered[link_id]
        assert len(delivered) == len(sent), link_id
        assert all(d is s for d, s in zip(delivered, sent)), link_id
    for actor in seen.physics:
        assert actor.tracker.in_flight_count() == 0
        assert actor.ghost_count == 0 and actor.active_count == 0
