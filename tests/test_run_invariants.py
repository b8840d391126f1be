"""Whole-run invariants over randomized small pegboard configurations.

Each example runs ``run_galton`` on a small geometry, in topology A or B
with either split, with or without link jitter and a slow link class.  The
run's own audits (conservation, ghost count and each physics replica's live
balls, checked at every sample tick) must never fire, the run must drain,
every link must deliver in send order and carry only the message kinds
routed over it, the histogram must account for every created ball, each
node's last message counts must equal what its links carried, and a re-run
must export the same bytes.  After the run the remaining events are
processed, so that every message in flight arrives; then no migration may
be left open and no replica, the script's or a physics node's, may hold any
record of a ball, live or deleted.  ``migrated_unique`` must count the
distinct balls of the transfers sent.
"""

from __future__ import annotations

import json
import tempfile
from collections import defaultdict
from contextlib import ExitStack
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dvesim.actors import GaltonGeometry, PhysicsActor, ScriptActor
from dvesim.engine import Engine
from dvesim.harness import GaltonExperimentConfig, export, run_galton
from dvesim.harness.galton import ConservationViolation
from dvesim.netsim import Link, Network
from dvesim.scene import SceneReplica
from helpers import live_records

EXPORTS = ("metrics.csv", "queues.csv", "histogram.csv", "report.json")

#: (source, destination) node class -> the message kinds routed over it:
#: creates go script -> dispatcher -> physics, transfers and acks between
#: the physics nodes through the dispatcher, deletes physics -> dispatcher
#: -> script
ROUTED_KINDS = {
    ("script", "dispatcher"): {"create"},
    ("dispatcher", "script"): {"delete"},
    ("dispatcher", "physics"): {"create", "migrate", "ack"},
    ("physics", "dispatcher"): {"migrate", "ack", "delete"},
}


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
    """Script and physics actors built, and per link the messages sent and
    delivered."""

    def __init__(self):
        self.scripts: list[ScriptActor] = []
        self.physics: list[PhysicsActor] = []
        self.sent: dict[str, list] = defaultdict(list)
        self.delivered: dict[str, list] = defaultdict(list)
        #: per link that carried anything, (sent, delivered) when the run
        #: returned its report
        self.at_report: dict[str, tuple[int, int]] = {}


def _observed_run(config: GaltonExperimentConfig, out: Path):
    seen = _Observed()
    send, pop_due = Network.send, Link.pop_due

    def recording(cls, built):
        init = cls.__init__

        def record_actor(self, *args, **kwargs):
            init(self, *args, **kwargs)
            built.append(self)
        return record_actor

    def record_send(self, src, dst, *args, **kwargs):
        message = send(self, src, dst, *args, **kwargs)
        seen.sent[f"{src}->{dst}"].append(message)
        return message

    def record_delivery(self, now_us):
        due = pop_due(self, now_us)
        seen.delivered[self.link_id].extend(due)
        return due

    with ExitStack() as patches:
        patches.enter_context(mock.patch.object(
            PhysicsActor, "__init__", recording(PhysicsActor, seen.physics)))
        patches.enter_context(mock.patch.object(
            ScriptActor, "__init__", recording(ScriptActor, seen.scripts)))
        patches.enter_context(mock.patch.object(Network, "send", record_send))
        patches.enter_context(mock.patch.object(Link, "pop_due", record_delivery))
        # run_galton drops a finished run's pending events, handlers and
        # links before it returns; kept, the run drains below
        patches.enter_context(mock.patch.object(Engine, "clear"))
        patches.enter_context(mock.patch.object(Network, "close"))
        report = run_galton(config)
        seen.at_report = {link_id: (len(seen.sent[link_id]), len(seen.delivered[link_id]))
                          for link_id in set(seen.sent) | set(seen.delivered)}
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
        link_totals = json.loads((first / "report.json").read_text())["link_totals"]

    for node, series in report.nodes.items():
        sent = sum(t["sent_count"] for link_id, t in link_totals.items()
                   if link_id.split("->")[0] == node)
        received = sum(t["delivered_count"] for link_id, t in link_totals.items()
                       if link_id.split("->")[1] == node)
        assert series.msgs_sent[-1] == sent, node
        # the script's received count is exported as 0
        assert series.msgs_recv[-1] == (0 if node == "script" else received), node

    assert not report.hit_cap and report.audit_ok
    assert report.collected_total + report.discarded == report.created_total
    assert report.created_total == config.geometry.total_balls
    assert int(report.histogram.sum()) + report.discarded == report.created_total

    # the links' own counts are what was observed, so an observation that
    # misses sends or deliveries fails here, not vacuously in the FIFO check
    assert seen.at_report == {link_id: (t["sent_count"], t["delivered_count"])
                              for link_id, t in link_totals.items() if t["sent_count"]}
    for link_id, sent in seen.sent.items():
        delivered = seen.delivered[link_id]
        assert len(delivered) == len(sent), link_id
        assert all(d is s for d, s in zip(delivered, sent)), link_id
        src, dst = (node.split("-")[0] for node in link_id.split("->"))
        assert {m.kind for m in sent} <= ROUTED_KINDS[src, dst], link_id
    for actor in seen.physics:
        assert actor.tracker.in_flight_count() == 0
        assert actor.ghost_count == 0 and actor.active_count == 0
    assert len(seen.scripts) == 1
    for actor in seen.scripts + seen.physics:
        assert actor.replica.live_count() == 0
        # no record, live or tombstoned, and no page of slots: a node that
        # deletes a ball forgets it, and drops a page once it holds no ball
        replica = actor.replica
        assert not live_records(replica) and not replica._tombs, actor.node_id
        assert not replica._pages, actor.node_id
    migrated = {m.payload.entity for msgs in seen.sent.values() for m in msgs
                if m.kind == "migrate"}
    assert report.migrated_unique == len(migrated)


def test_replica_audit_fires_when_a_replica_keeps_what_it_shipped():
    # with forget a no-op, a losing node keeps the balls it shipped away
    geometry = GaltonGeometry(n_levels=10, boxes=1, rows_per_box=3, droppers_per_row=2,
                              balls_per_dropper=3, nominal_descent_s=12.0)
    config = GaltonExperimentConfig(geometry=geometry, topology="B", split="center_x",
                                    period_t_s=2.0, capacity_c=200, duration_cap_s=600.0,
                                    sample_period_s=0.5, seed=3)
    assert run_galton(config).migrations_total > 0
    with mock.patch.object(SceneReplica, "forget", lambda self, entity: None):
        with pytest.raises(ConservationViolation,
                           match=r"physics-\d replica holds \d+ live balls vs \d+"):
            run_galton(config)
