"""Shared test machinery: randomized LWW delivery schedules, a replica's
live records, the scene's convergence digest and a plain last-writer-wins
model of the scene, the
scalar key layout, owner lookup, descent and crossing model that the owner
table and the physics tick oracle are checked against, a way to seat a
ball on a physics node without a script or a dispatcher, the list-of-tuples window statistics that the
columnar report code is checked against, the series shape checks and
report series that acceptance criteria 3 and 4 judge a run by, the
capacity-jittered series that criterion 9 must flag, the login study's
light and heavy presets, a reader of an exported histogram.csv, and the
benchmark's pin table."""

from __future__ import annotations

import csv
import hashlib
import importlib.util
import itertools
import random
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from dvesim.actors import GaltonGeometry, PhysicsActor
from dvesim.harness.galton import GaltonExperimentConfig
from dvesim.harness.report import ExperimentReport
from dvesim.partition import OutOfRegion, PartitionMap
from dvesim.scene import (
    PAGE_SIZE,
    ApplyResult,
    DuplicateCreate,
    ExistenceUpdate,
    SceneReplica,
    UnknownEntity,
)
from dvesim.stats import InvalidParameter


def live_records(replica: SceneReplica) -> dict:
    """The replica's live entities and the existence stamp each holds, read
    out of its pages."""
    return {key * PAGE_SIZE + slot: stamp for key, page in replica._pages.items()
            for slot, stamp in enumerate(page[:PAGE_SIZE]) if stamp is not None}


def digest(replica: SceneReplica) -> str:
    """Order-independent hash of the replica's visible state, the live
    entities and their existence stamps.

    Two replicas that applied the same update set in any order produce the
    same digest; any visible difference produces a different one.
    """
    h = hashlib.sha256()
    for entity, floor in sorted(live_records(replica).items()):
        h.update(f"E{entity}:{floor!r}\n".encode())
    return h.hexdigest()


def random_update_set(rng: random.Random, max_entities: int = 10,
                      max_updates: int = 200) -> list[ExistenceUpdate]:
    """An update multiset over a few entities: creates, deletes, re-creates.

    Every touched entity gets at least a creation update, so any at-least-once
    delivery schedule can make progress.  The entities take turns over the
    first three pages of a replica, each at a slot of its own.
    """
    n_entities = rng.randint(3, max_entities)
    ids = [PAGE_SIZE * (i % 3) + slot
           for i, slot in enumerate(rng.sample(range(PAGE_SIZE), n_entities))]
    origins = ["node-a", "node-b", "node-c"]
    seqs = {o: itertools.count() for o in origins}
    updates: list[ExistenceUpdate] = []
    for e in ids:
        o = rng.choice(origins)
        updates.append(ExistenceUpdate(e, True, (rng.randint(0, 50), o, next(seqs[o]))))
    extra = rng.randint(0, max_updates - len(updates))
    for _ in range(extra):
        e = rng.choice(ids)
        o = rng.choice(origins)
        ts = rng.randint(0, 1000)
        updates.append(ExistenceUpdate(e, rng.random() < 0.5, (ts, o, next(seqs[o]))))
    return updates


def deliver_schedule(replica: SceneReplica, updates: list[ExistenceUpdate],
                     rng: random.Random, duplicate_frac: float = 0.3) -> None:
    """At-least-once delivery: a random permutation plus random duplicates.

    Updates arriving before their entity is known are requeued, which is
    exactly what a retrying transport does.
    """
    batch = list(updates)
    batch += [rng.choice(updates) for _ in range(int(len(updates) * duplicate_frac))]
    rng.shuffle(batch)
    pending = batch
    while pending:
        deferred = []
        for u in pending:
            try:
                replica.apply_update(u)
            except UnknownEntity:
                deferred.append(u)
        if len(deferred) == len(pending):
            raise AssertionError("schedule cannot make progress")
        pending = deferred


def run_lww_trial(rng: random.Random) -> tuple[str, str]:
    """Deliver one update set to two replicas in different orders."""
    updates = random_update_set(rng)
    r1 = SceneReplica("r1")
    r2 = SceneReplica("r2")
    deliver_schedule(r1, updates, rng)
    deliver_schedule(r2, updates, rng)
    return digest(r1), digest(r2)


class LwwModel:
    """The scene as one plain dict of last-writer-wins registers: each
    entity's existence ``(stamp, alive)``.  Its local updates are stamped
    by ``node_id``, as a replica's are."""

    def __init__(self, node_id):
        self.node_id = node_id
        self.stamps: dict = {}
        self.seq = 0

    def apply_update(self, u: ExistenceUpdate) -> ApplyResult:
        if u.entity not in self.stamps:
            if not u.alive:
                raise UnknownEntity(u.entity)
            self.stamps[u.entity] = (u.stamp, True)
            return ApplyResult.ACCEPTED
        if u.stamp <= self.stamps[u.entity][0]:
            return ApplyResult.SUPERSEDED
        self.stamps[u.entity] = (u.stamp, bool(u.alive))
        return ApplyResult.ACCEPTED

    def create_entities(self, entities, ts_us):
        """A batch create: one existence update on one seq for every id,
        refused whole if an id is live or repeats."""
        if len(set(entities)) < len(entities) or any(
                self.stamps.get(e, (None, False))[1] for e in entities):
            raise DuplicateCreate(entities)
        stamp = (ts_us, self.node_id, self.seq)
        self.seq += 1
        for e in entities:
            self.apply_update(ExistenceUpdate(e, True, stamp))
        return stamp

    def delete_entity(self, entity, ts_us) -> ExistenceUpdate:
        if entity not in self.stamps:
            raise UnknownEntity(entity)
        u = ExistenceUpdate(entity, False, (ts_us, self.node_id, self.seq))
        self.seq += 1
        self.apply_update(u)
        return u

    def forget(self, entity) -> None:
        if entity not in self.stamps:
            raise UnknownEntity(entity)
        del self.stamps[entity]

    def live_count(self) -> int:
        return sum(alive for _, alive in self.stamps.values())

    def digest(self) -> str:
        """The visible state in ``digest``'s format."""
        h = hashlib.sha256()
        for entity, (floor, alive) in sorted(self.stamps.items()):
            if alive:
                h.update(f"E{entity}:{floor!r}\n".encode())
        return h.hexdigest()


FALLING = "falling"


@dataclass
class Ball:
    """One benchmark entity, as the scalar model moves it."""

    id: int
    box: int
    row: int
    level: int = 0
    column: int = 0
    created_at_us: int = 0
    state: str = FALLING


def key_layout(geometry: GaltonGeometry) -> tuple[int, int]:
    """(lowest column, columns per lane) of the owner table's keys: each
    (box, row) lane pads the board's columns with off-region ones."""
    n = geometry.n_levels
    col_lo = -n - 4 - 2 * (geometry.rows_per_box - 1) * geometry.row_offset_buckets
    return col_lo, 2 * geometry.bucket_count - n + 3 - col_lo


def ball_key(geometry: GaltonGeometry, box: int, row: int, column: int) -> int:
    """The owner-table key of a ball at a column of a (box, row) lane."""
    col_lo, width = key_layout(geometry)
    return (box * geometry.rows_per_box + row) * width + column - col_lo


def decode_key(geometry: GaltonGeometry, key: int) -> tuple[int, int, int]:
    """The (box, row, column) that an owner-table key names."""
    col_lo, width = key_layout(geometry)
    lane, column = divmod(key, width)
    box, row = divmod(lane, geometry.rows_per_box)
    return box, row, column + col_lo


def seat(actor: PhysicsActor, ball: Ball, scene_seq: int = 0) -> None:
    """Seat ``ball`` on ``actor`` as a delivered create would: counted as
    created and delivered, and ticked from the next tick boundary.  The ball
    must lie in the actor's partition, at a column of its lane."""
    key = ball_key(actor.geometry, ball.box, ball.row, ball.column)
    actor._arrive((0, ball.level, key, ball.id, ball.created_at_us), (0, "script", scene_seq))
    actor.ledger.created += 1
    actor.ledger.creates_delivered += 1


def owner_of(pmap: PartitionMap, x_m: float, y_m: float) -> int:
    """Scalar owner lookup: the partition of the containing microcell, where
    a point on a cell boundary belongs to the higher-index cell."""
    region = pmap.region
    if not (0.0 <= x_m < region.width_m and 0.0 <= y_m < region.depth_m):
        raise OutOfRegion(f"({x_m}, {y_m}) outside {region.width_m} x {region.depth_m} m region")
    cell = int(x_m // region.microcell_m), int(y_m // region.microcell_m)
    return int(pmap._assignment[cell])


def descend_one_level(ball: Ball, stream) -> Ball:
    """One peg: equal chance of a half-bucket step left or right."""
    if ball.state != FALLING:
        raise ValueError(f"ball {ball.id} is {ball.state}, not falling")
    ball.level += 1
    ball.column += -1 if stream.uniform() < 0.5 else 1
    return ball


def detect_crossing(prev: tuple[float, float], nxt: tuple[float, float],
                    pmap: PartitionMap) -> Optional[tuple[int, int]]:
    """(from, to) partition pair if the move changes owner, else None."""
    a = owner_of(pmap, *prev)
    b = owner_of(pmap, *nxt)
    if a == b:
        return None
    return (a, b)


def window_interval_means_scalar(collections: Sequence[tuple[int, int, int, int]],
                                 times_us: Sequence[int],
                                 node: Optional[int] = None) -> list[Optional[float]]:
    """Mean interval (s) of the collections in each window (times_us[i-1],
    times_us[i]], one (t_us, interval_us, node, bucket) tuple at a time."""
    rows = [c for c in collections if node is None or c[2] == node]
    means: list[Optional[float]] = []
    idx = 0
    for t_us in times_us:
        total = count = 0
        while idx < len(rows) and rows[idx][0] <= t_us:
            total += rows[idx][1]
            count += 1
            idx += 1
        means.append(total / count / 1e6 if count else None)
    return means


def intervals_in_window_scalar(collections: Sequence[tuple[int, int, int, int]],
                               t0_s: float, t1_s: float) -> np.ndarray:
    """Interval values (s) of the collections in (t0, t1], one tuple at a time."""
    lo = t0_s * 1e6
    hi = t1_s * 1e6
    return np.array([c[1] / 1e6 for c in collections if lo < c[0] <= hi])


def moving_average(series: Sequence[float], window: int) -> np.ndarray:
    """Centered moving average; the series must be at least one window long."""
    xs = np.asarray(series, dtype=float)
    if window < 1 or window > len(xs):
        raise InvalidParameter("window must be in [1, len(series)]")
    kernel = np.ones(window) / window
    return np.convolve(xs, kernel, mode="valid")


def is_convex_increasing(series: Sequence[float], smooth_window: int = 9,
                         tol_frac: float = 0.25) -> bool:
    """True if the smoothed series rises with non-negative curvature.

    Second differences of a sampled series wobble around zero even for an
    exactly linear ramp, so they are compared against a small tolerance
    scaled by the typical per-sample increment; a saturating (concave)
    series fails because its curvature is sustained, not noise-sized.
    """
    xs = moving_average(series, smooth_window)
    if len(xs) < 3:
        raise InvalidParameter("series too short after smoothing")
    diffs = np.diff(xs)
    if not (diffs > 0).all():
        return False
    tol = tol_frac * float(np.median(np.abs(diffs)))
    return bool((np.diff(diffs) >= -tol).all())


def increasing_trend(series: Sequence[float], ratio: float = 2.0) -> bool:
    """True if the series shows a strictly increasing trend.

    Checks both that concordant pairs dominate (a Mann-Kendall style sign
    statistic) and that the final level exceeds the initial level by the
    given ratio.
    """
    xs = np.asarray(series, dtype=float)
    if len(xs) < 4:
        raise InvalidParameter("series too short for a trend check")
    n = len(xs)
    s = 0
    for i in range(n - 1):
        s += int(np.sign(xs[i + 1:] - xs[i]).sum())
    pairs = n * (n - 1) // 2
    if s <= 0.5 * pairs:
        return False
    head = float(xs[: max(1, n // 10)].mean())
    tail = float(xs[-max(1, n // 10):].mean())
    return tail > ratio * max(head, 1.0)


def physics_nodes(report: ExperimentReport) -> list[str]:
    """The run's physics nodes, in id order."""
    return [n for n in report.nodes if n.startswith("physics")]


def physics_balls_series(report: ExperimentReport) -> list[int]:
    """Sum of actively simulated balls over the physics nodes, per sample."""
    out = []
    for i in range(len(report.times_s)):
        out.append(sum(report.nodes[n].balls_in_scene[i] or 0
                       for n in physics_nodes(report)))
    return out


def interval_series(report: ExperimentReport) -> tuple[list[float], list[Optional[float]]]:
    """Windowed mean interval per sample window (None when no landings)."""
    times_us = [round(t * 1_000_000) for t in report.times_s]
    return list(report.times_s), window_interval_means_scalar(report.collections.tolist(),
                                                              times_us)


def queue_depth_series(report: ExperimentReport,
                       link_id: str) -> tuple[list[float], list[int]]:
    times = [s.t_us / 1e6 for s in report.queue_samples if s.link_id == link_id]
    depths = [s.depth for s in report.queue_samples if s.link_id == link_id]
    return times, depths


def jittered_configs(config: GaltonExperimentConfig, seeds: list[int],
                     capacity_jitter_frac: float) -> list[GaltonExperimentConfig]:
    """A series' configs with capacity jittered per run.

    Jitter applies evenly spaced per-run factors spanning
    1 +- capacity_jitter_frac, so "+-50% per run" means the k runs cover
    0.5x .. 1.5x capacity deterministically.
    """
    k = len(seeds)
    configs = []
    for i, seed in enumerate(seeds):
        factor = 1.0
        if capacity_jitter_frac and k > 1:
            factor = 1.0 + capacity_jitter_frac * (2.0 * i / (k - 1) - 1.0)
        configs.append(replace(config, seed=seed,
                               capacity_factor=config.capacity_factor * factor))
    return configs


# The login study's light and heavy factor levels: inventory folders and
# scene assets, the two counts its cost model reads.
LIGHT_FOLDERS, HEAVY_FOLDERS = 0, 8977
LIGHT_ASSETS, HEAVY_ASSETS = 2, 1171


def read_histogram_csv(path) -> np.ndarray:
    """The observed counts of an exported histogram.csv."""
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    counts = np.zeros(len(rows), dtype=np.int64)
    for row in rows:
        counts[int(row["bucket_index"])] = int(row["observed"])
    return counts


def _load_bench_checks():
    """``perfbench/checks.py``, loaded by path: its ``WORKLOADS``, ``GOLDEN``
    and ``GOLDEN_SEED`` are the one table of golden export pins, and its
    ``export_digest`` is the one way to hash a run's exports."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "checks.py"
    spec = importlib.util.spec_from_file_location("bench_checks", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_checks = _load_bench_checks()
