"""Node behaviour models: dropper scripts, physics simulators, dispatcher.

The script node creates balls on a fixed period and is never throttled:
its schedule depends only on the configured period, exactly the decoupling
that lets an overloaded physics node diverge instead of applying
backpressure.  Physics nodes own the balls inside their partition and run
a fixed per-tick work budget: every tick at most ``capacity`` balls make
progress, round-robin oldest-first, so a population above capacity dilates
every ball's descent by the ratio population/capacity.  The dispatcher is
a pure relay: creations go to the owning physics node, scene updates fan
out to subscribers, transfers and acks follow the migration handshake.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from .engine import Engine, seconds_to_us
from .netsim import Message, Network
from .partition import MigrationTracker, PartitionMap, RegionSpec, TransferMessage, MigrationAck
from .scene import EXISTENCE, PropertyUpdate, SceneReplica

FALLING = "falling"
COLLECTED = "collected"
DISCARDED = "discarded"


class UnroutableMessage(KeyError):
    """The dispatcher has no route for a message."""


# ----------------------------------------------------------------------
# benchmark geometry
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class GaltonGeometry:
    """Dimensions and load parameters of the pegboard benchmark.

    Each box is a board of ``n_levels`` peg rows; a ball takes one
    left/right half-bucket step per level, so a row of droppers produces a
    Binomial(n, 1/2) bucket distribution.  The dropper rows are offset
    sideways by ``row_offset_buckets``, which widens the combined histogram
    to ``n_levels + 1 + (rows_per_box - 1) * row_offset_buckets`` buckets
    (96 for the default board).
    """

    n_levels: int = 93
    boxes: int = 4
    rows_per_box: int = 3
    droppers_per_row: int = 9
    balls_per_dropper: int = 350
    row_offset_buckets: int = 1
    nominal_descent_s: float = 124.82

    def __post_init__(self):
        for name in ("n_levels", "boxes", "rows_per_box", "droppers_per_row",
                     "balls_per_dropper"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.row_offset_buckets < 0:
            raise ValueError("row_offset_buckets must be >= 0")
        if self.nominal_descent_s <= 0:
            raise ValueError("nominal_descent_s must be positive")

    @property
    def bucket_count(self) -> int:
        return self.n_levels + 1 + (self.rows_per_box - 1) * self.row_offset_buckets

    @property
    def dropper_count(self) -> int:
        return self.boxes * self.rows_per_box * self.droppers_per_row

    @property
    def total_balls(self) -> int:
        return self.dropper_count * self.balls_per_dropper

    @property
    def balls_per_row(self) -> int:
        """Balls landing in one row's distribution, pooled over all boxes."""
        return self.boxes * self.droppers_per_row * self.balls_per_dropper

    @property
    def level_time_us(self) -> int:
        return round(self.nominal_descent_s * 1_000_000 / self.n_levels)

    # ---- spatial embedding -------------------------------------------

    def bucket_width_m(self, region: RegionSpec) -> float:
        return region.width_m / self.bucket_count

    def ball_x_m(self, region: RegionSpec, row: int, column: int) -> float:
        """Horizontal position for a row's ball at a column displacement.

        Chosen so a ball's final x is the centre of its final bucket; each
        column step moves half a bucket width.
        """
        units = (column + self.n_levels + 1) / 2.0 + row * self.row_offset_buckets
        return units * self.bucket_width_m(region)

    def drop_x_m(self, region: RegionSpec, row: int) -> float:
        return self.ball_x_m(region, row, 0)

    def box_center_y_m(self, region: RegionSpec, box: int) -> float:
        return (box + 0.5) * region.depth_m / self.boxes

    def final_bucket(self, column: int, row: int) -> int:
        return (column + self.n_levels) // 2 + row * self.row_offset_buckets

    def geometry_hash(self) -> str:
        blob = json.dumps(asdict(self), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass
class Ball:
    """One benchmark entity; array-of-struct twin of the physics hot path."""

    id: int
    box: int
    row: int
    level: int = 0
    column: int = 0
    created_at_us: int = 0
    state: str = FALLING


def descend_one_level(ball: Ball, stream) -> Ball:
    """One peg: equal chance of a half-bucket step left or right."""
    if ball.state != FALLING:
        raise ValueError(f"ball {ball.id} is {ball.state}, not falling")
    ball.level += 1
    ball.column += -1 if stream.uniform() < 0.5 else 1
    return ball


# ----------------------------------------------------------------------
# run accounting
# ----------------------------------------------------------------------

@dataclass
class RunLedger:
    """Shared counters that make conservation auditable at every instant.

    created = pending creations + falling + in-flight transfers
              + collected + discarded
    holds exactly, where pending/in-flight are messages sent but not yet
    delivered.
    """

    bucket_count: int
    created: int = 0
    creates_delivered: int = 0
    transfers_sent: int = 0
    transfers_delivered: int = 0
    migrations_completed: int = 0
    collected: int = 0
    discarded: int = 0
    relayed: int = 0
    histogram: np.ndarray = field(init=False)
    #: (t_us, interval_us, node, bucket) per collected ball
    collections: list[tuple[int, int, str, int]] = field(default_factory=list)
    migrated_entities: set[int] = field(default_factory=set)

    def __post_init__(self):
        self.histogram = np.zeros(self.bucket_count, dtype=np.int64)

    def ball_created(self, entity: int) -> None:
        self.created += 1

    def create_delivered(self, entity: int) -> None:
        self.creates_delivered += 1

    def transfer_sent(self, entity: int) -> None:
        self.transfers_sent += 1
        self.migrated_entities.add(entity)

    def transfer_delivered(self, entity: int) -> None:
        self.transfers_delivered += 1

    def migration_completed(self, entity: int) -> None:
        self.migrations_completed += 1

    def ball_collected(self, node: str, entity: int, bucket: int,
                       interval_us: int, t_us: int) -> None:
        self.collected += 1
        self.histogram[bucket] += 1
        self.collections.append((t_us, interval_us, node, bucket))

    def ball_discarded(self, node: str, entity: int, t_us: int) -> None:
        self.discarded += 1

    @property
    def pending_creates(self) -> int:
        return self.created - self.creates_delivered

    @property
    def transfers_in_flight(self) -> int:
        return self.transfers_sent - self.transfers_delivered

    def conservation_holds(self, falling: int) -> bool:
        return self.created == (self.pending_creates + falling +
                                self.transfers_in_flight + self.collected +
                                self.discarded)


# ----------------------------------------------------------------------
# script node
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class BallSpawn:
    """Creation order shipped from the script node to the owning physics node."""

    entity: int
    box: int
    row: int
    created_at_us: int
    scene_ts_us: int
    scene_origin: str
    scene_seq: int


@dataclass(frozen=True)
class AckEnvelope:
    ack: MigrationAck
    from_partition: int


class ScriptActor:
    """Drops one ball per dropper every period until each dropper runs dry."""

    def __init__(self, node_id: str, engine: Engine, network: Network,
                 dispatcher_id: str, geometry: GaltonGeometry, period_s: float,
                 ledger: RunLedger):
        self.node_id = node_id
        self.engine = engine
        self.network = network
        self.dispatcher_id = dispatcher_id
        self.geometry = geometry
        self.period_us = seconds_to_us(period_s)
        if self.period_us <= 0:
            raise ValueError("drop period must be positive")
        self.ledger = ledger
        self.replica = SceneReplica(node_id)
        self.clock = engine.clock(node_id)
        self._entities = itertools.count(1)
        self.droppers = [(box, row, d)
                         for box in range(geometry.boxes)
                         for row in range(geometry.rows_per_box)
                         for d in range(geometry.droppers_per_row)]
        self.remaining = {dropper: geometry.balls_per_dropper for dropper in self.droppers}
        self.msgs_sent = 0

    def start(self) -> None:
        self.engine.schedule(self.engine.now_us, self.node_id, "drop", self._fire)

    def _fire(self) -> None:
        self.dropper_tick(self.engine.now_us)
        if any(r > 0 for r in self.remaining.values()):
            self.engine.schedule(self.engine.now_us + self.period_us,
                                 self.node_id, "drop", self._fire)

    def dropper_tick(self, now_us: int) -> list[Message]:
        """Emit one creation per dropper that still has balls to drop."""
        msgs = []
        ts = self.engine.local_now_us(self.clock)
        for dropper in self.droppers:
            if self.remaining[dropper] <= 0:
                continue
            self.remaining[dropper] -= 1
            box, row, _ = dropper
            entity = next(self._entities)
            updates = self.replica.create_entity(entity, {}, ts, self.node_id)
            spawn = BallSpawn(entity, box, row, now_us,
                              updates[0].ts_us, updates[0].origin, updates[0].seq)
            msgs.append(self.network.send(self.node_id, self.dispatcher_id,
                                          "create", spawn))
            self.ledger.ball_created(entity)
            self.msgs_sent += 1
        return msgs

    def on_message(self, msg: Message) -> None:
        if msg.kind in ("delete", "update"):
            self.replica.apply_update(msg.payload)
        # anything else is not addressed to the script node

    @property
    def exhausted(self) -> bool:
        return all(r <= 0 for r in self.remaining.values())


# ----------------------------------------------------------------------
# physics node
# ----------------------------------------------------------------------

_GROW = 1024


class PhysicsActor:
    """Capacity-limited descent simulation for one partition.

    Ball state lives in parallel arrays kept in service order; each tick
    serves the first ``min(population, capacity)`` balls and rotates them
    to the back, so under overload every ball is served at the same
    fractional rate and the mean descent time stretches by
    population/capacity.  Balls whose step crosses the partition boundary
    are ghosted and shipped to the gaining node mid-flight.
    """

    def __init__(self, node_id: str, partition_id: int, pmap: PartitionMap,
                 geometry: GaltonGeometry, capacity: int, tick_len_s: float,
                 engine: Engine, network: Network, dispatcher_id: str,
                 ledger: RunLedger):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.node_id = node_id
        self.partition_id = partition_id
        self.pmap = pmap
        self.geometry = geometry
        self.capacity = capacity
        self.tick_us = seconds_to_us(tick_len_s)
        if self.tick_us <= 0:
            raise ValueError("tick length must be positive")
        self.engine = engine
        self.network = network
        self.dispatcher_id = dispatcher_id
        self.ledger = ledger
        self.replica = SceneReplica(node_id)
        self.clock = engine.clock(node_id)
        self.tracker = MigrationTracker()
        self._stream = engine.stream(f"{node_id}:descent")
        self._level_us = geometry.level_time_us
        # parallel ball arrays, service order = index order over [0:n)
        cap0 = _GROW
        self._ids = np.zeros(cap0, dtype=np.int64)
        self._box = np.zeros(cap0, dtype=np.int32)
        self._row = np.zeros(cap0, dtype=np.int32)
        self._level = np.zeros(cap0, dtype=np.int32)
        self._column = np.zeros(cap0, dtype=np.int32)
        self._progress = np.zeros(cap0, dtype=np.int64)
        self._created = np.zeros(cap0, dtype=np.int64)
        self._scene_ts = np.zeros(cap0, dtype=np.int64)
        self._scene_seq = np.zeros(cap0, dtype=np.int64)
        self._scene_origin: Optional[str] = None
        self._n = 0
        self._ghosts: dict[int, dict] = {}
        self._ticking = False
        self.ticks = 0
        self.steps_executed = 0
        self.peak_load = 0.0
        self.msgs_sent = 0
        self.msgs_recv = 0

    # ---- array plumbing ----------------------------------------------

    def _arrays(self):
        return (self._ids, self._box, self._row, self._level, self._column,
                self._progress, self._created, self._scene_ts, self._scene_seq)

    def _ensure_room(self) -> None:
        if self._n < len(self._ids):
            return
        self._ids = np.concatenate([self._ids, np.zeros(_GROW, dtype=np.int64)])
        self._box = np.concatenate([self._box, np.zeros(_GROW, dtype=np.int32)])
        self._row = np.concatenate([self._row, np.zeros(_GROW, dtype=np.int32)])
        self._level = np.concatenate([self._level, np.zeros(_GROW, dtype=np.int32)])
        self._column = np.concatenate([self._column, np.zeros(_GROW, dtype=np.int32)])
        self._progress = np.concatenate([self._progress, np.zeros(_GROW, dtype=np.int64)])
        self._created = np.concatenate([self._created, np.zeros(_GROW, dtype=np.int64)])
        self._scene_ts = np.concatenate([self._scene_ts, np.zeros(_GROW, dtype=np.int64)])
        self._scene_seq = np.concatenate([self._scene_seq, np.zeros(_GROW, dtype=np.int64)])

    def _append_ball(self, entity: int, box: int, row: int, level: int,
                     column: int, progress_us: int, created_at_us: int,
                     scene_ts_us: int, scene_seq: int) -> None:
        self._ensure_room()
        i = self._n
        self._ids[i] = entity
        self._box[i] = box
        self._row[i] = row
        self._level[i] = level
        self._column[i] = column
        self._progress[i] = progress_us
        self._created[i] = created_at_us
        self._scene_ts[i] = scene_ts_us
        self._scene_seq[i] = scene_seq
        self._n += 1

    @property
    def active_count(self) -> int:
        return self._n

    @property
    def ghost_count(self) -> int:
        return len(self._ghosts)

    @property
    def load_proxy(self) -> float:
        return self._n / self.capacity

    # ---- messaging ----------------------------------------------------

    def on_message(self, msg: Message) -> None:
        self.msgs_recv += 1
        if msg.kind == "create":
            spawn: BallSpawn = msg.payload
            self._register_scene_entity(spawn.entity, spawn.scene_ts_us,
                                        spawn.scene_origin, spawn.scene_seq)
            self._append_ball(spawn.entity, spawn.box, spawn.row, 0, 0, 0,
                              spawn.created_at_us, spawn.scene_ts_us, spawn.scene_seq)
            self.ledger.create_delivered(spawn.entity)
            self._ensure_ticking()
        elif msg.kind == "migrate":
            transfer: TransferMessage = msg.payload
            st = transfer.state
            if transfer.to_partition != self.partition_id:
                raise UnroutableMessage(
                    f"transfer for partition {transfer.to_partition} at {self.node_id}"
                )
            self._register_scene_entity(transfer.entity, st["scene_ts_us"],
                                        st["scene_origin"], st["scene_seq"])
            self._append_ball(transfer.entity, st["box"], st["row"], st["level"],
                              st["column"], st["progress_us"], st["created_at_us"],
                              st["scene_ts_us"], st["scene_seq"])
            self.ledger.transfer_delivered(transfer.entity)
            ack = MigrationTracker.acknowledge(transfer)
            self.network.send(self.node_id, self.dispatcher_id, "ack",
                              AckEnvelope(ack, transfer.from_partition))
            self.msgs_sent += 1
            self._ensure_ticking()
        elif msg.kind == "ack":
            env: AckEnvelope = msg.payload
            self.tracker.complete_migration(env.ack, self.engine.now_us)
            self._ghosts.pop(env.ack.entity, None)
            self.ledger.migration_completed(env.ack.entity)
        elif msg.kind in ("delete", "update"):
            self.replica.apply_update(msg.payload)
        else:
            raise UnroutableMessage(msg.kind)

    def _register_scene_entity(self, entity: int, ts_us: int, origin: str,
                               seq: int) -> None:
        if self._scene_origin is None:
            self._scene_origin = origin
        self.replica.apply_update(
            PropertyUpdate(entity, EXISTENCE, True, ts_us, origin, seq)
        )

    # ---- ticking -------------------------------------------------------

    def _ensure_ticking(self) -> None:
        if self._ticking:
            return
        self._ticking = True
        next_tick = (self.engine.now_us // self.tick_us + 1) * self.tick_us
        self.engine.schedule(next_tick, self.node_id, "tick", self._tick)

    def _tick(self) -> None:
        self.physics_tick(self.engine.now_us)
        if self._n > 0:
            self.engine.schedule(self.engine.now_us + self.tick_us,
                                 self.node_id, "tick", self._tick)
        else:
            self._ticking = False

    def physics_tick(self, now_us: int) -> dict:
        """Serve up to ``capacity`` balls one tick of fall time.

        Served balls accrue tick_len of descent; crossing a level boundary
        takes the left/right draw, may land the ball (collection) or carry
        it over the partition border (migration).  Unserved balls make no
        progress; that queueing is the overload dilation.
        """
        n = self._n
        self.ticks += 1
        load = n / self.capacity
        if load > self.peak_load:
            self.peak_load = load
        if n == 0:
            return {"stepped": 0, "collected": 0, "migrated": 0, "load": load}
        k = min(n, self.capacity)
        self.steps_executed += k
        geom = self.geometry
        region = self.pmap.region
        bw = geom.bucket_width_m(region)
        multi = len(self.pmap.partitions) > 1
        prog = self._progress
        prog[:k] += self.tick_us
        removed: list[int] = []
        collected = migrated = 0
        crossed = np.nonzero(prog[:k] >= self._level_us)[0]
        while crossed.size:
            prog[crossed] -= self._level_us
            self._level[crossed] += 1
            prev_cols = self._column[crossed].copy()
            draws = self._stream.uniform_many(crossed.size)
            self._column[crossed] += np.where(draws < 0.5, -1, 1).astype(np.int32)
            levels = self._level[crossed]
            landed_mask = levels >= geom.n_levels
            for i in crossed[landed_mask]:
                self._collect(int(i), now_us)
                collected += 1
            removed.extend(int(i) for i in crossed[landed_mask])
            moving = crossed[~landed_mask]
            if moving.size:
                cols = self._column[moving].astype(np.float64)
                rows = self._row[moving].astype(np.float64)
                x_new = ((cols + geom.n_levels + 1) / 2.0
                         + rows * geom.row_offset_buckets) * bw
                oob = (x_new < 0.0) | (x_new >= region.width_m)
                for i in moving[oob]:
                    self._discard(int(i), now_us)
                removed.extend(int(i) for i in moving[oob])
                moving = moving[~oob]
                if multi and moving.size:
                    pc = prev_cols[~landed_mask][~oob].astype(np.float64)
                    rows = self._row[moving].astype(np.float64)
                    x_prev = ((pc + geom.n_levels + 1) / 2.0
                              + rows * geom.row_offset_buckets) * bw
                    x_now = ((self._column[moving].astype(np.float64)
                              + geom.n_levels + 1) / 2.0
                             + rows * geom.row_offset_buckets) * bw
                    ys = (self._box[moving].astype(np.float64) + 0.5) \
                        * region.depth_m / geom.boxes
                    own_prev = self.pmap.owners_xy(x_prev, ys)
                    own_now = self.pmap.owners_xy(x_now, ys)
                    mover_mask = own_prev != own_now
                    for i in moving[mover_mask]:
                        self._migrate_out(int(i), now_us)
                        migrated += 1
                    removed.extend(int(i) for i in moving[mover_mask])
                    moving = moving[~mover_mask]
            crossed = moving[prog[moving] >= self._level_us] if moving.size else moving
        self._compact(k, n, removed)
        return {"stepped": k, "collected": collected, "migrated": migrated,
                "load": load}

    def _collect(self, i: int, now_us: int) -> None:
        entity = int(self._ids[i])
        bucket = self.geometry.final_bucket(int(self._column[i]), int(self._row[i]))
        interval = now_us - int(self._created[i])
        ts = self.engine.local_now_us(self.clock)
        if 0 <= bucket < self.geometry.bucket_count:
            self.ledger.ball_collected(self.node_id, entity, bucket, interval, now_us)
        else:
            self.ledger.ball_discarded(self.node_id, entity, now_us)
        update = self.replica.delete_entity(entity, ts, self.node_id)
        self.network.send(self.node_id, self.dispatcher_id, "delete", update)
        self.msgs_sent += 1

    def _discard(self, i: int, now_us: int) -> None:
        """Ball left the region: drop it from the results and the scene."""
        entity = int(self._ids[i])
        ts = self.engine.local_now_us(self.clock)
        self.ledger.ball_discarded(self.node_id, entity, now_us)
        update = self.replica.delete_entity(entity, ts, self.node_id)
        self.network.send(self.node_id, self.dispatcher_id, "delete", update)
        self.msgs_sent += 1

    def _migrate_out(self, i: int, now_us: int) -> None:
        entity = int(self._ids[i])
        geom = self.geometry
        region = self.pmap.region
        x = geom.ball_x_m(region, int(self._row[i]), int(self._column[i]))
        y = geom.box_center_y_m(region, int(self._box[i]))
        to_partition = self.pmap.owner_of(x, y)
        state = {
            "box": int(self._box[i]), "row": int(self._row[i]),
            "level": int(self._level[i]), "column": int(self._column[i]),
            "progress_us": int(self._progress[i]),
            "created_at_us": int(self._created[i]),
            "scene_ts_us": int(self._scene_ts[i]),
            "scene_origin": self._scene_origin or "script",
            "scene_seq": int(self._scene_seq[i]),
        }
        transfers = self.tracker.begin_migration(entity, self.partition_id,
                                                 to_partition, now_us, state)
        self._ghosts[entity] = state
        for t in transfers:
            self.network.send(self.node_id, self.dispatcher_id, "migrate", t)
            self.msgs_sent += 1
            self.ledger.transfer_sent(entity)

    def _compact(self, k: int, n: int, removed: list[int]) -> None:
        """Rotate served balls to the back, dropping removed ones."""
        if not removed and k == n:
            return
        keep = np.ones(k, dtype=bool)
        if removed:
            keep[np.asarray(removed, dtype=np.int64)] = False
        survivors = np.nonzero(keep)[0]
        n_new = (n - k) + survivors.size
        for arr in self._arrays():
            merged = np.concatenate([arr[k:n], arr[:k][survivors]])
            arr[:n_new] = merged
        self._n = n_new

    # ---- test hooks -----------------------------------------------------

    def inject_ball(self, ball: Ball, scene_ts_us: int = 0, scene_seq: int = 0,
                    origin: str = "script") -> None:
        """Directly seat a ball, bypassing the network (tests, calibration)."""
        self._register_scene_entity(ball.id, scene_ts_us, origin, scene_seq)
        self._append_ball(ball.id, ball.box, ball.row, ball.level, ball.column,
                          0, ball.created_at_us, scene_ts_us, scene_seq)
        self.ledger.created += 1
        self.ledger.creates_delivered += 1
        self._ensure_ticking()


# ----------------------------------------------------------------------
# dispatcher node
# ----------------------------------------------------------------------

class DispatcherActor:
    """Stateless relay between the script node and the physics nodes."""

    def __init__(self, node_id: str, engine: Engine, network: Network,
                 pmap: PartitionMap, geometry: GaltonGeometry,
                 subscribers: dict[str, list[str]], ledger: RunLedger):
        self.node_id = node_id
        self.engine = engine
        self.network = network
        self.pmap = pmap
        self.geometry = geometry
        self.subscribers = {kind: list(nodes) for kind, nodes in subscribers.items()}
        self.ledger = ledger
        self.msgs_recv = 0
        self.msgs_sent = 0

    def on_message(self, msg: Message) -> None:
        self.msgs_recv += 1
        self.dispatcher_relay(msg)

    def dispatcher_relay(self, msg: Message) -> list[Message]:
        """Forward a message per the routing table; never filters or coalesces."""
        region = self.pmap.region
        if msg.kind == "create":
            spawn: BallSpawn = msg.payload
            x = self.geometry.drop_x_m(region, spawn.row)
            y = self.geometry.box_center_y_m(region, spawn.box)
            node = self.pmap.owner_node(self.pmap.owner_of(x, y))
            out = [self.network.send(self.node_id, node, "create", spawn)]
        elif msg.kind == "migrate":
            transfer: TransferMessage = msg.payload
            node = self.pmap.owner_node(transfer.to_partition)
            out = [self.network.send(self.node_id, node, "migrate", transfer)]
        elif msg.kind == "ack":
            env: AckEnvelope = msg.payload
            node = self.pmap.owner_node(env.from_partition)
            out = [self.network.send(self.node_id, node, "ack", env)]
        elif msg.kind in ("delete", "update"):
            targets = self.subscribers.get(msg.kind)
            if targets is None:
                raise UnroutableMessage(msg.kind)
            out = [self.network.send(self.node_id, node, msg.kind, msg.payload)
                   for node in targets if node != msg.src]
        else:
            raise UnroutableMessage(msg.kind)
        self.msgs_sent += len(out)
        self.ledger.relayed += len(out)
        return out
