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
from typing import NamedTuple, Optional

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

class BallSpawn(NamedTuple):
    """Creation order shipped from the script node to the owning physics node."""

    entity: int
    box: int
    row: int
    created_at_us: int
    scene_ts_us: int
    scene_origin: str
    scene_seq: int


class AckEnvelope(NamedTuple):
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

#: columns of the ball table, one row per ball
_FIELDS = 9
(_ID, _BOX, _ROW, _LEVEL, _COLUMN, _PROGRESS, _CREATED, _SCENE_TS,
 _SCENE_SEQ) = range(_FIELDS)
#: rows of a new ball table; a full table doubles
_BLOCK = 1024


class PhysicsActor:
    """Capacity-limited descent simulation for one partition.

    Ball state lives in one table used as a ring: rows in service order
    start at ``_head``.  Each tick serves the first
    ``min(population, capacity)`` balls and moves the survivors to the
    back, so under overload every ball is served at the same fractional
    rate and the mean descent time stretches by population/capacity.
    Balls whose step crosses the partition boundary are ghosted and
    shipped to the gaining node mid-flight.
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
        self._owners, self._col_lo = self._owner_table()
        self._col_hi = self._owners.shape[2] - 1
        self._balls = np.zeros((_BLOCK, _FIELDS), dtype=np.int64)
        self._head = 0
        self._n = 0
        self._scene_origin: Optional[str] = None
        self._ghosts: set[int] = set()
        self._ticking = False
        self.ticks = 0
        self.steps_executed = 0
        self.peak_load = 0.0
        self.msgs_sent = 0
        self.msgs_recv = 0

    def _owner_table(self) -> tuple[np.ndarray, int]:
        """Partition id per (box, row, column - col_lo), -1 off the region.

        A ball's position depends only on its box, row and column, so the
        owners are looked up once here, from the same float expression the
        scalar ``ball_x_m`` and ``box_center_y_m`` use.  The columns run
        from ``col_lo``, where every row is left of the region, to the first
        column where every row is right of it; lookups clip a column into
        that range, so any column beyond it reads -1 too.
        """
        geom = self.geometry
        region = self.pmap.region
        n = geom.n_levels
        col_lo = -n - 2 - 2 * (geom.rows_per_box - 1) * geom.row_offset_buckets
        cols = np.arange(col_lo, 2 * geom.bucket_count - n + 1, dtype=np.float64)
        rows = np.arange(geom.rows_per_box, dtype=np.float64)
        boxes = np.arange(geom.boxes, dtype=np.float64)
        x = ((cols[None, :] + n + 1) / 2.0
             + rows[:, None] * geom.row_offset_buckets) * geom.bucket_width_m(region)
        y = (boxes + 0.5) * region.depth_m / geom.boxes
        shape = (geom.boxes, geom.rows_per_box, len(cols))
        xs = np.broadcast_to(x, shape)
        ys = np.broadcast_to(y[:, None, None], shape)
        inside = (xs >= 0.0) & (xs < region.width_m)
        table = np.full(shape, -1, dtype=np.int64)
        table[inside] = self.pmap.owners_xy(xs[inside], ys[inside])
        return table, col_lo

    def _owner_at(self, boxes: np.ndarray, rows: np.ndarray,
                  cols: np.ndarray) -> np.ndarray:
        """Owner per ball, from the table; -1 off the region."""
        index = np.minimum(np.maximum(cols - self._col_lo, 0), self._col_hi)
        return self._owners[boxes, rows, index]

    # ---- ball table --------------------------------------------------

    def _window(self, k: int) -> np.ndarray:
        """A copy of the first ``k`` rows in service order."""
        table, head = self._balls, self._head
        end = head + k
        if end <= len(table):
            return table[head:end].copy()
        return np.concatenate((table[head:], table[:end - len(table)]))

    def _append_rows(self, rows: np.ndarray, keep: np.ndarray) -> None:
        """Write the kept rows after the last ball in service order."""
        kept = np.flatnonzero(keep)
        table = self._balls
        start = (self._head + self._n) % len(table)
        first = min(len(kept), len(table) - start)
        # mode="clip" lets take write into the table without a buffer copy
        np.take(rows, kept[:first], axis=0, out=table[start:start + first], mode="clip")
        np.take(rows, kept[first:], axis=0, out=table[:len(kept) - first], mode="clip")
        self._n += len(kept)

    def _append_ball(self, *ball: int) -> None:
        """Seat one ball, given in table column order, at the back."""
        table = self._balls
        if self._n == len(table):
            grown = np.zeros((2 * len(table), _FIELDS), dtype=np.int64)
            tail = len(table) - self._head
            grown[:tail] = table[self._head:]
            grown[tail:len(table)] = table[:self._head]
            self._balls = table = grown
            self._head = 0
        table[(self._head + self._n) % len(table)] = ball
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
            self._ghosts.discard(env.ack.entity)
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
        w = self._window(k)
        self._head = (self._head + k) % len(self._balls)
        self._n = n - k
        prog, level, column = w[:, _PROGRESS], w[:, _LEVEL], w[:, _COLUMN]
        n_levels = self.geometry.n_levels
        level_us = self._level_us
        multi = len(self.pmap.partitions) > 1
        keep = np.ones(k, dtype=bool)
        collected = migrated = 0
        prog += self.tick_us
        crossed = np.nonzero(prog >= level_us)[0]
        while crossed.size:
            prog[crossed] -= level_us
            level[crossed] += 1
            boxes, rows, cols = w[crossed, _BOX], w[crossed, _ROW], column[crossed]
            if multi:
                own_prev = self._owner_at(boxes, rows, cols)
            draws = self._stream.uniform_many(crossed.size)
            cols += np.where(draws < 0.5, -1, 1)
            column[crossed] = cols
            own_now = self._owner_at(boxes, rows, cols)
            landed = level[crossed] >= n_levels
            for ball in w[crossed[landed]].tolist():
                self._collect(ball, now_us)
            collected += np.count_nonzero(landed)
            off = ~landed & (own_now < 0)
            for ball in w[crossed[off]].tolist():
                self._discard(ball, now_us)
            gone = landed | off
            if multi:
                moved = ~gone & (own_now != own_prev)
                for ball, to_partition in zip(w[crossed[moved]].tolist(),
                                              own_now[moved].tolist()):
                    self._migrate_out(ball, to_partition, now_us)
                migrated += np.count_nonzero(moved)
                gone |= moved
            keep[crossed[gone]] = False
            staying = crossed[~gone]
            crossed = staying[prog[staying] >= level_us]
        self._append_rows(w, keep)
        return {"stepped": k, "collected": collected, "migrated": migrated,
                "load": load}

    def _collect(self, ball: list[int], now_us: int) -> None:
        entity, row, column, created = (ball[_ID], ball[_ROW], ball[_COLUMN],
                                        ball[_CREATED])
        bucket = self.geometry.final_bucket(column, row)
        ts = self.engine.local_now_us(self.clock)
        if 0 <= bucket < self.geometry.bucket_count:
            self.ledger.ball_collected(self.node_id, entity, bucket,
                                       now_us - created, now_us)
        else:
            self.ledger.ball_discarded(self.node_id, entity, now_us)
        update = self.replica.delete_entity(entity, ts, self.node_id)
        self.network.send(self.node_id, self.dispatcher_id, "delete", update)
        self.msgs_sent += 1

    def _discard(self, ball: list[int], now_us: int) -> None:
        """Ball left the region: drop it from the results and the scene."""
        entity = ball[_ID]
        ts = self.engine.local_now_us(self.clock)
        self.ledger.ball_discarded(self.node_id, entity, now_us)
        update = self.replica.delete_entity(entity, ts, self.node_id)
        self.network.send(self.node_id, self.dispatcher_id, "delete", update)
        self.msgs_sent += 1

    def _migrate_out(self, ball: list[int], to_partition: int, now_us: int) -> None:
        entity, box, row, level, column, progress, created, scene_ts, scene_seq = ball
        state = {
            "box": box, "row": row, "level": level, "column": column,
            "progress_us": progress, "created_at_us": created,
            "scene_ts_us": scene_ts,
            "scene_origin": self._scene_origin or "script",
            "scene_seq": scene_seq,
        }
        transfers = self.tracker.begin_migration(entity, self.partition_id,
                                                 to_partition, now_us, state)
        self._ghosts.add(entity)
        for t in transfers:
            self.network.send(self.node_id, self.dispatcher_id, "migrate", t)
            self.msgs_sent += 1
            self.ledger.transfer_sent(entity)

    # ---- test hooks -----------------------------------------------------

    def inject_ball(self, ball: Ball, scene_ts_us: int = 0, scene_seq: int = 0,
                    origin: str = "script") -> None:
        """Directly seat a ball, bypassing the network (tests, calibration)."""
        geom = self.geometry
        if not (0 <= ball.box < geom.boxes and 0 <= ball.row < geom.rows_per_box):
            raise ValueError(f"ball {ball.id} has no box {ball.box} row {ball.row}")
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
        if msg.kind == "create":
            spawn: BallSpawn = msg.payload
            region = self.pmap.region
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
        return out
