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
from typing import NamedTuple, Optional, Sequence

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
    discarded: int = 0
    #: (t_us, interval_us, node, bucket) per collected ball
    collections: list[tuple[int, int, str, int]] = field(default_factory=list)
    migrated_entities: set[int] = field(default_factory=set)

    def transfer_sent(self, entity: int) -> None:
        self.transfers_sent += 1
        self.migrated_entities.add(entity)

    @property
    def collected(self) -> int:
        return len(self.collections)

    @property
    def histogram(self) -> np.ndarray:
        """Collected balls per bucket."""
        buckets = np.array([c[3] for c in self.collections], dtype=np.int64)
        return np.bincount(buckets, minlength=self.bucket_count)

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
        #: balls each dropper still has to drop; every dropper drops on
        #: every tick, so one countdown serves them all
        self.remaining = geometry.balls_per_dropper

    def start(self) -> None:
        self.engine.schedule(self.engine.now_us, self._fire)

    def _fire(self) -> None:
        self.dropper_tick(self.engine.now_us)
        if self.remaining > 0:
            self.engine.schedule(self.engine.now_us + self.period_us, self._fire)

    def dropper_tick(self, now_us: int) -> list[Message]:
        """Emit one creation per dropper, until the droppers run dry."""
        msgs = []
        if self.remaining <= 0:
            return msgs
        self.remaining -= 1
        ts = self.engine.local_now_us(self.clock)
        for box, row, _ in self.droppers:
            entity = next(self._entities)
            u = self.replica.create_entity(entity, {}, ts, self.node_id)[0]
            spawn = tuple.__new__(BallSpawn, (entity, box, row, now_us, u.ts_us, u.origin, u.seq))
            msgs.append(self.network.send(self.node_id, self.dispatcher_id,
                                          "create", spawn))
            self.ledger.created += 1
        return msgs

    def on_message(self, msg: Message) -> None:
        if msg.kind in ("delete", "update"):
            self.replica.apply_update(msg.payload)
        # anything else is not addressed to the script node

    @property
    def exhausted(self) -> bool:
        return self.remaining <= 0


# ----------------------------------------------------------------------
# physics node
# ----------------------------------------------------------------------

#: columns of the ball table, one row per ball
_FIELDS = 9
(_ID, _BOX, _ROW, _LEVEL, _COLUMN, _PROGRESS, _CREATED, _SCENE_TS,
 _SCENE_SEQ) = range(_FIELDS)
#: one table row as one opaque record, so that numpy moves a row in one copy:
#: a boolean mask over 1,064 rows takes 26-29 µs on the (n, 9) int64 table
#: and 3-5 µs on records (2-core x86-64 VM, numpy 2.4.6)
_RECORD = np.dtype((np.void, _FIELDS * 8))
#: rows of a new ball table; a full table at least doubles
_BLOCK = 1024


class PhysicsActor:
    """Capacity-limited descent simulation for one partition.

    Ball state lives in one table used as a ring: rows in service order
    start at ``_head``, and arrivals join the back when the next tick
    starts.  Each tick serves the first ``min(population, capacity)``
    balls and moves the survivors to the back, so under overload every ball
    is served at the same fractional rate and the mean descent time
    stretches by population/capacity.  Balls whose step crosses the
    partition boundary are ghosted and shipped to the gaining node.
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
        self._balls = np.zeros(_BLOCK, dtype=_RECORD)
        self._head = 0
        self._n = 0
        #: rows of the balls that arrived since the last tick, flattened
        self._arrivals: list[int] = []
        self._scene_origin: Optional[str] = None
        self._ghosts: set[int] = set()
        self._ticking = False
        self.ticks = 0
        self.steps_executed = 0
        self.peak_load = 0.0

    def _owner_table(self) -> tuple[np.ndarray, int]:
        """Partition id per (box, row, column - col_lo), -1 off the region.

        A ball's position depends only on its box, row and column, so the
        owners are looked up once here, through ``ball_x_m`` and
        ``box_center_y_m`` over broadcast arrays.  The columns run
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
        x = geom.ball_x_m(region, rows[:, None], cols[None, :])
        y = geom.box_center_y_m(region, boxes)
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

    def _push(self, records: np.ndarray) -> None:
        """Write records after the last ball in service order, growing a
        table they do not fit."""
        table, n = self._balls, self._n
        if n + len(records) > len(table):
            table = np.zeros(max(2 * len(table), n + len(records)), dtype=_RECORD)
            table[:len(self._balls)] = np.roll(self._balls, -self._head)
            self._balls, self._head = table, 0
        start = (self._head + n) % len(table)
        first = min(len(records), len(table) - start)
        table[start:start + first] = records[:first]
        table[:len(records) - first] = records[first:]
        self._n += len(records)

    @property
    def active_count(self) -> int:
        return self._n + len(self._arrivals) // _FIELDS

    @property
    def ghost_count(self) -> int:
        return len(self._ghosts)

    @property
    def load_proxy(self) -> float:
        return self.active_count / self.capacity

    # ---- messaging ----------------------------------------------------

    def on_message(self, msg: Message) -> None:
        kind = msg.kind
        if kind == "ack":
            env: AckEnvelope = msg.payload
            self.tracker.complete_migration(env.ack, self.engine.now_us)
            self._ghosts.discard(env.ack.entity)
            self.ledger.migrations_completed += 1
        elif kind == "migrate":
            transfer: TransferMessage = msg.payload
            if transfer.to_partition != self.partition_id:
                raise UnroutableMessage(
                    f"transfer for partition {transfer.to_partition} at {self.node_id}"
                )
            self._arrive(*transfer.state)
            self.ledger.transfers_delivered += 1
            ack = MigrationTracker.acknowledge(transfer)
            self.network.send(self.node_id, self.dispatcher_id, "ack",
                              tuple.__new__(AckEnvelope, (ack, transfer.from_partition)))
            self._ensure_ticking()
        elif kind == "create":
            spawn: BallSpawn = msg.payload
            self._arrive((spawn.entity, spawn.box, spawn.row, 0, 0, 0,
                          spawn.created_at_us, spawn.scene_ts_us, spawn.scene_seq),
                         spawn.scene_origin)
            self.ledger.creates_delivered += 1
            self._ensure_ticking()
        elif kind in ("delete", "update"):
            self.replica.apply_update(msg.payload)
        else:
            raise UnroutableMessage(kind)

    def _arrive(self, row: Sequence[int], origin: str) -> None:
        """Register a ball in the scene; buffer its row for the next tick."""
        if self._scene_origin is None:
            self._scene_origin = origin
        self.replica.apply_update(tuple.__new__(PropertyUpdate, (
            row[_ID], EXISTENCE, True, row[_SCENE_TS], origin, row[_SCENE_SEQ])))
        self._arrivals += row

    # ---- ticking -------------------------------------------------------

    def _ensure_ticking(self) -> None:
        if self._ticking:
            return
        self._ticking = True
        next_tick = (self.engine.now_us // self.tick_us + 1) * self.tick_us
        self.engine.schedule(next_tick, self._tick)

    def _tick(self) -> None:
        self.physics_tick(self.engine.now_us)
        if self._n > 0:
            self.engine.schedule(self.engine.now_us + self.tick_us, self._tick)
        else:
            self._ticking = False

    def physics_tick(self, now_us: int) -> dict:
        """Serve up to ``capacity`` balls one tick of fall time.

        Served balls accrue tick_len of descent; crossing a level boundary
        takes the left/right draw, may land the ball (collection) or carry
        it over the partition border (migration).  Unserved balls make no
        progress; that queueing is the overload dilation.
        """
        if self._arrivals:
            # seat the balls that arrived since the last tick, in one write
            self._push(np.array(self._arrivals, dtype=np.int64).view(_RECORD))
            self._arrivals = []
        n = self._n
        self.ticks += 1
        load = n / self.capacity
        if load > self.peak_load:
            self.peak_load = load
        if n == 0:
            return {"stepped": 0}
        k = min(n, self.capacity)
        self.steps_executed += k
        table, head = self._balls, self._head
        end = head + k
        in_place = end <= len(table)
        served = (table[head:end] if in_place
                  else np.concatenate((table[head:], table[:end - len(table)])))
        progress = served.view(np.int64).reshape(k, _FIELDS)[:, _PROGRESS]
        n_levels = self.geometry.n_levels
        level_us = self._level_us
        keep = np.ones(k, dtype=bool)
        progress += self.tick_us
        crossed = np.nonzero(progress >= level_us)[0]
        while crossed.size:
            balls = served[crossed]
            c = balls.view(np.int64).reshape(-1, _FIELDS)
            c[:, _PROGRESS] -= level_us
            c[:, _LEVEL] += 1
            draws = self._stream.uniform_many(crossed.size)
            c[:, _COLUMN] += np.where(draws < 0.5, -1, 1)
            served[crossed] = balls
            # a seated ball lies in this partition, so any other owner
            # means it left: off the region (-1) or into a neighbour
            owner = self._owner_at(c[:, _BOX], c[:, _ROW], c[:, _COLUMN])
            landed = c[:, _LEVEL] >= n_levels
            left = ~landed & (owner != self.partition_id)
            for ball in c[landed].tolist():
                self._collect(ball, now_us)
            if left.any():
                off = left & (owner < 0)
                for ball in c[off].tolist():
                    self._discard(ball)
                moved = left & ~off
                for ball, to_partition in zip(c[moved].tolist(), owner[moved].tolist()):
                    self._migrate_out(ball, to_partition, now_us)
            gone = landed | left
            keep[crossed[gone]] = False
            crossed = crossed[~gone & (c[:, _PROGRESS] >= level_us)]
        if k < n:
            self._head, self._n = end % len(table), n - k
        elif in_place and keep.all():
            return {"stepped": k}
        else:
            # every ball was served: the survivors compact to the window's
            # start, or to row 0 from a wrapped window's copy
            self._head, self._n = head if in_place else 0, 0
        # the mask gathers a copy, so the survivors may overwrite the window
        self._push(served[keep])
        return {"stepped": k}

    def _collect(self, ball: list[int], now_us: int) -> None:
        """Ball landed: record its bucket, or discard it off the histogram."""
        bucket = self.geometry.final_bucket(ball[_COLUMN], ball[_ROW])
        if not 0 <= bucket < self.geometry.bucket_count:
            self._discard(ball)
            return
        self.ledger.collections.append(
            (now_us, now_us - ball[_CREATED], self.node_id, bucket))
        self._retire(ball[_ID])

    def _discard(self, ball: list[int]) -> None:
        """Ball left the region: drop it from the results and the scene."""
        self.ledger.discarded += 1
        self._retire(ball[_ID])

    def _retire(self, entity: int) -> None:
        """Delete a collected or discarded ball from the scene and tell the
        dispatcher."""
        ts = self.engine.local_now_us(self.clock)
        update = self.replica.delete_entity(entity, ts, self.node_id)
        self.network.send(self.node_id, self.dispatcher_id, "delete", update)

    def _migrate_out(self, ball: list[int], to_partition: int, now_us: int) -> None:
        """Ghost the ball and ship its table row, with its scene origin."""
        entity = ball[_ID]
        transfers = self.tracker.begin_migration(
            entity, self.partition_id, to_partition, now_us,
            (ball, self._scene_origin or "script"))
        self._ghosts.add(entity)
        for t in transfers:
            self.network.send(self.node_id, self.dispatcher_id, "migrate", t)
            self.ledger.transfer_sent(entity)

    # ---- test hooks -----------------------------------------------------

    def inject_ball(self, ball: Ball, scene_ts_us: int = 0, scene_seq: int = 0,
                    origin: str = "script") -> None:
        """Directly seat a ball that lies in this partition or off the board,
        bypassing the network (tests, calibration)."""
        geom = self.geometry
        if not (0 <= ball.box < geom.boxes and 0 <= ball.row < geom.rows_per_box):
            raise ValueError(f"ball {ball.id} has no box {ball.box} row {ball.row}")
        owner = self._owner_at(ball.box, ball.row, ball.column)
        if owner >= 0 and owner != self.partition_id:
            raise ValueError(f"ball {ball.id} lies in partition {owner}")
        self._arrive((ball.id, ball.box, ball.row, ball.level, ball.column,
                      0, ball.created_at_us, scene_ts_us, scene_seq), origin)
        self.ledger.created += 1
        self.ledger.creates_delivered += 1
        self._ensure_ticking()


# ----------------------------------------------------------------------
# dispatcher node
# ----------------------------------------------------------------------

class DispatcherActor:
    """Stateless relay between the script node and the physics nodes."""

    def __init__(self, node_id: str, network: Network, pmap: PartitionMap,
                 geometry: GaltonGeometry, subscribers: dict[str, list[str]]):
        self.node_id = node_id
        self.network = network
        self.subscribers = {kind: list(nodes) for kind, nodes in subscribers.items()}
        #: partition id -> owning node
        self._nodes = pmap.partitions
        region = pmap.region
        #: (box, row) -> node owning that dropper row's drop position
        self._create_nodes = {(box, row): self._nodes[pmap.owner_of(
            geometry.drop_x_m(region, row), geometry.box_center_y_m(region, box))]
            for box in range(geometry.boxes) for row in range(geometry.rows_per_box)}

    def dispatcher_relay(self, msg: Message) -> list[Message]:
        """Forward a message per the routing table; never filters or coalesces.

        This is the dispatcher node's message handler."""
        kind = msg.kind
        if kind == "migrate":
            transfer: TransferMessage = msg.payload
            node = self._nodes[transfer.to_partition]
            out = [self.network.send(self.node_id, node, kind, transfer)]
        elif kind == "ack":
            env: AckEnvelope = msg.payload
            node = self._nodes[env.from_partition]
            out = [self.network.send(self.node_id, node, kind, env)]
        elif kind == "create":
            spawn: BallSpawn = msg.payload
            node = self._create_nodes[spawn.box, spawn.row]
            out = [self.network.send(self.node_id, node, kind, spawn)]
        elif kind in ("delete", "update"):
            targets = self.subscribers.get(kind)
            if targets is None:
                raise UnroutableMessage(kind)
            out = [self.network.send(self.node_id, node, kind, msg.payload)
                   for node in targets if node != msg.src]
        else:
            raise UnroutableMessage(kind)
        return out
