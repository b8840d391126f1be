"""Node behaviour models: dropper scripts, physics simulators, dispatcher.

The script node creates balls on a fixed period and is never throttled:
its schedule depends only on the configured period, exactly the decoupling
that lets an overloaded physics node diverge instead of applying
backpressure.  Physics nodes own the balls inside their partition and run
a fixed per-tick work budget: every tick at most ``capacity`` balls make
progress, round-robin oldest-first, so a population above capacity dilates
every ball's descent by the ratio population/capacity.  The dispatcher is
a pure relay on fixed routes: a creation goes to the physics node that owns
its drop position, a transfer to the gaining node, its ack back to the
losing node, and a delete to the script.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import asdict, dataclass, field
from typing import Optional, Sequence

import numpy as np

from .engine import Engine, seconds_to_us
from .netsim import Message, Network
from .partition import MigrationAck, MigrationTracker, PartitionMap, RegionSpec, TransferMessage
from .scene import EXISTENCE, PropertyUpdate, SceneReplica


class UnroutableMessage(KeyError):
    """A node has no route for a message of this kind."""


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
        if self.nominal_descent_s <= 0 or self.level_time_us < 1:
            raise ValueError("nominal_descent_s must give each level at least 1 microsecond")

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

    def box_center_y_m(self, region: RegionSpec, box: int) -> float:
        return (box + 0.5) * region.depth_m / self.boxes

    def final_bucket(self, column: int, row: int) -> int:
        return (column + self.n_levels) // 2 + row * self.row_offset_buckets

    def geometry_hash(self) -> str:
        blob = json.dumps(asdict(self), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


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
        node, dispatcher = self.node_id, self.dispatcher_id
        create, send, entities = self.replica.create_entity, self.network.send, self._entities
        for box, row, _ in self.droppers:
            entity = next(entities)
            seq = create(entity, {}, ts, node)[0].seq
            msgs.append(send(node, dispatcher, "create",
                             ((entity, box, row, 0, 0, 0, now_us, ts, seq), node)))
        self.ledger.created += len(msgs)
        return msgs

    def on_message(self, msg: Message) -> None:
        if msg.kind != "delete":
            raise UnroutableMessage(msg.kind)
        self.replica.apply_update(msg.payload)

    @property
    def exhausted(self) -> bool:
        return self.remaining <= 0


# ----------------------------------------------------------------------
# physics node
# ----------------------------------------------------------------------

# A create and a transfer ship a ball as one record, ``(row, scene_origin)``:
# its full 9-field row is id, box, row, level, column, progress,
# created_at_us, scene_ts_us, scene_seq.  Both are exact tuples of atomic
# values, which the cyclic collector stops tracking.

#: (owners, lanes): a flat owner table, -1 off the region, and the offset of
#: each (box, row) lane in it
OwnerTable = tuple[list[int], list[list[int]]]


def owner_table(geometry: GaltonGeometry, pmap: PartitionMap) -> OwnerTable:
    """Owner of every position a ball can take, looked up once per run.

    A ball's position depends only on its box, row and column, so the
    owners are looked up through ``ball_x_m`` and ``box_center_y_m`` over
    broadcast arrays.  A ball's key is its (box, row) lane's offset plus its
    column; column 0 is the lane's drop position.  Each lane pads the board
    with off-region columns, so that a seated ball's step never leaves it.
    """
    geom, region = geometry, pmap.region
    n = geom.n_levels
    col_lo = -n - 4 - 2 * (geom.rows_per_box - 1) * geom.row_offset_buckets
    cols = np.arange(col_lo, 2 * geom.bucket_count - n + 3, dtype=np.float64)
    rows = np.arange(geom.rows_per_box, dtype=np.float64)
    boxes = np.arange(geom.boxes, dtype=np.float64)
    x = geom.ball_x_m(region, rows[:, None], cols[None, :])
    y = geom.box_center_y_m(region, boxes)
    shape = (geom.boxes, geom.rows_per_box, len(cols))
    xs = np.broadcast_to(x, shape)
    ys = np.broadcast_to(y[:, None, None], shape)
    inside = (xs >= 0.0) & (xs < region.width_m)
    table = np.full(shape, -1, dtype=np.int64)
    table[inside] = pmap.owners_xy(xs[inside], ys[inside])
    lanes = np.arange(0, table.size, len(cols)).reshape(geom.boxes, -1) - col_lo
    return table.ravel().tolist(), lanes.tolist()


#: fields of a hot row, all that a tick reads and moves
_HOT_FIELDS = 4
_HOT_PROGRESS, _HOT_LEVEL, _HOT_KEY, _HOT_SLOT = range(_HOT_FIELDS)
#: a hot row as one record, moved in one copy: a mask over 6,000 rows takes
#: 137 µs on (n, 4) int64 and 12 µs on records (2-core x86-64, numpy 2.4.6)
_HOT = np.dtype((np.void, _HOT_FIELDS * 8))
#: fields of a slab row: id, box, row, created_at_us, scene_ts_us, scene_seq
_COLD_FIELDS = 6
#: an arrival's buffered row: its hot row, then its slab row
_ARRIVAL_FIELDS = _HOT_FIELDS + _COLD_FIELDS
_ARRIVAL = np.dtype([("hot", _HOT), ("cold", (np.void, _COLD_FIELDS * 8))])
#: rows of a new hot ring and of a new slab; a full one at least doubles
_BLOCK = 1024


class PhysicsActor:
    """Capacity-limited descent simulation for one partition.

    A hot ring holds a 32-byte row per ball in service order from ``_head``;
    a slab holds the rest at a slot that stays put until the ball leaves.
    Arrivals join the ring's back when the next tick starts.  Each tick
    serves the first ``min(population, capacity)`` balls and moves the
    survivors to the back, so under overload every ball is served at the
    same fractional rate and the mean descent time stretches by
    population/capacity.  Balls whose step crosses the partition boundary
    are ghosted and shipped to the gaining node.
    """

    def __init__(self, node_id: str, partition_id: int, table: OwnerTable,
                 geometry: GaltonGeometry, capacity: int, tick_len_s: float,
                 engine: Engine, network: Network, dispatcher_id: str,
                 ledger: RunLedger):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.node_id = node_id
        self.partition_id = partition_id
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
        self._level_us = level_us = geometry.level_time_us
        self._owners, self._lanes = table
        #: a seated ball lies in this partition, so a step onto a key owned
        #: elsewhere leaves it: off the region (-1) or into a neighbour
        self._away = np.array(self._owners) != partition_id
        #: a hot row's change as it crosses a level, stepping left or right
        self._steps = np.array([[-level_us, 1, -1, 0], [-level_us, 1, 1, 0]])
        self._ring = np.zeros(_BLOCK, dtype=_HOT)
        self._head = 0
        self._n = 0
        self._slab = np.zeros((_BLOCK, _COLD_FIELDS), dtype=np.int64)
        #: slab slots that no ball holds, handed out from the end
        self._free = list(range(_BLOCK - 1, -1, -1))
        #: the rows of the balls that arrived since the last tick, flat
        self._arrivals: list[int] = []
        self._scene_origin: Optional[str] = None
        self._ticking = False
        self.ticks = 0
        self.steps_executed = 0
        self.peak_load = 0.0

    # ---- ball table --------------------------------------------------

    def _push(self, records: np.ndarray) -> None:
        """Write hot rows after the last ball in service order, growing a
        ring they do not fit."""
        ring, n = self._ring, self._n
        if n + len(records) > len(ring):
            ring = np.zeros(max(2 * len(ring), n + len(records)), dtype=_HOT)
            ring[:len(self._ring)] = np.roll(self._ring, -self._head)
            self._ring, self._head = ring, 0
        start = (self._head + n) % len(ring)
        first = min(len(records), len(ring) - start)
        ring[start:start + first] = records[:first]
        if first < len(records):
            ring[:len(records) - first] = records[first:]
        self._n += len(records)

    @property
    def active_count(self) -> int:
        return self._n + len(self._arrivals) // _ARRIVAL_FIELDS

    @property
    def ghost_count(self) -> int:
        """Balls shipped out whose transfer is not yet acknowledged."""
        return self.tracker.in_flight_count()

    @property
    def load_proxy(self) -> float:
        return self.active_count / self.capacity

    # ---- messaging ----------------------------------------------------

    def on_message(self, msg: Message) -> None:
        kind = msg.kind
        if kind == "ack":
            ack: MigrationAck = msg.payload
            self.tracker.complete_migration(ack, self.engine.now_us)
            self.replica.forget(ack.entity)
            self.ledger.migrations_completed += 1
        elif kind == "migrate":
            transfer: TransferMessage = msg.payload
            if transfer.to_partition != self.partition_id:
                raise UnroutableMessage(
                    f"transfer for partition {transfer.to_partition} at {self.node_id}"
                )
            # the ack goes out before _arrive may schedule a tick: both take
            # the engine's next seq, which orders events at one instant
            self.network.send(self.node_id, self.dispatcher_id, "ack",
                              MigrationTracker.acknowledge(transfer))
            self.ledger.transfers_delivered += 1
            self._arrive(*transfer.state)
        elif kind == "create":
            self._arrive(*msg.payload)
            self.ledger.creates_delivered += 1
        else:
            raise UnroutableMessage(kind)

    def _arrive(self, ball: Sequence[int], origin: str) -> None:
        """Register a ball in the scene; buffer its row, at a free slot, for
        the next tick, which this schedules if none is pending."""
        entity, box, row, level, column, progress, created, scene_ts, scene_seq = ball
        if self._scene_origin is None:
            self._scene_origin = origin
        self.replica.apply_update(tuple.__new__(PropertyUpdate, (
            entity, EXISTENCE, True, scene_ts, origin, scene_seq)))
        if not self._free:
            self._free += range(2 * len(self._slab) - 1, len(self._slab) - 1, -1)
            self._slab = np.resize(self._slab, (2 * len(self._slab), _COLD_FIELDS))
        slot = self._free.pop()
        self._arrivals += (progress, level, self._lanes[box][row] + column, slot,
                           entity, box, row, created, scene_ts, scene_seq)
        if not self._ticking:
            self._ticking = True
            next_tick = (self.engine.now_us // self.tick_us + 1) * self.tick_us
            self.engine.schedule(next_tick, self._tick)

    # ---- ticking -------------------------------------------------------

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
            # seat the arrivals: one slab write and one ring push
            rows = np.array(self._arrivals, dtype=np.int64)
            self._slab[rows[_HOT_SLOT::_ARRIVAL_FIELDS]] = rows.reshape(
                -1, _ARRIVAL_FIELDS)[:, _HOT_FIELDS:]
            self._push(rows.view(_ARRIVAL)["hot"])
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
        ring, head = self._ring, self._head
        end = head + k
        in_place = end <= len(ring)
        served = (ring[head:end] if in_place
                  else np.concatenate((ring[head:], ring[:end - len(ring)])))
        progress = served.view(np.int64)[_HOT_PROGRESS::_HOT_FIELDS]
        n_levels = self.geometry.n_levels
        level_us = self._level_us
        anyone_left = False
        progress += self.tick_us
        crossed = (progress >= level_us).nonzero()[0]
        while crossed.size:
            balls = served.take(crossed)
            c = balls.view(np.int64).reshape(-1, _HOT_FIELDS)
            c += self._steps.take(self._stream.uniform_many(crossed.size) >= 0.5, axis=0)
            left = (self._away.take(c[:, _HOT_KEY]) | (c[:, _HOT_LEVEL] >= n_levels)).nonzero()[0]
            if left.size:
                self._leave(c.take(left, axis=0), now_us)
                # a leaver's progress becomes -1, below any seated ball's: it
                # crosses no more, and the survivors' mask drops it
                c[left, _HOT_PROGRESS] = -1
                anyone_left = True
            served.put(crossed, balls)
            crossed = crossed[c[:, _HOT_PROGRESS] >= level_us]
        if k < n:
            self._head, self._n = end % len(ring), n - k
        elif in_place and not anyone_left:
            return {"stepped": k}
        else:
            # every ball was served: the survivors compact to the window's
            # start, or to row 0 from a wrapped window's copy
            self._head, self._n = head if in_place else 0, 0
        # with nobody gone the survivors are the window itself, which the
        # push may overlap: numpy copies an overlapping slice as if through a
        # buffer, and the push's first part never writes what its second
        # reads.  A mask gathers a copy.
        self._push(served[progress >= 0] if anyone_left else served)
        return {"stepped": k}

    def _leave(self, hot: np.ndarray, now_us: int) -> None:
        """Free the leaving balls' slots; collect the landed ones, then
        discard those off the region, then ghost the rest and ship each one's
        full row with its scene origin, each group in service order.  A ball
        that lands off the histogram, or leaves the region, is dropped from
        the results; either way it is deleted from the scene, and this
        replica forgets it: no later update for it reaches this node."""
        owners, lanes, n_levels = self._owners, self._lanes, self.geometry.n_levels
        free = self._free
        landed, off, migrating = [], [], []
        for (prog, level, key, slot), (eid, box, row, created, scene_ts, scene_seq) in zip(
                hot.tolist(), self._slab[hot[:, _HOT_SLOT]].tolist()):
            free.append(slot)
            owner = owners[key]
            if level >= n_levels:
                landed.append((eid, row, key - lanes[box][row], created))
            elif owner < 0:
                off.append(eid)
            else:
                migrating.append((eid, owner, (eid, box, row, level, key - lanes[box][row],
                                               prog, created, scene_ts, scene_seq)))
        node, dispatcher, send = self.node_id, self.dispatcher_id, self.network.send
        ledger = self.ledger
        if landed or off:
            ts = self.engine.local_now_us(self.clock)
            delete, forget = self.replica.delete_entity, self.replica.forget
            final_bucket, buckets = self.geometry.final_bucket, self.geometry.bucket_count
            for eid, row, column, created in landed:
                bucket = final_bucket(column, row)
                if 0 <= bucket < buckets:
                    ledger.collections.append((now_us, now_us - created, node, bucket))
                else:
                    ledger.discarded += 1
                send(node, dispatcher, "delete", delete(eid, ts, node))
                forget(eid)
            ledger.discarded += len(off)
            for eid in off:
                send(node, dispatcher, "delete", delete(eid, ts, node))
                forget(eid)
        if migrating:
            begin, partition = self.tracker.begin_migration, self.partition_id
            origin = self._scene_origin
            ledger.transfers_sent += len(migrating)
            ledger.migrated_entities.update(eid for eid, _, _ in migrating)
            for eid, owner, ball in migrating:
                (transfer,) = begin(eid, partition, owner, now_us, (ball, origin))
                send(node, dispatcher, "migrate", transfer)


# ----------------------------------------------------------------------
# dispatcher node
# ----------------------------------------------------------------------

class DispatcherActor:
    """Stateless relay between the script node and the physics nodes."""

    def __init__(self, node_id: str, network: Network, partitions: dict[int, str],
                 table: OwnerTable, script_id: str):
        self.node_id = node_id
        self.network = network
        self.script_id = script_id
        #: partition id -> owning node
        self._nodes = partitions
        owners, lanes = table
        #: [box][row] -> node owning that dropper row's drop position, column 0
        self._create_nodes = [[partitions[owners[lane]] for lane in box_lanes]
                              for box_lanes in lanes]

    def dispatcher_relay(self, msg: Message) -> list[Message]:
        """Forward a message on its kind's fixed route; never filters or
        coalesces.

        This is the dispatcher node's message handler."""
        kind = msg.kind
        if kind == "migrate":
            node = self._nodes[msg.payload.to_partition]
        elif kind == "ack":
            node = self._nodes[msg.payload.from_partition]
        elif kind == "create":
            ball = msg.payload[0]
            node = self._create_nodes[ball[1]][ball[2]]
        elif kind == "delete":
            node = self.script_id
        else:
            raise UnroutableMessage(kind)
        return [self.network.send(self.node_id, node, kind, msg.payload)]
