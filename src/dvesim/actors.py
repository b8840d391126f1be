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
from array import array
from dataclasses import asdict, dataclass, field

import numpy as np

from .engine import Engine, seconds_to_us
from .netsim import Message, Network
from .partition import MigrationAck, MigrationTracker, PartitionMap, RegionSpec, TransferMessage
from .rules import at_least, check_fields
from .scene import ApplyResult, ExistenceUpdate, SceneReplica, Stamp


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

    n_levels: int = field(default=93, metadata=at_least(1))
    boxes: int = field(default=4, metadata=at_least(1))
    rows_per_box: int = field(default=3, metadata=at_least(1))
    droppers_per_row: int = field(default=9, metadata=at_least(1))
    balls_per_dropper: int = field(default=350, metadata=at_least(1))
    row_offset_buckets: int = field(default=1, metadata=at_least(0))
    nominal_descent_s: float = 124.82

    def __post_init__(self):
        check_fields(GaltonGeometry, vars(self), ValueError)
        if self.level_time_us < 1:
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

    max_entity: int
    created: int = 0
    creates_delivered: int = 0
    transfers_sent: int = 0
    transfers_delivered: int = 0
    migrations_completed: int = 0
    discarded: int = 0
    #: t_us, interval_us, partition id and bucket per collected ball, flat
    collections: array = field(default_factory=lambda: array("q"))
    #: one flag per entity id up to max_entity, set once the entity migrates
    migrated_entities: bytearray = field(init=False)

    def __post_init__(self):
        self.migrated_entities = bytearray(self.max_entity + 1)

    @property
    def collected(self) -> int:
        return len(self.collections) // 4

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
                 dispatcher_id: str, table: OwnerTable, geometry: GaltonGeometry,
                 period_s: float, ledger: RunLedger):
        self.node_id = node_id
        self.engine = engine
        self.network = network
        self.dispatcher_id = dispatcher_id
        self.period_us = seconds_to_us(period_s)
        if self.period_us <= 0:
            raise ValueError("drop period must be positive")
        self.ledger = ledger
        self.replica = SceneReplica(node_id)
        self.offset_us = engine.clock(node_id)
        self._entities = itertools.count(1)
        #: the drop key of each dropper, box by box and row by row
        self.drop_keys = [key for keys in table[1] for key in keys
                          for _ in range(geometry.droppers_per_row)]
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
        """Emit one creation per dropper, until the droppers run dry.  A
        drop is one scene update: its balls share one existence stamp."""
        if self.remaining <= 0:
            return []
        self.remaining -= 1
        ids = list(itertools.islice(self._entities, len(self.drop_keys)))
        stamp = self.replica.create_entities(ids, self.engine.now_us + self.offset_us)
        node, dispatcher, send = self.node_id, self.dispatcher_id, self.network.send
        msgs = [send(node, dispatcher, "create", ((0, 0, key, entity, now_us), stamp))
                for entity, key in zip(ids, self.drop_keys)]
        self.ledger.created += len(msgs)
        return msgs

    def on_message(self, msg: Message) -> None:
        if msg.kind != "delete":
            raise UnroutableMessage(msg.kind)
        # a ball is deleted once: forget it, unless its delete was superseded
        if self.replica.apply_update(msg.payload) is ApplyResult.ACCEPTED:
            self.replica.forget(msg.payload.entity)

    @property
    def exhausted(self) -> bool:
        return self.remaining <= 0


# ----------------------------------------------------------------------
# physics node
# ----------------------------------------------------------------------

# A ball's one record is its ring row, five ints: progress, level, key, id
# and creation time.  The key names the ball's box, row and column, which
# only ``owner_table`` lays out; everything else looks the key up.  A create
# and a transfer ship a ball as ``(row, stamp)``, where the stamp is the
# existence stamp object that the sending replica holds, which the receiving
# replica stores as it is.  Both are exact tuples of atomic values, which the
# cyclic collector stops tracking.
_FIELDS = 5
_PROGRESS, _LEVEL, _KEY, _ENTITY, _CREATED = range(_FIELDS)

#: (owners, drops, buckets): the owning partition of every key, -1 off the
#: region; per [box][row], the key of that dropper row's drop position; and
#: the bucket that a ball landing at each key falls into, -1 off the histogram
OwnerTable = tuple[list[int], list[list[int]], list[int]]


def owner_table(geometry: GaltonGeometry, pmap: PartitionMap) -> OwnerTable:
    """Owner and final bucket of every position a ball can take, looked up
    once per run.

    A ball's position depends only on its box, row and column, so the
    owners are looked up through ``ball_x_m`` and ``box_center_y_m``, and
    the buckets through ``final_bucket``, over broadcast arrays.  A ball's
    key is its (box, row) lane's offset plus its column; column 0 is the
    lane's drop position.  Each lane pads the board with off-region columns,
    so that a seated ball's step never leaves it.
    """
    geom, region = geometry, pmap.region
    n = geom.n_levels
    col_lo = -n - 4 - 2 * (geom.rows_per_box - 1) * geom.row_offset_buckets
    cols = np.arange(col_lo, 2 * geom.bucket_count - n + 3)
    rows = np.arange(geom.rows_per_box)
    boxes = np.arange(geom.boxes)
    x = geom.ball_x_m(region, rows[:, None], cols[None, :])
    y = geom.box_center_y_m(region, boxes)
    shape = (geom.boxes, geom.rows_per_box, len(cols))
    xs = np.broadcast_to(x, shape)
    ys = np.broadcast_to(y[:, None, None], shape)
    inside = (xs >= 0.0) & (xs < region.width_m)
    table = np.full(shape, -1, dtype=np.int64)
    table[inside] = pmap.owners_xy(xs[inside], ys[inside])
    drops = np.arange(0, table.size, len(cols)).reshape(geom.boxes, -1) - col_lo
    bucket = geom.final_bucket(cols[None, :], rows[:, None])
    bucket[(bucket < 0) | (bucket >= geom.bucket_count)] = -1
    return (table.ravel().tolist(), drops.tolist(),
            np.broadcast_to(bucket, shape).ravel().tolist())


#: a ring row as one record, moved in one copy: a mask over 6,000 rows takes
#: 137 µs on (n, 4) int64 and 12 µs on records (2-core x86-64, numpy 2.4.6)
_HOT = np.dtype((np.void, _FIELDS * 8))
#: rows of a new ring; a full one at least doubles
_BLOCK = 1024


class PhysicsActor:
    """Capacity-limited descent simulation for one partition.

    A ring holds each ball's 40-byte row in service order from ``_head``.
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
        self.offset_us = engine.clock(node_id)
        self.tracker = MigrationTracker()
        self._stream = engine.stream(f"{node_id}:descent")
        self._level_us = level_us = geometry.level_time_us
        self._owners, _, self._buckets = table
        #: a seated ball lies in this partition, so a step onto a key owned
        #: elsewhere leaves it: off the region (-1) or into a neighbour
        self._away = np.array(self._owners) != partition_id
        #: a row's change as it crosses a level, stepping left or right
        self._steps = np.array([[-level_us, 1, -1, 0, 0], [-level_us, 1, 1, 0, 0]])
        self._ring = np.zeros(_BLOCK, dtype=_HOT)
        self._head = 0
        self._n = 0
        #: the rows of the balls that arrived since the last tick, flat
        self._arrivals: list[int] = []
        self._ticking = False
        self.peak_load = 0.0

    # ---- ball table --------------------------------------------------

    def _push(self, records: np.ndarray) -> None:
        """Write rows after the last ball in service order, growing a
        ring they do not fit."""
        ring, n = self._ring, self._n
        if n + len(records) > len(ring):
            old, head = ring, self._head
            ring = np.zeros(max(2 * len(old), n + len(records)), dtype=_HOT)
            ring[:len(old) - head] = old[head:]
            ring[len(old) - head:len(old)] = old[:head]
            self._ring, self._head = ring, 0
        start = (self._head + n) % len(ring)
        first = min(len(records), len(ring) - start)
        ring[start:start + first] = records[:first]
        if first < len(records):
            ring[:len(records) - first] = records[first:]
        self._n += len(records)

    @property
    def active_count(self) -> int:
        return self._n + len(self._arrivals) // _FIELDS

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

    def _arrive(self, row: tuple[int, ...], stamp: Stamp) -> None:
        """Register a ball in the scene under the stamp it came with; buffer
        its row for the next tick, which this schedules if none is pending."""
        self.replica.apply_update(tuple.__new__(ExistenceUpdate, (row[_ENTITY], True, stamp)))
        self._arrivals += row
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
            self._push(np.array(self._arrivals, dtype=np.int64).view(_HOT))
            self._arrivals = []
        n = self._n
        load = n / self.capacity
        if load > self.peak_load:
            self.peak_load = load
        k = min(n, self.capacity)
        ring, head = self._ring, self._head
        end = head + k
        in_place = end <= len(ring)
        served = (ring[head:end] if in_place
                  else np.concatenate((ring[head:], ring[:end - len(ring)])))
        progress = served.view(np.int64)[_PROGRESS::_FIELDS]
        n_levels = self.geometry.n_levels
        level_us = self._level_us
        anyone_left = False
        progress += self.tick_us
        crossed = (progress >= level_us).nonzero()[0]
        while crossed.size:
            balls = served.take(crossed)
            c = balls.view(np.int64).reshape(-1, _FIELDS)
            c += self._steps.take(self._stream.uniform_many(crossed.size) >= 0.5, axis=0)
            left = (self._away.take(c[:, _KEY]) | (c[:, _LEVEL] >= n_levels)).nonzero()[0]
            if left.size:
                self._leave(c.take(left, axis=0), now_us)
                # a leaver's progress becomes -1, below any seated ball's: it
                # crosses no more, and the survivors' mask drops it
                c[left, _PROGRESS] = -1
                anyone_left = True
            served.put(crossed, balls)
            crossed = crossed[c[:, _PROGRESS] >= level_us]
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

    def _leave(self, rows: np.ndarray, now_us: int) -> None:
        """Collect the landed balls, then discard those off the region, then
        ghost the rest and ship each one's row as it is, with the stamp this
        replica holds, each group in service order.  A ball that lands off
        the histogram, or leaves the region, is dropped from the results;
        either way it is deleted from the scene, and this replica forgets
        it: no later update for it reaches this node."""
        owners, buckets, n_levels = self._owners, self._buckets, self.geometry.n_levels
        landed, off, migrating = [], [], []
        for row in rows.tolist():
            _, level, key, eid, created = row
            if level >= n_levels:
                landed.append((eid, buckets[key], created))
            elif owners[key] < 0:
                off.append(eid)
            else:
                migrating.append((eid, owners[key], tuple(row)))
        node, dispatcher, send = self.node_id, self.dispatcher_id, self.network.send
        ledger, partition = self.ledger, self.partition_id
        if landed or off:
            ts = self.engine.now_us + self.offset_us
            delete, forget = self.replica.delete_entity, self.replica.forget
            for eid, bucket, created in landed:
                if bucket >= 0:
                    ledger.collections.extend((now_us, now_us - created, partition, bucket))
                else:
                    ledger.discarded += 1
                send(node, dispatcher, "delete", delete(eid, ts))
                forget(eid)
            ledger.discarded += len(off)
            for eid in off:
                send(node, dispatcher, "delete", delete(eid, ts))
                forget(eid)
        if migrating:
            begin, stamp_of = self.tracker.begin_migration, self.replica.stamp_of
            ledger.transfers_sent += len(migrating)
            for eid, owner, row in migrating:
                ledger.migrated_entities[eid] = 1
                (transfer,) = begin(eid, partition, owner, now_us, (row, stamp_of(eid)))
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
        owners, drops, _ = table
        #: drop key -> node owning that drop position
        self._create_nodes = {key: partitions[owners[key]] for keys in drops for key in keys}

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
            node = self._create_nodes[msg.payload[0][_KEY]]
        elif kind == "delete":
            node = self.script_id
        else:
            raise UnroutableMessage(kind)
        return [self.network.send(self.node_id, node, kind, msg.payload)]
