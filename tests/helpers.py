"""Shared test machinery: randomized LWW delivery schedules, a plain
last-writer-wins model of the scene, the scalar owner lookup, descent and
crossing model that the owner table and the physics tick oracle are
checked against, and a way to seat a ball on a physics node without a
script or a dispatcher."""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass
from typing import Optional

from dvesim.actors import PhysicsActor
from dvesim.partition import OutOfRegion, PartitionMap
from dvesim.scene import (
    EXISTENCE,
    ApplyResult,
    DuplicateCreate,
    PropertyUpdate,
    SceneReplica,
    UnknownEntity,
    digest,
)

PROPS = ["position", "velocity", "color"]


def random_update_set(rng: random.Random, max_entities: int = 10,
                      max_updates: int = 200) -> list[PropertyUpdate]:
    """An update multiset over a few entities: creates, deletes, writes.

    Every touched entity gets at least a creation update, so any at-least-once
    delivery schedule can make progress.
    """
    n_entities = rng.randint(1, max_entities)
    origins = ["node-a", "node-b", "node-c"]
    seqs = {o: itertools.count() for o in origins}
    updates: list[PropertyUpdate] = []
    for e in range(1, n_entities + 1):
        o = rng.choice(origins)
        updates.append(PropertyUpdate(e, EXISTENCE, True, rng.randint(0, 50), o,
                                      next(seqs[o])))
    extra = rng.randint(0, max_updates - len(updates))
    for _ in range(extra):
        e = rng.randint(1, n_entities)
        o = rng.choice(origins)
        ts = rng.randint(0, 1000)
        kind = rng.random()
        if kind < 0.15:
            updates.append(PropertyUpdate(e, EXISTENCE, False, ts, o, next(seqs[o])))
        elif kind < 0.30:
            updates.append(PropertyUpdate(e, EXISTENCE, True, ts, o, next(seqs[o])))
        else:
            updates.append(PropertyUpdate(e, rng.choice(PROPS), rng.randint(0, 99),
                                          ts, o, next(seqs[o])))
    return updates


def deliver_schedule(replica: SceneReplica, updates: list[PropertyUpdate],
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
    """The scene as two plain dicts of last-writer-wins registers: each
    entity's existence ``(stamp, alive)`` and each ``(entity, property)``'s
    ``(stamp, value)``.  A property is visible while its entity is alive
    and its stamp is not older than the entity's existence stamp."""

    def __init__(self):
        self.stamps: dict = {}
        self.registers: dict = {}
        self.seq = 0

    def apply_update(self, u: PropertyUpdate) -> ApplyResult:
        stamp = (u.ts_us, u.origin, u.seq)
        if u.entity not in self.stamps:
            if u.property != EXISTENCE or not u.value:
                raise UnknownEntity(u.entity)
            self.stamps[u.entity] = (stamp, True)
            return ApplyResult.ACCEPTED
        floor = self.stamps[u.entity][0]
        if u.property == EXISTENCE:
            if stamp <= floor:
                return ApplyResult.SUPERSEDED
            self.stamps[u.entity] = (stamp, bool(u.value))
            return ApplyResult.ACCEPTED
        key = (u.entity, u.property)
        if stamp <= floor or (key in self.registers and stamp <= self.registers[key][0]):
            return ApplyResult.SUPERSEDED
        self.registers[key] = (stamp, u.value)
        return ApplyResult.ACCEPTED

    def create_entity(self, entity, initial, ts_us, origin) -> list[PropertyUpdate]:
        if self.stamps.get(entity, (None, False))[1]:
            raise DuplicateCreate(entity)
        names = [EXISTENCE] + sorted(initial)
        updates = [PropertyUpdate(entity, name, True if name == EXISTENCE else initial[name],
                                  ts_us, origin, self.seq + i)
                   for i, name in enumerate(names)]
        self.seq += len(updates)
        for u in updates:
            self.apply_update(u)
        return updates

    def delete_entity(self, entity, ts_us, origin) -> PropertyUpdate:
        if entity not in self.stamps:
            raise UnknownEntity(entity)
        u = PropertyUpdate(entity, EXISTENCE, False, ts_us, origin, self.seq)
        self.seq += 1
        self.apply_update(u)
        return u

    def forget(self, entity) -> None:
        if entity not in self.stamps:
            raise UnknownEntity(entity)
        del self.stamps[entity]
        self.registers = {key: reg for key, reg in self.registers.items()
                          if key[0] != entity}

    def live_count(self) -> int:
        return sum(alive for _, alive in self.stamps.values())

    def digest(self) -> str:
        """The visible state in ``scene.digest``'s format."""
        h = hashlib.sha256()
        for entity, (floor, alive) in sorted(self.stamps.items()):
            if not alive:
                continue
            h.update(f"E{entity}:{floor!r}\n".encode())
            for (e, name), (stamp, value) in sorted(self.registers.items()):
                if e == entity and stamp >= floor:
                    h.update(f"P{entity}.{name}={value!r}@{stamp!r}\n".encode())
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


def seat(actor: PhysicsActor, ball: Ball, scene_seq: int = 0) -> None:
    """Seat ``ball`` on ``actor`` as a delivered create would: counted as
    created and delivered, and ticked from the next tick boundary.  The ball
    must lie in the actor's partition, at a column of its lane."""
    actor._arrive((ball.id, ball.box, ball.row, ball.level, ball.column, 0,
                   ball.created_at_us, 0, scene_seq), "script")
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
