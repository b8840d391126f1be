"""Replicated scene state with per-property last-writer-wins resolution.

Every node holds its own replica of the shared world state.  Updates carry
a stamp ``(timestamp, origin, seq)``; the lexicographically largest stamp
wins per property, which makes each property a commutative, idempotent
register: any two replicas that have seen the same set of updates (in any
order, with any duplication) expose the same visible state.

Entity existence is itself such a register.  A creation or deletion stamp
acts as a floor for the entity: property updates older than the latest
existence transition are superseded (a stale position update cannot outlive
the tombstone that deleted its entity), and a re-creation starts a fresh
incarnation whose visible properties are exactly those stamped at or after
it.  A live entity's record is its bare existence stamp; a deleted entity's
stamp moves to a dict of tombstones, kept until the replica forgets it.
An update carries its stamp as one tuple, which each replica that applies
it stores as it is: the replicas of an entity share one stamp object.  A
batch create is one update: its entities share one stamp on one seq.
"""

from __future__ import annotations

import hashlib
from enum import Enum
from typing import Any, NamedTuple, Sequence

EXISTENCE = "existence"

#: (timestamp_us, origin node id, per-origin sequence number)
Stamp = tuple[int, str, int]


class UnknownEntity(KeyError):
    """The update references an entity this replica has never heard of."""


class DuplicateCreate(ValueError):
    """Local creation attempted for an id that is already live."""


class ApplyResult(Enum):
    ACCEPTED = "accepted"
    SUPERSEDED = "superseded"


class PropertyUpdate(NamedTuple):
    entity: int
    property: str
    value: Any
    stamp: Stamp


class SceneReplica:
    """One node's copy of the scene, converging under last-writer-wins."""

    def __init__(self, node_id: str):
        self.node_id = node_id
        #: live entity -> existence stamp, and deleted entity -> deletion
        #: stamp: an entity is in at most one of the two.  A stamp is a tuple
        #: of atomic values, which the cyclic collector untracks.
        self._entities: dict[int, Stamp] = {}
        self._tombs: dict[int, Stamp] = {}
        #: entity -> property name -> (value, stamp), only for an entity that
        #: got a property update: most get none.  It may hold entries older
        #: than the current incarnation, which stay invisible until out-stamped.
        self._props: dict[int, dict[str, tuple[Any, Stamp]]] = {}
        self._seq = 0  # seq of the next locally originated update

    # ------------------------------------------------------------------
    # replication
    # ------------------------------------------------------------------

    def apply_update(self, u: PropertyUpdate) -> ApplyResult:
        """Apply one replicated update under the last-writer-wins rule."""
        entity, stamp = u.entity, u.stamp
        floor = self._entities.get(entity)
        if floor is None:
            floor = self._tombs.get(entity)
            if floor is None:
                if u.property != EXISTENCE or not u.value:
                    raise UnknownEntity(entity)
                self._entities[entity] = stamp
                return ApplyResult.ACCEPTED
        if u.property == EXISTENCE:
            if stamp <= floor:
                return ApplyResult.SUPERSEDED
            if u.value:
                self._tombs.pop(entity, None)
                self._entities[entity] = stamp
            else:
                self._entities.pop(entity, None)
                self._tombs[entity] = stamp
            return ApplyResult.ACCEPTED
        current = self._props.get(entity, {}).get(u.property)
        if current is not None and current[1] > floor:
            floor = current[1]
        if stamp <= floor:
            return ApplyResult.SUPERSEDED
        self._props.setdefault(entity, {})[u.property] = (u.value, stamp)
        return ApplyResult.ACCEPTED

    # ------------------------------------------------------------------
    # entity-level operations
    # ------------------------------------------------------------------

    def create_entities(self, entities: Sequence[int], ts_us: int, origin: str) -> Stamp:
        """Create entities locally as one update; returns its stamp.

        The entities share one existence stamp on one seq, which every
        replica that applies their creates stores as it is.  A local create
        of an id that is live, or twice in one batch, is a caller error,
        checked before any id is stored.  A tombstoned id is re-created
        through ``apply_update``, so its tombstone still orders it.
        """
        live, tombs = self._entities, self._tombs
        ids = set(entities)
        if len(ids) < len(entities) or not live.keys().isdisjoint(ids):
            raise DuplicateCreate(sorted(ids & live.keys()) or list(entities))
        stamp = (ts_us, origin, self._seq)
        self._seq += 1
        for entity in entities:
            if entity in tombs:
                self.apply_update(tuple.__new__(PropertyUpdate, (entity, EXISTENCE, True, stamp)))
            else:
                live[entity] = stamp
        return stamp

    def create_entity(self, entity: int, initial: dict[str, Any], ts_us: int,
                      origin: str) -> list[PropertyUpdate]:
        """Create an entity locally; returns the updates to replicate.

        The existence update comes first, so FIFO transports deliver it
        before the property updates it gates; the properties follow in name
        order, on the seq numbers after the existence stamp's.
        """
        stamp = self.create_entities((entity,), ts_us, origin)
        seq = self._seq
        props = [PropertyUpdate(entity, name, initial[name], (ts_us, origin, seq + i))
                 for i, name in enumerate(sorted(initial))]
        self._seq = seq + len(props)
        for u in props:
            self.apply_update(u)
        return [tuple.__new__(PropertyUpdate, (entity, EXISTENCE, True, stamp)), *props]

    def delete_entity(self, entity: int, ts_us: int, origin: str) -> PropertyUpdate:
        """Delete a known entity locally; returns the update to replicate."""
        if entity not in self._entities and entity not in self._tombs:
            raise UnknownEntity(entity)
        u = tuple.__new__(PropertyUpdate, (entity, EXISTENCE, False, (ts_us, origin, self._seq)))
        self._seq += 1
        self.apply_update(u)
        return u

    def forget(self, entity: int) -> None:
        """Drop a known entity's record, live or tombstoned, and its
        properties, as if this replica had never heard of it."""
        if self._entities.pop(entity, None) is None and self._tombs.pop(entity, None) is None:
            raise UnknownEntity(entity)
        self._props.pop(entity, None)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def live_count(self) -> int:
        return len(self._entities)

    def stamp_of(self, entity: int) -> Stamp:
        """A live entity's existence stamp, the object this replica stored."""
        return self._entities[entity]


def digest(replica: SceneReplica) -> str:
    """Order-independent hash of the replica's visible state.

    Two replicas that applied the same update set in any order produce the
    same digest; any visible difference produces a different one.
    """
    h = hashlib.sha256()
    for entity, floor in sorted(replica._entities.items()):
        h.update(f"E{entity}:{floor!r}\n".encode())
        props = replica._props.get(entity, {})
        for name in sorted(props):
            value, stamp = props[name]
            if stamp < floor:
                continue
            h.update(f"P{entity}.{name}={value!r}@{stamp!r}\n".encode())
    return h.hexdigest()
