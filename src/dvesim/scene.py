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
it.  Tombstones are kept for the whole run.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from enum import Enum
from types import MappingProxyType
from typing import Any, Iterator, NamedTuple

EXISTENCE = "existence"

#: (timestamp_us, origin node id, per-origin sequence number)
Stamp = tuple[int, str, int]

_NO_PROPS: Any = MappingProxyType({})


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
    ts_us: int
    origin: str
    seq: int

    @property
    def stamp(self) -> Stamp:
        return (self.ts_us, self.origin, self.seq)


def creation_updates(entity: int, initial: dict[str, Any], ts_us: int,
                     origin: str, seq_counter: Iterator[int]) -> list[PropertyUpdate]:
    """Build the update set that creates an entity with initial properties.

    The existence update comes first so FIFO transports deliver it before
    the property updates it gates.
    """
    updates = [PropertyUpdate(entity, EXISTENCE, True, ts_us, origin, next(seq_counter))]
    for name in sorted(initial):
        updates.append(PropertyUpdate(entity, name, initial[name], ts_us, origin,
                                      next(seq_counter)))
    return updates


def deletion_update(entity: int, ts_us: int, origin: str,
                    seq_counter: Iterator[int]) -> PropertyUpdate:
    return PropertyUpdate(entity, EXISTENCE, False, ts_us, origin, next(seq_counter))


@dataclass(slots=True)
class _EntityRecord:
    alive: bool
    existence_stamp: Stamp
    # property name -> (value, stamp); may hold entries older than the
    # current incarnation, which stay invisible until out-stamped.  Shared
    # and read-only _NO_PROPS until the first one: most entities get none.
    props: dict[str, tuple[Any, Stamp]]


class SceneReplica:
    """One node's copy of the scene, converging under last-writer-wins."""

    def __init__(self, node_id: str):
        self.node_id = node_id
        self._entities: dict[int, _EntityRecord] = {}
        self._live = 0
        self._seq = 0

    # ------------------------------------------------------------------
    # local origination helpers
    # ------------------------------------------------------------------

    def next_seq(self) -> int:
        """Per-origin monotone sequence number for locally created updates."""
        s = self._seq
        self._seq += 1
        return s

    def seq_counter(self) -> Iterator[int]:
        while True:
            yield self.next_seq()

    # ------------------------------------------------------------------
    # replication
    # ------------------------------------------------------------------

    def apply_update(self, u: PropertyUpdate) -> ApplyResult:
        """Apply one replicated update under the last-writer-wins rule."""
        rec = self._entities.get(u.entity)
        stamp = u.stamp
        if u.property == EXISTENCE:
            if rec is None:
                if not u.value:
                    raise UnknownEntity(u.entity)
                self._entities[u.entity] = _EntityRecord(True, stamp, _NO_PROPS)
                self._live += 1
                return ApplyResult.ACCEPTED
            if stamp <= rec.existence_stamp:
                return ApplyResult.SUPERSEDED
            alive = bool(u.value)
            if alive != rec.alive:
                self._live += 1 if alive else -1
                rec.alive = alive
            rec.existence_stamp = stamp
            return ApplyResult.ACCEPTED
        if rec is None:
            raise UnknownEntity(u.entity)
        current = rec.props.get(u.property)
        floor = rec.existence_stamp
        if current is not None and current[1] > floor:
            floor = current[1]
        if stamp <= floor:
            return ApplyResult.SUPERSEDED
        if rec.props is _NO_PROPS:
            rec.props = {}
        rec.props[u.property] = (u.value, stamp)
        return ApplyResult.ACCEPTED

    # ------------------------------------------------------------------
    # entity-level operations
    # ------------------------------------------------------------------

    def create_entity(self, entity: int, initial: dict[str, Any], ts_us: int,
                      origin: str) -> list[PropertyUpdate]:
        """Create an entity locally; returns the updates to replicate.

        Unlike replicated application, a local create of an id that is
        already live is a caller error.
        """
        rec = self._entities.get(entity)
        if rec is not None and rec.alive:
            raise DuplicateCreate(entity)
        updates = creation_updates(entity, initial, ts_us, origin, self.seq_counter())
        for u in updates:
            self.apply_update(u)
        return updates

    def delete_entity(self, entity: int, ts_us: int, origin: str) -> PropertyUpdate:
        """Delete a known entity locally; returns the update to replicate."""
        if entity not in self._entities:
            raise UnknownEntity(entity)
        u = deletion_update(entity, ts_us, origin, self.seq_counter())
        self.apply_update(u)
        return u

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def is_live(self, entity: int) -> bool:
        rec = self._entities.get(entity)
        return rec is not None and rec.alive

    def live_count(self) -> int:
        return self._live

    def get(self, entity: int, prop: str, default: Any = None) -> Any:
        """Visible value of a property, or default if absent or invisible."""
        rec = self._entities.get(entity)
        if rec is None or not rec.alive:
            return default
        entry = rec.props.get(prop)
        if entry is None or entry[1] < rec.existence_stamp:
            return default
        return entry[0]


def digest(replica: SceneReplica) -> str:
    """Order-independent hash of the replica's visible state.

    Two replicas that applied the same update set in any order produce the
    same digest; any visible difference produces a different one.
    """
    h = hashlib.sha256()
    for entity in sorted(replica._entities):
        rec = replica._entities[entity]
        if not rec.alive:
            continue
        h.update(f"E{entity}:{rec.existence_stamp!r}\n".encode())
        for name in sorted(rec.props):
            value, stamp = rec.props[name]
            if stamp < rec.existence_stamp:
                continue
            h.update(f"P{entity}.{name}={value!r}@{stamp!r}\n".encode())
    return h.hexdigest()
