"""Replicated scene state: one last-writer-wins existence register per entity.

Every node holds its own replica of the shared world state.  An update
creates or deletes an entity under a stamp ``(timestamp, origin, seq)``; the
lexicographically largest stamp wins, which makes each entity's existence a
commutative, idempotent register: any two replicas that have seen the same
set of updates (in any order, with any duplication) expose the same visible
state.  A live entity's record is its bare creation stamp; a deleted
entity's stamp moves to a dict of tombstones, kept until the replica
forgets it, so that a stale re-creation cannot revive it.  An update
carries its stamp as one tuple, which each replica that applies it stores
as it is: the replicas of an entity share one stamp object.  A batch create
is one update: its entities share one stamp on one seq.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple, Sequence

#: (timestamp_us, origin node id, per-origin sequence number)
Stamp = tuple[int, str, int]


class UnknownEntity(KeyError):
    """The update references an entity this replica has never heard of."""


class DuplicateCreate(ValueError):
    """Local creation attempted for an id that is already live."""


class ApplyResult(Enum):
    ACCEPTED = "accepted"
    SUPERSEDED = "superseded"


class ExistenceUpdate(NamedTuple):
    entity: int
    alive: bool
    stamp: Stamp


class SceneReplica:
    """One node's copy of the scene, converging under last-writer-wins."""

    def __init__(self, node_id: str):
        #: the origin in the stamp of every update this replica makes
        self.node_id = node_id
        #: live entity -> existence stamp, and deleted entity -> deletion
        #: stamp: an entity is in at most one of the two.  A stamp is a tuple
        #: of atomic values, which the cyclic collector untracks.
        self._entities: dict[int, Stamp] = {}
        self._tombs: dict[int, Stamp] = {}
        self._seq = 0  # seq of the next locally originated update

    # ------------------------------------------------------------------
    # replication
    # ------------------------------------------------------------------

    def apply_update(self, u: ExistenceUpdate) -> ApplyResult:
        """Apply one replicated update under the last-writer-wins rule."""
        entity, stamp = u.entity, u.stamp
        floor = self._entities.get(entity)
        if floor is None:
            floor = self._tombs.get(entity)
            if floor is None:
                if not u.alive:
                    raise UnknownEntity(entity)
                self._entities[entity] = stamp
                return ApplyResult.ACCEPTED
        if stamp <= floor:
            return ApplyResult.SUPERSEDED
        if u.alive:
            self._tombs.pop(entity, None)
            self._entities[entity] = stamp
        else:
            self._entities.pop(entity, None)
            self._tombs[entity] = stamp
        return ApplyResult.ACCEPTED

    # ------------------------------------------------------------------
    # entity-level operations
    # ------------------------------------------------------------------

    def create_entities(self, entities: Sequence[int], ts_us: int) -> Stamp:
        """Create entities locally as one update, stamped by this replica;
        returns its stamp.

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
        stamp = (ts_us, self.node_id, self._seq)
        self._seq += 1
        for entity in entities:
            if entity in tombs:
                self.apply_update(tuple.__new__(ExistenceUpdate, (entity, True, stamp)))
            else:
                live[entity] = stamp
        return stamp

    def delete_entity(self, entity: int, ts_us: int) -> ExistenceUpdate:
        """Delete a known entity locally, stamped by this replica; returns
        the update to replicate."""
        if entity not in self._entities and entity not in self._tombs:
            raise UnknownEntity(entity)
        u = tuple.__new__(ExistenceUpdate, (entity, False, (ts_us, self.node_id, self._seq)))
        self._seq += 1
        self.apply_update(u)
        return u

    def forget(self, entity: int) -> None:
        """Drop a known entity's record, live or tombstoned, as if this
        replica had never heard of it."""
        if self._entities.pop(entity, None) is None and self._tombs.pop(entity, None) is None:
            raise UnknownEntity(entity)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def live_count(self) -> int:
        return len(self._entities)

    def stamp_of(self, entity: int) -> Stamp:
        """A live entity's existence stamp, the object this replica stored."""
        return self._entities[entity]

