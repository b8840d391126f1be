"""Replicated scene state: one last-writer-wins existence register per entity.

Every node holds its own replica of the shared world state.  An update
creates or deletes an entity under a stamp ``(timestamp, origin, seq)``; the
lexicographically largest stamp wins, which makes each entity's existence a
commutative, idempotent register: any two replicas that have seen the same
set of updates (in any order, with any duplication) expose the same visible
state.  A live entity's record is its bare creation stamp, in a slot of a
page of ``PAGE_SIZE`` consecutive ids; a deleted entity's stamp moves to a
dict of tombstones, kept until the replica forgets it, so that a stale
re-creation cannot revive it.  An update
carries its stamp as one tuple, which each replica that applies it stores
as it is: the replicas of an entity share one stamp object.  A batch create
is one update: its entities share one stamp on one seq.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple, Sequence

#: (timestamp_us, origin node id, per-origin sequence number)
Stamp = tuple[int, str, int]

#: ids per page of live registers, a power of two.  A page is a list of one
#: slot per id, the live stamp or None, then its count of live slots.
PAGE_SIZE = 256
_SHIFT = PAGE_SIZE.bit_length() - 1
_MASK = PAGE_SIZE - 1
_EMPTY_PAGE = (None,) * PAGE_SIZE + (0,)


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
        #: ``entity >> _SHIFT`` -> the page that holds the live stamps of
        #: its ids, kept while one of them is live; deleted entity ->
        #: deletion stamp.  An entity is live or tombstoned, not both.  A
        #: stamp is a tuple of atomic values, which the cyclic collector
        #: untracks.
        self._pages: dict[int, list] = {}
        self._tombs: dict[int, Stamp] = {}
        self._seq = 0  # seq of the next locally originated update

    # ------------------------------------------------------------------
    # replication
    # ------------------------------------------------------------------

    def apply_update(self, u: ExistenceUpdate) -> ApplyResult:
        """Apply one replicated update under the last-writer-wins rule."""
        entity, stamp = u.entity, u.stamp
        key, slot = entity >> _SHIFT, entity & _MASK
        page = self._pages.get(key)
        floor = None if page is None else page[slot]
        if floor is not None:
            if stamp <= floor:
                return ApplyResult.SUPERSEDED
            if u.alive:
                page[slot] = stamp
            else:
                page[slot] = None
                page[PAGE_SIZE] -= 1
                if not page[PAGE_SIZE]:
                    del self._pages[key]
                self._tombs[entity] = stamp
            return ApplyResult.ACCEPTED
        floor = self._tombs.get(entity)
        if floor is None:
            if not u.alive:
                raise UnknownEntity(entity)
        elif stamp <= floor:
            return ApplyResult.SUPERSEDED
        elif u.alive:
            del self._tombs[entity]
        else:
            self._tombs[entity] = stamp
            return ApplyResult.ACCEPTED
        if page is None:
            page = self._pages[key] = list(_EMPTY_PAGE)
        page[slot] = stamp
        page[PAGE_SIZE] += 1
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
        pages, tombs = self._pages, self._tombs
        live = [entity for entity in entities
                if (page := pages.get(entity >> _SHIFT)) is not None
                and page[entity & _MASK] is not None]
        if live or len(set(entities)) < len(entities):
            raise DuplicateCreate(sorted(set(live)) or list(entities))
        stamp = (ts_us, self.node_id, self._seq)
        self._seq += 1
        for entity in entities:
            if entity in tombs:
                self.apply_update(tuple.__new__(ExistenceUpdate, (entity, True, stamp)))
                continue
            page = pages.get(entity >> _SHIFT)
            if page is None:
                page = pages[entity >> _SHIFT] = list(_EMPTY_PAGE)
            page[entity & _MASK] = stamp
            page[PAGE_SIZE] += 1
        return stamp

    def delete_entity(self, entity: int, ts_us: int) -> ExistenceUpdate:
        """Delete a known entity locally, stamped by this replica; returns
        the update to replicate."""
        u = tuple.__new__(ExistenceUpdate, (entity, False, (ts_us, self.node_id, self._seq)))
        self.apply_update(u)  # raises UnknownEntity before it stores anything
        self._seq += 1
        return u

    def forget(self, entity: int) -> None:
        """Drop a known entity's record, live or tombstoned, as if this
        replica had never heard of it."""
        key, slot = entity >> _SHIFT, entity & _MASK
        page = self._pages.get(key)
        if page is not None and page[slot] is not None:
            page[slot] = None
            page[PAGE_SIZE] -= 1
            if not page[PAGE_SIZE]:
                del self._pages[key]
        elif self._tombs.pop(entity, None) is None:
            raise UnknownEntity(entity)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def live_count(self) -> int:
        return sum(page[PAGE_SIZE] for page in self._pages.values())

    def stamp_of(self, entity: int) -> Stamp:
        """A live entity's existence stamp, the object this replica stored."""
        page = self._pages.get(entity >> _SHIFT)
        if page is not None and (stamp := page[entity & _MASK]) is not None:
            return stamp
        raise KeyError(entity)
