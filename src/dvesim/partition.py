"""Microcell space partitioning and the object-migration handshake.

The simulated region is a grid of indivisible microcells; a partition is a
group of microcells owned by one physics node.  Assignment is fixed for a
run.  When a moving entity's position changes owner, the losing node ghosts
the entity (it stops simulating it), ships its full state to the gaining
node, and drops the ghost when the acknowledgment returns.  At any
quiescent instant each live entity is simulated by exactly one partition,
and by none while its transfer is in flight.  Settled handshakes are
returned to the caller, not retained: a tracker holds only those in flight.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, NamedTuple

import numpy as np

from .rules import above, check_fields


class OutOfRegion(ValueError):
    """A position falls outside the simulated region."""


class AlreadyMigrating(RuntimeError):
    """The entity already has a transfer in flight."""


class UnknownMigration(KeyError):
    """Acknowledgment does not match any in-flight transfer."""


@dataclass(frozen=True)
class RegionSpec:
    """Dimensions of the simulated region and its microcell granularity."""

    width_m: float = field(default=256.0, metadata=above(0))
    depth_m: float = field(default=256.0, metadata=above(0))
    microcell_m: float = field(default=16.0, metadata=above(0))

    def __post_init__(self):
        check_fields(RegionSpec, vars(self), ValueError)
        for name in ("width_m", "depth_m"):
            cells = getattr(self, name) / self.microcell_m
            if abs(cells - round(cells)) > 1e-9:
                raise ValueError(f"{name} must be a multiple of microcell_m, got "
                                 f"{getattr(self, name)!r} and {self.microcell_m!r}")

    @property
    def nx(self) -> int:
        return int(round(self.width_m / self.microcell_m))

    @property
    def ny(self) -> int:
        return int(round(self.depth_m / self.microcell_m))


class PartitionMap:
    """Total, immutable assignment of microcells to partitions."""

    def __init__(self, region: RegionSpec, assignment: np.ndarray,
                 partitions: dict[int, str]):
        if assignment.shape != (region.nx, region.ny):
            raise ValueError("assignment grid does not match region dimensions")
        # a set of the cells' ints, not np.unique, which imports numpy.ma
        present = set(assignment.ravel().tolist())
        if not present <= set(partitions):
            raise ValueError(f"partitions {present - set(partitions)} have no owning node")
        self.region = region
        self._assignment = assignment.astype(np.int32, copy=True)
        self._assignment.setflags(write=False)
        self.partitions = dict(partitions)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def single(cls, region: RegionSpec, partition_id: int, node: str) -> "PartitionMap":
        grid = np.full((region.nx, region.ny), partition_id, dtype=np.int32)
        return cls(region, grid, {partition_id: node})

    @classmethod
    def split(cls, region: RegionSpec, axis: int, at_m: float, low: tuple[int, str],
              high: tuple[int, str]) -> "PartitionMap":
        """Two partitions split on a microcell boundary ``at_m`` along
        ``axis``, 0 for x or 1 for y: ``high`` owns the cells from there on."""
        cells = at_m / region.microcell_m
        if abs(cells - round(cells)) > 1e-9:
            raise ValueError(f"split at {at_m} m is not on a microcell boundary")
        grid = np.full((region.nx, region.ny), low[0], dtype=np.int32)
        grid.swapaxes(0, axis)[int(round(cells)):] = high[0]
        return cls(region, grid, {low[0]: low[1], high[0]: high[1]})

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def owners_xy(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Vectorized owner lookup; every position must be in the region."""
        if ((xs < 0) | (xs >= self.region.width_m)).any() or \
           ((ys < 0) | (ys >= self.region.depth_m)).any():
            raise OutOfRegion("position outside region")
        i = (xs // self.region.microcell_m).astype(np.int64)
        j = (ys // self.region.microcell_m).astype(np.int64)
        return self._assignment[i, j]


# ----------------------------------------------------------------------
# migration handshake
# ----------------------------------------------------------------------

class MigrationRecord(NamedTuple):
    """A settled handshake's span, as ``complete_migration`` returns it."""

    initiated_at_us: int
    completed_at_us: int


class TransferMessage(NamedTuple):
    """Full entity state shipped to the gaining partition."""

    entity: int
    from_partition: int
    to_partition: int
    token: int
    state: Any


class MigrationAck(NamedTuple):
    """The gaining side's acknowledgment, routed back to ``from_partition``."""

    entity: int
    token: int
    from_partition: int


class MigrationTracker:
    """Bookkeeping for one node's outbound migrations."""

    def __init__(self):
        #: entity -> (initiated_at_us, token)
        self._in_flight: dict[int, tuple[int, int]] = {}
        self._tokens = itertools.count()

    def begin_migration(self, entity: int, from_partition: int, to_partition: int,
                        now_us: int, state: Any) -> list[TransferMessage]:
        """Start the handshake; returns the messages to put on the wire.
        They carry ``state`` itself, which the caller must not change after."""
        if entity in self._in_flight:
            raise AlreadyMigrating(entity)
        token = next(self._tokens)
        self._in_flight[entity] = (now_us, token)
        return [tuple.__new__(TransferMessage, (entity, from_partition, to_partition, token, state))]

    @staticmethod
    def acknowledge(transfer: TransferMessage) -> MigrationAck:
        """Ack built by the gaining side once it simulates the entity."""
        return tuple.__new__(MigrationAck, (transfer.entity, transfer.token,
                                            transfer.from_partition))

    def complete_migration(self, ack: MigrationAck, now_us: int) -> MigrationRecord:
        """Settle the handshake on ack arrival and return its record; a
        duplicate ack or a stale token is unknown."""
        entity, token, _ = ack
        pending = self._in_flight.get(entity)
        if pending is None or pending[1] != token:
            raise UnknownMigration((entity, token))
        del self._in_flight[entity]
        return tuple.__new__(MigrationRecord, (pending[0], now_us))

    def in_flight_count(self) -> int:
        return len(self._in_flight)
