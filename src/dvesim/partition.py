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
from dataclasses import dataclass
from typing import Any, NamedTuple, Optional

import numpy as np


class OutOfRegion(ValueError):
    """A position falls outside the simulated region."""


class AlreadyMigrating(RuntimeError):
    """The entity already has a transfer in flight."""


class UnknownMigration(KeyError):
    """Acknowledgment does not match any in-flight transfer."""


@dataclass(frozen=True)
class RegionSpec:
    """Dimensions of the simulated region and its microcell granularity."""

    width_m: float = 256.0
    depth_m: float = 256.0
    microcell_m: float = 16.0

    def __post_init__(self):
        if self.microcell_m <= 0:
            raise ValueError("microcell size must be positive")
        for extent in (self.width_m, self.depth_m):
            cells = extent / self.microcell_m
            if extent <= 0 or abs(cells - round(cells)) > 1e-9:
                raise ValueError(
                    f"region extent {extent} m is not a positive multiple of "
                    f"the {self.microcell_m} m microcell size"
                )

    @property
    def nx(self) -> int:
        return int(round(self.width_m / self.microcell_m))

    @property
    def ny(self) -> int:
        return int(round(self.depth_m / self.microcell_m))

    def microcell_of(self, x_m: float, y_m: float) -> tuple[int, int]:
        """Containing cell; boundary points belong to the higher-index cell."""
        if not (0.0 <= x_m < self.width_m and 0.0 <= y_m < self.depth_m):
            raise OutOfRegion(f"({x_m}, {y_m}) outside {self.width_m} x {self.depth_m} m region")
        return (int(x_m // self.microcell_m), int(y_m // self.microcell_m))


class PartitionMap:
    """Total, immutable assignment of microcells to partitions."""

    def __init__(self, region: RegionSpec, assignment: np.ndarray,
                 partitions: dict[int, str]):
        if assignment.shape != (region.nx, region.ny):
            raise ValueError("assignment grid does not match region dimensions")
        present = set(int(p) for p in np.unique(assignment))
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
    def split_x(cls, region: RegionSpec, at_m: float, left: tuple[int, str],
                right: tuple[int, str]) -> "PartitionMap":
        """Two partitions split by a vertical line on a microcell boundary."""
        cells = at_m / region.microcell_m
        if abs(cells - round(cells)) > 1e-9:
            raise ValueError(f"split at {at_m} m is not on a microcell boundary")
        cut = int(round(cells))
        grid = np.full((region.nx, region.ny), left[0], dtype=np.int32)
        grid[cut:, :] = right[0]
        return cls(region, grid, {left[0]: left[1], right[0]: right[1]})

    @classmethod
    def split_y(cls, region: RegionSpec, at_m: float, near: tuple[int, str],
                far: tuple[int, str]) -> "PartitionMap":
        cells = at_m / region.microcell_m
        if abs(cells - round(cells)) > 1e-9:
            raise ValueError(f"split at {at_m} m is not on a microcell boundary")
        cut = int(round(cells))
        grid = np.full((region.nx, region.ny), near[0], dtype=np.int32)
        grid[:, cut:] = far[0]
        return cls(region, grid, {near[0]: near[1], far[0]: far[1]})

    @classmethod
    def from_rects(cls, region: RegionSpec,
                   rects: list[tuple[int, int, int, int, int]],
                   partitions: dict[int, str]) -> "PartitionMap":
        """Build from (i0, j0, i1, j1, partition_id) microcell rectangles.

        Rectangles are half-open in cell units and applied in order; every
        cell must end up assigned.
        """
        grid = np.full((region.nx, region.ny), -1, dtype=np.int32)
        for i0, j0, i1, j1, pid in rects:
            grid[i0:i1, j0:j1] = pid
        if (grid < 0).any():
            raise ValueError("rectangles do not cover the region")
        return cls(region, grid, partitions)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def owner_of(self, x_m: float, y_m: float) -> int:
        i, j = self.region.microcell_of(x_m, y_m)
        return int(self._assignment[i, j])

    def owner_node(self, partition_id: int) -> str:
        return self.partitions[partition_id]

    def owners_xy(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Vectorized owner lookup; every position must be in the region."""
        if ((xs < 0) | (xs >= self.region.width_m)).any() or \
           ((ys < 0) | (ys >= self.region.depth_m)).any():
            raise OutOfRegion("position outside region")
        i = (xs // self.region.microcell_m).astype(np.int64)
        j = (ys // self.region.microcell_m).astype(np.int64)
        return self._assignment[i, j]


def detect_crossing(prev: tuple[float, float], nxt: tuple[float, float],
                    pmap: PartitionMap) -> Optional[tuple[int, int]]:
    """(from, to) partition pair if the move changes owner, else None."""
    a = pmap.owner_of(*prev)
    b = pmap.owner_of(*nxt)
    if a == b:
        return None
    return (a, b)


# ----------------------------------------------------------------------
# migration handshake
# ----------------------------------------------------------------------

IN_FLIGHT = "in_flight"
APPLIED = "applied"


@dataclass(slots=True)
class MigrationRecord:
    entity: int
    from_partition: int
    to_partition: int
    initiated_at_us: int
    token: int
    completed_at_us: Optional[int] = None
    state: str = IN_FLIGHT


class TransferMessage(NamedTuple):
    """Full entity state shipped to the gaining partition."""

    entity: int
    from_partition: int
    to_partition: int
    token: int
    state: dict[str, Any]


class MigrationAck(NamedTuple):
    entity: int
    token: int


class MigrationTracker:
    """Bookkeeping for one node's outbound migrations."""

    def __init__(self):
        self._in_flight: dict[int, MigrationRecord] = {}
        self._tokens = itertools.count()

    def begin_migration(self, entity: int, from_partition: int, to_partition: int,
                        now_us: int, state: dict[str, Any]) -> list[TransferMessage]:
        """Start the handshake; returns the messages to put on the wire.
        They carry ``state`` itself, which the caller must not change after."""
        if entity in self._in_flight:
            raise AlreadyMigrating(entity)
        token = next(self._tokens)
        self._in_flight[entity] = MigrationRecord(
            entity, from_partition, to_partition, now_us, token
        )
        return [TransferMessage(entity, from_partition, to_partition, token, state)]

    @staticmethod
    def acknowledge(transfer: TransferMessage) -> MigrationAck:
        """Ack built by the gaining side once it simulates the entity."""
        return MigrationAck(transfer.entity, transfer.token)

    def complete_migration(self, ack: MigrationAck, now_us: int) -> MigrationRecord:
        """Settle the record on ack arrival and return it; duplicate acks are unknown."""
        record = self._in_flight.get(ack.entity)
        if record is None or record.token != ack.token:
            raise UnknownMigration((ack.entity, ack.token))
        del self._in_flight[ack.entity]
        record.completed_at_us = now_us
        record.state = APPLIED
        return record

    def in_flight_count(self) -> int:
        return len(self._in_flight)
