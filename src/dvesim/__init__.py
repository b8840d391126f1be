"""Deterministic simulation of a partitioned distributed virtual environment.

The package models a multi-node world server: replicated scene state under
timestamp-based last-writer-wins resolution, microcell space partitioning
with object migration between physics nodes, and a simulated network whose
queue growth is observable.  On top of it sits a benchmark harness (a
pegboard drop experiment with known closed-form bucket statistics, plus a
login service-topology study) and a statistical regression checker for
non-functional metrics.
"""

__version__ = "0.1.0"

from . import actors, engine, netsim, partition, scene, stats
from .engine import Engine, NodeClock, RandomStream, SchedulingInPast
from .scene import (
    ApplyResult,
    DuplicateCreate,
    PropertyUpdate,
    SceneReplica,
    UnknownEntity,
    digest,
)
from .partition import (
    AlreadyMigrating,
    MigrationRecord,
    MigrationTracker,
    OutOfRegion,
    PartitionMap,
    RegionSpec,
    UnknownMigration,
    detect_crossing,
)
from .netsim import Link, Message, Network, QueueSample
from .actors import (
    Ball,
    DispatcherActor,
    GaltonGeometry,
    PhysicsActor,
    RunLedger,
    ScriptActor,
    descend_one_level,
)
from .stats import (
    BucketHistogram,
    EmpiricalBaseline,
    RegressionSpec,
    Verdict,
    binomial_pmf,
    capture_baseline,
    check_regression,
    rmse,
    theoretical_distribution,
)
