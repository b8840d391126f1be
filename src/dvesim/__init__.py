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
