"""Run reports, export artifacts, and metric evaluation.

A report is a pure function of (configuration, seed): every series it
carries is sampled on a fixed cadence and every exported file is written
with canonical formatting, so re-running a configuration reproduces the
artifacts byte for byte.
"""

from __future__ import annotations

import csv
import reprlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .. import __version__
from ..netsim import QueueSample
from ..rules import content_hash, is_a, read_json, write_json
from ..stats import InvalidParameter, RegressionSpec, Verdict, check_regression


class UnknownMetric(KeyError):
    """A regression spec names a metric the report does not expose."""


@dataclass
class NodeSeries:
    balls_in_scene: list[Optional[int]] = field(default_factory=list)
    mean_interval_s: list[Optional[float]] = field(default_factory=list)
    load_proxy: list[Optional[float]] = field(default_factory=list)
    msgs_sent: list[int] = field(default_factory=list)
    msgs_recv: list[int] = field(default_factory=list)


def window_interval_means(collections: np.ndarray, times_us: Sequence[int],
                          partition: int) -> list[Optional[float]]:
    """Mean interval (s) of a partition's balls collected in each window.

    Window i holds the collections with time in (times_us[i-1], times_us[i]];
    ``collections`` is an (n, 4) int64 array of (t_us, interval_us,
    partition id, bucket) rows in time order, and ``times_us`` rises.  Only
    the partition's collections count.  A window's mean is its integer
    interval sum over its count; without collections it is None.
    """
    mine = collections[:, 2] == partition
    t_us, interval_us = collections[mine, 0], collections[mine, 1]
    ends = np.searchsorted(t_us, times_us, side="right")
    totals = np.diff(np.concatenate(([0], np.cumsum(interval_us)))[ends], prepend=0)
    counts = np.diff(ends, prepend=0)
    return [total / count / 1e6 if count else None
            for total, count in zip(totals.tolist(), counts.tolist())]


#: The scalar regression metrics, each named by the report.json key holding it.
SCALAR_METRICS = ("interval_mean_s", "rmse_theoretical", "rmse_baseline",
                  "peak_load_proxy", "peak_balls_in_scene", "collected_total",
                  "created_total", "migrations_total", "end_time_s")

#: ``final_queue_depth:<link>`` is the link's queue depth when the run ended.
QUEUE_DEPTH_METRIC = "final_queue_depth:"


def report_metric(data: dict, name: str) -> float:
    """Regression metric ``name`` of a run, read from its report.json dict."""
    if name.startswith(QUEUE_DEPTH_METRIC):
        link = name[len(QUEUE_DEPTH_METRIC):]
        links = data.get("link_totals", {})
        if not isinstance(links, dict):
            raise InvalidParameter(f"link_totals must be a dict, got {reprlib.repr(links)}")
        totals = links.get(link)
        if totals is None:
            raise UnknownMetric(f"no link {link!r} in this run")
        if not (isinstance(totals, dict) and all(
                is_a(totals.get(key), "int") for key in ("sent_count", "delivered_count"))):
            raise InvalidParameter(f"link {link!r} must hold int sent_count and "
                                   f"delivered_count, got {reprlib.repr(totals)}")
        # every message sent and not yet delivered is still queued
        return float(totals["sent_count"] - totals["delivered_count"])
    if name not in SCALAR_METRICS:
        raise UnknownMetric(f"unknown metric {name!r}")
    value = data.get(name)
    if value is None:
        raise UnknownMetric(f"metric {name!r} not measured in this run")
    if not is_a(value, "float"):
        raise InvalidParameter(f"metric {name!r} must be a number, got {value!r}")
    return float(value)


@dataclass
class ExperimentReport:
    """Everything measured in one benchmark run, under the config it ran."""

    config: dict
    times_s: list[float]
    nodes: dict[str, NodeSeries]
    queue_samples: list[QueueSample]
    link_totals: dict[str, dict]
    #: int64 observed count per bucket
    histogram: np.ndarray
    created_total: int
    collected_total: int
    #: (n, 4) int64: t_us, interval_us, partition id, bucket per collection
    collections: np.ndarray
    interval_mean_s: float
    peak_load_proxy: float
    peak_balls_in_scene: int
    migrations_total: int
    migrated_unique: int
    rmse_theoretical: float
    rmse_baseline: Optional[float]
    end_time_s: float
    hit_cap: bool
    expected_theoretical: Optional[np.ndarray] = None
    baseline_mean: Optional[np.ndarray] = None
    baseline_sd: Optional[np.ndarray] = None

    # ---- collection windows -------------------------------------------------

    def intervals_in_window(self, t0_s: float, t1_s: float) -> np.ndarray:
        """Interval values (seconds) of balls collected in (t0, t1]."""
        t_us = self.collections[:, 0]
        return self.collections[(t0_s * 1e6 < t_us) & (t_us <= t1_s * 1e6), 1] / 1e6

    def final_quarter_interval_mean(self) -> Optional[float]:
        vals = self.intervals_in_window(0.75 * self.end_time_s, self.end_time_s)
        if len(vals) == 0:
            return None
        return float(vals.mean())

    # ---- json ---------------------------------------------------------------

    def to_json_dict(self) -> dict:
        geometry = self.config["geometry"]
        return {
            "config": self.config,
            # the config's and the geometry's own hashes: to_dict is asdict
            "config_hash": content_hash(self.config),
            "seed": self.config["seed"],
            "code_version": __version__,
            "geometry_hash": content_hash(geometry),
            "nominal_descent_s": geometry["nominal_descent_s"],
            "histogram": self.histogram.tolist(),
            # no ball leaves the board; the key stays for the pinned bytes
            "discarded": 0,
            "created_total": self.created_total,
            "collected_total": self.collected_total,
            "interval_mean_s": self.interval_mean_s,
            "peak_load_proxy": self.peak_load_proxy,
            "peak_balls_in_scene": self.peak_balls_in_scene,
            "migrations_total": self.migrations_total,
            "migrated_unique": self.migrated_unique,
            "rmse_theoretical": self.rmse_theoretical,
            "rmse_baseline": self.rmse_baseline,
            "end_time_s": self.end_time_s,
            "hit_cap": self.hit_cap,
            # a run whose audit fails raises ConservationViolation instead
            "audit_ok": True,
            "link_totals": self.link_totals,
            "verdicts": [],
        }


# ----------------------------------------------------------------------
# evaluation
# ----------------------------------------------------------------------

def evaluate(reports: Sequence[dict], specs: Sequence[RegressionSpec]) -> list[Verdict]:
    """Check each spec against the named metric across the given runs, each
    a report.json dict (from ``load_report_summary`` or
    ``ExperimentReport.to_json_dict``); a spec with k samples needs k runs."""
    return [check_regression([report_metric(r, spec.metric) for r in reports], spec)
            for spec in specs]


# ----------------------------------------------------------------------
# export artifacts
# ----------------------------------------------------------------------

def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def export(report: ExperimentReport, directory) -> list[Path]:
    """Write the run artifacts; identical reports produce identical bytes."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []

    metrics_path = directory / "metrics.csv"
    with open(metrics_path, "w", newline="\n") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["sim_time_s", "node_id", "balls_in_scene", "mean_interval_s",
                    "load_proxy", "msgs_sent", "msgs_recv"])
        for i, t in enumerate(report.times_s):
            for node in sorted(report.nodes):
                s = report.nodes[node]
                w.writerow([_fmt(t), node, _fmt(s.balls_in_scene[i]),
                            _fmt(s.mean_interval_s[i]), _fmt(s.load_proxy[i]),
                            _fmt(s.msgs_sent[i]), _fmt(s.msgs_recv[i])])
    written.append(metrics_path)

    queues_path = directory / "queues.csv"
    with open(queues_path, "w", newline="\n") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["sim_time_s", "link_id", "depth", "bytes_pending"])
        for s in report.queue_samples:
            w.writerow([_fmt(s.t_us / 1e6), s.link_id, s.depth, s.bytes_pending])
    written.append(queues_path)

    hist_path = directory / "histogram.csv"
    baseline_mean = report.baseline_mean
    baseline_sd = report.baseline_sd
    expected = report.expected_theoretical
    with open(hist_path, "w", newline="\n") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["bucket_index", "observed", "expected_theoretical",
                    "baseline_mean", "baseline_sd"])
        for b, observed in enumerate(report.histogram.tolist()):
            w.writerow([
                b,
                observed,
                _fmt(expected[b] if expected is not None else None),
                _fmt(baseline_mean[b] if baseline_mean is not None else None),
                _fmt(baseline_sd[b] if baseline_sd is not None else None),
            ])
    written.append(hist_path)

    report_path = directory / "report.json"
    write_json(report_path, report.to_json_dict())
    written.append(report_path)
    return written


def load_report_summary(path) -> dict:
    """An exported report.json, for ``capture_baseline`` and ``evaluate``,
    checked to hold the keys a baseline is captured from."""
    return read_json(path, InvalidParameter, dict(
        histogram=["int"], interval_mean_s="float", peak_load_proxy="float",
        geometry_hash="str", seed="int"))
