"""Run reports, export artifacts, and metric evaluation.

A report is a pure function of (configuration, seed): every series it
carries is sampled on a fixed cadence and every exported file is written
with canonical formatting, so re-running a configuration reproduces the
artifacts byte for byte.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from ..netsim import QueueSample
from ..stats import BucketHistogram, RegressionSpec, Verdict, check_regression


class UnknownMetric(KeyError):
    """A regression spec names a metric the report does not expose."""


@dataclass
class NodeSeries:
    balls_in_scene: list[Optional[int]] = field(default_factory=list)
    mean_interval_s: list[Optional[float]] = field(default_factory=list)
    load_proxy: list[Optional[float]] = field(default_factory=list)
    msgs_sent: list[int] = field(default_factory=list)
    msgs_recv: list[int] = field(default_factory=list)


def window_interval_means(collections: Sequence[tuple[int, int, str, int]],
                          times_us: Sequence[int],
                          node: Optional[str] = None) -> list[Optional[float]]:
    """Mean interval (s) of the balls collected in each sample window.

    Window i holds the collections with time in (times_us[i-1], times_us[i]];
    ``collections`` are (t_us, interval_us, node, bucket) in time order.
    With ``node`` only that node's collections count.  A window without
    collections has mean None.
    """
    rows = [c for c in collections if node is None or c[2] == node]
    means: list[Optional[float]] = []
    idx = 0
    for t_us in times_us:
        total = count = 0
        while idx < len(rows) and rows[idx][0] <= t_us:
            total += rows[idx][1]
            count += 1
            idx += 1
        means.append(total / count / 1e6 if count else None)
    return means


#: Scalar regression metric name -> the report.json key holding its value.
SCALAR_METRICS = {
    "interval_mean_s": "interval_mean_s",
    "rmse_theoretical": "rmse_theoretical",
    "rmse_baseline": "rmse_baseline",
    "peak_load_proxy": "peak_load_proxy",
    "peak_balls_in_scene": "peak_balls_in_scene",
    "collected_total": "collected_total",
    "discarded_total": "discarded",
    "created_total": "created_total",
    "migrations_total": "migrations_total",
    "end_time_s": "end_time_s",
}

#: ``final_queue_depth:<link>`` is the link's queue depth when the run ended.
QUEUE_DEPTH_METRIC = "final_queue_depth:"


def report_metric(data: dict, name: str) -> float:
    """Regression metric ``name`` of a run, read from its report.json dict."""
    if name.startswith(QUEUE_DEPTH_METRIC):
        link = name[len(QUEUE_DEPTH_METRIC):]
        totals = data["link_totals"].get(link)
        if totals is None:
            raise UnknownMetric(f"no link {link!r} in this run")
        # every message sent and not yet delivered is still queued
        return float(totals["sent_count"] - totals["delivered_count"])
    key = SCALAR_METRICS.get(name)
    if key is None:
        raise UnknownMetric(name)
    if data[key] is None:
        raise UnknownMetric(f"metric {name!r} not measured in this run")
    return float(data[key])


@dataclass
class ExperimentReport:
    """Everything measured in one benchmark run."""

    config: dict
    config_hash: str
    seed: int
    code_version: str
    geometry_hash: str
    nominal_descent_s: float
    times_s: list[float]
    nodes: dict[str, NodeSeries]
    physics_nodes: list[str]
    queue_samples: list[QueueSample]
    link_totals: dict[str, dict]
    histogram: BucketHistogram
    discarded: int
    created_total: int
    collected_total: int
    #: (t_us, interval_us, node, bucket) per collected ball, in time order
    collections: list[tuple[int, int, str, int]]
    interval_mean_s: float
    peak_load_proxy: float
    peak_balls_in_scene: int
    migrations_total: int
    migrated_unique: int
    rmse_theoretical: float
    rmse_baseline: Optional[float]
    end_time_s: float
    hit_cap: bool
    audit_ok: bool
    expected_theoretical: Optional[np.ndarray] = None
    baseline_mean: Optional[np.ndarray] = None
    baseline_sd: Optional[np.ndarray] = None
    verdicts: list[Verdict] = field(default_factory=list)

    # ---- series accessors ------------------------------------------------

    def physics_balls_series(self) -> list[int]:
        """Sum of actively simulated balls over the physics nodes, per sample."""
        out = []
        for i in range(len(self.times_s)):
            out.append(sum(self.nodes[n].balls_in_scene[i] or 0
                           for n in self.physics_nodes))
        return out

    def interval_series(self) -> tuple[list[float], list[Optional[float]]]:
        """Windowed mean interval per sample window (None when no landings)."""
        times_us = [round(t * 1_000_000) for t in self.times_s]
        return list(self.times_s), window_interval_means(self.collections, times_us)

    def queue_depth_series(self, link_id: str) -> tuple[list[float], list[int]]:
        times = [s.t_us / 1e6 for s in self.queue_samples if s.link_id == link_id]
        depths = [s.depth for s in self.queue_samples if s.link_id == link_id]
        return times, depths

    def intervals_in_window(self, t0_s: float, t1_s: float) -> np.ndarray:
        """Interval values (seconds) of balls collected in (t0, t1]."""
        lo = t0_s * 1e6
        hi = t1_s * 1e6
        return np.array([c[1] / 1e6 for c in self.collections if lo < c[0] <= hi])

    def final_quarter_interval_mean(self) -> Optional[float]:
        vals = self.intervals_in_window(0.75 * self.end_time_s, self.end_time_s)
        if len(vals) == 0:
            return None
        return float(vals.mean())

    def metric(self, name: str) -> float:
        """Scalar metric by name, for regression specifications."""
        return report_metric(self.to_json_dict(), name)

    # ---- json ---------------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "config": self.config,
            "config_hash": self.config_hash,
            "seed": self.seed,
            "code_version": self.code_version,
            "geometry_hash": self.geometry_hash,
            "nominal_descent_s": self.nominal_descent_s,
            "histogram": [int(c) for c in self.histogram.counts],
            "discarded": self.discarded,
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
            "audit_ok": self.audit_ok,
            "link_totals": self.link_totals,
            "verdicts": [asdict(v) for v in self.verdicts],
        }


# ----------------------------------------------------------------------
# evaluation
# ----------------------------------------------------------------------

def evaluate(reports, specs: Sequence[RegressionSpec]) -> list[Verdict]:
    """Check each spec against the named metric across the given runs.

    A spec with k samples needs k runs; a single report is the one-sample
    degenerate case.
    """
    if not isinstance(reports, (list, tuple)):
        reports = [reports]
    verdicts = []
    for spec in specs:
        samples = [r.metric(spec.metric) for r in reports]
        verdicts.append(check_regression(samples, spec))
    return verdicts


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
        for b in range(len(report.histogram.counts)):
            w.writerow([
                b,
                int(report.histogram.counts[b]),
                _fmt(expected[b] if expected is not None else None),
                _fmt(baseline_mean[b] if baseline_mean is not None else None),
                _fmt(baseline_sd[b] if baseline_sd is not None else None),
            ])
    written.append(hist_path)

    report_path = directory / "report.json"
    with open(report_path, "w") as f:
        json.dump(report.to_json_dict(), f, indent=2, sort_keys=True)
        f.write("\n")
    written.append(report_path)
    return written


def read_histogram_csv(path) -> BucketHistogram:
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    counts = np.zeros(len(rows), dtype=np.int64)
    for row in rows:
        counts[int(row["bucket_index"])] = int(row["observed"])
    return BucketHistogram(counts)


class ReportSummary:
    """Scalar view over an exported report.json.

    Supports baseline capture (histogram, interval, load, geometry, seed)
    and the same scalar metric names a live report exposes.
    """

    def __init__(self, data: dict):
        self._data = data
        self.histogram = BucketHistogram(np.asarray(data["histogram"], dtype=np.int64))
        self.interval_mean_s = data["interval_mean_s"]
        self.peak_load_proxy = data["peak_load_proxy"]
        self.geometry_hash = data["geometry_hash"]
        self.seed = data["seed"]

    def metric(self, name: str) -> float:
        return report_metric(self._data, name)


def load_report_summary(path) -> ReportSummary:
    """Load an exported report.json for baseline capture or regression checks."""
    with open(path) as f:
        return ReportSummary(json.load(f))
