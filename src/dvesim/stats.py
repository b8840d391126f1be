"""Correctness oracles and statistical checks for experiment runs.

Holds the closed-form expectations the benchmark is judged against (the
binomial bucket law and its combined multi-row form), the error metric
used to compare distributions, empirical-baseline capture from unstressed
runs, and the pass/fail specifications used to regression-check
non-functional metrics across repeated runs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .actors import GaltonGeometry


class InvalidParameter(ValueError):
    """Bad input to a statistic; the CLI reports it as an input error."""


class LengthMismatch(ValueError):
    pass


class StressedRunIncluded(InvalidParameter):
    """A baseline can only be captured from unstressed runs."""


class TooFewRuns(InvalidParameter):
    pass


class WrongSampleCount(InvalidParameter):
    pass


#: Runs with peak load proxy at or above this are not baseline material.
UNSTRESSED_LOAD_LIMIT = 0.5


# ----------------------------------------------------------------------
# distribution theory
# ----------------------------------------------------------------------

def _two_sum(a: float, b: float) -> tuple[float, float]:
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def binomial_pmf(n: int, p: float) -> np.ndarray:
    """Binomial(n, p) probability mass function, entries k = 0..n.

    Computed in log space.  log k! is carried as a compensated double-double
    running sum because a single float cannot hold log(10000!) to the
    absolute precision the pmf needs; with the compensation the pmf sums to
    1 within 1e-12 for n up to 10^4.
    """
    if n < 0 or not isinstance(n, (int, np.integer)):
        raise InvalidParameter(f"n must be a non-negative integer, got {n!r}")
    if not 0.0 <= p <= 1.0:
        raise InvalidParameter(f"p must be in [0, 1], got {p!r}")
    if p == 0.0:
        out = np.zeros(n + 1)
        out[0] = 1.0
        return out
    if p == 1.0:
        out = np.zeros(n + 1)
        out[n] = 1.0
        return out
    lp, lq = math.log(p), math.log1p(-p)
    hi = np.empty(n + 1)
    lo = np.empty(n + 1)
    h = l = 0.0
    hi[0] = lo[0] = 0.0
    for i in range(1, n + 1):
        h, err = _two_sum(h, math.log(i))
        l += err
        hi[i] = h
        lo[i] = l
    out = np.empty(n + 1)
    for k in range(n + 1):
        c_hi = hi[n] - hi[k] - hi[n - k]
        c_lo = lo[n] - lo[k] - lo[n - k]
        out[k] = math.exp(c_hi + (c_lo + k * lp + (n - k) * lq))
    return out


def theoretical_distribution(geometry: "GaltonGeometry") -> np.ndarray:
    """Expected bucket counts for a geometry's full drop schedule.

    Each dropper row lands on a pure Binomial(n, 1/2) over n+1 buckets; the
    rows are offset sideways, so the combined expectation is the sum of
    shifted copies, one per row, scaled to the balls that row drops.
    """
    row_vec = geometry.balls_per_row * binomial_pmf(geometry.n_levels, 0.5)
    expected = np.zeros(geometry.bucket_count)
    for row in range(geometry.rows_per_box):
        offset = row * geometry.row_offset_buckets
        expected[offset:offset + len(row_vec)] += row_vec
    return expected


@dataclass
class BucketHistogram:
    """Observed bucket counts for one run."""

    counts: np.ndarray

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if (self.counts < 0).any():
            raise InvalidParameter("bucket counts must be non-negative")

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def __len__(self) -> int:
        return len(self.counts)


def rmse(observed: Sequence[float] | BucketHistogram,
         baseline: Sequence[float]) -> float:
    """Root mean square error between two equally long bucket vectors."""
    obs = observed.counts if isinstance(observed, BucketHistogram) else np.asarray(observed, dtype=float)
    base = np.asarray(baseline, dtype=float)
    if obs.shape != base.shape:
        raise LengthMismatch(f"{obs.shape} vs {base.shape}")
    diff = obs.astype(float) - base
    return float(np.sqrt(np.mean(diff * diff)))


# ----------------------------------------------------------------------
# empirical baselines
# ----------------------------------------------------------------------

@dataclass
class EmpiricalBaseline:
    """Reference measurements captured from unstressed runs.

    Comparisons between design variants are made against this, not against
    theory alone: the operating environment shifts even a correct system
    away from the closed form, so the reference must come from measuring
    the real artifact under a non-stressing workload.
    """

    geometry_hash: str
    seeds: list[int]
    bucket_mean: np.ndarray
    bucket_sd: np.ndarray
    interval_mean_s: float
    interval_sd_s: float
    version: int = 1

    def to_json_dict(self) -> dict:
        return {
            "version": self.version,
            "geometry_hash": self.geometry_hash,
            "seeds": list(self.seeds),
            "bucket_mean": [float(x) for x in self.bucket_mean],
            "bucket_sd": [float(x) for x in self.bucket_sd],
            "interval_mean_s": self.interval_mean_s,
            "interval_sd_s": self.interval_sd_s,
        }

    def save(self, path) -> None:
        with open(path, "w") as f:
            json.dump(self.to_json_dict(), f, indent=2, sort_keys=True)
            f.write("\n")

    @classmethod
    def load(cls, path) -> "EmpiricalBaseline":
        with open(path) as f:
            d = json.load(f)
        return cls(
            geometry_hash=d["geometry_hash"],
            seeds=[int(s) for s in d["seeds"]],
            bucket_mean=np.asarray(d["bucket_mean"], dtype=float),
            bucket_sd=np.asarray(d["bucket_sd"], dtype=float),
            interval_mean_s=float(d["interval_mean_s"]),
            interval_sd_s=float(d["interval_sd_s"]),
            version=int(d.get("version", 1)),
        )


def capture_baseline(runs: Sequence) -> EmpiricalBaseline:
    """Per-bucket and interval statistics over unstressed runs.

    Each run must expose histogram counts, a mean ball interval, its peak
    load proxy, geometry hash and seed (ExperimentReport does).  Standard
    deviations are population deviations over the runs.
    """
    if len(runs) < 3:
        raise TooFewRuns(f"need at least 3 runs, got {len(runs)}")
    geometry_hashes = {r.geometry_hash for r in runs}
    if len(geometry_hashes) != 1:
        raise InvalidParameter(f"runs mix geometries: {sorted(geometry_hashes)}")
    for r in runs:
        if r.peak_load_proxy >= UNSTRESSED_LOAD_LIMIT:
            raise StressedRunIncluded(
                f"run seed={r.seed} peaked at load {r.peak_load_proxy:.2f}"
            )
    buckets = np.stack([np.asarray(r.histogram.counts, dtype=float) for r in runs])
    intervals = np.array([r.interval_mean_s for r in runs], dtype=float)
    return EmpiricalBaseline(
        geometry_hash=next(iter(geometry_hashes)),
        seeds=[r.seed for r in runs],
        bucket_mean=buckets.mean(axis=0),
        bucket_sd=buckets.std(axis=0),
        interval_mean_s=float(intervals.mean()),
        interval_sd_s=float(intervals.std()),
    )


# ----------------------------------------------------------------------
# regression specifications
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class RegressionSpec:
    """Statistical pass window for a named non-functional metric.

    The mean of k repeated measurements must land inside [lo, hi], and the
    coefficient of variation must stay under max_cv.  A defect can show up
    purely as widened run-to-run variation, so dispersion is checked as a
    first-class property, not just the mean.
    """

    metric: str
    lo: float
    hi: float
    max_cv: float
    k: int

    def __post_init__(self):
        if self.lo > self.hi:
            raise InvalidParameter("window lo must be <= hi")
        if self.max_cv <= 0:
            raise InvalidParameter("max_cv must be positive")
        if self.k < 3:
            raise InvalidParameter("need at least 3 samples")

    def to_json_dict(self) -> dict:
        return {"metric": self.metric, "lo": self.lo, "hi": self.hi,
                "max_cv": self.max_cv, "k": self.k}

    @classmethod
    def from_json_dict(cls, d: dict) -> "RegressionSpec":
        for f in fields(cls):
            if f.name not in d:
                raise InvalidParameter(f"regression spec has no {f.name!r} field")
        return cls(metric=d["metric"], lo=float(d["lo"]), hi=float(d["hi"]),
                   max_cv=float(d["max_cv"]), k=int(d["k"]))


@dataclass(frozen=True)
class Verdict:
    metric: str
    passed: bool
    reason: Optional[str]
    mean: float
    cv: Optional[float]

    def __bool__(self) -> bool:
        return self.passed


def check_regression(samples: Sequence[float], spec: RegressionSpec) -> Verdict:
    """Pass iff the sample mean is in-window and dispersion is in-bound."""
    if len(samples) != spec.k:
        raise WrongSampleCount(
            f"{spec.metric}: spec expects {spec.k} samples, got {len(samples)}")
    xs = np.asarray(samples, dtype=float)
    mean = float(xs.mean())
    sd = float(xs.std())  # population sd
    if not spec.lo <= mean <= spec.hi:
        cv = sd / mean if mean != 0 else None
        return Verdict(spec.metric, False,
                       f"mean {mean:.6g} outside [{spec.lo:.6g}, {spec.hi:.6g}]",
                       mean, cv)
    if mean == 0.0:
        if spec.lo <= 0.0 <= spec.hi:
            return Verdict(spec.metric, True, None, mean, None)
        return Verdict(spec.metric, False, "mean is zero with nonzero window", mean, None)
    cv = sd / abs(mean)
    if cv > spec.max_cv:
        return Verdict(spec.metric, False,
                       f"cv {cv:.4g} exceeds bound {spec.max_cv:.4g}", mean, cv)
    return Verdict(spec.metric, True, None, mean, cv)


# ----------------------------------------------------------------------
# series shape checks
# ----------------------------------------------------------------------

def moving_average(series: Sequence[float], window: int) -> np.ndarray:
    """Centered moving average; the series must be at least one window long."""
    xs = np.asarray(series, dtype=float)
    if window < 1 or window > len(xs):
        raise InvalidParameter("window must be in [1, len(series)]")
    kernel = np.ones(window) / window
    return np.convolve(xs, kernel, mode="valid")


def is_convex_increasing(series: Sequence[float], smooth_window: int = 9,
                         tol_frac: float = 0.25) -> bool:
    """True if the smoothed series rises with non-negative curvature.

    Second differences of a sampled series wobble around zero even for an
    exactly linear ramp, so they are compared against a small tolerance
    scaled by the typical per-sample increment; a saturating (concave)
    series fails because its curvature is sustained, not noise-sized.
    """
    xs = moving_average(series, smooth_window)
    if len(xs) < 3:
        raise InvalidParameter("series too short after smoothing")
    diffs = np.diff(xs)
    if not (diffs > 0).all():
        return False
    tol = tol_frac * float(np.median(np.abs(diffs)))
    return bool((np.diff(diffs) >= -tol).all())


def increasing_trend(series: Sequence[float], ratio: float = 2.0) -> bool:
    """True if the series shows a strictly increasing trend.

    Checks both that concordant pairs dominate (a Mann-Kendall style sign
    statistic) and that the final level exceeds the initial level by the
    given ratio.
    """
    xs = np.asarray(series, dtype=float)
    if len(xs) < 4:
        raise InvalidParameter("series too short for a trend check")
    n = len(xs)
    s = 0
    for i in range(n - 1):
        s += int(np.sign(xs[i + 1:] - xs[i]).sum())
    pairs = n * (n - 1) // 2
    if s <= 0.5 * pairs:
        return False
    head = float(xs[: max(1, n // 10)].mean())
    tail = float(xs[-max(1, n // 10):].mean())
    return tail > ratio * max(head, 1.0)
