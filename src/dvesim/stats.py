"""Correctness oracles and statistical checks for experiment runs.

Holds the closed-form expectations the benchmark is judged against (the
binomial bucket law and its combined multi-row form), the error metric
used to compare distributions, empirical-baseline capture from unstressed
runs, and the pass/fail specifications used to regression-check
non-functional metrics across repeated runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from .rules import above, check_fields, read_json, write_json

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


def rmse(observed: Sequence[float], baseline: Sequence[float]) -> float:
    """Root mean square error between two equally long bucket vectors."""
    obs = np.asarray(observed, dtype=float)
    base = np.asarray(baseline, dtype=float)
    if obs.shape != base.shape:
        raise LengthMismatch(f"{obs.shape} vs {base.shape}")
    diff = obs - base
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
        write_json(path, self.to_json_dict())

    @classmethod
    def load(cls, path) -> "EmpiricalBaseline":
        d = read_json(path, InvalidParameter, dict(
            geometry_hash="str", seeds=["int"], bucket_mean=["float"], bucket_sd=["float"],
            interval_mean_s="float", interval_sd_s="float", version="int"))
        return cls(
            geometry_hash=d["geometry_hash"],
            seeds=list(d["seeds"]),
            bucket_mean=np.asarray(d["bucket_mean"], dtype=float),
            bucket_sd=np.asarray(d["bucket_sd"], dtype=float),
            interval_mean_s=float(d["interval_mean_s"]),
            interval_sd_s=float(d["interval_sd_s"]),
            version=d["version"],
        )


def capture_baseline(runs: Sequence[dict]) -> EmpiricalBaseline:
    """Per-bucket and interval statistics over unstressed runs.

    Each run is a report.json dict, from ``load_report_summary`` or
    ``ExperimentReport.to_json_dict``.  Standard deviations are population
    deviations over the runs.
    """
    if len(runs) < 3:
        raise TooFewRuns(f"need at least 3 runs, got {len(runs)}")
    geometry_hashes = {r["geometry_hash"] for r in runs}
    if len(geometry_hashes) != 1:
        raise InvalidParameter(f"runs mix geometries: {sorted(geometry_hashes)}")
    for r in runs:
        if r["peak_load_proxy"] >= UNSTRESSED_LOAD_LIMIT:
            raise StressedRunIncluded(
                f"run seed={r['seed']} peaked at load {r['peak_load_proxy']:.2f}"
            )
    lengths = [len(r["histogram"]) for r in runs]
    if len(set(lengths)) != 1:
        raise InvalidParameter(f"runs' histograms differ in length: {lengths}")
    buckets = np.array([r["histogram"] for r in runs], dtype=float)
    if (buckets < 0).any():
        raise InvalidParameter("bucket counts must be non-negative")
    intervals = np.array([r["interval_mean_s"] for r in runs], dtype=float)
    return EmpiricalBaseline(
        geometry_hash=next(iter(geometry_hashes)),
        seeds=[r["seed"] for r in runs],
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
    max_cv: float = field(metadata=above(0))
    k: int

    def __post_init__(self):
        check_fields(RegressionSpec, vars(self), InvalidParameter)
        if self.lo > self.hi:
            raise InvalidParameter("window lo must be <= hi")
        if self.k < 3:
            raise InvalidParameter("need at least 3 samples")

    @classmethod
    def from_json_dict(cls, d: dict) -> "RegressionSpec":
        check_fields(cls, d, InvalidParameter, "spec.")
        for f in fields(cls):
            if f.name not in d:
                raise InvalidParameter(f"regression spec has no {f.name!r} field")
        return cls(**d)


@dataclass(frozen=True)
class Verdict:
    metric: str
    passed: bool
    reason: Optional[str]
    mean: float
    cv: Optional[float]


def check_regression(samples: Sequence[float], spec: RegressionSpec) -> Verdict:
    """Pass iff the sample mean is in-window and dispersion is in-bound."""
    if len(samples) != spec.k:
        raise WrongSampleCount(
            f"{spec.metric}: spec expects {spec.k} samples, got {len(samples)}")
    # exactly rounded, so equal samples have their own value as the mean and
    # a cv of 0; imported here, since a run has no other use for it.  It
    # takes finite samples only, and a NaN or an infinity fails every window
    from statistics import mean as exact_mean, pstdev
    xs = [float(x) for x in samples]
    if all(map(math.isfinite, xs)):
        mean, sd = exact_mean(xs), pstdev(xs)
    else:
        mean, sd = sum(xs) / len(xs), math.nan
    # population sd over the mean's magnitude; no cv divides by a zero mean
    cv = sd / abs(mean) if mean != 0 else None
    if not spec.lo <= mean <= spec.hi:
        return Verdict(spec.metric, False,
                       f"mean {mean:.6g} outside [{spec.lo:.6g}, {spec.hi:.6g}]",
                       mean, cv)
    if cv is not None and cv > spec.max_cv:
        return Verdict(spec.metric, False,
                       f"cv {cv:.4g} exceeds bound {spec.max_cv:.4g}", mean, cv)
    return Verdict(spec.metric, True, None, mean, cv)
