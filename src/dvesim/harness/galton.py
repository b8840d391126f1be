"""The pegboard benchmark: configuration, wiring, and the run loop.

Topology A runs one physics node over the whole region; topology B splits
the region into two partitions on separate physics nodes, either through
the middle of every box (`center_x`, the worst case: most balls migrate)
or between the boxes (`between_boxes`: zero border traffic).  All
cross-node traffic flows through the dispatcher over simulated links, and
every sample tick the run audits ball conservation across creation
queues, active sets, in-flight transfers and terminal states, and that
each physics node's replica holds exactly its active and ghosted balls.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Optional

import numpy as np

from .. import __version__ as _code_version
from ..actors import (
    DispatcherActor,
    GaltonGeometry,
    PhysicsActor,
    RunLedger,
    ScriptActor,
    owner_table,
)
from ..engine import Engine, seconds_to_us
from ..netsim import DEFAULT_MESSAGE_SIZES, Network
from ..partition import PartitionMap, RegionSpec
from ..stats import BucketHistogram, EmpiricalBaseline, rmse, theoretical_distribution
from .report import ExperimentReport, NodeSeries, window_interval_means


class ConfigInvalid(ValueError):
    pass


def check_keys(cls, d: dict, prefix: str = "") -> None:
    """Raise ConfigInvalid naming the first key of ``d`` that is no field of ``cls``."""
    known = {f.name for f in fields(cls)}
    for key in d:
        if key not in known:
            raise ConfigInvalid(f"unknown config key {prefix}{key}")


#: field annotation -> accepted value type; bool is no number here
_FIELD_TYPES = {"int": numbers.Integral, "float": numbers.Real, "str": str,
                "dict": dict}


def _wrong_type(value, want) -> bool:
    """True unless ``value`` is a ``want``; NaN and the infinities, which
    ``json`` reads from ``NaN`` and ``Infinity``, are no numbers here."""
    return (isinstance(value, bool) or not isinstance(value, want)
            or (isinstance(value, float) and not math.isfinite(value)))


def check_types(cls, d: dict, prefix: str = "") -> None:
    """Raise ConfigInvalid naming the first key of ``d`` whose value does not
    have the type its field of ``cls`` declares."""
    declared = {f.name: f.type for f in fields(cls)}
    for key, value in d.items():
        want = _FIELD_TYPES.get(declared.get(key))
        if want is not None and _wrong_type(value, want):
            raise ConfigInvalid(f"{prefix}{key} must be {declared[key]}, got {value!r}")


class BoundsDoNotBracket(ConfigInvalid):
    """The bisection bounds do not straddle the stability threshold."""


class ConservationViolation(AssertionError):
    """A sample tick found balls unaccounted for."""


SCRIPT = "script"
DISPATCHER = "dispatcher"

TOPOLOGY_A = "A"
TOPOLOGY_B = "B"

SPLIT_CENTER_X = "center_x"
SPLIT_BETWEEN_BOXES = "between_boxes"

#: Runs count as real-time while the final-quarter mean interval stays
#: within this factor of the nominal descent time.
STABILITY_FACTOR = 1.1


@dataclass(frozen=True)
class GaltonExperimentConfig:
    geometry: GaltonGeometry = field(default_factory=GaltonGeometry)
    topology: str = TOPOLOGY_A
    split: str = SPLIT_CENTER_X
    period_t_s: float = 6.0
    capacity_c: int = 6000
    capacity_factor: float = 1.0
    tick_len_s: float = 0.1
    duration_cap_s: float = 21600.0
    epsilon_max_s: float = 0.05
    sample_period_s: float = 5.0
    link_latency_s: float = 0.001
    link_byte_rate: float = 1_250_000.0
    link_jitter_s: float = 0.0
    link_overrides: dict = field(default_factory=dict)
    message_sizes: dict = field(default_factory=dict)
    region_width_m: float = 256.0
    region_depth_m: float = 256.0
    microcell_m: float = 16.0
    seed: int = 0

    def validate(self) -> None:
        check_types(type(self), vars(self))
        if self.topology not in (TOPOLOGY_A, TOPOLOGY_B):
            raise ConfigInvalid(f"unknown topology {self.topology!r}")
        if self.topology == TOPOLOGY_B and self.split not in (
                SPLIT_CENTER_X, SPLIT_BETWEEN_BOXES):
            raise ConfigInvalid(f"unknown split {self.split!r}")
        # the run counts whole microseconds, so each span must round to one
        for name in ("period_t_s", "tick_len_s", "sample_period_s", "duration_cap_s"):
            if seconds_to_us(getattr(self, name)) < 1:
                raise ConfigInvalid(f"{name} must be at least 1 microsecond")
        if self.capacity_c < 1:
            raise ConfigInvalid("capacity_c must be >= 1")
        if self.effective_capacity < 1:
            raise ConfigInvalid("capacity_c * capacity_factor must round to >= 1")
        for name in ("epsilon_max_s", "link_latency_s", "link_jitter_s"):
            if getattr(self, name) < 0:
                raise ConfigInvalid(f"{name} must be >= 0")
        if self.link_byte_rate < 1:
            raise ConfigInvalid("link_byte_rate must be >= 1 B/s")
        link_keys = {k for src, dst in self.links() for k in _override_keys(src, dst)}
        for key, override in self.link_overrides.items():
            if key not in link_keys:
                raise ConfigInvalid(f"link_overrides key {key!r} names no link "
                                    f"of topology {self.topology}")
            if not isinstance(override, dict):
                raise ConfigInvalid(f"link_overrides[{key!r}] must be a dict, "
                                    f"got {override!r}")
            for name, value in override.items():
                if name not in ("latency_s", "byte_rate", "jitter_s"):
                    raise ConfigInvalid(f"link_overrides[{key!r}]: unknown field {name!r}")
                if _wrong_type(value, numbers.Real):
                    raise ConfigInvalid(
                        f"link_overrides[{key!r}].{name} must be a number, got {value!r}")
                if value < 0 or (name == "byte_rate" and value < 1):
                    raise ConfigInvalid(
                        f"link_overrides[{key!r}].{name} out of range: {value!r}")
        for kind, size in self.message_sizes.items():
            if kind not in DEFAULT_MESSAGE_SIZES:
                raise ConfigInvalid(f"message_sizes: unknown message kind {kind!r}")
            if _wrong_type(size, numbers.Integral):
                raise ConfigInvalid(f"message_sizes[{kind!r}] must be an int, "
                                    f"got {size!r}")
            if size <= 0:
                raise ConfigInvalid(f"message_sizes[{kind!r}] must be positive")
        try:
            self.region()
        except ValueError as e:
            raise ConfigInvalid(str(e)) from e

    def region(self) -> RegionSpec:
        return RegionSpec(self.region_width_m, self.region_depth_m, self.microcell_m)

    @property
    def effective_capacity(self) -> int:
        return round(self.capacity_c * self.capacity_factor)

    def physics_nodes(self) -> list[str]:
        if self.topology == TOPOLOGY_A:
            return ["physics-1"]
        return ["physics-1", "physics-2"]

    def links(self) -> list[tuple[str, str]]:
        """(src, dst) of every link the topology wires."""
        physics_ids = self.physics_nodes()
        return ([(SCRIPT, DISPATCHER), (DISPATCHER, SCRIPT)]
                + [(DISPATCHER, p) for p in physics_ids]
                + [(p, DISPATCHER) for p in physics_ids])

    def build_partition_map(self) -> PartitionMap:
        region = self.region()
        if self.topology == TOPOLOGY_A:
            return PartitionMap.single(region, 1, "physics-1")
        if self.split == SPLIT_CENTER_X:
            axis, at_m = 0, region.width_m / 2
        else:
            axis, at_m = 1, region.depth_m / 2
        return PartitionMap.split(region, axis, at_m, (1, "physics-1"), (2, "physics-2"))

    # ---- serialization -------------------------------------------------

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "GaltonExperimentConfig":
        d = dict(d)
        geo = d.pop("geometry", {})
        check_keys(cls, d)
        if not isinstance(geo, dict):
            raise ConfigInvalid(f"geometry must be a dict, got {geo!r}")
        check_keys(GaltonGeometry, geo, "geometry.")
        check_types(GaltonGeometry, geo, "geometry.")
        try:
            geometry = GaltonGeometry(**geo)
        except ValueError as e:
            raise ConfigInvalid(f"geometry.{e}") from e
        cfg = cls(geometry=geometry, **d)
        cfg.validate()
        return cfg

    @classmethod
    def from_file(cls, path) -> "GaltonExperimentConfig":
        with open(path) as f:
            return cls.from_dict(json.load(f))

    def config_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


# ----------------------------------------------------------------------
# wiring and run loop
# ----------------------------------------------------------------------

def _override_keys(src: str, dst: str) -> list[str]:
    """Override keys that apply to the src->dst link, most specific first.

    Keys: exact "src->dst", or the class keys "dispatcher->physics" /
    "physics->dispatcher" covering every physics node.
    """
    keys = [f"{src}->{dst}"]
    if src == DISPATCHER and dst.startswith("physics"):
        keys.append("dispatcher->physics")
    if src.startswith("physics") and dst == DISPATCHER:
        keys.append("physics->dispatcher")
    return keys


def _link_params(config: GaltonExperimentConfig, src: str,
                 dst: str) -> tuple[float, float, float]:
    """Latency, byte rate and jitter for a link, honouring the first override
    among ``_override_keys(src, dst)``."""
    latency = config.link_latency_s
    rate = config.link_byte_rate
    jitter = config.link_jitter_s
    for key in _override_keys(src, dst):
        o = config.link_overrides.get(key)
        if o:
            latency = o.get("latency_s", latency)
            rate = o.get("byte_rate", rate)
            jitter = o.get("jitter_s", jitter)
            break
    return latency, rate, jitter


def run_galton(config: GaltonExperimentConfig,
               baseline: Optional[EmpiricalBaseline] = None) -> ExperimentReport:
    """Run one benchmark experiment to completion or the duration cap."""
    config.validate()
    geometry = config.geometry
    engine = Engine(seed=config.seed, epsilon_max_s=config.epsilon_max_s)
    network = Network(engine, config.message_sizes or None)
    pmap = config.build_partition_map()
    ledger = RunLedger(geometry.bucket_count)

    physics_ids = config.physics_nodes()
    for src, dst in config.links():
        latency, rate, jitter = _link_params(config, src, dst)
        network.add_link(src, dst, latency, rate, jitter_s=jitter)

    script = ScriptActor(SCRIPT, engine, network, DISPATCHER, geometry,
                         config.period_t_s, ledger)
    table = owner_table(geometry, pmap)
    dispatcher = DispatcherActor(DISPATCHER, network, pmap.partitions, table, SCRIPT)
    physics = {}
    for pid, node in sorted(pmap.partitions.items()):
        physics[node] = PhysicsActor(node, pid, table, geometry,
                                     config.effective_capacity, config.tick_len_s,
                                     engine, network, DISPATCHER, ledger)
    network.register_handler(SCRIPT, script.on_message)
    network.register_handler(DISPATCHER, dispatcher.dispatcher_relay)
    for node, actor in physics.items():
        network.register_handler(node, actor.on_message)

    script.start()

    sample_us = seconds_to_us(config.sample_period_s)
    cap_us = seconds_to_us(config.duration_cap_s)
    node_order = [SCRIPT, DISPATCHER] + physics_ids
    series = {n: NodeSeries() for n in node_order}
    # a node's traffic is what its links carried: sent on its outgoing
    # links, delivered on its incoming ones; the script's received count
    # is exported as 0
    links = network.links()
    outgoing = {n: [link for link in links if link.from_node == n] for n in node_order}
    incoming = {n: [link for link in links if link.to_node == n] for n in node_order}
    incoming[SCRIPT] = []
    times_us: list[int] = []
    peak_balls = 0
    hit_cap = False
    t = 0

    while True:
        t = min(t + sample_us, cap_us)
        engine.run_until(t)
        times_us.append(t)
        network.sample_queues(t)
        for n in node_order:
            s = series[n]
            if n == SCRIPT:
                s.balls_in_scene.append(script.replica.live_count())
                s.load_proxy.append(None)
                s.mean_interval_s.append(None)
            elif n == DISPATCHER:
                s.balls_in_scene.append(None)
                s.load_proxy.append(None)
                s.mean_interval_s.append(None)
            else:
                actor = physics[n]
                s.balls_in_scene.append(actor.active_count)
                s.load_proxy.append(actor.load_proxy)
            s.msgs_sent.append(sum(link.sent_count for link in outgoing[n]))
            s.msgs_recv.append(sum(link.delivered_count for link in incoming[n]))
        falling = sum(a.active_count for a in physics.values())
        peak_balls = max(peak_balls, falling)
        if not ledger.conservation_holds(falling):
            raise ConservationViolation(
                f"t={t/1e6}s: created={ledger.created} != pending="
                f"{ledger.pending_creates} + falling={falling} + in_flight="
                f"{ledger.transfers_in_flight} + collected={ledger.collected}"
                f" + discarded={ledger.discarded}"
            )
        ghosts = sum(a.ghost_count for a in physics.values())
        acked = ledger.migrations_completed
        if ghosts != ledger.transfers_sent - acked:
            raise ConservationViolation(
                f"t={t/1e6}s: {ghosts} ghosts vs "
                f"{ledger.transfers_sent - acked} unacked transfers"
            )
        for n, a in physics.items():
            if a.replica.live_count() != a.active_count + a.ghost_count:
                raise ConservationViolation(
                    f"t={t/1e6}s: {n} replica holds {a.replica.live_count()} live "
                    f"balls vs {a.active_count + a.ghost_count} active or ghosted"
                )
        done = (script.exhausted
                and ledger.collected + ledger.discarded == ledger.created)
        if done:
            break
        if t >= cap_us:
            hit_cap = True
            break

    for n in physics_ids:
        series[n].mean_interval_s = window_interval_means(ledger.collections,
                                                          times_us, n)
    end_time_s = t / 1e6
    expected = theoretical_distribution(geometry)
    histogram = BucketHistogram(ledger.histogram)
    intervals = np.array([c[1] for c in ledger.collections], dtype=float)
    interval_mean_s = float(intervals.mean() / 1e6) if len(intervals) else float("nan")
    rmse_th = rmse(histogram, expected)
    rmse_base = None
    baseline_mean = baseline_sd = None
    if baseline is not None:
        if baseline.geometry_hash != geometry.geometry_hash():
            raise ConfigInvalid("baseline was captured for a different geometry")
        rmse_base = rmse(histogram, baseline.bucket_mean)
        baseline_mean = baseline.bucket_mean
        baseline_sd = baseline.bucket_sd

    link_totals = {
        link.link_id: {
            "sent_count": link.sent_count,
            "delivered_count": link.delivered_count,
            "sent_bytes": link.sent_bytes,
            "delivered_bytes": link.delivered_bytes,
        }
        for link in network.links()
    }

    return ExperimentReport(
        config=config.to_dict(),
        config_hash=config.config_hash(),
        seed=config.seed,
        code_version=_code_version,
        geometry_hash=geometry.geometry_hash(),
        nominal_descent_s=geometry.nominal_descent_s,
        times_s=[t_us / 1e6 for t_us in times_us],
        nodes=series,
        physics_nodes=physics_ids,
        queue_samples=list(network.samples),
        link_totals=link_totals,
        histogram=histogram,
        discarded=ledger.discarded,
        created_total=ledger.created,
        collected_total=ledger.collected,
        collections=list(ledger.collections),
        interval_mean_s=interval_mean_s,
        peak_load_proxy=max(a.peak_load for a in physics.values()),
        peak_balls_in_scene=peak_balls,
        migrations_total=ledger.transfers_sent,
        migrated_unique=len(ledger.migrated_entities),
        rmse_theoretical=rmse_th,
        rmse_baseline=rmse_base,
        end_time_s=end_time_s,
        hit_cap=hit_cap,
        audit_ok=True,
        expected_theoretical=expected,
        baseline_mean=baseline_mean,
        baseline_sd=baseline_sd,
    )


def run_galton_series(config: GaltonExperimentConfig, seeds: list[int],
                      capacity_jitter_frac: float = 0.0) -> list[ExperimentReport]:
    """Repeat a configuration over seeds, optionally jittering capacity.

    Jitter applies evenly spaced per-run factors spanning
    1 +- capacity_jitter_frac, so "+-50% per run" means the k runs cover
    0.5x .. 1.5x capacity deterministically.
    """
    reports = []
    k = len(seeds)
    for i, seed in enumerate(seeds):
        factor = 1.0
        if capacity_jitter_frac and k > 1:
            factor = 1.0 + capacity_jitter_frac * (2.0 * i / (k - 1) - 1.0)
        cfg = replace(config, seed=seed, capacity_factor=config.capacity_factor * factor)
        reports.append(run_galton(cfg))
    return reports


# ----------------------------------------------------------------------
# scalability search
# ----------------------------------------------------------------------

@dataclass
class SearchResult:
    t_star_s: float
    probes: list[tuple[float, bool, Optional[float]]]


def _is_stable(report: ExperimentReport) -> bool:
    """Real-time predicate: final-quarter mean interval within
    STABILITY_FACTOR x nominal."""
    mean = report.final_quarter_interval_mean()
    if mean is None:
        return False
    return mean <= STABILITY_FACTOR * report.nominal_descent_s


def max_sustainable_rate(config: GaltonExperimentConfig, t_lo_s: float,
                         t_hi_s: float, iterations: int = 8) -> SearchResult:
    """Bisect the drop period for the fastest still-stable schedule.

    Requires the bracket to straddle stability: unstable at t_lo, stable at
    t_hi.  Returns the smallest stable period found.
    """
    if not 0 < t_lo_s < t_hi_s:
        raise ConfigInvalid("need 0 < t_lo < t_hi")
    if iterations < 8:
        raise ConfigInvalid("at least 8 bisection iterations required")
    probes: list[tuple[float, bool, Optional[float]]] = []

    def probe(t: float) -> bool:
        report = run_galton(replace(config, period_t_s=t))
        stable = _is_stable(report)
        probes.append((t, stable, report.final_quarter_interval_mean()))
        return stable

    if not probe(t_hi_s):
        raise BoundsDoNotBracket(f"t_hi={t_hi_s} is not stable")
    if probe(t_lo_s):
        raise BoundsDoNotBracket(f"t_lo={t_lo_s} is already stable")
    lo, hi = t_lo_s, t_hi_s
    for _ in range(iterations):
        mid = (lo + hi) / 2.0
        if probe(mid):
            hi = mid
        else:
            lo = mid
    return SearchResult(hi, probes)


def rmse_envelope(config: GaltonExperimentConfig, seeds: list[int],
                  quantile: float = 0.99) -> tuple[float, list[float]]:
    """Monte Carlo acceptance envelope: RMSE quantile over unstressed runs."""
    values = []
    for seed in seeds:
        report = run_galton(replace(config, seed=seed))
        values.append(report.rmse_theoretical)
    return float(np.quantile(values, quantile)), values
