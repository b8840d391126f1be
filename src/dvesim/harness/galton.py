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

from dataclasses import asdict, dataclass, field, replace
from typing import Optional

import numpy as np

from ..actors import (
    DISPATCHER,
    SCRIPT,
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
from ..rules import SPAN, at_least, check_fields, content_hash, read_json, rules_of
from ..stats import EmpiricalBaseline, rmse, theoretical_distribution
from .report import ExperimentReport, NodeSeries, window_interval_means


class ConfigInvalid(ValueError):
    pass


class ConfigFile:
    """JSON round trip and content hash shared by the experiment configs.
    A config checks itself in ``__post_init__``: once built, it is valid."""

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict):
        check_fields(cls, d, ConfigInvalid)
        return cls(**d)

    @classmethod
    def from_file(cls, path):
        return cls.from_dict(read_json(path, ConfigInvalid))

    def config_hash(self) -> str:
        return content_hash(self.to_dict())


class BoundsDoNotBracket(ConfigInvalid):
    """The bisection bounds do not straddle the stability threshold."""


class ConservationViolation(AssertionError):
    """A sample tick found balls unaccounted for."""


TOPOLOGY_A = "A"
TOPOLOGY_B = "B"

SPLIT_CENTER_X = "center_x"
SPLIT_BETWEEN_BOXES = "between_boxes"

#: Runs count as real-time while the final-quarter mean interval stays
#: within this factor of the nominal descent time.
STABILITY_FACTOR = 1.1

#: bisection steps after the two bracket probes: a search makes 10 probes
BISECTION_STEPS = 8

#: config key -> the RegionSpec field it sets
REGION_FIELDS = {"region_width_m": "width_m", "region_depth_m": "depth_m",
                 "microcell_m": "microcell_m"}


@dataclass(frozen=True)
class GaltonExperimentConfig(ConfigFile):
    geometry: GaltonGeometry = field(default_factory=GaltonGeometry)
    topology: str = TOPOLOGY_A
    split: str = SPLIT_CENTER_X
    period_t_s: float = field(default=6.0, metadata=SPAN)
    capacity_c: int = field(default=6000, metadata=at_least(1))
    capacity_factor: float = 1.0
    tick_len_s: float = field(default=0.1, metadata=SPAN)
    duration_cap_s: float = field(default=21600.0, metadata=SPAN)
    epsilon_max_s: float = field(default=0.05, metadata=at_least(0))
    sample_period_s: float = field(default=5.0, metadata=SPAN)
    link_latency_s: float = field(default=0.001, metadata=at_least(0))
    #: a link serializes at whole bytes per second
    link_byte_rate: float = field(default=1_250_000.0, metadata=at_least(1))
    link_jitter_s: float = field(default=0.0, metadata=at_least(0))
    link_overrides: dict = field(default_factory=dict)
    message_sizes: dict = field(default_factory=dict)
    region_width_m: float = 256.0
    region_depth_m: float = 256.0
    microcell_m: float = 16.0
    #: numpy's SeedSequence takes no negative seed
    seed: int = field(default=0, metadata=at_least(0))

    def __post_init__(self):
        rules = rules_of(GaltonExperimentConfig)
        check_fields(rules, vars(self), ConfigInvalid)
        if self.topology not in (TOPOLOGY_A, TOPOLOGY_B):
            raise ConfigInvalid(f"unknown topology {self.topology!r}")
        if self.topology == TOPOLOGY_B and self.split not in (
                SPLIT_CENTER_X, SPLIT_BETWEEN_BOXES):
            raise ConfigInvalid(f"unknown split {self.split!r}")
        if self.effective_capacity < 1:
            raise ConfigInvalid("capacity_c * capacity_factor must round to >= 1")
        check_fields(dict.fromkeys(DEFAULT_MESSAGE_SIZES, ("int", at_least(1))),
                     self.message_sizes, ConfigInvalid, "message_sizes.")
        # a region key obeys the rule of the RegionSpec field it sets
        region_rules = rules_of(RegionSpec)
        check_fields({key: region_rules[name] for key, name in REGION_FIELDS.items()},
                     {key: getattr(self, key) for key in REGION_FIELDS}, ConfigInvalid)
        try:
            self.region()
        except ValueError as e:
            # what is left is the microcell multiple, which names width_m or depth_m
            raise ConfigInvalid(f"region_{e}") from e
        try:
            self.build_partition_map()
        except ValueError as e:
            # a split halves the region's width (center_x) or depth (between_boxes)
            key = "region_width_m" if self.split == SPLIT_CENTER_X else "region_depth_m"
            raise ConfigInvalid(f"{key}: the {e}") from e
        # the links come from the partition map, so overrides go last; an
        # override field obeys the rule of the config field it replaces
        override_rules = {name: rules[f"link_{name}"]
                          for name in ("latency_s", "byte_rate", "jitter_s")}
        link_keys = {k for src, dst in self.links() for k in _override_keys(src, dst)}
        for key, override in self.link_overrides.items():
            if key not in link_keys:
                raise ConfigInvalid(f"link_overrides key {key!r} names no link "
                                    f"of topology {self.topology}")
            check_fields(override_rules, override, ConfigInvalid,
                         f"link_overrides[{key!r}].")

    def region(self) -> RegionSpec:
        return RegionSpec(self.region_width_m, self.region_depth_m, self.microcell_m)

    @property
    def effective_capacity(self) -> int:
        return round(self.capacity_c * self.capacity_factor)

    def links(self) -> list[tuple[str, str]]:
        """(src, dst) of every link the topology wires, to and from each
        physics node of the partition map in partition order."""
        physics = self.build_partition_map().partitions.values()
        return ([(SCRIPT, DISPATCHER), (DISPATCHER, SCRIPT)]
                + [(DISPATCHER, p) for p in physics]
                + [(p, DISPATCHER) for p in physics])

    def build_partition_map(self) -> PartitionMap:
        """Partition 1 owns the region; topology B gives the split's high
        side to partition 2.  This names each partition's physics node."""
        region = self.region()
        low = (1, "physics-1")
        if self.topology == TOPOLOGY_A:
            return PartitionMap.single(region, *low)
        if self.split == SPLIT_CENTER_X:
            axis, at_m = 0, region.width_m / 2
        else:
            axis, at_m = 1, region.depth_m / 2
        return PartitionMap.split(region, axis, at_m, low, (2, "physics-2"))

    # ---- serialization -------------------------------------------------

    @classmethod
    def from_dict(cls, d: dict) -> "GaltonExperimentConfig":
        check_fields(cls, d, ConfigInvalid)
        geo = d.get("geometry", {})
        check_fields(GaltonGeometry, geo, ConfigInvalid, "geometry.")
        try:
            geometry = GaltonGeometry(**geo)
        except ValueError as e:
            raise ConfigInvalid(f"geometry.{e}") from e
        # outside the try: the config's own ConfigInvalid is a ValueError too
        return cls(**dict(d, geometry=geometry))


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
    geometry = config.geometry
    if baseline is not None:
        if baseline.geometry_hash != geometry.geometry_hash():
            raise ConfigInvalid("baseline was captured for a different geometry")
        sizes = (len(baseline.bucket_mean), len(baseline.bucket_sd))
        if sizes != (geometry.bucket_count,) * 2:
            raise ConfigInvalid(f"baseline bucket_mean and bucket_sd must hold "
                                f"{geometry.bucket_count} buckets each, got {sizes}")
    engine = Engine(seed=config.seed, epsilon_max_s=config.epsilon_max_s)
    network = Network(engine, config.message_sizes or None)
    pmap = config.build_partition_map()
    ledger = RunLedger(geometry.total_balls)

    for src, dst in config.links():
        latency, rate, jitter = _link_params(config, src, dst)
        network.add_link(src, dst, latency, rate, jitter_s=jitter)

    table = owner_table(geometry, pmap)
    script = ScriptActor(engine, network, table, geometry, config.period_t_s, ledger)
    dispatcher = DispatcherActor(network, pmap.partitions, table)
    physics = {}
    for pid, node in sorted(pmap.partitions.items()):
        physics[node] = PhysicsActor(node, pid, table, geometry,
                                     config.effective_capacity, config.tick_len_s,
                                     engine, network, ledger)
    network.register_handler(SCRIPT, script.on_message)
    network.register_handler(DISPATCHER, dispatcher.dispatcher_relay)
    for node, actor in physics.items():
        network.register_handler(node, actor.on_message)

    script.start()

    sample_us = seconds_to_us(config.sample_period_s)
    cap_us = seconds_to_us(config.duration_cap_s)
    node_order = [SCRIPT, DISPATCHER, *physics]
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
        if script.exhausted and ledger.collected == ledger.created:
            break
        if t >= cap_us:
            hit_cap = True
            break

    # a view, not a copy: nothing extends the ledger after the loop, and the
    # array('q') refuses to resize while the view holds its buffer
    collections = np.frombuffer(ledger.collections, dtype=np.int64).reshape(-1, 4)
    for pid, n in pmap.partitions.items():
        series[n].mean_interval_s = window_interval_means(collections, times_us, pid)
    end_time_s = t / 1e6
    expected = theoretical_distribution(geometry)
    histogram = np.bincount(collections[:, 3], minlength=geometry.bucket_count)
    interval_mean_s = float(collections[:, 1].mean() / 1e6) if len(collections) else float("nan")
    rmse_th = rmse(histogram, expected)
    rmse_base = None
    baseline_mean = baseline_sd = None
    if baseline is not None:
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

    report = ExperimentReport(
        config=config.to_dict(),
        times_s=[t_us / 1e6 for t_us in times_us],
        nodes=series,
        queue_samples=list(network.samples),
        link_totals=link_totals,
        histogram=histogram,
        created_total=ledger.created,
        collected_total=ledger.collected,
        collections=collections,
        interval_mean_s=interval_mean_s,
        peak_load_proxy=max(a.peak_load for a in physics.values()),
        peak_balls_in_scene=peak_balls,
        migrations_total=ledger.transfers_sent,
        migrated_unique=ledger.migrated_entities.count(1),
        rmse_theoretical=rmse_th,
        rmse_baseline=rmse_base,
        end_time_s=end_time_s,
        hit_cap=hit_cap,
        expected_theoretical=expected,
        baseline_mean=baseline_mean,
        baseline_sd=baseline_sd,
    )
    # the run's actors, engine and network hold each other through the
    # events and handlers: dropped, they go when this returns, not at the
    # cyclic collector's next full pass
    engine.clear()
    network.close()
    return report


# ----------------------------------------------------------------------
# scalability search
# ----------------------------------------------------------------------

@dataclass
class SearchResult:
    t_star_s: float
    probes: list[tuple[float, bool, Optional[float]]]


def max_sustainable_rate(config: GaltonExperimentConfig, t_lo_s: float,
                         t_hi_s: float) -> SearchResult:
    """Bisect the drop period for the fastest still-stable schedule.

    Requires the bracket to straddle stability: unstable at t_lo, stable at
    t_hi.  Returns the smallest stable period found after
    ``BISECTION_STEPS`` halvings of the bracket.
    """
    if not 0 < t_lo_s < t_hi_s:
        raise ConfigInvalid("need 0 < t_lo < t_hi")
    probes: list[tuple[float, bool, Optional[float]]] = []

    def probe(t: float) -> bool:
        report = run_galton(replace(config, period_t_s=t))
        mean = report.final_quarter_interval_mean()
        stable = (mean is not None
                  and mean <= STABILITY_FACTOR * config.geometry.nominal_descent_s)
        probes.append((t, stable, mean))
        return stable

    if not probe(t_hi_s):
        raise BoundsDoNotBracket(f"t_hi={t_hi_s} is not stable")
    if probe(t_lo_s):
        raise BoundsDoNotBracket(f"t_lo={t_lo_s} is already stable")
    lo, hi = t_lo_s, t_hi_s
    for _ in range(BISECTION_STEPS):
        mid = (lo + hi) / 2.0
        if probe(mid):
            hi = mid
        else:
            lo = mid
    return SearchResult(hi, probes)

