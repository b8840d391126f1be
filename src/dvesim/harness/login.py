"""Login service-topology study under a deterministic cost model.

A client logs into a space simulation server backed by a central resource
server.  In the proxied topology the space server forwards every inventory
and asset request on the client's behalf and pays a per-request cost; with
a dedicated inventory server the client fetches inventory folders directly
and the space server pays nothing for them.  Authentication always goes to
the central server directly.  Inventory retrieval issues one request per
folder, breadth-first; processing load accrues in abstract units per
request, so topology effects are exact rather than estimated.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from ..engine import Engine, seconds_to_us
from ..netsim import Message, Network
from .galton import ConfigInvalid, check_keys, check_types

CLIENT = "client"
SIM = "sim"
CENTRAL = "central"
INVENTORY = "inventory"

TOPOLOGY_PROXIED = "proxied"
TOPOLOGY_DEDICATED = "dedicated_inventory"

# Table-driven presets for the study's light/heavy factor levels.
LIGHT_INVENTORY = (0, 0)            # folders, items
HEAVY_INVENTORY = (8977, 31986)
LIGHT_SCENE = (2, 2)                # objects, assets
HEAVY_SCENE = (238, 1171)
LIGHT_AVATAR_COST = 10.0
HEAVY_AVATAR_COST = 33.0            # scaled by the avatar payload ratio


@dataclass(frozen=True)
class LoginExperimentConfig:
    topology: str = TOPOLOGY_PROXIED
    inventory_folders: int = 0
    inventory_items: int = 0
    scene_objects: int = 2
    scene_assets: int = 2
    avatar_cost: float = LIGHT_AVATAR_COST
    proxy_cost: float = 1.0
    central_serve_cost: float = 0.5
    inventory_serve_cost: float = 0.5
    per_asset_cost: float = 0.2
    sim_proxy_delay_s: float = 0.002
    central_delay_s: float = 0.003
    inventory_delay_s: float = 0.003
    run_length_s: float = 600.0
    repeats: int = 5
    link_latency_s: float = 0.001
    link_byte_rate: float = 1_250_000.0
    seed: int = 0

    def validate(self) -> None:
        check_types(type(self), vars(self))
        if self.topology not in (TOPOLOGY_PROXIED, TOPOLOGY_DEDICATED):
            raise ConfigInvalid(f"unknown topology {self.topology!r}")
        for name in ("inventory_folders", "inventory_items", "scene_objects",
                     "scene_assets", "repeats"):
            if getattr(self, name) < 0:
                raise ConfigInvalid(f"{name} must be >= 0")
        if self.repeats < 1:
            raise ConfigInvalid("repeats must be >= 1")
        if self.run_length_s <= 0:
            raise ConfigInvalid("run_length_s must be positive")
        for name in ("sim_proxy_delay_s", "central_delay_s", "inventory_delay_s",
                     "link_latency_s"):
            if getattr(self, name) < 0:
                raise ConfigInvalid(f"{name} must be >= 0")
        if self.link_byte_rate < 1:
            raise ConfigInvalid("link_byte_rate must be >= 1 B/s")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "LoginExperimentConfig":
        check_keys(cls, d)
        cfg = cls(**d)
        cfg.validate()
        return cfg

    @classmethod
    def from_file(cls, path) -> "LoginExperimentConfig":
        with open(path) as f:
            return cls.from_dict(json.load(f))

    def config_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class _Request:
    category: str       # auth | avatar | folder | asset
    index: int
    origin: str         # node the response chain ends at
    via: Optional[str]  # proxy node for the return path, if any


@dataclass(frozen=True)
class _Response:
    category: str
    index: int
    origin: str


class _Server:
    """A backend role: accrues cost per request and answers after a delay."""

    def __init__(self, node_id: str, engine: Engine, network: Network,
                 serve_cost: float, serve_delay_s: float):
        self.node_id = node_id
        self.engine = engine
        self.network = network
        self.serve_cost = serve_cost
        self.serve_delay_us = seconds_to_us(serve_delay_s)
        self.units = 0.0
        self.total_requests = 0
        self.inventory_requests = 0

    def on_message(self, msg: Message) -> None:
        req: _Request = msg.payload
        self.total_requests += 1
        if req.category == "folder":
            self.inventory_requests += 1
        self.units += self.serve_cost
        reply_to = req.via if req.via is not None else req.origin
        response = _Response(req.category, req.index, req.origin)
        self.engine.schedule(
            self.engine.now_us + self.serve_delay_us, self.node_id, "serve",
            lambda: self.network.send(self.node_id, reply_to, "response", response),
        )


class _SpaceServer:
    """The region server: proxies backend requests and hosts the avatar."""

    def __init__(self, engine: Engine, network: Network,
                 config: LoginExperimentConfig):
        self.node_id = SIM
        self.engine = engine
        self.network = network
        self.config = config
        self.units = 0.0
        self.total_requests = 0
        self.inventory_requests = 0
        self.proxy_delay_us = seconds_to_us(config.sim_proxy_delay_s)

    def on_message(self, msg: Message) -> None:
        payload = msg.payload
        if isinstance(payload, _Response):
            # backend answer on its way to the client; relaying is free
            self.network.send(self.node_id, payload.origin, "response", payload)
            return
        req: _Request = payload
        self.total_requests += 1
        if req.category == "avatar":
            self.units += self.config.avatar_cost
            response = _Response(req.category, req.index, req.origin)
            self.network.send(self.node_id, req.origin, "response", response)
            return
        # proxied backend request
        self.units += self.config.proxy_cost
        if req.category == "folder":
            self.inventory_requests += 1
        elif req.category == "asset":
            self.units += self.config.per_asset_cost
        forwarded = _Request(req.category, req.index, req.origin, self.node_id)
        self.engine.schedule(
            self.engine.now_us + self.proxy_delay_us, self.node_id, "proxy",
            lambda: self.network.send(self.node_id, CENTRAL, "request", forwarded),
        )


class _Client:
    """Drives the login sequence: auth, avatar, then folder and asset chains."""

    def __init__(self, engine: Engine, network: Network,
                 config: LoginExperimentConfig):
        self.node_id = CLIENT
        self.engine = engine
        self.network = network
        self.config = config
        self.folders_done = 0
        self.assets_done = 0
        self.inventory_done_s: Optional[float] = None
        self.assets_done_s: Optional[float] = None

    def start(self) -> None:
        self.engine.schedule(0, self.node_id, "login", self._send_auth)

    def _send_auth(self) -> None:
        # the only direct client contact with the central server
        self.network.send(CLIENT, CENTRAL, "request",
                          _Request("auth", 0, CLIENT, None))

    def _send_folder(self, index: int) -> None:
        target = SIM if self.config.topology == TOPOLOGY_PROXIED else INVENTORY
        self.network.send(CLIENT, target, "request",
                          _Request("folder", index, CLIENT, None))

    def _send_asset(self, index: int) -> None:
        self.network.send(CLIENT, SIM, "request",
                          _Request("asset", index, CLIENT, None))

    def on_message(self, msg: Message) -> None:
        resp: _Response = msg.payload
        if resp.category == "auth":
            self.network.send(CLIENT, SIM, "request",
                              _Request("avatar", 0, CLIENT, None))
        elif resp.category == "avatar":
            # inventory folders and scene assets retrieve concurrently,
            # each as a sequential breadth-first chain
            if self.config.inventory_folders > 0:
                self._send_folder(0)
            else:
                self.inventory_done_s = self.engine.now_s
            if self.config.scene_assets > 0:
                self._send_asset(0)
            else:
                self.assets_done_s = self.engine.now_s
        elif resp.category == "folder":
            self.folders_done += 1
            if self.folders_done < self.config.inventory_folders:
                self._send_folder(self.folders_done)
            else:
                self.inventory_done_s = self.engine.now_s
        elif resp.category == "asset":
            self.assets_done += 1
            if self.assets_done < self.config.scene_assets:
                self._send_asset(self.assets_done)
            else:
                self.assets_done_s = self.engine.now_s


@dataclass
class LoginRunResult:
    units: dict[str, float]
    total_requests: dict[str, int]
    inventory_requests: dict[str, int]
    inventory_done_s: Optional[float]
    assets_done_s: Optional[float]
    completed: bool


@dataclass
class LoginReport:
    """Per-server load and request counts, aggregated over the repeats."""

    config: dict
    config_hash: str
    runs: list[LoginRunResult]
    units_mean: dict[str, float]
    units_sd: dict[str, float]

    def save(self, path) -> None:
        with open(path, "w") as f:
            json.dump(asdict(self), f, indent=2, sort_keys=True)
            f.write("\n")


def _run_once(config: LoginExperimentConfig, seed: int) -> LoginRunResult:
    engine = Engine(seed=seed)
    network = Network(engine)
    nodes = [CLIENT, SIM, CENTRAL]
    if config.topology == TOPOLOGY_DEDICATED:
        nodes.append(INVENTORY)
    for a in nodes:
        for b in nodes:
            if a != b:
                network.add_link(a, b, config.link_latency_s, config.link_byte_rate)

    client = _Client(engine, network, config)
    sim = _SpaceServer(engine, network, config)
    central = _Server(CENTRAL, engine, network, config.central_serve_cost,
                      config.central_delay_s)
    servers: dict[str, object] = {SIM: sim, CENTRAL: central}
    if config.topology == TOPOLOGY_DEDICATED:
        inventory = _Server(INVENTORY, engine, network,
                            config.inventory_serve_cost, config.inventory_delay_s)
        servers[INVENTORY] = inventory
    network.register_handler(CLIENT, client.on_message)
    for node, actor in servers.items():
        network.register_handler(node, actor.on_message)

    client.start()
    engine.run_until(seconds_to_us(config.run_length_s))

    units = {SIM: sim.units, CENTRAL: central.units}
    totals = {SIM: sim.total_requests, CENTRAL: central.total_requests}
    inv = {SIM: sim.inventory_requests, CENTRAL: central.inventory_requests}
    if config.topology == TOPOLOGY_DEDICATED:
        units[INVENTORY] = servers[INVENTORY].units
        totals[INVENTORY] = servers[INVENTORY].total_requests
        inv[INVENTORY] = servers[INVENTORY].inventory_requests
    completed = (client.inventory_done_s is not None
                 and client.assets_done_s is not None)
    return LoginRunResult(units, totals, inv, client.inventory_done_s,
                          client.assets_done_s, completed)


def run_login(config: LoginExperimentConfig) -> LoginReport:
    """Repeat the login procedure and aggregate per-server statistics."""
    config.validate()
    runs = [_run_once(config, config.seed + i) for i in range(config.repeats)]
    servers = sorted(runs[0].units)
    units_mean = {}
    units_sd = {}
    for s in servers:
        vals = np.array([r.units[s] for r in runs])
        units_mean[s] = float(vals.mean())
        units_sd[s] = float(vals.std())
    return LoginReport(config.to_dict(), config.config_hash(), runs,
                       units_mean, units_sd)
