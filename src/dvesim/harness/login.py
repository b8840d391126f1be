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

from dataclasses import asdict, dataclass, field
from functools import partial
from itertools import permutations
from typing import Optional

from ..engine import Engine, seconds_to_us
from ..netsim import Message, Network
from ..rules import SPAN, at_least, check_fields, write_json
from .galton import ConfigFile, ConfigInvalid

CLIENT = "client"
SIM = "sim"
CENTRAL = "central"
INVENTORY = "inventory"

TOPOLOGY_PROXIED = "proxied"
TOPOLOGY_DEDICATED = "dedicated_inventory"


@dataclass(frozen=True)
class LoginExperimentConfig(ConfigFile):
    topology: str = TOPOLOGY_PROXIED
    inventory_folders: int = field(default=0, metadata=at_least(0))
    scene_assets: int = field(default=2, metadata=at_least(0))
    avatar_cost: float = field(default=10.0, metadata=at_least(0))
    proxy_cost: float = field(default=1.0, metadata=at_least(0))
    central_serve_cost: float = field(default=0.5, metadata=at_least(0))
    inventory_serve_cost: float = field(default=0.5, metadata=at_least(0))
    per_asset_cost: float = field(default=0.2, metadata=at_least(0))
    sim_proxy_delay_s: float = field(default=0.002, metadata=at_least(0))
    central_delay_s: float = field(default=0.003, metadata=at_least(0))
    inventory_delay_s: float = field(default=0.003, metadata=at_least(0))
    run_length_s: float = field(default=600.0, metadata=SPAN)
    link_latency_s: float = field(default=0.001, metadata=at_least(0))
    link_byte_rate: float = field(default=1_250_000.0, metadata=at_least(1))

    def __post_init__(self):
        check_fields(LoginExperimentConfig, vars(self), ConfigInvalid)
        if self.topology not in (TOPOLOGY_PROXIED, TOPOLOGY_DEDICATED):
            raise ConfigInvalid(f"unknown topology {self.topology!r}")


class _Backend:
    """The central or the inventory server: accrues its cost per request
    and answers after a delay, to the proxy a request came through or else
    to the client.  A request's payload is ``(category, via)``; a
    response's is its category."""

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
        category, via = msg.payload
        self.total_requests += 1
        if category == "folder":
            self.inventory_requests += 1
        self.units += self.serve_cost
        self.engine.schedule(
            self.engine.now_us + self.serve_delay_us,
            partial(self.network.send, self.node_id, via or CLIENT, "response", category))


class _SpaceServer:
    """The region server: proxies backend requests and hosts the avatar."""

    def __init__(self, engine: Engine, network: Network,
                 config: LoginExperimentConfig):
        self.engine = engine
        self.network = network
        self.config = config
        self.units = 0.0
        self.total_requests = 0
        self.inventory_requests = 0
        self.proxy_delay_us = seconds_to_us(config.sim_proxy_delay_s)

    def on_message(self, msg: Message) -> None:
        if msg.kind == "response":
            # a backend answer on its way to the client; relaying is free
            self.network.send(SIM, CLIENT, "response", msg.payload)
            return
        category, _ = msg.payload
        self.total_requests += 1
        if category == "avatar":
            self.units += self.config.avatar_cost
            self.network.send(SIM, CLIENT, "response", category)
            return
        # proxied backend request
        self.units += self.config.proxy_cost
        if category == "folder":
            self.inventory_requests += 1
        elif category == "asset":
            self.units += self.config.per_asset_cost
        self.engine.schedule(
            self.engine.now_us + self.proxy_delay_us,
            partial(self.network.send, SIM, CENTRAL, "request", (category, SIM)))


class _Client:
    """Drives the login sequence: auth, avatar, then folder and asset chains.

    Each category is a chain of requests sent one at a time, the next on
    the previous one's response; auth and avatar are chains of one."""

    def __init__(self, engine: Engine, network: Network,
                 config: LoginExperimentConfig):
        self.engine = engine
        self.network = network
        inventory = SIM if config.topology == TOPOLOGY_PROXIED else INVENTORY
        #: category -> [requests still to send, the server they go to];
        #: authentication is the only direct client contact with central
        self._chains = {"auth": [1, CENTRAL], "avatar": [1, SIM],
                        "folder": [config.inventory_folders, inventory],
                        "asset": [config.scene_assets, SIM]}
        #: category -> the time its chain ended
        self.done_s: dict[str, float] = {}

    def start(self) -> None:
        self.engine.schedule(0, partial(self._next, "auth"))

    def _next(self, category: str) -> None:
        """Send the chain's next request, or end the chain if none is left."""
        chain = self._chains[category]
        if chain[0]:
            chain[0] -= 1
            self.network.send(CLIENT, chain[1], "request", (category, None))
        else:
            self.done_s[category] = self.engine.now_s

    def on_message(self, msg: Message) -> None:
        category = msg.payload
        if category == "auth":
            self._next("avatar")
        elif category == "avatar":
            # inventory folders and scene assets retrieve concurrently, each
            # as a sequential breadth-first chain; the folder request goes
            # first, so in the proxied topology it serializes first
            self._next("folder")
            self._next("asset")
        else:
            self._next(category)


@dataclass
class LoginReport:
    """Per-server load and request counts of one login, and the times its
    folder and asset chains ended; ``None`` for a chain the run cut off."""

    config: dict
    config_hash: str
    units: dict[str, float]
    total_requests: dict[str, int]
    inventory_requests: dict[str, int]
    inventory_done_s: Optional[float]
    assets_done_s: Optional[float]
    completed: bool

    def save(self, path) -> None:
        write_json(path, asdict(self))


def run_login(config: LoginExperimentConfig) -> LoginReport:
    """Run the login procedure once.  No node draws a random number, so the
    config alone fixes the report."""
    engine = Engine()
    network = Network(engine)
    client = _Client(engine, network, config)
    servers: dict[str, object] = {
        SIM: _SpaceServer(engine, network, config),
        CENTRAL: _Backend(CENTRAL, engine, network, config.central_serve_cost,
                          config.central_delay_s),
    }
    if config.topology == TOPOLOGY_DEDICATED:
        servers[INVENTORY] = _Backend(INVENTORY, engine, network,
                                      config.inventory_serve_cost,
                                      config.inventory_delay_s)
    for a, b in permutations([CLIENT, *servers], 2):
        network.add_link(a, b, config.link_latency_s, config.link_byte_rate)
    for node, actor in {CLIENT: client, **servers}.items():
        network.register_handler(node, actor.on_message)

    client.start()
    engine.run_until(seconds_to_us(config.run_length_s))

    units, totals, inv = (
        {node: getattr(server, name) for node, server in servers.items()}
        for name in ("units", "total_requests", "inventory_requests"))
    inventory_done_s, assets_done_s = map(client.done_s.get, ("folder", "asset"))
    # the servers' scheduled replies and the handlers hold the engine and
    # the network: dropped, a run is freed by reference counting
    engine.clear()
    network.close()
    return LoginReport(config.to_dict(), config.config_hash(), units, totals, inv,
                       inventory_done_s, assets_done_s,
                       None not in (inventory_done_s, assets_done_s))
