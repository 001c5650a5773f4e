"""Materialize a deployment config into live nodes on either backend. Each
function imports the modules it runs, ``config`` included, so a binary loads
no other role's code, and one that builds no node no ``cryptography``."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .client import ClientNode
    from .config import DeploymentConfig, Material
    from .controller import ClientRecord, ControllerNode, GatewayRecord, ServiceDescriptor
    from .gateway.node import GatewayNode
    from .services import EchoNode
    from .transport.sim import LinkSpec, SimNet


@dataclass
class SimDeployment:
    net: SimNet
    cfg: DeploymentConfig
    material: Material
    controller: ControllerNode
    gateways: dict[str, GatewayNode] = field(default_factory=dict)
    clients: dict[str, ClientNode] = field(default_factory=dict)
    services: dict[str, EchoNode] = field(default_factory=dict)

    def gateway(self) -> GatewayNode:
        return next(iter(self.gateways.values()))

    def client(self) -> ClientNode:
        return next(iter(self.clients.values()))


def controller_records(cfg: DeploymentConfig, material: Material) -> tuple[list[ClientRecord], list[ServiceDescriptor], list[GatewayRecord]]:
    from .controller import ClientRecord, GatewayRecord, ServiceDescriptor
    clients = [
        ClientRecord(
            client_id=c.id_bytes,
            spa_key=material.spa_keys[c.id],
            certificate=material.certs[c.id],
            authorized_services=list(c.services),
        )
        for c in cfg.clients
    ]
    services = [ServiceDescriptor(s.service_id, bytes.fromhex(s.gateway), s.public_port) for s in cfg.services]
    gateways = [GatewayRecord(g.id_bytes, material.spa_keys[g.id]) for g in cfg.gateways]
    return clients, services, gateways


def build_controller(cfg: DeploymentConfig, material: Material, rng) -> ControllerNode:
    from .controller import ControllerNode
    clients, services, gateways = controller_records(cfg, material)
    return ControllerNode(
        cfg.controller.host,
        material.identities[cfg.controller.id],
        material.ca_public,
        clients=clients,
        services=services,
        gateways=gateways,
        rng=rng,
        control_port=cfg.ports.control,
        spa_port=cfg.ports.spa,
        rule_ttl=cfg.timing.rule_ttl,
        validation_interval=cfg.timing.validation_interval,
    )


def build_gateway(cfg: DeploymentConfig, material: Material, gw_id: str, rng) -> GatewayNode:
    from .gateway.node import GatewayNode, ServiceBinding
    entry = next(g for g in cfg.gateways if g.id == gw_id)
    bindings = [
        ServiceBinding(s.service_id, s.public_port, s.protected_host, s.protected_port)
        for s in cfg.services
        if s.gateway == gw_id
    ]
    return GatewayNode(
        entry.host,
        material.identities[gw_id],
        material.ca_public,
        material.spa_keys[gw_id],
        (cfg.controller.host, cfg.ports.control),
        bindings,
        [c.id_bytes for c in cfg.clients],
        rng=rng,
        spa_port=cfg.ports.spa,
        relay_port=cfg.ports.control,
    )


def build_client(cfg: DeploymentConfig, material: Material, client_id: str, rng) -> ClientNode:
    from .client import ClientNode
    entry = next(c for c in cfg.clients if c.id == client_id)
    gw_host = cfg.gateways[0].host if cfg.gateways else "gateway"
    return ClientNode(
        entry.host,
        material.identities[client_id],
        material.ca_public,
        material.spa_keys[client_id],
        gw_host,
        rng=rng,
        spa_port=cfg.ports.spa,
        relay_port=cfg.ports.control,
    )


def build_topology(cfg: DeploymentConfig) -> list[LinkSpec]:
    from .transport.sim import LinkSpec, two_way
    if cfg.topology_links is not None:
        return [LinkSpec(**spec) for spec in cfg.topology_links]
    links = []
    hosts = {cfg.controller.host} | {g.host for g in cfg.gateways}
    for g in cfg.gateways:
        links += two_way(g.host, cfg.controller.host)
    for c in cfg.clients:
        for g in cfg.gateways:
            links += two_way(c.host, g.host)
    for s in cfg.services:
        gw_host = next(g.host for g in cfg.gateways if g.id == s.gateway)
        if s.protected_host not in hosts:
            links += two_way(gw_host, s.protected_host)
    return links


def build_sim(cfg: DeploymentConfig) -> SimDeployment:
    """A whole simulated deployment: controller, gateways and protected echo
    services on the net, and clients built but not yet added, so a caller
    starts each when its run needs it. Material is derived from the config's
    seed, so identical seeds give identical runs."""
    from .config import generate_material
    from .services import EchoNode
    from .transport.sim import SimNet
    material = generate_material(cfg, random.Random(f"material:{cfg.seed}"))
    net = SimNet(build_topology(cfg), seed=cfg.seed)
    controller = build_controller(cfg, material, net.node_rng(cfg.controller.host))
    dep = SimDeployment(net=net, cfg=cfg, material=material, controller=controller)
    net.add_node(controller)
    for g in cfg.gateways:
        node = build_gateway(cfg, material, g.id, net.node_rng(g.host))
        dep.gateways[g.id] = node
        net.add_node(node)
    by_host: dict[str, list] = {}
    for s in cfg.services:
        by_host.setdefault(s.protected_host, []).append(s)
    for host, entries in by_host.items():
        ports = sorted({s.protected_port for s in entries})
        echo = EchoNode(host, ports[0], extra_ports=ports[1:])
        net.add_node(echo)
        for s in entries:
            dep.services[s.service_id] = echo
    for c in cfg.clients:
        dep.clients[c.id] = build_client(cfg, material, c.id, net.node_rng(c.host))
    return dep


def default_config(**overrides) -> DeploymentConfig:
    """The single-gateway reference deployment used by tests and scenarios."""
    from .config import config_from_dict
    raw = {
        "seed": 42,
        "ports": {"spa": 62201, "control": 5000},
        "controller": {"id": "cc" * 16, "host": "controller"},
        "gateways": [{"id": "bb" * 16, "host": "gateway"}],
        "clients": [{"id": "aa" * 16, "host": "client", "services": ["echo-cloud"]}],
        "services": [
            {
                "service_id": "echo-cloud",
                "gateway": "bb" * 16,
                "protected_host": "cloud",
                "protected_port": 7777,
                "public_port": 4444,
            }
        ],
    }
    raw.update(overrides)
    return config_from_dict(raw)
