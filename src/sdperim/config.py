"""Deployment configuration and key provisioning.

One YAML document describes a whole deployment; every binary reads the same
file and uses only its role section. A file that is JSON (also YAML) is read
with ``json``, so PyYAML is imported only for other YAML. Secrets never live
in the config: they are provisioned into a material directory, one file per
host and kind. The controller reads all of it and builds its records of
authorized hosts from this file and that material at start-up
(``deploy.controller_records``); a gateway or client reads only ``ca.pub``
and its own ``.cert``, ``.key`` and ``.spa``.

Example::

    seed: 42
    ports: {spa: 62201, control: 5000}
    timing:
      rule_ttl: 60.0
      validation_interval: 30.0
    material_dir: material
    controller: {id: <32 hex>, host: controller}
    gateways:
      - {id: <32 hex>, host: gateway}
    clients:
      - {id: <32 hex>, host: client, services: [echo-cloud]}
    services:
      - {service_id: echo-cloud, gateway: <gw id>, protected_host: cloud,
         protected_port: 7777, public_port: 4444}
    topology:
      links:
        - {src: client, dst: gateway, rate_bps: 1.0e9, speed_mps: 2.0e8, beta_m: 1.0}
        ...

Topology links are directed; omit the section to get a default full chain.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import asdict, dataclass, field

from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

from . import spa
from .credentials import CertificateAuthority, Identity, PeerRole


class ConfigError(ValueError):
    pass


@dataclass
class PortConfig:
    spa: int = 62201
    control: int = 5000


@dataclass
class TimingConfig:
    rule_ttl: float = 60.0
    validation_interval: float = 30.0


@dataclass
class HostEntry:
    id: str  # 32 hex chars
    host: str
    services: list[str] = field(default_factory=list)

    @property
    def id_bytes(self) -> bytes:
        return bytes.fromhex(self.id)


@dataclass
class ServiceEntry:
    service_id: str
    gateway: str
    protected_host: str
    protected_port: int
    public_port: int


@dataclass
class DeploymentConfig:
    seed: int = 42
    ports: PortConfig = field(default_factory=PortConfig)
    timing: TimingConfig = field(default_factory=TimingConfig)
    material_dir: str = "material"
    controller: HostEntry = field(default_factory=lambda: HostEntry(id="00" * 16, host="controller"))
    gateways: list[HostEntry] = field(default_factory=list)
    clients: list[HostEntry] = field(default_factory=list)
    services: list[ServiceEntry] = field(default_factory=list)
    topology_links: list[dict] | None = None

    def to_dict(self) -> dict:
        out = {
            "seed": self.seed,
            "ports": asdict(self.ports),
            "timing": asdict(self.timing),
            "material_dir": self.material_dir,
            "controller": {"id": self.controller.id, "host": self.controller.host},
            "gateways": [{"id": g.id, "host": g.host} for g in self.gateways],
            "clients": [{"id": c.id, "host": c.host, "services": list(c.services)} for c in self.clients],
            "services": [asdict(s) for s in self.services],
        }
        if self.topology_links is not None:
            out["topology"] = {"links": self.topology_links}
        return out

    def validate(self) -> None:
        ports = [("ports.spa", self.ports.spa), ("ports.control", self.ports.control)]
        for s in self.services:
            ports += [(f"{s.service_id}.protected_port", s.protected_port), (f"{s.service_id}.public_port", s.public_port)]
        for name, value in ports:
            if isinstance(value, bool) or not isinstance(value, int) or not 0 < value < 65536:
                raise ConfigError(f"{name} must be a port number from 1 to 65535, not {value!r}")
        for name in ("rule_ttl", "validation_interval"):
            value = getattr(self.timing, name)
            # YAML 1.1 reads a number like 3e1 as a string; a bool is no duration either
            if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0 < value < math.inf:
                raise ConfigError(f"timing.{name} must be a positive number of seconds, not {value!r}")
        ids = set()
        for entry in [self.controller, *self.gateways, *self.clients]:
            try:
                hex_id = len(entry.id) == 32 and bytes.fromhex(entry.id)
            except (TypeError, ValueError):
                hex_id = False
            if not hex_id:
                raise ConfigError(f"id {entry.id!r} must be 32 hex chars")
            if entry.id in ids:
                raise ConfigError(f"duplicate id {entry.id}")
            ids.add(entry.id)
        gw_ids = {g.id for g in self.gateways}
        svc_ids = {s.service_id for s in self.services}
        if len(svc_ids) != len(self.services):
            raise ConfigError("duplicate service_id")
        public = set()
        for s in self.services:
            if s.gateway not in gw_ids:
                raise ConfigError(f"service {s.service_id} references unknown gateway {s.gateway}")
            if (s.gateway, s.public_port) in public:
                raise ConfigError(f"duplicate public port {s.public_port} on gateway {s.gateway}")
            public.add((s.gateway, s.public_port))
        for c in self.clients:
            for sid in c.services:
                if sid not in svc_ids:
                    raise ConfigError(f"client {c.id} references unknown service {sid}")
        # per-host port collisions
        used: dict[tuple[str, int], str] = {}

        def claim(host, port, what):
            key = (host, port)
            if key in used and used[key] != what:
                raise ConfigError(f"port collision on {host}:{port} ({used[key]} vs {what})")
            used[key] = what

        claim(self.controller.host, self.ports.control, "controller-control")
        claim(self.controller.host, self.ports.spa, "controller-spa")
        for g in self.gateways:
            claim(g.host, self.ports.control, f"gateway-relay:{g.id}")
            claim(g.host, self.ports.spa, f"gateway-spa:{g.id}")
        by_gw = {g.id: g for g in self.gateways}
        for s in self.services:
            claim(by_gw[s.gateway].host, s.public_port, f"public:{s.service_id}")
            claim(s.protected_host, s.protected_port, f"protected:{s.service_id}")


def config_from_dict(raw: dict) -> DeploymentConfig:
    try:
        cfg = DeploymentConfig(
            seed=int(raw.get("seed", 42)),
            ports=PortConfig(**raw.get("ports", {})),
            timing=TimingConfig(**raw.get("timing", {})),
            material_dir=raw.get("material_dir", "material"),
            controller=HostEntry(**raw["controller"]),
            gateways=[HostEntry(**g) for g in raw.get("gateways", [])],
            clients=[HostEntry(**c) for c in raw.get("clients", [])],
            services=[ServiceEntry(**s) for s in raw.get("services", [])],
            topology_links=(raw.get("topology") or {}).get("links") if "topology" in raw else None,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad config: {exc}") from exc
    cfg.validate()
    return cfg


def load_config(path) -> DeploymentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        raw = json.loads(text)
    except ValueError:  # not JSON: other YAML
        import yaml
        try:
            raw = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            raise ConfigError(f"{path}: neither JSON nor YAML: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    return config_from_dict(raw)


def dump_config(cfg: DeploymentConfig) -> str:
    import yaml
    return yaml.safe_dump(cfg.to_dict(), sort_keys=True)


# -- material -----------------------------------------------------------------


@dataclass
class Material:
    """Everything secret for one deployment, or for one of its hosts: the
    issuing authority's public key, per-host identities and first-contact
    keys, and the authority itself where it was read."""

    ca_public: bytes
    identities: dict[str, Identity]  # hex id -> identity
    spa_keys: dict[str, spa.SpaKey]
    ca: CertificateAuthority | None = None  # None in one host's material


def generate_material(cfg: DeploymentConfig, rng: random.Random | None = None) -> Material:
    """Fresh material, drawn from the OS by default; a seeded RNG makes it
    reproducible (simulated runs)."""
    rand = rng or random.SystemRandom()
    ca = CertificateAuthority.from_seed(rand.randbytes(32))
    identities: dict[str, Identity] = {}
    keys: dict[str, spa.SpaKey] = {}
    roles = [(cfg.controller, PeerRole.CONTROLLER)]
    roles += [(g, PeerRole.GATEWAY) for g in cfg.gateways]
    roles += [(c, PeerRole.CLIENT) for c in cfg.clients]
    for entry, role in roles:
        seed = rand.randbytes(32)
        key = Ed25519PrivateKey.from_private_bytes(seed)
        cert = ca.issue(entry.id_bytes, role, key.public_key().public_bytes_raw())
        identities[entry.id] = Identity(cert, key)
        if role != PeerRole.CONTROLLER:
            keys[entry.id] = spa.SpaKey(entry.id_bytes, rand.randbytes(spa.SECRET_LEN))
    return Material(ca.public_bytes, identities, keys, ca)


# -- provisioning to disk -------------------------------------------------------

def provision(cfg: DeploymentConfig, base_dir, force: bool = False) -> str:
    """Generate and write key, certificate and first-contact secret files for
    every host. Refuses to overwrite existing material unless ``force``."""
    material_dir = os.path.join(base_dir, cfg.material_dir)
    if os.path.exists(material_dir) and os.listdir(material_dir) and not force:
        raise ConfigError(f"material already exists in {material_dir}; use force to replace")
    os.makedirs(material_dir, exist_ok=True)
    material = generate_material(cfg)
    _write(material_dir, "ca.pub", material.ca_public.hex())
    _write(material_dir, "ca.key", material.ca.private_bytes().hex())
    for hex_id, identity in material.identities.items():
        _write(material_dir, f"{hex_id}.cert", identity.cert.encode().hex())
        _write(material_dir, f"{hex_id}.key", identity.signing_seed().hex())
    for entry in [*cfg.gateways, *cfg.clients]:
        _write(material_dir, f"{entry.id}.spa", material.spa_keys[entry.id].secret.hex())
    return material_dir


def _write(d, name, content):
    with open(os.path.join(d, name), "w", encoding="utf-8") as fh:
        fh.write(content + "\n")


def _read(d, name) -> str:
    with open(os.path.join(d, name), "r", encoding="utf-8") as fh:
        return fh.read().strip()


def _identity(material_dir, hex_id) -> Identity:
    return Identity.from_material(
        bytes.fromhex(_read(material_dir, f"{hex_id}.cert")), bytes.fromhex(_read(material_dir, f"{hex_id}.key"))
    )


def _spa_key(material_dir, entry: HostEntry) -> spa.SpaKey:
    return spa.SpaKey(entry.id_bytes, bytes.fromhex(_read(material_dir, f"{entry.id}.spa")))


def load_material(cfg: DeploymentConfig, base_dir) -> Material:
    """The whole deployment's material, as the controller reads it."""
    material_dir = os.path.join(base_dir, cfg.material_dir)
    ca = CertificateAuthority.from_seed(bytes.fromhex(_read(material_dir, "ca.key")))
    identities = {}
    keys = {}
    for entry in [cfg.controller, *cfg.gateways, *cfg.clients]:
        identities[entry.id] = _identity(material_dir, entry.id)
        if entry is not cfg.controller:
            keys[entry.id] = _spa_key(material_dir, entry)
    return Material(ca.public_bytes, identities, keys, ca)


def load_host_material(cfg: DeploymentConfig, base_dir, entry: HostEntry) -> Material:
    """What one gateway or client reads: ``ca.pub`` and its own ``.cert``,
    ``.key`` and ``.spa``, so a host holds no other host's secret."""
    material_dir = os.path.join(base_dir, cfg.material_dir)
    return Material(
        bytes.fromhex(_read(material_dir, "ca.pub")),
        {entry.id: _identity(material_dir, entry.id)},
        {entry.id: _spa_key(material_dir, entry)},
    )
