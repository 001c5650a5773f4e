"""Adversarial experiment orchestration on the simulated backend.

One experiment runs the full topology, keeps a legitimate echo session going
for the whole observation window, launches a flood partway through, and
produces a per-second capture series plus leak evidence. The protected and
unprotected arms differ only in whether the perimeter stands between the
attacker and the service.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from ..deploy import build_sim, default_config
from ..services import PingerNode
from ..transport.sim import two_way
from .capture import ATTACK_FRAME_LIMIT, CaptureSeries
from .flood import FloodSpec, FloodStats, sim_flood

SETUP_END = 5.0  # virtual seconds reserved for registration + authentication


@dataclass
class ExperimentSpec:
    seed: int = 42
    with_sdp: bool = True
    window: float = 120.0
    interval: float = 1.0
    flood_enabled: bool = True
    flood_rate: float = 1000.0
    flood_duration: float = 60.0
    flood_start: float = 30.0  # relative to the observation window
    echo_rate: float = 50.0
    ping_size: int = 128

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentSpec":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown experiment settings: {sorted(unknown)}")
        return cls(**raw)


@dataclass
class ExperimentResult:
    spec: ExperimentSpec
    capture: CaptureSeries
    flood: FloodStats | None
    service_origins: dict[str, int]
    attacker_segments_to_service: int
    baseline_throughput: float
    flood_throughput: float
    trace_jsonl: str = ""

    @property
    def zero_leak(self) -> bool:
        return self.attacker_segments_to_service == 0 and sum(self.capture.attack_segments_forwarded) == 0

    def summary(self) -> dict:
        legit = {h: c for h, c in self.service_origins.items() if not h.startswith("10.66.")}
        return {
            "with_sdp": self.spec.with_sdp,
            "seed": self.spec.seed,
            "window": self.spec.window,
            "flood": self.flood.to_dict() if self.flood else None,
            "attack_segments_seen": sum(self.capture.attack_segments_seen),
            "attack_segments_forwarded": sum(self.capture.attack_segments_forwarded),
            "attacker_segments_to_service": self.attacker_segments_to_service,
            "zero_leak": self.zero_leak,
            "baseline_throughput": self.baseline_throughput,
            "flood_throughput": self.flood_throughput,
            "max_half_open": max(self.capture.half_open, default=0),
            "service_origin_hosts": len(self.service_origins),
            "service_origins_legit": legit,
        }

    def to_json(self) -> str:
        return json.dumps(self.summary(), indent=2, sort_keys=True)


def run_experiment(spec: ExperimentSpec, cfg=None) -> ExperimentResult:
    cfg = cfg or default_config(seed=spec.seed)
    if spec.with_sdp:
        return _run_protected(spec, cfg)
    return _run_unprotected(spec, cfg)


def _bucket(times, t0: float, interval: float, n: int) -> list[int]:
    out = [0] * n
    for t in times:
        i = int((t - t0) / interval)
        if 0 <= i < n:
            out[i] += 1
    return out


def _run_protected(spec: ExperimentSpec, cfg) -> ExperimentResult:
    dep = build_sim(cfg, seed=spec.seed, start_clients=False)
    net = dep.net
    gw = dep.gateway()
    svc = cfg.services[0]
    gw_host = gw.name

    for link in two_way("attacker", gw_host):
        net.topology.links[(link.src, link.dst)] = link
        net.topology.nodes.update((link.src, link.dst))

    client = dep.client()
    net.run(until=1.0)
    net.add_node(client)
    net.run(until=3.0)
    if not client.ready:
        raise RuntimeError("client failed to authenticate during setup")
    net.act(client, client.open_service(svc.service_id, net.clock))
    net.run(until=4.0)
    net.act(client, client.open_tunnel_stream(svc.service_id))
    net.run(until=SETUP_END)
    tunnel = client.tunnels[svc.service_id]
    if not tunnel.established:
        raise RuntimeError("tunnel failed to establish during setup")

    t0 = SETUP_END
    n = int(spec.window / spec.interval)
    ping = b"\x55" * spec.ping_size
    period = 1.0 / spec.echo_rate
    for k in range(int(spec.window * spec.echo_rate)):
        net.call_at(t0 + k * period, lambda: net.act(client, client.tunnel_send(svc.service_id, ping)))

    flood_stats = None
    if spec.flood_enabled:
        flood_stats = sim_flood(
            net,
            FloodSpec(gw_host, svc.public_port, rate=spec.flood_rate, duration=spec.flood_duration),
            attacker="attacker",
            start=t0 + spec.flood_start,
        )

    rx_samples: list[int] = []
    cpu_samples: list[int] = []
    half_samples: list[int] = []

    def sample_gateway():
        cpu_samples.append(gw.engine.work_units)
        half_samples.append(net.half_open_count(gw_host))

    for i in range(n + 1):
        net.call_at(t0 + i * spec.interval, lambda: rx_samples.append(len(tunnel.rx)))
        net.call_at(t0 + i * spec.interval, sample_gateway)

    net.run(until=t0 + spec.window + 1.0)

    attack_syns = [
        rec
        for rec in net.trace
        if rec.cls == "syn" and rec.dst == gw_host and rec.dst_port == svc.public_port and rec.size < ATTACK_FRAME_LIMIT
    ]
    seen = _bucket([r.delivered for r in attack_syns if r.delivered is not None], t0, spec.interval, n)
    spoofed_hosts = {rec["src"] for rec in net.logs[gw_host] if rec.get("event") == "filter" and rec["src"].startswith("10.66.")}
    forwarded_times = [
        rec["ts"]
        for rec in net.logs[gw_host]
        if rec.get("event") == "filter" and rec.get("verdict") == "forward" and rec["src"] in spoofed_hosts
    ]
    forwarded = _bucket(forwarded_times, t0, spec.interval, n)

    capture = CaptureSeries(start=t0, interval=spec.interval)
    for i in range(n):
        acked = (rx_samples[i + 1] - rx_samples[i]) // spec.ping_size if i + 1 < len(rx_samples) else 0
        cpu = cpu_samples[i + 1] - cpu_samples[i] if i + 1 < len(cpu_samples) else 0
        half = half_samples[i + 1] if i + 1 < len(half_samples) else 0
        capture.append(acked, seen[i], forwarded[i], cpu, half)

    echo = dep.services[svc.service_id]
    foreign = {h: c for h, c in echo.stats.origins.items() if h != gw_host}
    base, during = _throughput(capture, spec)
    return ExperimentResult(
        spec=spec,
        capture=capture,
        flood=flood_stats,
        service_origins=dict(echo.stats.origins),
        attacker_segments_to_service=sum(foreign.values()),
        baseline_throughput=base,
        flood_throughput=during,
        trace_jsonl=net.trace_jsonl(),
    )


def _run_unprotected(spec: ExperimentSpec, cfg) -> ExperimentResult:
    """No perimeter: the attacker reaches the service directly, and so does
    the legitimate sender."""
    from ..services import EchoNode
    from ..transport.sim import SimNet, Topology

    svc = cfg.services[0]
    host = svc.protected_host
    topo = Topology(two_way("pinger", host) + two_way("attacker", host))
    net = SimNet(topo, seed=spec.seed)
    echo = EchoNode(host, svc.protected_port)
    pinger = PingerNode("pinger", (host, svc.protected_port), spec.echo_rate, spec.ping_size)
    net.add_node(echo)
    net.add_node(pinger)
    net.run(until=SETUP_END)

    t0 = SETUP_END
    n = int(spec.window / spec.interval)
    flood_stats = None
    if spec.flood_enabled:
        flood_stats = sim_flood(
            net,
            FloodSpec(host, svc.protected_port, rate=spec.flood_rate, duration=spec.flood_duration),
            attacker="attacker",
            start=t0 + spec.flood_start,
        )

    rx_samples: list[int] = []
    half_samples: list[int] = []
    for i in range(n + 1):
        net.call_at(t0 + i * spec.interval, lambda: rx_samples.append(pinger.rx_bytes))
        net.call_at(t0 + i * spec.interval, lambda: half_samples.append(net.half_open_count(host)))

    net.run(until=t0 + spec.window + 1.0)

    attack_syns = [
        rec
        for rec in net.trace
        if rec.cls == "syn" and rec.dst == host and rec.dst_port == svc.protected_port and rec.size < ATTACK_FRAME_LIMIT
    ]
    seen = _bucket([r.delivered for r in attack_syns if r.delivered is not None], t0, spec.interval, n)

    capture = CaptureSeries(start=t0, interval=spec.interval)
    for i in range(n):
        acked = (rx_samples[i + 1] - rx_samples[i]) // spec.ping_size if i + 1 < len(rx_samples) else 0
        half = half_samples[i + 1] if i + 1 < len(half_samples) else 0
        # every attack initiation reaches the unprotected service
        capture.append(acked, seen[i], seen[i], 0, half)

    foreign = {h: c for h, c in echo.stats.origins.items() if h != "pinger"}
    base, during = _throughput(capture, spec)
    return ExperimentResult(
        spec=spec,
        capture=capture,
        flood=flood_stats,
        service_origins=dict(echo.stats.origins),
        attacker_segments_to_service=sum(foreign.values()),
        baseline_throughput=base,
        flood_throughput=during,
        trace_jsonl=net.trace_jsonl(),
    )


def _throughput(capture: CaptureSeries, spec: ExperimentSpec) -> tuple[float, float]:
    """Mean acked segments per interval before and during the flood."""
    if not spec.flood_enabled:
        vals = capture.acked_segments
        mean = sum(vals) / len(vals) if vals else 0.0
        return mean, mean
    f0 = int(spec.flood_start / spec.interval)
    f1 = int((spec.flood_start + spec.flood_duration) / spec.interval)
    before = capture.acked_segments[1:f0]  # first interval is warm-up
    during = capture.acked_segments[f0:f1]
    mean_before = sum(before) / len(before) if before else 0.0
    mean_during = sum(during) / len(during) if during else 0.0
    return mean_before, mean_during
