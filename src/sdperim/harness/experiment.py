"""Adversarial experiment orchestration on the simulated backend.

One experiment runs the full topology, keeps a legitimate echo session going
for the whole observation window, launches a flood partway through, and
produces a per-second capture series plus leak evidence. The protected and
unprotected arms differ only in whether the perimeter stands between the
attacker and the service.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Callable

from ..deploy import SimDeployment, build_sim, default_config
from ..services import PING_SIZE, EchoNode, PingerNode
from ..transport.sim import CLS_ACCEPT, SimNet, Topology, two_way
from .capture import INTERVAL, CaptureSeries, is_attack_segment
from .flood import FloodSpec, FloodStats, sim_flood

SETUP_END = 5.0  # virtual seconds reserved for registration + authentication


@dataclass
class ExperimentSpec:
    seed: int = 42
    with_sdp: bool = True
    window: float = 120.0
    flood_enabled: bool = True
    flood_rate: float = 1000.0
    flood_duration: float = 60.0
    flood_start: float = 30.0  # relative to the observation window
    echo_rate: float = 50.0

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

    @property
    def zero_leak(self) -> bool:
        return self.attacker_segments_to_service == 0 and sum(self.capture.attack_segments_forwarded) == 0

    def summary(self) -> dict:
        legit = {h: c for h, c in self.service_origins.items() if not h.startswith("10.66.")}
        return {
            "with_sdp": self.spec.with_sdp,
            "seed": self.spec.seed,
            "window": self.spec.window,
            "flood": asdict(self.flood) if self.flood else None,
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


def setup_with_sdp(seed: int, outsider: str) -> SimDeployment:
    """The reference deployment with ``outsider`` linked to the gateway and
    the client authenticated and granted its first service, at 4.0 s."""
    dep = build_sim(default_config(seed=seed))
    net, cfg = dep.net, dep.cfg
    for link in two_way(outsider, dep.gateway().name):
        net.topology.links[(link.src, link.dst)] = link
    client = dep.client()
    net.run(until=1.0)
    net.add_node(client)
    net.run(until=3.0)
    if not client.ready:
        raise RuntimeError("client failed to authenticate during setup")
    net.act(client, client.open_service(cfg.services[0].service_id, net.clock))
    net.run(until=4.0)
    return dep


@dataclass
class _Arm:
    """What differs between the two arms; ``run_experiment`` does the rest."""

    net: SimNet
    target: tuple[str, int]  # where the flood and the legitimate traffic arrive
    echo: EchoNode
    legit_host: str  # the legitimate origin the echo service sees
    rx_bytes: Callable[[], int]  # legitimate bytes echoed back so far
    work_units: Callable[[], int]  # filter work done so far


class _TraceSink:
    """Takes each final trace record of an arm's net: writes its line to
    ``out``, when given, and counts per capture interval the attack
    initiations arriving at the target and those it forwards. A forwarded
    one is an accept segment the target sends to an attack source, counted
    at its send time; both arms are counted by this one rule."""

    def __init__(self, target: tuple[str, int], t0: float, n: int, out=None):
        self.target = target
        self.t0 = t0
        self.write = out.write if out is not None else None
        self.attack_seen = [0] * n
        self.attack_forwarded = [0] * n

    def append(self, rec) -> None:
        if self.write is not None:
            self.write(rec.to_line())
        if rec.delivered is not None and is_attack_segment(rec, *self.target):
            _tally(self.attack_seen, rec.delivered, self.t0)
        elif (rec.cls == CLS_ACCEPT and (rec.src, rec.src_port) == self.target
              and rec.dst.startswith("10.66.")):
            _tally(self.attack_forwarded, rec.sent, self.t0)


def run_experiment(spec: ExperimentSpec, trace_out=None) -> ExperimentResult:
    """Runs one arm. The trace goes to ``trace_out`` (a text file) line by
    line as the run makes it; no record is kept."""
    arm = _protected_arm(spec) if spec.with_sdp else _unprotected_arm(spec)
    net = arm.net
    t0 = SETUP_END
    n = int(spec.window / INTERVAL)
    sink = _TraceSink(arm.target, t0, n, trace_out)
    for rec in net.trace:  # the arm's setup, in order
        sink.append(rec)
    net.trace = sink
    flood_stats = None
    if spec.flood_enabled:
        flood_stats = sim_flood(
            net,
            FloodSpec(*arm.target, rate=spec.flood_rate, duration=spec.flood_duration),
            attacker="attacker",
            start=t0 + spec.flood_start,
        )

    # two events per interval: trace sequence numbers count scheduled events
    rx_samples: list[int] = []
    work_samples: list[int] = []
    half_samples: list[int] = []

    def sample_load():
        work_samples.append(arm.work_units())
        half_samples.append(net.half_open_count(arm.target[0]))

    for i in range(n + 1):
        net.call_at(t0 + i * INTERVAL, lambda: rx_samples.append(arm.rx_bytes()))
        net.call_at(t0 + i * INTERVAL, sample_load)

    net.run(until=t0 + spec.window + 1.0)

    capture = CaptureSeries(start=t0)
    for i in range(n):
        capture.append(
            (rx_samples[i + 1] - rx_samples[i]) // PING_SIZE,
            sink.attack_seen[i],
            sink.attack_forwarded[i],
            work_samples[i + 1] - work_samples[i],
            half_samples[i + 1],
        )

    origins = arm.echo.stats.origins
    base, during = _throughput(capture, spec)
    return ExperimentResult(
        spec=spec,
        capture=capture,
        flood=flood_stats,
        service_origins=dict(origins),
        attacker_segments_to_service=sum(c for h, c in origins.items() if h != arm.legit_host),
        baseline_throughput=base,
        flood_throughput=during,
    )


def _protected_arm(spec: ExperimentSpec) -> _Arm:
    dep = setup_with_sdp(spec.seed, "attacker")
    net, gw, client = dep.net, dep.gateway(), dep.client()
    svc = dep.cfg.services[0]
    net.act(client, client.open_tunnel_stream(svc.service_id))
    net.run(until=SETUP_END)
    tunnel = client.tunnels[svc.service_id]
    if not tunnel.established:
        raise RuntimeError("tunnel failed to establish during setup")

    ping = b"\x55" * PING_SIZE
    period = 1.0 / spec.echo_rate
    for k in range(int(spec.window * spec.echo_rate)):
        net.call_at(SETUP_END + k * period, lambda: net.act(client, client.tunnel_send(svc.service_id, ping)))

    return _Arm(
        net=net,
        target=(gw.name, svc.public_port),
        echo=dep.services[svc.service_id],
        legit_host=gw.name,  # the gateway splices legitimate sessions onto the service
        rx_bytes=lambda: len(tunnel.rx),
        work_units=lambda: gw.engine.work_units,
    )


def _unprotected_arm(spec: ExperimentSpec) -> _Arm:
    """No perimeter: the attacker reaches the service directly, and so does
    the legitimate sender."""
    svc = default_config(seed=spec.seed).services[0]
    target = (svc.protected_host, svc.protected_port)
    net = SimNet(Topology(two_way("pinger", target[0]) + two_way("attacker", target[0])), seed=spec.seed)
    echo = EchoNode(*target)
    pinger = PingerNode("pinger", target, spec.echo_rate)
    net.add_node(echo)
    net.add_node(pinger)
    net.run(until=SETUP_END)
    return _Arm(
        net=net,
        target=target,
        echo=echo,
        legit_host="pinger",
        rx_bytes=lambda: pinger.rx_bytes,
        work_units=lambda: 0,
    )


def _tally(counts: list[int], t: float, t0: float) -> None:
    """Counts time ``t`` in its interval, if the window has one."""
    i = int((t - t0) / INTERVAL)
    if 0 <= i < len(counts):
        counts[i] += 1


def _throughput(capture: CaptureSeries, spec: ExperimentSpec) -> tuple[float, float]:
    """Mean acked segments per interval before and during the flood."""
    if not spec.flood_enabled:
        vals = capture.acked_segments
        mean = sum(vals) / len(vals) if vals else 0.0
        return mean, mean
    f0 = int(spec.flood_start / INTERVAL)
    f1 = int((spec.flood_start + spec.flood_duration) / INTERVAL)
    before = capture.acked_segments[1:f0]  # first interval is warm-up
    during = capture.acked_segments[f0:f1]
    mean_before = sum(before) / len(before) if before else 0.0
    mean_during = sum(during) / len(during) if during else 0.0
    return mean_before, mean_during
