"""Connection-initiation flood generation for both backends."""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass

# Frame bytes of a simulated flood SYN: under capture.ATTACK_FRAME_LIMIT, so
# labeling tells flood segments from legitimate 64-byte handshake segments.
SYN_SIZE = 40


@dataclass
class FloodSpec:
    """Half-open initiation flood."""

    target_host: str
    target_port: int
    rate: float = 1000.0
    duration: float = 60.0

    def __post_init__(self):
        if self.rate <= 0:
            raise ValueError("rate must be positive")
        if self.duration <= 0:
            raise ValueError("duration must be positive")


@dataclass
class FloodStats:
    sent: int = 0
    mode: str = ""
    errors: int = 0
    sources: int = 0
    started_at: float = 0.0
    finished_at: float = 0.0


def spoofed_source(rng, i: int) -> tuple[str, int]:
    # non-routable sources; the simulator delivers their handshake replies nowhere
    return (f"10.66.{(i // 250) % 250}.{i % 250 + 1}", 1024 + rng.randrange(60000))


def sim_flood(net, spec: FloodSpec, attacker: str, start: float) -> FloodStats:
    """Schedule the whole flood on the simulated backend. Segments originate
    at the ``attacker`` node, each from its own spoofed source."""
    stats = FloodStats(mode="sim-spoofed", started_at=start)
    rng = net.node_rng(f"{attacker}:flood")
    total = int(spec.rate * spec.duration)
    period = 1.0 / spec.rate
    target = (spec.target_host, spec.target_port)

    def fire():
        # events fire in schedule order, so ``sent`` is this segment's index
        net.inject_syn(spoofed_source(rng, stats.sent), target, size=SYN_SIZE, attacker=attacker)
        stats.sent += 1

    for i in range(total):
        net.call_at(start + i * period, fire)
    stats.finished_at = start + spec.duration
    stats.sources = total
    return stats


async def real_flood(spec: FloodSpec, bind_ips: list[str] | None = None) -> FloodStats:
    """Loopback flood: rapid aborted connection attempts. A user-space sender
    cannot forge raw sources, so this falls back to many ephemeral sources
    across the given bind addresses; the stats record that mode."""
    stats = FloodStats(mode="real-ephemeral-sources", started_at=time.time())
    bind_ips = bind_ips or ["127.0.0.1"]
    deadline = time.time() + spec.duration
    period = 1.0 / spec.rate
    i = 0
    next_at = time.time()
    while time.time() < deadline:
        ip = bind_ips[i % len(bind_ips)]
        i += 1
        try:
            conn = asyncio.open_connection(spec.target_host, spec.target_port, local_addr=(ip, 0))
            _, writer = await asyncio.wait_for(conn, timeout=0.2)
            writer.transport.abort()
            stats.sent += 1
        except (OSError, asyncio.TimeoutError):
            stats.errors += 1
            stats.sent += 1
        next_at += period
        delay = next_at - time.time()
        if delay > 0:
            await asyncio.sleep(delay)
    stats.sources = len(bind_ips)
    stats.finished_at = time.time()
    return stats
