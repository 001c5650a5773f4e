"""Connection-initiation flood generation for both backends."""

from __future__ import annotations

import asyncio
import errno
import socket
import struct
import time
from dataclasses import dataclass

# Frame bytes of a simulated flood SYN: under capture.ATTACK_FRAME_LIMIT, so
# labeling tells flood segments from legitimate 64-byte handshake segments.
SYN_SIZE = 40
LINGER_ABORT = struct.pack("ii", 1, 0)  # a close resets the stream and leaves no TIME_WAIT
SPOOFED_PREFIX = "10.66."  # simulated flood sources: non-routable, so their handshake replies reach no node


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
    return (f"{SPOOFED_PREFIX}{(i // 250) % 250}.{i % 250 + 1}", 1024 + rng.randrange(60000))


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
    """Loopback flood: connection initiations at ``spec.rate`` on a fixed
    schedule. Each is a non-blocking connect closed at once with a reset, so a
    target that never answers does not slow the sender. A user-space sender
    cannot forge raw sources, so this falls back to many ephemeral sources
    across the given bind addresses; the stats record that mode."""
    stats = FloodStats(mode="real-ephemeral-sources", started_at=time.time())
    bind_ips = bind_ips or ["127.0.0.1"]
    family, _, _, _, target = socket.getaddrinfo(spec.target_host, spec.target_port, type=socket.SOCK_STREAM)[0]
    start = time.monotonic()
    while (due := start + stats.sent / spec.rate) < start + spec.duration:
        if due > time.monotonic():
            await asyncio.sleep(due - time.monotonic())
        sock = socket.socket(family, socket.SOCK_STREAM)
        try:
            sock.setblocking(False)
            sock.bind((bind_ips[stats.sent % len(bind_ips)], 0))
            if sock.connect_ex(target) not in (0, errno.EINPROGRESS):
                stats.errors += 1
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, LINGER_ABORT)
        except OSError:
            stats.errors += 1
        finally:
            sock.close()
        stats.sent += 1
    stats.sources = len(bind_ips)
    stats.finished_at = time.time()
    return stats
