"""The load process: the probe, optionally the churn client and a keyless flood.

    python3 perimbench/load.py --config deploy.yaml --plan plan.json --out result.json [--trace OUT]

All traffic comes from this one process and one asyncio loop:

- the probe: one client session with its tunnel open, sending a 64-byte echo
  every 5 ms (open loop; each echo is timed from when it was due);
- the churn client (when the plan has ``churn``): a closed loop of SPA ->
  ready -> open_service -> granted -> tunnel -> 64-byte echo -> stop, paced
  to at most one attempt per period, cycling through a pool of provisioned
  identities, each on its own source address, with a fixed deadline per
  attempt and no retries by the benchmark;
- the flood (when the plan has rates): forged SPA datagrams and aborted TCP
  initiations at fixed rates, from addresses no legitimate client uses.

Completion times are taken inside the client node's hooks, at the call that
flips ``ready``, a request's state, or delivers echo bytes.

The process prints ``ready`` when the probe's tunnel is open. Each
``go <t0> <seconds>`` line on stdin runs one measured window starting at
``time.perf_counter()`` value t0 and answers ``done``; any other line (or
end of input) writes the raw samples of all windows to ``--out`` and exits.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import random
import socket
import struct
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from sdperim import spa  # noqa: E402
from sdperim.client import ClientNode  # noqa: E402
from sdperim.config import load_config, load_material  # noqa: E402
from sdperim.transport.real import RealHost  # noqa: E402

clock = time.perf_counter
ECHO_SIZE = 64
IP_PKTINFO = getattr(socket, "IP_PKTINFO", 8)  # Linux value; not exported by every Python build
LINGER_ABORT = struct.pack("ii", 1, 0)  # close sends RST, leaves no TIME_WAIT


class TimedClient(ClientNode):
    """A client node that reports, from inside each hook, the moment its
    state changes. ``watch`` is called after every hook returns."""

    watch = staticmethod(lambda node: None)

    def on_data(self, flow, data, now):
        out = super().on_data(flow, data, now)
        self.watch(self)
        return out

    def on_connected(self, flow, now):
        out = super().on_connected(flow, now)
        self.watch(self)
        return out

    def on_closed(self, flow, now):
        out = super().on_closed(flow, now)
        self.watch(self)
        return out

    def on_connect_failed(self, flow, reason, now):
        out = super().on_connect_failed(flow, reason, now)
        self.watch(self)
        return out

    def on_timer(self, key, now):
        out = super().on_timer(key, now)
        self.watch(self)
        return out


class Waiter:
    """Resolves when ``done(node)`` first holds after a hook; records when."""

    def __init__(self, node: TimedClient, done):
        self.future = asyncio.get_running_loop().create_future()
        self.done = done
        self.at = None
        node.watch = self.check
        self.check(node)

    def check(self, node):
        if self.at is None and self.done(node):
            self.at = clock()
            self.future.set_result(self.at)

    async def wait(self, deadline: float) -> bool:
        try:
            await asyncio.wait_for(asyncio.shield(self.future), max(deadline - clock(), 0.0))
        except asyncio.TimeoutError:
            return False
        return True


class Session:
    """One client identity on one source address, driven by a RealHost."""

    def __init__(self, cfg, material, client_id: str, rng):
        entry = next(c for c in cfg.clients if c.id == client_id)
        self.service = entry.services[0]
        self.node = TimedClient(
            entry.host,
            material.identities[client_id],
            material.ca.public_bytes,
            material.spa_keys[client_id],
            cfg.gateways[0].host,
            rng=rng,
            spa_port=cfg.ports.spa,
            relay_port=cfg.ports.control,
        )
        self.host = RealHost(self.node, entry.host)

    async def connect(self, deadline: float, times: dict) -> str:
        """SPA -> ready -> open_service -> granted -> tunnel open. Returns ""
        on success or the reason it ended."""
        node = self.node
        ready = Waiter(node, lambda n: n.ready or n.failed)
        times["start"] = clock()
        await self.host.start()
        if not await ready.wait(deadline):
            return "deadline:auth"
        if not node.ready:
            return f"refused:auth:{node.failure}"
        times["ready"] = ready.at
        granted = Waiter(node, lambda n: bool(n.requests) and n.requests[max(n.requests)].state != "pending")
        times["open"] = clock()
        await self.host.call(lambda now: node.open_service(self.service, now))
        if not await granted.wait(deadline):
            return "deadline:grant"
        request = node.requests[max(node.requests)]
        if request.state != "granted":
            return f"refused:grant:{request.state}:{request.reason}"
        times["granted"] = granted.at
        tunnel_up = Waiter(node, lambda n: n.tunnels[self.service].established or n.tunnels[self.service].closed)
        await self.host.call(lambda now: node.open_tunnel_stream(self.service))
        if not await tunnel_up.wait(deadline):
            return "deadline:tunnel"
        if not node.tunnels[self.service].established:
            return "refused:tunnel:closed"
        return ""

    async def send(self, data: bytes) -> None:
        await self.host.call(lambda now: self.node.tunnel_send(self.service, data))

    async def stop(self) -> None:
        await self.host.stop()


def echo_payload(rng: random.Random, seq: int) -> bytes:
    return seq.to_bytes(8, "big") + rng.randbytes(ECHO_SIZE - 8)


class Probe:
    """Open loop on an open tunnel: echo k of a window is due at t0 + k*period.
    Latency runs from the due time to the hook call that delivers the echo's
    last byte; every echo must come back byte for byte."""

    def __init__(self, session: Session, rng: random.Random, period: float):
        self.session, self.rng, self.period = session, rng, period
        self.tunnel = session.node.tunnels[session.service]
        self.offset = len(self.tunnel.rx)
        self.seq = 0
        self.pending: dict[int, tuple[float, bytes]] = {}
        self.rtt, self.late = [], []
        self.sent = self.lost = self.mismatched = 0
        session.node.watch = self.on_hook

    def on_hook(self, node):
        now, rx = clock(), self.tunnel.rx
        while len(rx) - self.offset >= ECHO_SIZE:
            chunk = bytes(rx[self.offset:self.offset + ECHO_SIZE])
            self.offset += ECHO_SIZE
            due, payload = self.pending.pop(int.from_bytes(chunk[:8], "big"), (None, None))
            if payload != chunk:
                self.mismatched += 1
            else:
                self.rtt.append(now - due)

    async def run(self, t0: float, t1: float) -> None:
        k = 0
        while (due := t0 + k * self.period) < t1:
            if due > clock():
                await asyncio.sleep(due - clock())
            payload = echo_payload(self.rng, self.seq)
            self.pending[self.seq] = (due, payload)
            self.late.append(clock() - due)
            await self.session.send(payload)
            self.seq += 1
            self.sent += 1
            k += 1
        drain_until = clock() + 1.0
        while self.pending and clock() < drain_until:
            await asyncio.sleep(0.01)
        self.lost += len(self.pending)
        self.pending.clear()


class Churn:
    """Closed loop, paced: one attempt at a time, each starting at least
    ``period`` after the previous one started. Each attempt gets one fresh
    node, one identity from the pool (round robin) and one deadline. An
    attempt ends as a success, as refused (with the client's reason) or as
    deadline-missed; it is never retried by the benchmark."""

    def __init__(self, cfg, material, pool: list[str], rng: random.Random, deadline: float, period: float):
        self.cfg, self.material, self.pool, self.rng = cfg, material, pool, rng
        self.deadline, self.period = deadline, period
        self.auth, self.grant, self.reasons = [], [], {}
        self.attempts = self.ok = self.mismatched = 0
        self.busy_s = 0.0

    async def attempt(self) -> None:
        client_id = self.pool[self.attempts % len(self.pool)]
        self.attempts += 1
        session = Session(self.cfg, self.material, client_id, random.Random(self.rng.random()))
        times: dict[str, float] = {}
        deadline = clock() + self.deadline
        try:
            reason = await session.connect(deadline, times)
            if not reason:
                payload = self.rng.randbytes(ECHO_SIZE)
                tunnel = session.node.tunnels[session.service]
                echoed = Waiter(session.node, lambda n: len(tunnel.rx) >= ECHO_SIZE)
                await session.send(payload)
                if not await echoed.wait(deadline):
                    reason = "deadline:echo"
                elif bytes(tunnel.rx[:ECHO_SIZE]) != payload:
                    self.mismatched += 1
                    reason = "echo-mismatch"
        finally:
            await session.stop()
        if reason == "deadline:auth" and any(r.get("verdict") == "rejected-accept" for r in session.host.logs):
            reason += ":accept-rejected"  # the controller answered an older SPA's nonce
        if "ready" in times:
            self.auth.append(times["ready"] - times["start"])
        if "granted" in times:
            self.grant.append(times["granted"] - times["open"])
        if reason:
            self.reasons[reason] = self.reasons.get(reason, 0) + 1
        else:
            self.ok += 1

    async def run(self, t1: float) -> None:
        started = clock()
        while (begun := clock()) < t1:
            await self.attempt()
            rest = begun + self.period - clock()
            if rest > 0:
                await asyncio.sleep(rest)
        self.busy_s += clock() - started


def flood_source(i: int) -> str:
    """127.66.0.1 .. 127.67.249.250, never a legitimate client's address."""
    i %= 2 * 250 * 250
    return f"127.{66 + i // 62500}.{(i // 250) % 250}.{i % 250 + 1}"


class Flood:
    """Forged SPA datagrams in equal thirds (malformed, gateway-target with
    the probe's id and a wrong tag, controller-target with random ids) and
    TCP initiations that are aborted right after connect. One connection at
    most is open at any time."""

    def __init__(self, cfg, probe_id: bytes, rng: random.Random, spa_rate: float, tcp_rate: float):
        self.spa_rate, self.tcp_rate = spa_rate, tcp_rate
        self.n_spa = self.n_tcp = 0
        self.late = []
        gw = cfg.gateways[0].host
        self.spa_dst = (gw, cfg.ports.spa)
        self.tcp_dst = (gw, cfg.services[0].public_port)
        self.rng = rng
        self.wrong_key = spa.SpaKey(probe_id, rng.randbytes(spa.SECRET_LEN))
        self.udp = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self.udp.setblocking(False)
        self.sent = {"malformed": 0, "bad-tag": 0, "relay-gate": 0, "tcp": 0}
        self.errors = 0

    def datagram(self, i: int, now_wall: float) -> tuple[str, bytes]:
        kind = i % 3
        if kind == 0:
            size = self.rng.choice((self.rng.randrange(1, spa.PACKET_LEN), spa.PACKET_LEN + 1 + self.rng.randrange(64)))
            return "malformed", self.rng.randbytes(size)
        if kind == 1:
            counter = int(now_wall * 1000) + i
            pkt = spa.build_spa(self.wrong_key, counter, spa.TargetRole.GATEWAY, now_wall, self.rng.randbytes(spa.NONCE_LEN))
            return "bad-tag", pkt.encode()
        key = spa.SpaKey(self.rng.randbytes(spa.CLIENT_ID_LEN), self.rng.randbytes(spa.SECRET_LEN))
        pkt = spa.build_spa(key, 1 + i, spa.TargetRole.CONTROLLER, now_wall, self.rng.randbytes(spa.NONCE_LEN))
        return "relay-gate", pkt.encode()

    def send_datagram(self, i: int) -> None:
        kind, data = self.datagram(i, time.time())
        src = socket.inet_aton(flood_source(i))
        anc = [(socket.IPPROTO_IP, IP_PKTINFO, struct.pack("=i4s4s", 0, src, b"\0\0\0\0"))]
        try:
            self.udp.sendmsg([data], anc, 0, self.spa_dst)
            self.sent[kind] += 1
        except OSError:
            self.errors += 1

    def initiate(self, i: int) -> None:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            sock.setblocking(False)
            sock.bind((flood_source(i + 1), 0))
            sock.connect_ex(self.tcp_dst)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, LINGER_ABORT)
            self.sent["tcp"] += 1
        except OSError:
            self.errors += 1
        finally:
            sock.close()

    async def run(self, t0: float, t1: float) -> None:
        """Send every packet due in [t0, t1) at the fixed rates; a packet
        sent late is still sent, and its lateness is recorded."""
        n_spa = n_tcp = 0
        while True:
            now = clock()
            due_spa = t0 + n_spa / self.spa_rate
            due_tcp = t0 + n_tcp / self.tcp_rate
            if min(due_spa, due_tcp) >= t1:
                return
            while due_spa <= now and due_spa < t1:
                self.send_datagram(self.n_spa)
                self.late.append(clock() - due_spa)
                n_spa += 1
                self.n_spa += 1
                due_spa = t0 + n_spa / self.spa_rate
            while due_tcp <= now and due_tcp < t1:
                self.initiate(self.n_tcp)
                self.late.append(clock() - due_tcp)
                n_tcp += 1
                self.n_tcp += 1
                due_tcp = t0 + n_tcp / self.tcp_rate
            await asyncio.sleep(max(min(due_spa, due_tcp) - clock(), 0.0))


async def main_async(args) -> int:
    with open(args.plan, "r", encoding="utf-8") as fh:
        plan = json.load(fh)
    cfg = load_config(args.config)
    material = load_material(cfg, os.path.dirname(os.path.abspath(args.config)))
    rng = random.Random(plan["seed"])

    session = Session(cfg, material, plan["probe"], random.Random(rng.random()))
    try:
        reason = await session.connect(clock() + 10.0, {})
        if reason:
            print(f"probe failed to connect: {reason}", file=sys.stderr, flush=True)
            return 3
        probe = Probe(session, random.Random(rng.random()), plan["probe_period"])
        churn_rng = random.Random(rng.random())
        churn = None
        if plan["churn"]:
            churn = Churn(cfg, material, plan["pool"], churn_rng, plan["deadline"], plan["churn_period"])
        flood = None
        if plan["spa_rate"] > 0:
            flood = Flood(cfg, bytes.fromhex(plan["probe"]), random.Random(rng.random()), plan["spa_rate"], plan["tcp_rate"])
        print("ready", flush=True)
        loop = asyncio.get_running_loop()
        while True:
            # "go <t0> <seconds>" runs one window starting at perf_counter t0
            words = (await loop.run_in_executor(None, sys.stdin.readline)).split()
            if not words or words[0] != "go":
                break
            t0 = float(words[1])
            t1 = t0 + float(words[2])
            await asyncio.sleep(max(t0 - clock(), 0.0))
            tasks = [probe.run(t0, t1)] + ([churn.run(t1)] if churn else []) + ([flood.run(t0, t1)] if flood else [])
            await asyncio.gather(*tasks)
            print("done", flush=True)
    finally:
        await session.stop()
    if flood is not None:
        flood.udp.close()
    result = {
        "probe_sent": probe.sent, "probe_rtt": probe.rtt, "probe_lost": probe.lost,
        "probe_mismatch": probe.mismatched, "probe_late": probe.late,
    }
    if churn is not None:
        result.update(churn_attempts=churn.attempts, churn_ok=churn.ok, churn_auth=churn.auth, churn_grant=churn.grant,
                      churn_reasons=churn.reasons, churn_mismatch=churn.mismatched, churn_busy_s=churn.busy_s)
    if flood is not None:
        result.update(flood_sent=flood.sent, flood_errors=flood.errors, flood_late=flood.late)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Legitimate clients and keyless flood for the perimeter benchmark.")
    parser.add_argument("--config", required=True)
    parser.add_argument("--plan", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace")
    args = parser.parse_args(argv)
    tracer = None
    if args.trace:
        from tracer import Tracer, instrument

        tracer = Tracer()
        instrument(tracer)
    code = asyncio.run(main_async(args))
    if tracer is not None:
        tracer.dump(args.trace)
    return code


if __name__ == "__main__":
    sys.exit(main())
