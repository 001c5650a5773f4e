"""Loopback integration on real sockets, and backend equivalence.

Every host binds its own 127.0.0.x alias so source addresses are meaningful.
Each test uses its own port range to avoid collisions.
"""

import asyncio
import errno
import json
import os
import random
import socket
import struct
import subprocess
import sys
import time
import types

import pytest

import sdperim.client
import sdperim.transport.real
from sdperim import spa
from sdperim.config import generate_material
from sdperim.deploy import build_client, build_controller, build_gateway, build_sim, default_config
from sdperim.services import EchoNode
from sdperim.transport.base import Send, SendDatagram
from sdperim.transport.base import FRAMED, LOG_KEEP, RAW, AcceptStream, Close, Log, Node
from sdperim.transport.real import POLL_INTERVAL, RealHost
from sdperim.wire import MAX_FRAME_LEN, F, Kind, encode_frame

CTRL_IP, GW_IP, CLOUD_IP, CLIENT_IP, OTHER_IP = (
    "127.0.0.10",
    "127.0.0.11",
    "127.0.0.12",
    "127.0.0.13",
    "127.0.0.14",
)


def loopback_config(base: int, seed: int = 7):
    return default_config(
        seed=seed,
        ports={"spa": base + 1, "control": base},
        controller={"id": "cc" * 16, "host": CTRL_IP},
        gateways=[{"id": "bb" * 16, "host": GW_IP}],
        clients=[{"id": "aa" * 16, "host": CLIENT_IP, "services": ["echo-cloud"]}],
        services=[
            {
                "service_id": "echo-cloud",
                "gateway": "bb" * 16,
                "protected_host": CLOUD_IP,
                "protected_port": base + 2,
                "public_port": base + 3,
            }
        ],
    )


async def wait_for(cond, timeout=10.0, step=0.01):
    for _ in range(int(timeout / step)):
        if cond():
            return True
        await asyncio.sleep(step)
    return cond()


class Stack:
    """Controller + gateway + echo on loopback; clients join per test."""

    def __init__(self, base: int, seed: int = 7):
        self.cfg = loopback_config(base, seed)
        self.material = generate_material(self.cfg, random.Random(f"material:{seed}"))
        self.ctrl = build_controller(self.cfg, self.material, random.Random(seed + 1))
        self.gw = build_gateway(self.cfg, self.material, "bb" * 16, random.Random(seed + 2))
        self.echo = EchoNode(CLOUD_IP, base + 2)
        self.hosts = []

    async def __aenter__(self):
        for node, ip in ((self.ctrl, CTRL_IP), (self.gw, GW_IP), (self.echo, CLOUD_IP)):
            host = RealHost(node, ip)
            self.hosts.append(host)
            await host.start()
        assert await wait_for(lambda: self.gw.registered, 5.0)
        return self

    async def __aexit__(self, *exc):
        for host in reversed(self.hosts):
            await host.stop()

    async def join_client(self, seed=3):
        client = build_client(self.cfg, self.material, "aa" * 16, random.Random(seed))
        host = RealHost(client, CLIENT_IP)
        self.hosts.append(host)
        await host.start()
        return client, host


def frame_tap(node, record):
    """Record the ordered frame kinds a node sends and receives."""
    for name in ("start", "on_datagram", "on_stream_request", "on_connected",
                 "on_connect_failed", "on_data", "on_closed", "on_timer"):
        original = getattr(node, name)

        def wrap(original=original, hook=name):
            def inner(*args):
                if hook == "on_data" and len(args[1]) >= 5:
                    record.append(("in", args[1][4]))
                actions = original(*args)
                for action in actions or ():
                    if isinstance(action, Send) and len(action.data) >= 5:
                        record.append(("out", action.data[4]))
                    elif isinstance(action, SendDatagram):
                        record.append(("out", "spa"))
                return actions

            return inner

        setattr(node, name, wrap())


def test_full_session_and_echo_round_trip():
    async def main():
        async with Stack(21000) as stack:
            client, host = await stack.join_client()
            assert await wait_for(lambda: client.ready)
            assert client.session_id is not None and not client.revoked
            await host.call(lambda now: client.open_service("echo-cloud", now))
            assert await wait_for(lambda: client.requests[1].state == "granted")
            await host.call(lambda now: client.open_tunnel_stream("echo-cloud"))
            assert await wait_for(lambda: client.tunnels["echo-cloud"].established)
            await host.call(lambda now: client.tunnel_send("echo-cloud", b"ping-over-loopback"))
            assert await wait_for(lambda: bytes(client.tunnels["echo-cloud"].rx) == b"ping-over-loopback")
            # application binding: only the gateway ever reached the service
            assert set(stack.echo.stats.origins) == {GW_IP}

    asyncio.run(main())


def test_wrong_key_times_out_dark(monkeypatch):
    monkeypatch.setattr(sdperim.client, "SPA_TIMEOUT", 0.4)

    async def main():
        async with Stack(21100) as stack:
            bad = build_client(stack.cfg, stack.material, "aa" * 16, random.Random(5))
            bad.spa_key = spa.SpaKey(bad.spa_key.client_id, b"\xee" * 32)
            received = []
            frame_tap(bad, received)
            bad_host = RealHost(bad, CLIENT_IP)
            stack.hosts.append(bad_host)
            await bad_host.start()
            assert await wait_for(lambda: bad.failed, 5.0)
            assert bad._attempts == 3
            assert [k for d, k in received if d == "in"] == []  # silence, only timeouts

    asyncio.run(main())


def test_backend_equivalence_frame_kind_sequences():
    """The client observes the same ordered frame kinds on both backends."""
    dep = build_sim(default_config(seed=9))
    sim_client = dep.client()
    sim_seen = []
    frame_tap(sim_client, sim_seen)
    dep.net.run(until=1.0)
    dep.net.add_node(sim_client)
    dep.net.run(until=5.0)
    assert sim_client.ready
    dep.net.act(sim_client, sim_client.open_service("echo-cloud", dep.net.clock))
    dep.net.run(until=8.0)
    assert sim_client.requests[1].state == "granted"

    async def loopback():
        async with Stack(21200, seed=9) as stack:
            client = build_client(stack.cfg, stack.material, "aa" * 16, random.Random(9))
            seen = []
            frame_tap(client, seen)
            host = RealHost(client, CLIENT_IP)
            stack.hosts.append(host)
            await host.start()
            assert await wait_for(lambda: client.ready)
            await host.call(lambda now: client.open_service("echo-cloud", now))
            assert await wait_for(lambda: client.requests[1].state == "granted")
            return seen

    real_seen = asyncio.run(loopback())
    assert sim_seen == real_seen


def test_unauthorized_connection_severed_before_any_byte():
    async def main():
        async with Stack(21300) as stack:
            client, host = await stack.join_client()
            assert await wait_for(lambda: client.ready)
            await host.call(lambda now: client.open_service("echo-cloud", now))
            assert await wait_for(lambda: client.requests[1].state == "granted")
            # a different source hits the authorized public port
            public = stack.cfg.services[0].public_port
            reader, writer = await asyncio.open_connection(GW_IP, public, local_addr=(OTHER_IP, 0))
            try:
                writer.write(b"probe")
                data = await asyncio.wait_for(reader.read(64), timeout=2.0)
                assert data == b""  # severed cleanly: end of stream
            except ConnectionError:
                pass  # severed with a reset: equally no service bytes
            finally:
                writer.close()
            assert stack.echo.stats.origins.get(OTHER_IP) is None

    asyncio.run(main())


def test_gateway_relay_is_transparent_end_to_end():
    # the client <-> controller channel is end-to-end sealed; authentication
    # succeeding at all proves the relay never altered a byte
    async def main():
        async with Stack(21400) as stack:
            client, host = await stack.join_client()
            assert await wait_for(lambda: client.ready)
            assert client.session_id is not None
            assert stack.ctrl.session_count() == 1

    asyncio.run(main())


# -- RealHost's own behaviour: contained hook failures, framing errors, logs -----
# (what both drivers promise is tested once in test_driver_contract)


class ContractNode(Node):
    """Records datagrams, accepts every stream and echoes its bytes; raises
    on as many stream requests as ``fail_requests`` says."""

    def __init__(self, udp_ports=(), tcp_ports=None, fail_requests=0):
        super().__init__("contract")
        self.udp_ports = list(udp_ports)
        self.tcp_ports = dict(tcp_ports or {})
        self.fail_requests = fail_requests
        self.datagrams = []
        self.connected = []
        self.closed = []

    def on_datagram(self, port, src, data, now):
        self.datagrams.append(data)
        return []

    def on_stream_request(self, flow, port, src, now):
        if self.fail_requests:
            self.fail_requests -= 1
            raise RuntimeError("hook failure")
        return [AcceptStream(flow)]

    def on_connected(self, flow, now):
        self.connected.append(flow)
        return []

    def on_data(self, flow, data, now):
        return [Send(flow, data)]

    def on_closed(self, flow, now):
        self.closed.append(flow)
        return []


async def run_contract(node, ip, body):
    """Run ``body(host, errors)`` on a started host; ``errors`` collects what
    the event loop reports as unhandled."""
    errors = []
    asyncio.get_running_loop().set_exception_handler(lambda loop, ctx: errors.append(ctx))
    host = RealHost(node, ip)
    await host.start()
    try:
        await body(host, errors)
    finally:
        await host.stop()


def test_raising_stream_request_hook_severs_that_stream_only():
    node = ContractNode(tcp_ports={21601: RAW}, fail_requests=1)

    async def body(host, errors):
        reader, writer = await asyncio.open_connection("127.0.0.31", 21601, local_addr=(OTHER_IP, 0))
        try:
            data = await asyncio.wait_for(reader.read(64), timeout=5.0)
            assert data == b""  # severed: end of stream
        except ConnectionError:
            pass  # severed with a reset
        finally:
            writer.close()
        assert errors and node.connected == []
        reader, writer = await asyncio.open_connection("127.0.0.31", 21601, local_addr=(OTHER_IP, 0))
        try:
            writer.write(b"still-serving")
            assert await asyncio.wait_for(reader.readexactly(13), timeout=5.0) == b"still-serving"
        finally:
            writer.close()

    asyncio.run(run_contract(node, "127.0.0.31", body))


def test_oversized_frame_header_closes_stream_once():
    node = ContractNode(tcp_ports={21701: FRAMED})

    async def body(host, errors):
        reader, writer = await asyncio.open_connection("127.0.0.32", 21701, local_addr=(OTHER_IP, 0))
        try:
            assert await wait_for(lambda: node.connected, 5.0)
            writer.write((MAX_FRAME_LEN + 1).to_bytes(4, "big"))
            try:
                assert await asyncio.wait_for(reader.read(64), timeout=5.0) == b""
            except ConnectionError:
                pass
            await asyncio.sleep(0.1)  # a second on_closed would arrive with the kernel's close
        finally:
            writer.close()
        assert node.closed == node.connected and len(node.closed) == 1
        assert errors == []

    asyncio.run(run_contract(node, "127.0.0.32", body))


def test_log_file_gets_every_record_and_memory_keeps_none(tmp_path):
    path = tmp_path / "host.jsonl"
    host = RealHost(ContractNode(), "127.0.0.33", log_path=str(path))

    async def main():
        await host.start()
        try:
            await host.call(lambda now: [Log({"i": i}) for i in range(LOG_KEEP + 5)])
        finally:
            await host.stop()

    asyncio.run(main())
    assert [json.loads(line)["i"] for line in path.read_text().splitlines()] == list(range(LOG_KEEP + 5))
    assert list(host.logs) == []


# what perimbench reads: the gateway's log file, live and after the run
LOG_CONTRACT_RECORDS = [
    {"event": "register", "verdict": "ok"},
    {"src": "10.0.0.1", "name": "g\u00e4tew\u00e4y \u2713 \u2028 \U0001f512", "esc": 'a"b\\c\n\t\x00'},
    {"int": 7, "big": 2**70, "neg": -1, "float": 0.1, "tiny": 1e-300, "inf": float("inf"), "nan": float("nan")},
    {"true": True, "false": False, "none": None},
    {"list": [1, "two", 3.5, None, [False]], "empty": [], "nested": {"b": 1, "a": [2]}, "z": 1, "a": 2},
]


def test_log_lines_are_the_bytes_of_json_dumps(tmp_path, monkeypatch):
    ts = 1760000000.123456
    monkeypatch.setattr(sdperim.transport.real, "time", types.SimpleNamespace(time=lambda: ts))
    path = tmp_path / "host.jsonl"
    host = RealHost(ContractNode(), "127.0.0.40", log_path=str(path))
    seen = []

    async def main():
        await host.start()
        try:
            for record in LOG_CONTRACT_RECORDS:
                await host.call(lambda now: [Log(record)])
                seen.append(path.read_bytes())  # each line is in the file once it is logged
        finally:
            await host.stop()

    asyncio.run(main())
    lines = [json.dumps({"ts": ts, **r}, sort_keys=True) + "\n" for r in LOG_CONTRACT_RECORDS]
    assert seen == ["".join(lines[: i + 1]).encode() for i in range(len(LOG_CONTRACT_RECORDS))]


def test_log_line_survives_short_writes(tmp_path, monkeypatch):
    path = tmp_path / "host.jsonl"
    host = RealHost(ContractNode(), log_path=str(path))
    host._log_fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
    write = os.write
    monkeypatch.setattr(os, "write", lambda fd, data: write(fd, bytes(data[:7])))
    try:
        for record in LOG_CONTRACT_RECORDS:
            host._write_log(record)
    finally:
        monkeypatch.undo()
        os.close(host._log_fd)
    assert path.read_text() == "".join(json.dumps(r, sort_keys=True) + "\n" for r in LOG_CONTRACT_RECORDS)


def test_datagrams_arrive_exactly():
    node = ContractNode(udp_ports=[21801])
    sizes = [0, spa.PACKET_LEN + 1, 65507]  # 65,507: the largest IPv4 UDP payload

    async def body(host, errors):
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sender:
            sender.bind((OTHER_IP, 0))
            sent = [random.Random(n).randbytes(n) for n in sizes]
            for data in sent:
                sender.sendto(data, ("127.0.0.34", 21801))
            assert await wait_for(lambda: len(node.datagrams) == len(sent), 5.0)
        assert node.datagrams == sent
        assert errors == []

    asyncio.run(run_contract(node, "127.0.0.34", body))


def test_spa_with_trailing_byte_is_a_malformed_drop():
    async def main():
        async with Stack(21900) as stack:
            key = build_client(stack.cfg, stack.material, "aa" * 16, random.Random(1)).spa_key
            data = spa.build_spa(key, 1, spa.TargetRole.GATEWAY, time.time()).encode() + b"\x00"
            seen = []
            on_datagram = stack.gw.on_datagram

            def record(port, src, d, now):
                seen.append(d)
                return on_datagram(port, src, d, now)

            stack.gw.on_datagram = record
            with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sender:
                sender.bind((CLIENT_IP, 0))
                sender.sendto(data, (GW_IP, stack.cfg.ports.spa))
                assert await wait_for(lambda: seen, 5.0)
            assert seen == [data]
            gw_logs = stack.hosts[1].logs
            assert {"event": "spa", "verdict": "drop", "reason": "malformed", "src": CLIENT_IP} in [
                {k: v for k, v in r.items() if k != "ts"} for r in gw_logs
            ]
            assert not stack.gw.data_gate and not stack.gw.relay_gate

    asyncio.run(main())


class ScriptedNode(ContractNode):
    """Answers every stream request with ``respond(flow)`` and records the
    source it was given."""

    def __init__(self, tcp_ports, respond):
        super().__init__(tcp_ports=tcp_ports)
        self.respond = respond
        self.sources = []

    def on_stream_request(self, flow, port, src, now):
        self.sources.append(src)
        return self.respond(flow)


def abort_initiation(dst) -> tuple:
    """Connect from OTHER_IP and close at once with a reset; return the
    initiator's own address."""
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind((OTHER_IP, 0))
        sock.setblocking(False)
        sock.connect_ex(dst)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        return sock.getsockname()


def test_aborting_initiators_are_reported_with_their_address():
    node = ScriptedNode({22301: RAW}, lambda flow: [])

    async def body(host, errors):
        for i in range(200):
            abort_initiation(("127.0.0.38", 22301))
            if i % 20 == 19:  # paced, so the backlog of 100 never overflows
                assert await wait_for(lambda: len(node.sources) == i + 1, 5.0)
        assert {src[0] for src in node.sources} == {OTHER_IP}
        assert host._flows == {} and errors == []

    asyncio.run(run_contract(node, "127.0.0.38", body))


class EmfileListener(socket.socket):
    """A listening socket whose accept fails as if the process had run out
    of file descriptors."""

    def __init__(self):
        super().__init__(socket.AF_INET, socket.SOCK_STREAM)
        self.accepts = []

    def _accept(self):
        self.accepts.append(time.monotonic())
        raise OSError(errno.EMFILE, os.strerror(errno.EMFILE))


def test_listener_out_of_descriptors_pauses_instead_of_spinning():
    node = ContractNode()

    async def body(host, errors):
        loop = asyncio.get_running_loop()
        with EmfileListener() as lsock:
            lsock.bind(("127.0.0.39", 22401))
            lsock.listen()
            lsock.setblocking(False)
            host._listen(lsock, 22401, RAW)
            # the handshake completes in the kernel, so the listener stays readable
            with socket.create_connection(("127.0.0.39", 22401), timeout=5.0):
                assert await wait_for(lambda: lsock.accepts, 5.0)
                await asyncio.sleep(0.5)
                assert len(lsock.accepts) == 1
                assert loop.remove_reader(lsock) is False  # off the selector
                assert await wait_for(lambda: len(lsock.accepts) == 2, 3.0)  # and back
            assert 0.9 <= lsock.accepts[1] - lsock.accepts[0] < 2.0
            loop.remove_reader(lsock)
        assert [e["message"] for e in errors] == ["socket.accept() out of system resource"] * 2

    asyncio.run(run_contract(node, "127.0.0.39", body))


# -- busy listeners: polled on a tick, datagrams before control events -------


class OrderNode(Node):
    """Records, in order, each datagram as ``(port, data)``, each stream
    request as ``(port, "request", peer)`` and each chunk as ``("data",
    chunk)``; accepts streams on ``accept_ports`` only."""

    def __init__(self, udp_ports=(), tcp_ports=None, accept_ports=()):
        super().__init__("order")
        self.udp_ports = list(udp_ports)
        self.tcp_ports = dict(tcp_ports or {})
        self.accept_ports = set(accept_ports)
        self.events = []

    def on_datagram(self, port, src, data, now):
        self.events.append((port, data))
        return []

    def on_stream_request(self, flow, port, src, now):
        self.events.append((port, "request", src))
        return [AcceptStream(flow)] if port in self.accept_ports else []

    def on_data(self, flow, data, now):
        self.events.append(("data", data))
        return []


def test_burst_is_delivered_once_in_order_and_the_listeners_settle():
    # four datagram listeners and two stream listeners, each sent about what
    # its kernel queue holds, before the loop runs again: first datagrams and
    # initiations together (each accept takes the queued datagrams first),
    # then datagrams alone
    ip, udp, tcp = "127.0.0.41", [22501, 22502, 22503, 22504], [22511, 22512]
    node = OrderNode(udp, {port: RAW for port in tcp})
    polled = set()  # the kinds of listener a tick found parked
    ticks = []  # (start, end) loop times of each tick

    async def body(host, errors):
        loop, poll = asyncio.get_running_loop(), host._poll

        def timed_poll():
            polled.update(lst.mode for lst in host._parked)
            start = loop.time()
            poll()
            ticks.append((start, loop.time()))

        host._poll = timed_poll
        senders = [socket.socket(socket.AF_INET, socket.SOCK_DGRAM) for _ in udp]
        peers = {port: [] for port in tcp}
        try:
            for sender in senders:
                sender.bind((OTHER_IP, 0))
            for burst in range(2):
                for i in range(250 * burst, 250 * (burst + 1)):
                    for sender, port in zip(senders, udp):
                        sender.sendto(b"%d" % i, (ip, port))
                if burst == 0:
                    for port in tcp:
                        peers[port] += [abort_initiation((ip, port)) for _ in range(100)]
                ticks.clear()
                assert await wait_for(lambda: len(node.events) == 1200 + 1000 * burst, 10.0)
                assert await wait_for(lambda: not host._parked and host._tick is None, 1.0)
        finally:
            for sender in senders:
                sender.close()
        for port in udp:
            assert [e[1] for e in node.events if e[0] == port] == [b"%d" % i for i in range(500)]
        for port in tcp:
            assert [e[2] for e in node.events if e[0] == port] == peers[port]
        assert polled == {None, RAW}  # both kinds were polled, not read one wakeup at a time
        # 250 queued on each listener fill its budget more than once, and a
        # tick that fills one is followed at once, not a POLL_INTERVAL later
        gaps = [b[0] - a[1] for a, b in zip(ticks, ticks[1:])]
        assert sum(gap < POLL_INTERVAL / 2 for gap in gaps) >= 2, gaps
        assert host._flows == {} and errors == []

    asyncio.run(run_contract(node, ip, body))


def test_queued_datagrams_reach_the_node_before_a_stream_and_its_frame():
    ip, port_udp, port_tcp = "127.0.0.42", 22601, 22602
    node = OrderNode([port_udp], {port_tcp: FRAMED}, accept_ports=[port_tcp])
    frame = encode_frame(Kind.RELAY_DATA, [(F.DATA, b"after the datagrams")])
    burst = [b"junk %d" % i for i in range(200)] + [b"mark"]

    async def body(host, errors):
        # each burst is sent without yielding to the loop, so all of it is
        # queued when the host wakes to the stream or to its frame
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sender:
            sender.bind((OTHER_IP, 0))
            for data in burst:
                sender.sendto(data, (ip, port_udp))
            with socket.create_connection((ip, port_tcp), timeout=5.0, source_address=(OTHER_IP, 0)) as stream:
                assert await wait_for(lambda: len(node.events) == 202, 5.0)
                for data in burst:
                    sender.sendto(data, (ip, port_udp))
                stream.sendall(frame)
                assert await wait_for(lambda: len(node.events) == 404, 5.0)
        seen = [e[1] if e[0] != port_tcp else "request" for e in node.events]
        assert seen == burst + ["request"] + burst + [frame]
        assert errors == []

    asyncio.run(run_contract(node, ip, body))


class EvictingNode(OrderNode):
    """Closes its newest stream when a datagram says ``evict``, as a gateway
    closes a stream awaiting its hello when that stream's gate is evicted;
    records the flow of each stream it hears is connected."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.connected = []

    def on_datagram(self, port, src, data, now):
        super().on_datagram(port, src, data, now)
        return [Close(self._next_flow - 1)] if data == b"evict" else []

    def on_connected(self, flow, now):
        self.connected.append(flow)
        return []


def test_a_frame_whose_stream_the_queued_datagrams_closed_is_dropped():
    ip, port_udp, port_tcp = "127.0.0.45", 22901, 22902
    node = EvictingNode([port_udp], {port_tcp: FRAMED}, accept_ports=[port_tcp])
    frame = encode_frame(Kind.RELAY_DATA, [(F.DATA, b"too late")])

    async def body(host, errors):
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sender:
            sender.bind((OTHER_IP, 0))
            with socket.create_connection((ip, port_tcp), timeout=5.0, source_address=(OTHER_IP, 0)) as stream:
                assert await wait_for(lambda: node.connected, 5.0)  # the host reads the stream
                # both queued before the host wakes, the frame's stream readable first
                stream.sendall(frame)
                sender.sendto(b"evict", (ip, port_udp))
                assert await wait_for(lambda: (port_udp, b"evict") in node.events, 5.0)
                await asyncio.sleep(0.1)
        assert node.events[1:] == [(port_udp, b"evict")]
        assert host._flows == {} and errors == []

    asyncio.run(run_contract(node, ip, body))


class IcmpErrorSocket(socket.socket):
    """A datagram socket whose every other read fails as a queued ICMP error
    would."""

    def __init__(self):
        super().__init__(socket.AF_INET, socket.SOCK_DGRAM)
        self.reads = 0

    def recvfrom_into(self, buf):
        self.reads += 1
        if self.reads % 2:
            raise ConnectionRefusedError(errno.ECONNREFUSED, os.strerror(errno.ECONNREFUSED))
        return super().recvfrom_into(buf)


def test_queued_icmp_errors_do_not_end_a_drain():
    ip, port_udp, port_tcp = "127.0.0.44", 22801, 22802
    node = OrderNode(tcp_ports={port_tcp: RAW})
    burst = [b"%d" % i for i in range(3)]

    async def body(host, errors):
        host._listen(lsock, port_udp, None)
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sender:
            sender.bind((OTHER_IP, 0))
            for data in burst:
                sender.sendto(data, (ip, port_udp))
        abort_initiation((ip, port_tcp))
        assert await wait_for(lambda: len(node.events) == 4, 5.0)
        assert [e[1] if e[0] == port_udp else "request" for e in node.events] == burst + ["request"]
        assert errors == []

    with IcmpErrorSocket() as lsock:  # closed after the loop that watches it
        lsock.bind((ip, port_udp))
        lsock.setblocking(False)
        asyncio.run(run_contract(node, ip, body))


def test_stop_while_listeners_are_parked_ends_every_hook():
    ip, port_udp, port_tcp = "127.0.0.43", 22701, 22702
    node = OrderNode([port_udp], {port_tcp: RAW})
    host = RealHost(node, ip)
    errors = []

    async def main():
        asyncio.get_running_loop().set_exception_handler(lambda loop, ctx: errors.append(ctx))
        await host.start()
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sender:
            sender.bind((OTHER_IP, 0))
            try:
                for _ in range(100):  # a steady flood until both listeners are polled
                    for i in range(20):
                        sender.sendto(b"%d" % i, (ip, port_udp))
                    abort_initiation((ip, port_tcp))
                    await asyncio.sleep(0.001)
                    if len(host._parked) == 2:
                        break
                assert len(host._parked) == 2
                for i in range(200):  # still queued when the host stops
                    sender.sendto(b"%d" % i, (ip, port_udp))
                    if i % 2:
                        abort_initiation((ip, port_tcp))
            finally:
                await host.stop()
            seen = len(node.events)
            for i in range(20):
                sender.sendto(b"%d" % i, (ip, port_udp))
            await asyncio.sleep(0.05)  # ten ticks
        assert len(node.events) == seen
        assert host._tick is None and host._parked == [] and errors == []

    asyncio.run(main())


def _proc_status():
    with open("/proc/self/maps") as fh:
        maps = sum(1 for _ in fh)
    with open("/proc/self/status") as fh:
        rss_kb = next(int(line.split()[1]) for line in fh if line.startswith("VmRSS:"))
    return maps, rss_kb


def retain_datagrams(count: int, batch: int = 100) -> dict:
    """Have a recording node on ``RealHost`` keep ``count`` 90-byte
    datagrams; return how much the memory mappings and VmRSS (kB) grew."""
    node = ContractNode(udp_ports=[22001])
    grew = {}

    async def body(host, errors):
        maps0, rss0 = _proc_status()
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sender:
            sender.bind((OTHER_IP, 0))
            for start in range(0, count, batch):  # paced: the receive queue holds a few hundred
                for i in range(start, start + batch):
                    sender.sendto(i.to_bytes(4, "big") * 22 + b"sp", ("127.0.0.35", 22001))
                assert await wait_for(lambda: len(node.datagrams) == start + batch, 5.0)
        maps1, rss1 = _proc_status()
        assert [len(d) for d in node.datagrams] == [90] * count
        grew.update(maps=maps1 - maps0, rss_kb=rss1 - rss0)

    asyncio.run(run_contract(node, "127.0.0.35", body))
    return grew


@pytest.mark.skipif(not os.path.exists("/proc/self/maps"), reason="needs /proc")
def test_retained_datagrams_stay_small():
    # The gateway keeps each controller-target SPA datagram for its gate
    # window, so a datagram must not cost a page and a mapping of its own.
    # glibc raises its mmap threshold once a process frees a large mapped
    # block, and then the cost hides; a fresh interpreter with the threshold
    # pinned at its initial 128 KiB shows it whatever ran before.
    from sdperim import __file__ as pkg

    src = os.path.dirname(os.path.dirname(os.path.abspath(pkg)))
    here = os.path.dirname(os.path.abspath(__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, here]), "MALLOC_MMAP_THRESHOLD_": "131072"}
    code = "import json, test_real_backend as t; print(json.dumps(t.retain_datagrams(2000)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    grew = json.loads(proc.stdout.splitlines()[-1])
    assert grew["maps"] < 200  # one mapping per datagram would be 2,000
    assert grew["rss_kb"] < 4 * 1024  # a page per datagram would be 8,000 kB
