"""The node/driver contract of ``transport/base.py``, tested once against
both drivers.

Every case runs scripted toy nodes under ``SimNet`` (over ``two_way`` links,
on the virtual clock) and under ``RealHost`` (one host per node, each on its
own loopback alias). A node's name is its host address under both drivers,
so a case addresses its peers the same way on either. Where the drivers
differ by design, the case says so and asserts each side.
"""

import asyncio
import os
import socket
import time

import pytest

from sdperim.client import ForwardNode
from sdperim.transport.base import (
    FRAMED,
    RAW,
    AcceptStream,
    LOG_KEEP,
    CancelTimer,
    Close,
    Log,
    Node,
    OpenStream,
    Send,
    SendDatagram,
    SetTimer,
)
from sdperim.transport.real import RealHost
from sdperim.transport.sim import SimNet, Topology, two_way
from sdperim.wire import MAX_FRAME_LEN, F, Kind, encode_frame

A, B, C = "127.0.0.60", "127.0.0.61", "127.0.0.62"


def frame(payload: bytes) -> bytes:
    return encode_frame(Kind.RELAY_DATA, [(F.DATA, payload)])


def accept(flow):
    return [AcceptStream(flow)]


class Toy(Node):
    """Records every event in order, with the time it ran. Answers a stream
    request with ``answer(flow)``; with ``echo``, sends each chunk back. A
    datagram ``b"boom"`` or a timer named ``boom`` makes its hook raise."""

    def __init__(self, name, udp=(), tcp=None, answer=accept, echo=False):
        super().__init__(name)
        self.udp_ports = list(udp)
        self.tcp_ports = dict(tcp or {})
        self.answer = answer
        self.echo = echo
        self.events = []
        self.times = []

    def _record(self, now, *event):
        self.events.append(event)
        self.times.append(now)

    def on_datagram(self, port, src, data, now):
        self._record(now, "datagram", src[0], data)
        if data == b"boom":
            raise RuntimeError("hook failure")
        return []

    def on_stream_request(self, flow, port, src, now):
        self._record(now, "request", flow, src[0])
        return self.answer(flow)

    def on_connected(self, flow, now):
        self._record(now, "connected", flow)
        return []

    def on_connect_failed(self, flow, reason, now):
        self._record(now, "failed", flow, reason)
        return []

    def on_data(self, flow, data, now):
        self._record(now, "data", flow, data)
        return [Send(flow, data)] if self.echo else []

    def on_closed(self, flow, now):
        self._record(now, "closed", flow)
        return []

    def on_timer(self, key, now):
        self._record(now, "timer", key)
        if key == "boom":
            raise RuntimeError("hook failure")
        return []

    def requests(self):
        return [e[1] for e in self.events if e[0] == "request"]

    def hooks(self, flow):
        """The hooks that ran for ``flow``, in order."""
        return [e[0] for e in self.events if e[0] not in ("datagram", "timer") and e[1] == flow]

    def chunks(self, flow):
        return [e[2] for e in self.events if e[0] == "data" and e[1] == flow]


class Driver:
    """What a case needs of a driver. ``errors`` collects each hook failure
    the driver reports; a case takes the ones it expects, and any other
    fails it."""

    def __init__(self):
        self.errors = []

    def run(self, case):
        async def main():
            asyncio.get_running_loop().set_exception_handler(lambda loop, ctx: self.errors.append(ctx))
            try:
                await case()
            finally:
                await self.stop()

        asyncio.run(main())
        assert self.errors == []

    def take_errors(self):
        errors, self.errors = self.errors, []
        return errors

    async def stop(self):
        pass


class Sim(Driver):
    kind = "sim"

    def __init__(self):
        super().__init__()
        self.net = SimNet(Topology(two_way(A, B) + two_way(C, A)), seed=1)

    async def add(self, *nodes):
        for node in nodes:
            self.net.add_node(node)
        self._run(self.net.clock)  # their start hooks

    async def act(self, node, actions):
        self.net.act(node, actions)

    async def wait(self, cond, timeout=5.0):
        """Runs the net one instant at a time until ``cond`` holds."""
        deadline, heap = self.net.clock + timeout, self.net._heap
        while not cond() and heap and heap[0][0] <= deadline:
            self._run(heap[0][0])
        return cond()

    async def settle(self, seconds):
        self._run(self.net.clock + seconds)

    def _run(self, until):
        # a raising hook's exception leaves run; the next run goes on after it
        while True:
            try:
                return self.net.run(until=until)
            except RuntimeError as exc:
                self.errors.append({"exception": exc, "clock": self.net.clock})

    def held(self, node):
        return set(self.net._by_local[node.name])

    async def late_reader(self, port, delay, size):
        """A peer on ``B:port`` that takes one stream and keeps what it
        receives; returns a function giving the bytes so far. ``SimNet``
        delivers each ``Send`` whole, so here the peer has no pace of its own."""
        peer = Toy(B, tcp={port: RAW})
        await self.add(peer)
        return lambda: b"".join(e[2] for e in peer.events if e[0] == "data")

    def logs(self, node):
        return self.net.logs[node.name]


class Real(Driver):
    kind = "real"

    def __init__(self):
        super().__init__()
        self.hosts = {}
        self.peers = []  # (task, listening socket) of each late reader

    async def add(self, *nodes):
        for node in nodes:
            self.hosts[node.name] = RealHost(node, node.name)
            await self.hosts[node.name].start()

    async def act(self, node, actions):
        await self.hosts[node.name].call(lambda now: actions)

    async def wait(self, cond, timeout=5.0):
        deadline = time.monotonic() + timeout
        while not cond() and time.monotonic() < deadline:
            await asyncio.sleep(0.005)
        return cond()

    async def settle(self, seconds):
        await asyncio.sleep(seconds)

    def held(self, node):
        return set(self.hosts[node.name]._flows)

    async def late_reader(self, port, delay, size):
        """A plain socket on ``B:port`` with a small receive buffer that takes
        one stream, waits ``delay`` seconds and then reads it ``size`` bytes
        at a time; returns a function giving the bytes so far."""
        loop, got = asyncio.get_running_loop(), bytearray()
        lsock = socket.socket()
        lsock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 16384)  # an accepted socket inherits it
        lsock.bind((B, port))
        lsock.listen()
        lsock.setblocking(False)

        async def serve():
            conn, _ = await loop.sock_accept(lsock)
            with conn:
                await asyncio.sleep(delay)
                while data := await loop.sock_recv(conn, size):
                    got.extend(data)

        self.peers.append((asyncio.ensure_future(serve()), lsock))
        return lambda: bytes(got)

    def logs(self, node):
        return self.hosts[node.name].logs

    async def stop(self):
        for host in self.hosts.values():
            await host.stop()
        for task, lsock in self.peers:
            task.cancel()
            await asyncio.gather(task, return_exceptions=True)
            lsock.close()


@pytest.fixture(params=[Sim, Real], ids=["sim", "real"])
def driver(request):
    return request.param()


def test_declined_initiation_gets_no_byte_back(driver):
    a, b = Toy(A), Toy(B, tcp={23101: RAW}, answer=lambda flow: [])

    async def case():
        await driver.add(a, b)
        flow = a.new_flow()
        await driver.act(a, [OpenStream(flow, (B, 23101), RAW), Send(flow, b"knock")])
        assert await driver.wait(lambda: b.events)
        await driver.settle(0.2)
        assert b.events == [("request", b.requests()[0], A)]  # no on_connected, no byte
        if driver.kind == "sim":
            assert a.events == []  # dark: nothing at all comes back
        else:
            # the kernel completes every handshake before the node decides,
            # and the decline closes the stream it completed
            assert a.events == [("connected", flow), ("closed", flow)]

    driver.run(case)


def test_initiation_to_an_unbound_port_fails(driver):
    a, b = Toy(A), Toy(B, tcp={23201: RAW})

    async def case():
        await driver.add(a, b)
        flow = a.new_flow()
        await driver.act(a, [OpenStream(flow, (B, 23202), RAW), Send(flow, b"lost")])
        assert await driver.wait(lambda: a.events)
        await driver.settle(0.1)
        ((hook, failed, reason),) = a.events
        assert (hook, failed) == ("failed", flow) and b.events == []
        if driver.kind == "sim":
            assert reason == "refused"
        assert driver.held(a) == set()

    driver.run(case)


def test_stream_closed_before_it_connects_reports_nothing(driver):
    a, b = Toy(A), Toy(B, tcp={23251: RAW})

    async def case():
        await driver.add(a, b)
        flow = a.new_flow()
        await driver.act(a, [OpenStream(flow, (B, 23252), RAW), Close(flow)])  # toward an unbound port
        await driver.settle(0.2)
        assert a.events == [] and b.events == []  # not even on_connect_failed
        assert driver.held(a) == set()

    driver.run(case)


def open_descriptors() -> int:
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc")
def test_close_cancels_a_pending_connect_on_real_sockets():
    a = Toy(A)

    async def main():
        host = RealHost(a, A)
        await host.start()
        # a listener whose accept queue is full drops the next SYN, so a
        # connect toward it stays pending
        with socket.socket() as full, socket.socket() as filler:
            full.bind((B, 23253))
            full.listen(0)
            filler.connect((B, 23253))
            before = open_descriptors()
            try:
                flow = a.new_flow()
                await host.call(lambda now: [OpenStream(flow, (B, 23253), RAW)])
                await asyncio.sleep(0.3)
                assert a.events == [] and set(host._flows) == {flow}
                assert open_descriptors() == before + 1  # the pending connect's socket
                await host.call(lambda now: [Close(flow)])
                await asyncio.sleep(0.2)
                assert host._flows == {} and a.events == []
                assert open_descriptors() == before
            finally:
                await host.stop()

    asyncio.run(main())


def test_writes_before_connect_arrive_in_order_after_it(driver):
    a, b = Toy(A), Toy(B, tcp={23301: FRAMED})

    async def case():
        await driver.add(a, b)
        flow = a.new_flow()
        await driver.act(a, [OpenStream(flow, (B, 23301), FRAMED), Send(flow, frame(b"one"))])
        # under SimNet the initiation has arrived and the handshake is not done
        assert await driver.wait(lambda: b.events)
        await driver.act(a, [Send(flow, frame(b"two"))])
        (peer,) = b.requests()
        assert await driver.wait(lambda: len(b.chunks(peer)) == 2)
        assert b.hooks(peer) == ["request", "connected", "data", "data"]
        assert b.chunks(peer) == [frame(b"one"), frame(b"two")]
        assert a.hooks(flow) == ["connected"]

    driver.run(case)


@pytest.mark.parametrize("mode", [FRAMED, RAW])
def test_data_flows_in_order_both_ways(driver, mode):
    # the largest legal frames (kind, field header and payload fill MAX_FRAME_LEN), more than one read in all
    payloads = [frame(bytes([i]) * n) for i, n in enumerate((1, 3000, *[MAX_FRAME_LEN - 4] * 4))]
    a, b = Toy(A), Toy(B, tcp={23401: mode}, echo=True)

    async def case():
        await driver.add(a, b)
        flow = a.new_flow()
        await driver.act(a, [OpenStream(flow, (B, 23401), mode)])
        assert await driver.wait(lambda: a.events)
        await driver.act(a, [Send(flow, p) for p in payloads])
        whole = b"".join(payloads)
        assert await driver.wait(lambda: b"".join(a.chunks(flow)) == whole)
        (peer,) = b.requests()
        assert b"".join(b.chunks(peer)) == whole
        if mode == FRAMED:  # one Send is one on_data at the far end
            assert a.chunks(flow) == payloads and b.chunks(peer) == payloads
        assert a.hooks(flow)[0] == "connected" and b.hooks(peer)[:2] == ["request", "connected"]

    driver.run(case)


@pytest.mark.parametrize("closer", ["initiator", "acceptor"])
def test_close_reaches_the_peer_once(driver, closer):
    a, b = Toy(A), Toy(B, tcp={23501: RAW})

    async def case():
        await driver.add(a, b)
        flow = a.new_flow()
        await driver.act(a, [OpenStream(flow, (B, 23501), RAW)])
        assert await driver.wait(lambda: a.events and len(b.events) == 2)
        (peer,) = b.requests()
        ends = [(a, flow), (b, peer)]
        (node, own), (other, theirs) = ends if closer == "initiator" else ends[::-1]
        await driver.act(node, [Close(own)])
        assert await driver.wait(lambda: "closed" in other.hooks(theirs))
        await driver.settle(0.2)
        assert other.hooks(theirs).count("closed") == 1
        # a Close of a flow the driver already ended, or never opened, does nothing
        await driver.act(other, [Close(theirs), Close(other.new_flow())])
        await driver.settle(0.2)
        assert other.hooks(theirs).count("closed") == 1
        assert "closed" not in node.hooks(own)  # a node hears of no close it made
        assert driver.held(a) == driver.held(b) == set()

    driver.run(case)


def test_a_node_that_closes_while_the_peers_close_is_in_flight_hears_nothing(driver):
    a, b = Toy(A), Toy(B, tcp={23521: RAW})

    async def case():
        await driver.add(a, b)
        flow = a.new_flow()
        await driver.act(a, [OpenStream(flow, (B, 23521), RAW)])
        assert await driver.wait(lambda: a.events and len(b.events) == 2)
        (peer,) = b.requests()
        # B closes before its driver has delivered A's close to it
        await driver.act(a, [Close(flow)])
        await driver.act(b, [Close(peer)])
        await driver.settle(0.2)
        assert b.hooks(peer) == ["request", "connected"] and a.hooks(flow) == ["connected"]
        assert driver.held(a) == driver.held(b) == set()

    driver.run(case)


def test_a_large_send_then_close_arrives_whole_before_the_close(driver):
    # more than the kernel takes at once, so most of it waits in the driver when the Close comes
    data = bytes(range(256)) * (4 * 4096)  # 4 MiB
    a, b = Toy(A), Toy(B, tcp={23551: RAW})

    async def case():
        await driver.add(a, b)
        flow = a.new_flow()
        await driver.act(a, [OpenStream(flow, (B, 23551), RAW)])
        assert await driver.wait(lambda: a.events and len(b.events) == 2)
        (peer,) = b.requests()
        await driver.act(a, [Send(flow, data), Close(flow)])
        assert await driver.wait(lambda: "closed" in b.hooks(peer), 20.0)
        await driver.settle(0.2)
        assert b"".join(b.chunks(peer)) == data
        hooks = b.hooks(peer)
        assert hooks[:2] == ["request", "connected"] and hooks[-1] == "closed" and hooks.count("closed") == 1
        assert a.hooks(flow) == ["connected"]
        assert driver.held(a) == driver.held(b) == set()

    driver.run(case)


def test_a_peer_that_reads_late_and_slowly_gets_a_large_send_in_order(driver):
    data = bytes(range(256)) * (3 * 4096)  # 3 MiB
    a = Toy(A)

    async def case():
        await driver.add(a)
        received = await driver.late_reader(23561, delay=0.3, size=4096)
        flow = a.new_flow()
        await driver.act(a, [OpenStream(flow, (B, 23561), RAW)])
        assert await driver.wait(lambda: a.events)
        await driver.act(a, [Send(flow, data)])
        assert await driver.wait(lambda: len(received()) >= len(data), 20.0)
        assert received() == data
        assert a.hooks(flow) == ["connected"]

    driver.run(case)


def test_send_from_stream_request_reaches_the_initiator(driver):
    a = Toy(A)
    b = Toy(B, tcp={23601: RAW}, answer=lambda flow: [AcceptStream(flow), Send(flow, b"banner")], echo=True)

    async def case():
        await driver.add(a, b)
        flow = a.new_flow()
        await driver.act(a, [OpenStream(flow, (B, 23601), RAW)])
        assert await driver.wait(lambda: b"".join(a.chunks(flow)) == b"banner")
        await driver.act(a, [Send(flow, b"then-echo")])
        assert await driver.wait(lambda: b"".join(a.chunks(flow)) == b"bannerthen-echo")
        (peer,) = b.requests()
        assert a.hooks(flow)[0] == "connected" and b.hooks(peer).count("connected") == 1

    driver.run(case)


def test_acceptor_writes_before_accept_reach_the_initiator_after_connect(driver):
    a = Toy(A)
    b = Toy(B, tcp={23651: RAW}, answer=lambda flow: [Send(flow, b"early"), AcceptStream(flow)])

    async def case():
        await driver.add(a, b)
        flow = a.new_flow()
        await driver.act(a, [OpenStream(flow, (B, 23651), RAW)])
        assert await driver.wait(lambda: a.chunks(flow))
        await driver.settle(0.1)
        assert a.hooks(flow) == ["connected", "data"] and a.chunks(flow) == [b"early"]

    driver.run(case)


def test_close_from_stream_request_reports_nothing_to_the_acceptor(driver):
    a = Toy(A)
    b = Toy(B, tcp={23701: RAW}, answer=lambda flow: [AcceptStream(flow), Close(flow)])

    async def case():
        await driver.add(a, b)
        flow = a.new_flow()
        await driver.act(a, [OpenStream(flow, (B, 23701), RAW), Send(flow, b"early")])
        assert await driver.wait(lambda: "closed" in a.hooks(flow))
        await driver.settle(0.2)
        assert [e[0] for e in b.events] == ["request"]
        assert a.chunks(flow) == [] and a.hooks(flow).count("closed") == 1
        assert driver.held(a) == driver.held(b) == set()

    driver.run(case)


def test_timers_replace_and_cancel(driver):
    a = Toy(A)

    async def case():
        await driver.add(a)
        await driver.act(a, [
            SetTimer("t", 0.6), SetTimer("t", 0.1),  # the second replaces the first
            SetTimer("c", 0.05), CancelTimer("c"),
            SetTimer("end", 0.4),
        ])
        assert await driver.wait(lambda: ("timer", "end") in a.events)
        await driver.settle(0.4)  # past the replaced timer's time
        assert a.events == [("timer", "t"), ("timer", "end")]

    driver.run(case)


def test_datagram_reaches_on_datagram_with_its_source(driver):
    a, b = Toy(A), Toy(B, udp=[23801])
    sent = [b"one", b"", bytes(range(256)) * 8, b"three"]

    async def case():
        await driver.add(a, b)
        await driver.act(a, [SendDatagram((B, 23802), b"unbound")])  # lost without a word
        await driver.act(a, [SendDatagram((B, 23801), d) for d in sent])
        assert await driver.wait(lambda: len(b.events) == len(sent))
        await driver.settle(0.1)
        assert b.events == [("datagram", A, d) for d in sent]

    driver.run(case)


def test_logs_keep_the_newest_records_in_order(driver):
    a = Toy(A)

    async def case():
        await driver.add(a)
        await driver.act(a, [Log({"i": i}) for i in range(LOG_KEEP + 5)])
        assert [r["i"] for r in driver.logs(a)] == list(range(5, LOG_KEEP + 5))

    driver.run(case)


def test_raising_hook_is_reported_and_the_node_keeps_serving(driver):
    """A raising hook runs none of its actions. ``SimNet`` raises it out of
    ``run`` at the event's time; ``RealHost`` reports it to the loop's
    exception handler. Either way the event is consumed and the next runs."""
    a, b = Toy(A), Toy(B, udp=[23901])

    async def case():
        await driver.add(a, b)
        await driver.act(a, [SendDatagram((B, 23901), b"boom")])
        assert await driver.wait(lambda: driver.errors)
        await driver.act(a, [SendDatagram((B, 23901), b"after")])
        await driver.act(b, [SetTimer("boom", 0.05), SetTimer("next", 0.1)])
        assert await driver.wait(lambda: ("timer", "next") in b.events)
        await driver.settle(0.1)
        assert b.events == [("datagram", A, b"boom"), ("datagram", A, b"after"), ("timer", "boom"), ("timer", "next")]
        errors = driver.take_errors()
        assert [str(e["exception"]) for e in errors] == ["hook failure"] * 2
        if driver.kind == "sim":  # the run stopped at each raising event
            assert [e["clock"] for e in errors] == [b.times[0], b.times[2]]

    driver.run(case)


def test_forward_node_splices_each_local_stream_to_its_own_far_stream(driver):
    """``client.ForwardNode`` on A splices each stream from C to a stream of
    its own toward B, from A's address, and ends each splice with either end."""
    fwd, svc, user = ForwardNode(A, 24001, (B, 24002)), Toy(B, tcp={24002: RAW}, echo=True), Toy(C)

    async def case():
        await driver.add(fwd, svc, user)
        one, two = user.new_flow(), user.new_flow()
        # each sends before the forward node's far stream can have connected
        await driver.act(user, [OpenStream(one, (A, 24001), RAW), Send(one, b"1a"),
                                OpenStream(two, (A, 24001), RAW), Send(two, b"2a")])
        assert await driver.wait(lambda: len(svc.requests()) == 2)
        await driver.act(user, [Send(one, b"1b"), Send(two, b"2b"), Send(one, b"1c")])

        def echoed(flow):
            return b"".join(user.chunks(flow))

        assert await driver.wait(lambda: echoed(one) == b"1a1b1c" and echoed(two) == b"2a2b")
        far = svc.requests()
        assert [e[2] for e in svc.events if e[0] == "request"] == [A, A]
        by_bytes = {b"".join(svc.chunks(flow)): flow for flow in far}
        assert set(by_bytes) == {b"1a1b1c", b"2a2b"}  # each far stream carries one local stream's bytes
        far_one, far_two = by_bytes[b"1a1b1c"], by_bytes[b"2a2b"]
        # a local close closes its far stream, and the other splice still echoes
        await driver.act(user, [Close(one)])
        assert await driver.wait(lambda: "closed" in svc.hooks(far_one))
        await driver.act(user, [Send(two, b"2c")])
        assert await driver.wait(lambda: echoed(two) == b"2a2b2c")
        assert "closed" not in svc.hooks(far_two)
        # a far close closes its local stream
        await driver.act(svc, [Close(far_two)])
        assert await driver.wait(lambda: "closed" in user.hooks(two))
        await driver.settle(0.2)
        assert user.hooks(two).count("closed") == 1 and "closed" not in user.hooks(one)
        assert fwd.peers == {} and driver.held(fwd) == set()

    driver.run(case)


def test_forward_node_closes_a_local_stream_whose_far_connect_fails(driver):
    fwd, svc, user = ForwardNode(A, 24011, (B, 24012)), Toy(B, tcp={24013: RAW}), Toy(C)  # nothing on B:24012

    async def case():
        await driver.add(fwd, svc, user)
        flow = user.new_flow()
        await driver.act(user, [OpenStream(flow, (A, 24011), RAW), Send(flow, b"lost")])
        assert await driver.wait(lambda: "closed" in user.hooks(flow))
        await driver.settle(0.2)
        assert user.hooks(flow) == ["connected", "closed"] and svc.events == []
        assert fwd.peers == {} and driver.held(fwd) == set()

    driver.run(case)
