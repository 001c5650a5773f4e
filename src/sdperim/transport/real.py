"""Real-socket backend: runs one protocol node on asyncio.

Each host binds its declared UDP and TCP ports on its own address (loopback
deployments give every host a distinct 127.0.0.x alias so source-scoped
rules stay meaningful). Outbound connections bind the host address as their
source. Framed ports run a frame splitter so nodes always see whole frames;
raw ports pass chunks through.

The socket callbacks call the node inline and execute the actions it
returns before they return. Nodes are synchronous and the event loop is
single-threaded, so events need no queue, task or lock; the only tasks a
host creates are outbound connects.

UDP listeners are plain non-blocking sockets watched with ``add_reader``.
Each wakeup reads one datagram into one host-owned 64 KiB buffer and hands
the node an exact-size copy. asyncio's datagram transport instead receives
into a fresh 256 KiB ``bytes`` and shrinks it, and the result keeps a private
4 KiB page and its own memory mapping however short the datagram is. The
gateway keeps each controller-target SPA datagram for its gate window, so
under a keyless flood a page per datagram would be most of its memory.

A kernel listener cannot withhold its accept, so a declined inbound stream
is severed immediately instead of staying perfectly dark; scanners observe
that as an unreachable service (see the port scanner's verdict rule).
"""

from __future__ import annotations

import asyncio
import json
import socket
import time
from collections import deque

from .base import (
    FRAMED,
    AcceptStream,
    CancelTimer,
    Close,
    Log,
    Node,
    OpenStream,
    Send,
    SendDatagram,
    SetTimer,
)
from ..wire import FrameSplitter, WireError

# Newest log records kept in memory; the log file, when given, gets every one.
# Forged packets each log a record, so an unbounded copy grows with a flood.
LOG_KEEP = 1024

# Larger than any UDP payload, so no datagram is truncated: a truncated
# oversized datagram could parse as a valid-length SPA packet.
RECV_BUF = 65536


class _Stream(asyncio.Protocol):
    """One TCP stream. Inbound streams take a flow id from the node when the
    connection arrives; outbound ones are created with the node's id."""

    def __init__(self, host: "RealHost", mode: str, flow: int | None = None, port: int | None = None):
        self.host = host
        self.flow = flow
        self.port = port
        self.transport = None
        self.splitter = FrameSplitter() if mode == FRAMED else None
        self.accepted = False
        self.closed = False

    def connection_made(self, transport):
        self.transport = transport
        host, node = self.host, self.host.node
        if self.closed or host._stopped:
            transport.close()
            return
        if self.flow is not None:
            host._execute(node.on_connected(self.flow, time.time()))
            return
        self.flow = node.new_flow()
        host._flows[self.flow] = self
        peer = transport.get_extra_info("peername") or ("?", 0)
        try:
            host._execute(node.on_stream_request(self.flow, self.port, peer, time.time()))
        finally:
            if not self.accepted:
                # declined (or the hook raised): sever before any payload byte
                self.close()
        if self.accepted:
            host._execute(node.on_connected(self.flow, time.time()))

    def data_received(self, data):
        host = self.host
        if self.splitter is None:
            chunks = (data,)
        else:
            try:
                chunks = self.splitter.feed(data)
            except WireError:
                self.connection_lost(None)
                return
        for chunk in chunks:
            host._execute(host.node.on_data(self.flow, chunk, time.time()))

    def connection_lost(self, exc):
        host = self.host
        if not self.closed and not host._stopped:
            self.close()
            host._execute(host.node.on_closed(self.flow, time.time()))

    def close(self):
        self.closed = True
        self.host._flows.pop(self.flow, None)
        if self.transport is not None:
            self.transport.close()


class RealHost:
    """Drives one node. ``start`` binds listeners and runs the node's start
    hook; ``call`` invokes node API methods and executes the returned
    actions; ``stop`` tears everything down (idempotent)."""

    def __init__(self, node: Node, bind_host: str = "127.0.0.1", log_path=None):
        self.node = node
        self.bind_host = bind_host
        self.logs: deque[dict] = deque(maxlen=LOG_KEEP)
        self._log_path = log_path
        self._log_fh = None
        self._flows: dict[int, _Stream] = {}
        self._timers: dict[str, asyncio.TimerHandle] = {}
        self._servers: list[asyncio.AbstractServer] = []
        self._udp: dict[int, socket.socket] = {}
        self._recv_buf = bytearray(RECV_BUF)
        self._recv_view = memoryview(self._recv_buf)
        self._udp_send: asyncio.DatagramTransport | None = None
        self._connects: set[asyncio.Task] = set()
        self._stopped = False

    # -- lifecycle ----------------------------------------------------------

    async def start(self):
        loop = asyncio.get_running_loop()
        if self._log_path is not None:
            self._log_fh = open(self._log_path, "a", encoding="utf-8")
        for port in self.node.udp_ports:
            # not loop.getaddrinfo: its executor thread costs the process RSS
            family, kind, proto, _, addr = socket.getaddrinfo(self.bind_host, port, type=socket.SOCK_DGRAM)[0]
            sock = socket.socket(family, kind, proto)
            try:
                sock.setblocking(False)
                sock.bind(addr)
            except OSError:
                sock.close()
                raise
            self._udp[port] = sock
            loop.add_reader(sock, self._read_datagram, sock, port)
        # ephemeral socket for outbound datagrams (a host need not listen to send)
        self._udp_send, _ = await loop.create_datagram_endpoint(
            asyncio.DatagramProtocol, local_addr=(self.bind_host, 0)
        )
        for port, mode in self.node.tcp_ports.items():
            server = await loop.create_server(
                lambda port=port, mode=mode: _Stream(self, mode, port=port), host=self.bind_host, port=port
            )
            self._servers.append(server)
        await self.call(self.node.start)

    async def stop(self):
        if self._stopped:
            return
        self._stopped = True
        for handle in self._timers.values():
            handle.cancel()
        self._timers.clear()
        for server in self._servers:
            server.close()
        loop = asyncio.get_running_loop()
        for sock in self._udp.values():
            loop.remove_reader(sock)
            sock.close()
        if self._udp_send is not None:
            self._udp_send.close()
        for stream in list(self._flows.values()):
            stream.close()
        for task in self._connects:
            task.cancel()
        for server in self._servers:
            try:
                await server.wait_closed()
            except Exception:
                pass
        if self._connects:
            await asyncio.gather(*self._connects, return_exceptions=True)
        if self._log_fh is not None:
            self._log_fh.close()
            self._log_fh = None

    async def call(self, fn):
        """Run a node API call (e.g. ``lambda now: node.open_service(...)``)
        and execute its actions."""
        actions = fn(time.time())
        self._execute(actions)
        return actions

    def _read_datagram(self, sock: socket.socket, port: int):
        # One datagram per wakeup: the selector calls again while more wait,
        # and draining in a loop here measured slower per datagram.
        try:
            n, addr = sock.recvfrom_into(self._recv_buf)
        except OSError:  # EAGAIN, EINTR, or a queued ICMP error: nothing to deliver
            return
        self._execute(self.node.on_datagram(port, addr, bytes(self._recv_view[:n]), time.time()))

    # -- actions ----------------------------------------------------------------

    def _execute(self, actions):
        for action in actions or ():
            if isinstance(action, SendDatagram):
                if self._udp_send is not None:
                    self._udp_send.sendto(action.data, action.dst)
            elif isinstance(action, OpenStream):
                stream = _Stream(self, action.mode, flow=action.flow)
                self._flows[action.flow] = stream
                task = asyncio.ensure_future(self._connect(stream, action.dst))
                self._connects.add(task)
                task.add_done_callback(self._connects.discard)
            elif isinstance(action, AcceptStream):
                stream = self._flows.get(action.flow)
                if stream is not None:
                    stream.accepted = True
            elif isinstance(action, Send):
                stream = self._flows.get(action.flow)
                if stream is not None and stream.transport is not None:
                    stream.transport.write(action.data)
            elif isinstance(action, Close):
                stream = self._flows.get(action.flow)
                if stream is not None:
                    stream.close()
            elif isinstance(action, SetTimer):
                self._set_timer(action.key, action.delay)
            elif isinstance(action, CancelTimer):
                handle = self._timers.pop(action.key, None)
                if handle is not None:
                    handle.cancel()
            elif isinstance(action, Log):
                record = {"ts": time.time(), **action.record}
                self.logs.append(record)
                if self._log_fh is not None:
                    self._log_fh.write(json.dumps(record, sort_keys=True) + "\n")
                    self._log_fh.flush()

    def _set_timer(self, key, delay):
        old = self._timers.pop(key, None)
        if old is not None:
            old.cancel()

        def fire():
            self._timers.pop(key, None)
            self._execute(self.node.on_timer(key, time.time()))

        self._timers[key] = asyncio.get_running_loop().call_later(delay, fire)

    async def _connect(self, stream: _Stream, dst):
        try:
            await asyncio.get_running_loop().create_connection(
                lambda: stream, dst[0], dst[1], local_addr=(self.bind_host, 0)
            )
        except OSError as exc:
            self._flows.pop(stream.flow, None)
            self._execute(self.node.on_connect_failed(stream.flow, str(exc), time.time()))
