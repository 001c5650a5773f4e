"""Real-socket backend: runs one protocol node on asyncio.

Each host binds its declared UDP and TCP ports on its own address (loopback
deployments give every host a distinct 127.0.0.x alias so source-scoped
rules stay meaningful). Outbound connections bind the host address as their
source. Framed ports run a frame splitter so nodes always see whole frames;
raw ports pass chunks through.

Every socket is a plain non-blocking one that the host owns and watches
with the loop's ``add_reader`` and ``add_writer``; the host uses no asyncio
transport, task or future. The socket callbacks call the node inline and
execute the actions it returns before they return. Nodes are synchronous
and the event loop is single-threaded, so events need no queue or lock.

Each datagram is read into one host-owned 64 KiB buffer and the node gets
an exact-size copy. asyncio's datagram transport instead receives into a
fresh 256 KiB ``bytes`` and shrinks it, and the result keeps a private 4 KiB
page and its own memory mapping however short the datagram is. The gateway
keeps each controller-target SPA datagram for its gate window, so under a
keyless flood a page per datagram would be most of its memory. Outbound
datagrams leave through one more plain socket, bound to the host address on
an ephemeral port, in one ``sendto`` each; an ``OSError`` (a full buffer, a
queued ICMP error) loses that datagram, as the network could. asyncio's
datagram transport would silently skip an empty one.

A TCP listener is watched the same way. Each accept takes the connection as
a bare descriptor (``socket._accept``, which ``socket.accept`` wraps) and
asks the node with the peer address it returned. A declined stream (or one
whose hook raised) costs one ``os.close``, before any payload byte, with no
socket object or selector registration. The kernel completes the handshake,
and sends the SYN-ACK, for every source that its filter lets reach the
listener.

What a node declares it would drop anyway (``base.Node``) the kernel drops,
on Linux and IPv4, with a classic BPF socket filter (``SO_ATTACH_FILTER``;
McCanne and Jacobson, "The BSD Packet Filter", 1993; Linux
``Documentation/networking/filter.rst``), so such a packet never wakes the
process:

- ``Admit(port, hosts)`` puts a program on that TCP listener that loads the
  IPv4 source address and passes only the listed hosts. Another source's
  SYN gets no SYN-ACK, so a SYN scan sees the port filtered. A new
  ``Admit`` swaps the program atomically. An accepted stream keeps the
  program its listener had (the kernel shares it with the child socket and
  runs it on every segment), so an open stream outlives its source leaving
  the set. A program passes a packet by returning 0xFFFFFFFF; a smaller
  value is a length, and would truncate data segments.
- A ``udp_shapes`` entry puts a program on that UDP listener that passes
  only datagrams of that length with those bytes in place. The program sees
  the 8-byte UDP header first, and the length it loads includes it. An
  entry's id part (``(offset, values)``) follows those checks: the
  packet's words there are loaded once into scratch memory (the kernel
  turns each packet load into about a dozen instructions, and charges a
  program's size to its socket), then one block per value compares them
  word by word, jumping to the next block on a mismatch, and passes; a
  drop follows the last block. Every jump is short (a conditional jump
  reaches at most 255 instructions ahead): a failed shape check drops at
  a local drop, which an unconditional jump leads the rest over.

A filter fails open, never closed: where it cannot hold (not Linux, not
IPv4, more than ``ADMIT_MAX`` hosts, which would exceed the kernel's
``BPF_MAXINSNS``, a host that is not an IPv4 address, or a refused
``setsockopt``), the listener has none and every source reaches the node.
Where the kernel refuses a program with an id part (longer than
``BPF_MAXINSNS``, past ``ID_MAX`` ids on an SPA port, or larger than the
socket's option memory, ``net.core.optmem_max``, to which a filter is
charged), the socket gets the shape checks alone. Each socket's kernel drop
count (``SK_MEMINFO_DROPS``, in ``ss -tlm`` and the drops column of
``/proc/net/udp``) includes what its filter dropped.

An accepted stream gets a socket object and is connected at once; an
outbound one is a ``connect_ex`` from the host address, watched for
writability, and ``SO_ERROR`` then decides between ``on_connected`` and
``on_connect_failed``. Every stream has ``TCP_NODELAY``. A stream's reads
go into the same buffer as datagrams, and the node gets an exact-size copy
(a ``FRAMED`` stream's splitter copies the bytes into whole frames). A write
goes out at once with ``send``; only what the kernel did not take waits on
the stream, watched for room until it drains. Writes the node issues on a
stream before it is connected wait there too and go out before
``on_connected`` runs, as the contract in ``base.Node`` says; a ``Close`` on
an outbound stream still connecting closes its socket, and the node hears
nothing more of it. A ``Close`` of a connected stream sends what is queued
and then closes the socket; so does the end of a stream the peer closed.

A quiet listener is handled one item (a datagram or an accept) per selector
wakeup, with no added delay. A busy one is polled instead, because the same
Python work costs nearly four times as much per item when the process
sleeps between items as when it runs them back to back. A listener readable
again within ``POLL_INTERVAL`` of its last wakeup leaves the selector
("parked"), and one shared tick, at most ``POLL_INTERVAL`` apart, takes up
to ``POLL_BUDGET`` items from each parked listener, datagram listeners first.
A tick that finds nothing waiting on a listener puts it back on the
selector, and no tick runs while none is parked. So an item waits up to
``POLL_INTERVAL``, but only while its listener is busy. A faster flood is
polled sooner (at once after a tick that filled a budget), so the kernel's
receive queue, which holds about 256 small datagrams, does not overflow
between ticks while the process has time to spare (Mogul and Ramakrishnan,
"Eliminating Receive Livelock in an Interrupt-Driven Kernel", 1997; Linux
NAPI).

Before the node sees an accepted stream (``on_stream_request``) or a frame
on a ``FRAMED`` stream, the host hands it the datagrams queued on its UDP
listeners (up to ``DRAIN_LIMIT`` from each), so a control event never
overtakes a datagram queued before it, such as a client's SPA behind a
flood. ``RAW`` chunks (the data plane) do not wait for that. If those
datagrams make the node close the stream being read, its frame is dropped.

A host with a log file writes each ``Log`` record there as one JSON line and
keeps no copy (one without keeps its newest ``LOG_KEEP`` in ``logs``): one
encoder built per process gives the bytes of ``json.dumps(record,
sort_keys=True)``, and the line goes to the kernel in one ``os.write``, so
it is in the file before the next event runs.
"""

from __future__ import annotations

import array
import asyncio
import errno
import json
import os
import socket
import struct
import sys
import time
from collections import deque
from collections.abc import Hashable

from .base import (
    FRAMED,
    LOG_KEEP,
    AcceptStream,
    Admit,
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

# Larger than any UDP payload, so no datagram is truncated: a truncated
# oversized datagram could parse as a valid-length SPA packet.
RECV_BUF = 65536

# A listener out of descriptors or buffers stays readable, so it leaves the
# selector for this long instead of waking the loop for nothing (as asyncio's
# own servers do).
ACCEPT_RETRY_DELAY = 1.0
ACCEPT_RESOURCE_ERRNOS = (errno.EMFILE, errno.ENFILE, errno.ENOBUFS, errno.ENOMEM)
TCP_BACKLOG = 100

# Polling a busy listener (see the module docstring). A 2 ms interval saved
# about half as much CPU, and a budget of 8 that yielded to the loop between
# slices lost most of the saving. Under 6,400 items a second a listener is
# polled every POLL_INTERVAL; a faster one more often (see _poll).
POLL_INTERVAL = 0.005
POLL_BUDGET = 64
# The most datagrams one listener hands over before a control event: what a
# default Linux receive queue holds (256 small datagrams in 208 KiB). So the
# node gets what was queued, and a sender faster than the node cannot hold
# the loop there.
DRAIN_LIMIT = 256

# Classic BPF socket filters (see the module docstring). Opcodes are from
# linux/filter.h; a program is a list of (code, jt, jf, k).
FILTERS = sys.platform.startswith("linux")
SO_ATTACH_FILTER, SO_DETACH_FILTER = 26, 27
BPF_MAXINSNS = 4096
ADMIT_MAX = (BPF_MAXINSNS - 2) // 2  # one load and one drop, then a compare and a pass per host: 2,047
# An id part takes nine instructions per 16-byte id (four word compares and a
# pass); after the SPA shape's ten checks, a jump, a drop, the eight that
# keep the id's words and the last drop, 451 fit in BPF_MAXINSNS.
ID_MAX = (BPF_MAXINSNS - 31) // 9
_LD_W, _LD_B, _LD_LEN, _LD_MEM = 0x20, 0x30, 0x80, 0x60  # BPF_LD | BPF_W|BPF_ABS, BPF_B|BPF_ABS, BPF_W|BPF_LEN, BPF_W|BPF_MEM
_ST, _JA, _JEQ, _RET = 0x02, 0x05, 0x15, 0x06  # BPF_ST, BPF_JMP|BPF_JA, BPF_JMP|BPF_JEQ|BPF_K, BPF_RET|BPF_K
_NET_SRC = (-0x100000 + 12) & 0xFFFFFFFF  # SKF_NET_OFF + 12: the IPv4 source address
_UDP_HEADER = 8
_PASS, _DROP = 0xFFFFFFFF, 0
_INSN, _FPROG = struct.Struct("@HBBI"), struct.Struct("@HP")  # struct sock_filter, struct sock_fprog


def _admit_program(hosts) -> list | None:
    """Pass only packets from ``hosts``; None (no filter) past ``ADMIT_MAX``
    hosts or for one that is not an IPv4 address."""
    if len(hosts) > ADMIT_MAX:
        return None
    insns = [(_LD_W, 0, 0, _NET_SRC)]
    try:
        for host in sorted(hosts):
            insns += [(_JEQ, 0, 1, int.from_bytes(socket.inet_pton(socket.AF_INET, host), "big")),
                      (_RET, 0, 0, _PASS)]
    except OSError:
        return None
    return insns + [(_RET, 0, 0, _DROP)]


def _shape_program(length: int, fields, ids=None) -> list:
    """Pass only datagrams of ``length`` payload bytes that hold each
    ``(offset, bytes)`` of ``fields`` and, given ``ids`` = ``(offset,
    values)``, one of ``values`` there."""
    checks = [(_LD_LEN, 0, _UDP_HEADER + length)]  # (load, its k, the value wanted), then byte by byte
    checks += [(_LD_B, _UDP_HEADER + offset + i, byte) for offset, value in fields for i, byte in enumerate(value)]
    insns = []
    for i, (load, k, want) in enumerate(checks):  # a mismatch jumps to the drop after the checks
        insns += [(load, 0, 0, k), (_JEQ, 0, 2 * (len(checks) - i) - 1, want)]
    if ids is None:
        return insns + [(_RET, 0, 0, _PASS), (_RET, 0, 0, _DROP)]
    insns += [(_JA, 0, 0, 1), (_RET, 0, 0, _DROP)]
    offset, values = ids
    n = len(next(iter(values), b"")) // 4  # words per value
    for j in range(n):  # the packet's words, once, into scratch memory
        insns += [(_LD_W, 0, 0, _UDP_HEADER + offset + 4 * j), (_ST, 0, 0, j)]
    for value in sorted(values):  # a mismatch jumps over the rest of its block, to the next
        for j in range(n):
            insns += [(_LD_MEM, 0, 0, j), (_JEQ, 0, 2 * (n - j) - 1, int.from_bytes(value[4 * j:4 * j + 4], "big"))]
        insns.append((_RET, 0, 0, _PASS))
    return insns + [(_RET, 0, 0, _DROP)]


def _attach(sock: socket.socket, *programs: list | None):
    """Replace the filter of ``sock`` with the first of ``programs`` the
    kernel takes. A None, or none taken, leaves it with none: a filter fails
    open."""
    if not FILTERS or sock.family != socket.AF_INET:
        return
    for insns in programs:
        if insns is None:
            break
        code = array.array("B", b"".join(_INSN.pack(*insn) for insn in insns))
        try:
            sock.setsockopt(socket.SOL_SOCKET, SO_ATTACH_FILTER, _FPROG.pack(len(insns), code.buffer_info()[0]))
            return
        except OSError:
            pass
    try:
        sock.setsockopt(socket.SOL_SOCKET, SO_DETACH_FILTER, 0)
    except OSError:
        pass  # none was attached


# The one encoder of every log line (see the module docstring). Records are
# flat, so the C encoder skips the circular-reference check.
_JSON = json.JSONEncoder(sort_keys=True)
if json.encoder.c_make_encoder is None:
    _encode_record = _JSON.encode
else:
    _c_encode = json.encoder.c_make_encoder(
        None, _JSON.default, json.encoder.encode_basestring_ascii, None,
        _JSON.key_separator, _JSON.item_separator, _JSON.sort_keys, _JSON.skipkeys, _JSON.allow_nan,
    )

    def _encode_record(record: dict) -> str:
        return "".join(_c_encode(record, 0))


class _Stream:
    """One TCP stream of one flow. An inbound one is made when its connection
    is accepted and gets ``sock`` only once the node takes it; an outbound one
    gets ``sock`` when the node opens it. ``connected`` once the handshake is
    done. Bytes the kernel has not taken wait in ``out``; while a connected
    stream holds some, its writer is watched. ``closed`` once the node is
    done with the flow: a connected stream then sends what ``out`` holds
    before its socket closes."""

    __slots__ = ("flow", "sock", "fd", "splitter", "out", "accepted", "connected", "closed")

    def __init__(self, mode: str, flow: int):
        self.flow = flow
        self.sock: socket.socket | None = None
        self.fd = -1
        self.splitter = FrameSplitter() if mode == FRAMED else None
        self.out = bytearray()
        self.accepted = False
        self.connected = False
        self.closed = False


class _Listener:
    """One bound listening socket: UDP when ``mode`` is None, else TCP with
    that stream mode. ``woke`` is the loop time of its last selector
    wakeup. The selector is given ``fd``, not the socket: asyncio formats
    the ``repr`` of what it is given (two system calls) each time it is
    added."""

    __slots__ = ("sock", "fd", "port", "mode", "woke")

    def __init__(self, sock: socket.socket, port: int, mode: str | None):
        self.sock = sock
        self.fd = sock.fileno()
        self.port = port
        self.mode = mode
        self.woke = float("-inf")


class RealHost:
    """Drives one node. ``start`` binds listeners and runs the node's start
    hook; ``call`` invokes node API methods and executes the returned
    actions; ``stop`` tears everything down (idempotent)."""

    def __init__(self, node: Node, bind_host: str = "127.0.0.1", log_path=None):
        self.node = node
        self.bind_host = bind_host
        self.logs: deque[dict] = deque(maxlen=LOG_KEEP)  # only without a log file
        self._log_path = log_path
        self._log_fd: int | None = None
        self._flows: dict[int, _Stream] = {}
        self._timers: dict[Hashable, asyncio.TimerHandle] = {}
        self._listeners: list[socket.socket] = []  # every bound socket, closed by stop
        self._stream_listeners: dict[int, socket.socket] = {}  # TCP port -> its listener, for Admit
        self._datagram_listeners: list[_Listener] = []
        self._parked: list[_Listener] = []  # off the selector, datagram listeners first
        self._tick: asyncio.Handle | None = None  # scheduled while any listener is parked
        self._tick_at = 0.0  # loop time the last tick ran (or the first was scheduled)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._recv_buf = bytearray(RECV_BUF)
        self._recv_view = memoryview(self._recv_buf)
        self._udp_send: socket.socket | None = None
        self._draining: set[_Stream] = set()  # closed by the node, still sending what they hold
        self._stopped = False

    # -- lifecycle ----------------------------------------------------------

    async def start(self):
        self._loop = asyncio.get_running_loop()
        if self._log_path is not None:
            self._log_fd = os.open(self._log_path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o666)
        for port in self.node.udp_ports:
            sock = self._bind(port, socket.SOCK_DGRAM)
            if port in self.node.udp_shapes:
                shape = self.node.udp_shapes[port]  # without its id part where the kernel refuses that
                _attach(sock, _shape_program(*shape), _shape_program(*shape[:2]))
            self._listen(sock, port, None)
        # outbound datagrams (a host need not listen to send); kept with the
        # listeners, so stop closes it
        self._udp_send = self._bind(0, socket.SOCK_DGRAM)
        for port, mode in self.node.tcp_ports.items():
            self._listen(self._bind(port, socket.SOCK_STREAM), port, mode)
        await self.call(self.node.start)

    async def stop(self):
        if self._stopped:
            return
        self._stopped = True
        for handle in self._timers.values():
            handle.cancel()
        self._timers.clear()
        if self._tick is not None:
            self._tick.cancel()
            self._tick = None
        self._parked.clear()
        loop = asyncio.get_running_loop()
        for sock in self._listeners:
            loop.remove_reader(sock)
            sock.close()
        for stream in [*self._flows.values(), *self._draining]:
            stream.closed = True
            if stream.sock is not None:
                loop.remove_reader(stream.fd)
                loop.remove_writer(stream.fd)
                stream.sock.close()
        self._flows.clear()
        self._draining.clear()
        if self._log_fd is not None:
            os.close(self._log_fd)
            self._log_fd = None

    async def call(self, fn):
        """Run a node API call (e.g. ``lambda now: node.open_service(...)``)
        and execute its actions."""
        self._execute(fn(time.time()))

    def stream_port(self, port: int) -> int:
        """The port of the listener declared as TCP ``port`` (the kernel's choice for 0)."""
        return self._stream_listeners[port].getsockname()[1]

    # -- listeners --------------------------------------------------------------

    def _bind(self, port: int, kind: int) -> socket.socket:
        # not loop.getaddrinfo: its executor thread costs the process RSS
        family, _, proto, _, addr = socket.getaddrinfo(self.bind_host, port, type=kind)[0]
        sock = socket.socket(family, kind, proto)
        try:
            sock.setblocking(False)
            if kind == socket.SOCK_STREAM:
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind(addr)
            if kind == socket.SOCK_STREAM:
                sock.listen(TCP_BACKLOG)
        except OSError:
            sock.close()
            raise
        self._listeners.append(sock)
        return sock

    def _listen(self, sock: socket.socket, port: int, mode: str | None):
        """Serve a bound listener: its datagrams when ``mode`` is None, else
        its accepts, as streams of that mode."""
        listener = _Listener(sock, port, mode)
        if mode is None:
            self._datagram_listeners.append(listener)
        else:
            self._stream_listeners[port] = sock
        self._watch(listener)

    def _watch(self, listener: _Listener):
        if not self._stopped:
            self._loop.add_reader(listener.fd, self._on_readable, listener)

    def _on_readable(self, listener: _Listener):
        now = self._loop.time()
        if now - listener.woke < POLL_INTERVAL:  # busy: poll it instead
            self._loop.remove_reader(listener.fd)
            if listener.mode is None:
                self._parked.insert(0, listener)
            else:
                self._parked.append(listener)
            if self._tick is None:
                self._tick_at = now
                self._tick = self._loop.call_later(POLL_INTERVAL, self._poll)
        listener.woke = now
        self._take(listener)

    def _poll(self):
        """The tick: take up to ``POLL_BUDGET`` items from each parked
        listener. One that had none goes back on the selector; one that had
        some stays parked, so a steady flood wakes the loop once a tick.
        The next tick runs at once if a listener filled its budget, since
        more may wait. Otherwise it is due when the busiest listener should
        hold half a budget again, at the rate it filled since the last
        tick, and at most ``POLL_INTERVAL`` later. So a fast flood is
        polled more often, and its kernel queue keeps room for a burst."""
        now = self._loop.time()
        elapsed, self._tick_at = now - self._tick_at, now
        most = 0
        try:
            for listener in list(self._parked):
                taken = 0
                while taken < POLL_BUDGET and self._take(listener):
                    taken += 1
                most = max(most, taken)
                if not taken and listener in self._parked:  # (an accept error may have paused it)
                    self._parked.remove(listener)
                    self._watch(listener)
        finally:  # an accept error the loop reports still leaves the tick running
            if not self._parked:
                self._tick = None
            elif most == POLL_BUDGET:
                self._tick = self._loop.call_soon(self._poll)  # after the loop's other ready callbacks
            else:
                delay = min(POLL_INTERVAL, elapsed * (POLL_BUDGET / 2) / most) if most else POLL_INTERVAL
                self._tick = self._loop.call_later(delay, self._poll)

    def _take(self, listener: _Listener) -> bool:
        """Handle one item of ``listener``; False when none was waiting."""
        if listener.mode is None:
            return self._read_datagram(listener)
        return self._accept(listener)

    def _drain_datagrams(self):
        # before a control event: see the module docstring
        for listener in self._datagram_listeners:
            for _ in range(DRAIN_LIMIT):
                if not self._read_datagram(listener):
                    break

    def _read_datagram(self, listener: _Listener) -> bool:
        try:
            n, addr = listener.sock.recvfrom_into(self._recv_buf)
        except BlockingIOError:
            return False
        except OSError:  # EINTR, or a queued ICMP error: an item with nothing to deliver
            return True
        try:
            self._execute(self.node.on_datagram(listener.port, addr, bytes(self._recv_view[:n]), time.time()))
        except Exception as exc:  # contained: a drain for another event goes on
            self._loop.call_exception_handler({"message": "on_datagram failed", "exception": exc})
        return True

    def _accept(self, listener: _Listener) -> bool:
        # the node decides before the host builds anything for the stream
        try:
            fd, peer = listener.sock._accept()  # what socket.accept calls, less the socket object
        except BlockingIOError:
            return False
        except (InterruptedError, ConnectionAbortedError):
            return True  # the initiator gave up first: an item with nothing to deliver
        except OSError as exc:
            if exc.errno not in ACCEPT_RESOURCE_ERRNOS:
                raise  # the loop's exception handler reports it
            self._loop.call_exception_handler({"message": "socket.accept() out of system resource", "exception": exc})
            if listener in self._parked:
                self._parked.remove(listener)
            else:
                self._loop.remove_reader(listener.fd)
            self._loop.call_later(ACCEPT_RETRY_DELAY, self._watch, listener)
            return False
        flow = self.node.new_flow()
        stream = _Stream(listener.mode, flow)
        self._flows[flow] = stream
        attach = False
        try:
            self._drain_datagrams()
            self._execute(self.node.on_stream_request(flow, listener.port, peer, time.time()))
            attach = stream.accepted and not stream.closed
        except Exception as exc:  # contained, like _read_datagram
            self._loop.call_exception_handler({"message": "on_stream_request failed", "exception": exc})
        finally:
            if not attach:
                # declined, closed at once, or the hook raised: sever before any payload byte
                self._close(stream)
                os.close(fd)
        if attach:
            lsock = listener.sock
            stream.sock, stream.fd = socket.socket(lsock.family, lsock.type, lsock.proto, fileno=fd), fd
            stream.sock.setblocking(False)
            try:
                self._connected(stream)
            except Exception as exc:  # contained: the stream stays open
                self._loop.call_exception_handler({"message": "on_connected failed", "exception": exc})
        return True

    # -- streams ------------------------------------------------------------------

    def _open(self, stream: _Stream, dst):
        try:
            stream.sock = socket.socket(self._udp_send.family, socket.SOCK_STREAM)  # the host address's family
            stream.fd = stream.sock.fileno()
            stream.sock.setblocking(False)
            stream.sock.bind((self.bind_host, 0))
            err = stream.sock.connect_ex(dst)
            if err not in (0, errno.EINPROGRESS):
                raise OSError(err, os.strerror(err))
        except OSError as exc:  # reported on the next loop pass, as a refused connect is
            self._loop.call_soon(self._connect_failed, stream, str(exc))
            return
        self._loop.add_writer(stream.fd, self._on_connect, stream)

    def _on_connect(self, stream: _Stream):
        err = stream.sock.getsockopt(socket.SOL_SOCKET, socket.SO_ERROR)
        if err:
            self._connect_failed(stream, str(OSError(err, os.strerror(err))))
            return
        self._loop.remove_writer(stream.fd)
        self._connected(stream)

    def _connect_failed(self, stream: _Stream, reason: str):
        if not stream.closed:  # (a Close or stop came first)
            self._close(stream)
            self._execute(self.node.on_connect_failed(stream.flow, reason, time.time()))

    def _connected(self, stream: _Stream):
        """Watch a connected stream, send what waited for it, then report it."""
        stream.connected = True
        stream.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._loop.add_reader(stream.fd, self._on_stream_readable, stream)
        if stream.out:
            waiting, stream.out = stream.out, bytearray()
            self._send(stream, waiting)
        self._execute(self.node.on_connected(stream.flow, time.time()))

    def _on_stream_readable(self, stream: _Stream):
        try:
            n = stream.sock.recv_into(self._recv_buf)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:  # a reset
            n = 0
        if not n:
            self._lost(stream)
            return
        if stream.splitter is None:
            self._on_data(stream, bytes(self._recv_view[:n]))
            return
        try:
            chunks = stream.splitter.feed(self._recv_view[:n])
        except WireError:
            self._lost(stream)
            return
        for chunk in chunks:
            self._drain_datagrams()
            if stream.closed:  # by the node, or by what those datagrams made it do
                return
            self._on_data(stream, chunk)

    def _on_data(self, stream: _Stream, data: bytes):
        try:
            self._execute(self.node.on_data(stream.flow, data, time.time()))
        except Exception as exc:  # contained: the stream closes, and the node hears of it
            self._loop.call_exception_handler({"message": "on_data failed", "exception": exc})
            self._lost(stream)

    def _send(self, stream: _Stream, data: bytes):
        if stream.out or not stream.connected:  # behind what already waits
            stream.out += data
            return
        try:
            n = stream.sock.send(data)
        except (BlockingIOError, InterruptedError):
            n = 0
        except OSError:  # a reset: the node hears of it from the loop, not inside this action
            self._loop.call_soon(self._lost, stream)
            return
        if n < len(data):
            stream.out += memoryview(data)[n:]
            self._loop.add_writer(stream.fd, self._on_writable, stream)

    def _on_writable(self, stream: _Stream):
        try:
            del stream.out[:stream.sock.send(stream.out)]
        except (BlockingIOError, InterruptedError):
            return
        except OSError:  # a reset: what waits is lost
            stream.out.clear()
            self._loop.call_soon(self._lost, stream)
        if not stream.out:
            self._loop.remove_writer(stream.fd)
            if stream.closed:
                self._draining.discard(stream)
                stream.sock.close()

    def _close(self, stream: _Stream):
        """End a flow for the node; its socket closes once ``out`` is sent."""
        stream.closed = True
        self._flows.pop(stream.flow, None)
        if stream.sock is None:  # an inbound stream not taken (_accept closes it), or a failed open
            return
        if not stream.connected:
            self._loop.remove_writer(stream.fd)  # the connect ends with the socket
        else:
            self._loop.remove_reader(stream.fd)
            if stream.out:  # _on_writable closes it when it drains
                self._draining.add(stream)
                return
        stream.sock.close()

    def _lost(self, stream: _Stream):
        """The stream ended without the node's ``Close``: close it and report it."""
        if not stream.closed:
            self._close(stream)
            self._execute(self.node.on_closed(stream.flow, time.time()))

    # -- actions ----------------------------------------------------------------

    def _execute(self, actions):
        for action in actions or ():
            if isinstance(action, Log):  # first: most events under a flood are a logged drop
                record = {"ts": time.time(), **action.record}
                if self._log_fd is None:
                    self.logs.append(record)
                else:
                    self._write_log(record)
            elif isinstance(action, SendDatagram):
                if self._udp_send is not None:
                    try:
                        self._udp_send.sendto(action.data, action.dst)
                    except OSError:
                        pass  # lost, as on the network
            elif isinstance(action, OpenStream):
                stream = self._flows[action.flow] = _Stream(action.mode, action.flow)
                self._open(stream, action.dst)
            elif isinstance(action, AcceptStream):
                stream = self._flows.get(action.flow)
                if stream is not None:
                    stream.accepted = True
            elif isinstance(action, Send):
                stream = self._flows.get(action.flow)
                if stream is not None:
                    self._send(stream, action.data)
            elif isinstance(action, Close):
                stream = self._flows.get(action.flow)
                if stream is not None:
                    self._close(stream)
            elif isinstance(action, SetTimer):
                self._set_timer(action.key, action.delay)
            elif isinstance(action, CancelTimer):
                handle = self._timers.pop(action.key, None)
                if handle is not None:
                    handle.cancel()
            elif isinstance(action, Admit):
                sock = self._stream_listeners.get(action.port)
                if sock is not None:
                    _attach(sock, _admit_program(action.hosts))

    def _write_log(self, record: dict):
        # one write per line, straight to the kernel, so the line is in the
        # file before the next event runs
        line = (_encode_record(record) + "\n").encode()
        n = os.write(self._log_fd, line)
        while n < len(line):  # a short write: hand over the rest
            line = line[n:]
            n = os.write(self._log_fd, line)

    def _set_timer(self, key, delay):
        old = self._timers.pop(key, None)
        if old is not None:
            old.cancel()

        def fire():
            self._timers.pop(key, None)
            self._execute(self.node.on_timer(key, time.time()))

        self._timers[key] = asyncio.get_running_loop().call_later(delay, fire)
