"""Event-driven simulated backend with a virtual clock.

Each directed link delivers a payload of n bytes after

    delay = bits / rate + length / speed

where bits is 8*n, or the link's fixed accounting size when one is
configured (used by experiments that want uniform per-hop packet sizes).
Processing and queuing delays are not modeled; delivery on a link is
in-order, and a send between hosts with no link is dropped. Every send goes
to the net's trace sink, once its record is final (dropped, or with its
delivery time set); the sink is any object with ``append`` and defaults to
a list (the DoS experiments set one that writes each record out and keeps
only per-interval counts of attack segments). A node's ``Log`` records go to
``logs``, which keeps its newest ``LOG_KEEP``, as a ``RealHost`` with no log
file does. Runs with identical seeds and configs produce byte-identical traces.

Streams carry a minimal three-segment handshake (initiation, accept, ack) so
half-open state is observable: an acceptor that answers an initiation whose
source never acks keeps it pending until the handshake timeout. A node that
declines an initiation emits nothing at all. Data an initiator sends before
its ``on_connected``, or an acceptor before its ``AcceptStream``, waits in one
table keyed by (node, local flow), so a spoofed half-open flow carries no slot
for it. It goes out right after the ack or accept segment, so the peer's
``on_connected`` runs first, and is dropped if the flow is declined or dies.

Pending accepts time out oldest first. Each acceptor keeps its accepted
flows in accept order and has at most one scheduled timeout event, for the
oldest flow still pending; when it fires it schedules the next. Every flow
still times out at its own (accept time + timeout, sequence number), the
number it drew at accept, so expiries fall among other events, and trace
sequence numbers run, exactly as with one timeout event per flow. A spoofed
flow keeps only its source host (its port is the flow's initiator port) and
is forgotten once declined or timed out. Both endpoints forget a real flow
once it is closed by a refused or timed-out handshake. A node that closes a
flow forgets it at once; its peer forgets it when the close segment lands,
and hears ``on_closed`` then, unless it closed the flow itself meanwhile.
"""

from __future__ import annotations

import heapq
import random
from collections import deque
from collections.abc import Callable, Hashable
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _json_str

from .base import (
    FRAMED,
    LOG_KEEP,
    RAW,
    AcceptStream,
    Admit,
    Address,
    CancelTimer,
    Close,
    Log,
    Node,
    OpenStream,
    Send,
    SendDatagram,
    SetTimer,
)

SEGMENT_OVERHEAD_BYTES = 64  # accounting size of handshake/close segments (options included)
HANDSHAKE_TIMEOUT = 60.0  # an accepted flow whose ack never comes is dropped after this, like a SYN backlog entry
MAX_EVENTS = 5_000_000  # events one ``run`` may execute; a run past this is a scheduling loop, not an experiment

CLS_DATAGRAM = "datagram"
CLS_SYN = "syn"
CLS_ACCEPT = "accept"
CLS_ACK = "ack"
CLS_DATA = "data"
CLS_CLOSE = "close"

PROTOCOL_CLASSES = (CLS_DATAGRAM, CLS_DATA)


@dataclass
class LinkSpec:
    """One directed link. ``alpha_default_bits`` pins the accounting size of
    every payload on the link."""

    src: str
    dst: str
    rate_bps: float
    speed_mps: float
    beta_m: float = 0.0
    alpha_default_bits: int | None = None

    def __post_init__(self):
        if self.rate_bps <= 0 or self.speed_mps <= 0:
            raise ValueError("rate and speed must be positive")
        if self.beta_m < 0:
            raise ValueError("link length must be non-negative")

    def delay(self, nbytes: int) -> float:
        bits = float(self.alpha_default_bits) if self.alpha_default_bits is not None else nbytes * 8.0
        return bits / self.rate_bps + self.beta_m / self.speed_mps


def two_way(src: str, dst: str, rate_bps: float = 1e9, speed_mps: float = 2e8, beta_m: float = 1.0, **kw) -> list[LinkSpec]:
    return [LinkSpec(src, dst, rate_bps, speed_mps, beta_m, **kw), LinkSpec(dst, src, rate_bps, speed_mps, beta_m, **kw)]


@dataclass(slots=True)
class TraceRecord:
    seq: int
    cls: str
    src: str
    dst: str
    src_port: int
    dst_port: int
    size: int
    kind: int | None
    sent: float
    delivered: float | None
    link_delay: float | None = None  # pure link cost, before in-order clamping
    dropped: bool = False

    def to_line(self) -> str:
        """One JSON-lines record, byte-identical to ``json.dumps(asdict(self),
        sort_keys=True) + "\\n"`` for finite times."""
        return (
            f'{{"cls": {_json_str(self.cls)}, "delivered": {_json_opt(self.delivered)}, '
            f'"dropped": {"true" if self.dropped else "false"}, "dst": {_json_str(self.dst)}, '
            f'"dst_port": {self.dst_port!r}, "kind": {_json_opt(self.kind)}, '
            f'"link_delay": {_json_opt(self.link_delay)}, "sent": {self.sent!r}, "seq": {self.seq!r}, '
            f'"size": {self.size!r}, "src": {_json_str(self.src)}, "src_port": {self.src_port!r}}}\n'
        )


def _json_opt(value: float | int | None) -> str:
    return "null" if value is None else repr(value)


@dataclass(slots=True)
class _Flow:
    mode: str
    init_node: str
    init_local: int
    init_port: int  # synthetic source port, or the spoofed source's port
    acc_addr: Address
    acc_node: str | None = None
    acc_local: int | None = None
    state: str = "syn-sent"  # syn-sent | pending-ack | established | closed
    spoofed_host: str | None = None
    since: float = 0.0  # when the acceptor answered
    timeout_seq: int = 0  # sequence number of its handshake timeout while the ack is awaited, else 0
    closer: str | None = None  # the node whose Close ended it; its data in flight still arrives


class SimNet:
    """The virtual-clock driver. Nodes are added by name; harness code can
    schedule callbacks with ``call_at`` and execute node API results with
    ``act``. A scheduled event is its handler plus its arguments: the heap
    holds ``(when, seq, handler, args)`` and ``run`` calls ``handler(*args)``.
    Each seq is unique, so the heap never compares two handlers."""

    def __init__(self, links: list[LinkSpec], seed: int = 0):
        self.links: dict[tuple[str, str], LinkSpec] = {(spec.src, spec.dst): spec for spec in links}
        self.seed = seed
        self.clock = 0.0
        self._heap: list[tuple[float, int, Callable[..., None], tuple]] = []
        self._seq = 0
        self.trace: list[TraceRecord] = []  # or any sink with append
        self.nodes: dict[str, Node] = {}
        self.logs: dict[str, deque[dict]] = {}  # node -> its newest LOG_KEEP records
        self._by_local: dict[str, dict[int, _Flow]] = {}  # node -> local flow id -> flow
        self._early: dict[tuple[str, int], list[bytes]] = {}  # (node, local flow) -> data sent before connect or accept
        self._next_port = 33000  # synthetic ephemeral source ports
        self._timers: dict[tuple[str, Hashable], int] = {}  # (node, key) -> seq of its pending timer event
        self._pending_accepts: dict[str, deque[_Flow]] = {}  # node -> flows it accepted, oldest first
        self._half_open: dict[str, int] = {}  # node -> accepted flows still awaiting the ack
        self._last_delivery: dict[tuple[str, str], float] = {}

    # -- setup -------------------------------------------------------------

    def add_node(self, node: Node) -> None:
        if node.name in self.nodes:
            raise ValueError(f"duplicate node {node.name}")
        self.nodes[node.name] = node
        self.logs[node.name] = deque(maxlen=LOG_KEEP)
        self._by_local[node.name] = {}
        self._pending_accepts[node.name] = deque()
        self._half_open[node.name] = 0
        self._push(self.clock, self._on_start, (node.name,))

    def node_rng(self, name: str) -> random.Random:
        return random.Random(f"simnet:{self.seed}:{name}")

    # -- scheduling ----------------------------------------------------------

    def _push(self, when: float, handler: Callable[..., None], args: tuple = ()) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (when, self._seq, handler, args))

    def call_at(self, when: float, fn: Callable[[], None]) -> None:
        self._push(when, fn)

    # -- running -------------------------------------------------------------

    def run(self, until: float | None = None) -> None:
        events = 0
        while self._heap:
            when, _, handler, args = self._heap[0]
            if until is not None and when > until:
                break
            heapq.heappop(self._heap)
            self.clock = max(self.clock, when)
            handler(*args)
            events += 1
            if events > MAX_EVENTS:
                raise RuntimeError("event budget exhausted")
        if until is not None:
            self.clock = max(self.clock, until)

    # -- link transmission ----------------------------------------------------

    def _transmit(self, cls: str, src: str, dst: str, src_port: int, dst_port: int, size: int, kind: int | None, deliver: Callable[..., None], args: tuple) -> None:
        link = self.links.get((src, dst))
        rec = TraceRecord(
            seq=self._seq + 1, cls=cls, src=src, dst=dst, src_port=src_port, dst_port=dst_port,
            size=size, kind=kind, sent=self.clock, delivered=None,
        )
        if link is None:
            rec.dropped = True
        else:
            delay = link.delay(size)
            rec.link_delay = delay
            delivery = self.clock + delay
            last = self._last_delivery.get((src, dst))
            if last is not None and delivery < last:
                delivery = last  # in-order per link
            self._last_delivery[(src, dst)] = delivery
            rec.delivered = delivery
            self._push(delivery, deliver, args)
        self.trace.append(rec)  # only once final: a sink may write it out at once

    # -- action execution -------------------------------------------------------

    def act(self, node: Node, actions) -> None:
        for action in actions or ():
            self._do(node.name, action)

    def _do(self, name: str, action) -> None:
        if isinstance(action, SendDatagram):
            host, port = action.dst
            self._transmit(CLS_DATAGRAM, name, host, 0, port, len(action.data), None,
                           self._on_datagram, (host, port, (name, 0), action.data))
        elif isinstance(action, OpenStream):
            self._next_port += 1
            flow = _Flow(mode=action.mode, init_node=name, init_local=action.flow,
                         init_port=self._next_port, acc_addr=action.dst)
            self._by_local[name][action.flow] = flow
            host, port = action.dst
            self._transmit(CLS_SYN, name, host, flow.init_port, port, SEGMENT_OVERHEAD_BYTES, None,
                           self._on_syn, (flow,))
        elif isinstance(action, AcceptStream):
            self._accept(name, action.flow)
        elif isinstance(action, Send):
            self._send_data(name, action.flow, action.data)
        elif isinstance(action, Close):
            self._close(name, action.flow)
        elif isinstance(action, SetTimer):
            # a replaced timer's event stays queued and finds another seq here when it fires
            seq = self._seq + 1  # the one _push draws
            self._timers[(name, action.key)] = seq
            self._push(self.clock + action.delay, self._on_timer, (name, action.key, seq))
        elif isinstance(action, CancelTimer):
            self._timers.pop((name, action.key), None)
        elif isinstance(action, Log):
            self.logs[name].append({"ts": self.clock, **action.record})
        elif isinstance(action, Admit):
            pass  # every initiation reaches the node here (see ``base.Node``)
        else:
            raise TypeError(f"unknown action {action!r}")

    def _peer(self, flow: _Flow, name: str) -> tuple[str, int, int] | None:
        """Returns (peer node, peer local id, dst port for tracing)."""
        if name == flow.init_node:
            if flow.acc_node is None:
                return None
            return flow.acc_node, flow.acc_local, flow.acc_addr[1]
        return flow.init_node, flow.init_local, flow.init_port

    def _accept(self, name: str, local: int) -> None:
        flow = self._by_local[name].get(local)
        if flow is None or flow.state != "syn-sent":
            return
        flow.state = "pending-ack"
        self._seq += 1  # the handshake timeout's place in the event order, drawn now
        flow.since, flow.timeout_seq = self.clock, self._seq
        pending = self._pending_accepts[name]
        if not pending:
            self._schedule_timeout(name, flow)
        pending.append(flow)
        self._half_open[name] += 1
        src = flow.spoofed_host if flow.spoofed_host is not None else flow.init_node
        self._transmit(CLS_ACCEPT, name, src, flow.acc_addr[1], flow.init_port, SEGMENT_OVERHEAD_BYTES, None,
                       self._on_accept, (flow,))
        for data in self._early.pop((name, local), ()):
            self._send_data(name, local, data)

    def _schedule_timeout(self, name: str, flow: _Flow) -> None:
        """The acceptor's one timeout event, at ``flow``'s own (time, seq)."""
        when = flow.since + HANDSHAKE_TIMEOUT
        heapq.heappush(self._heap, (when, flow.timeout_seq, self._on_handshake_timeout, (name,)))

    def _settle(self, flow: _Flow) -> None:
        """The acceptor stops awaiting ``flow``'s ack; its queue entry goes stale."""
        if flow.timeout_seq:
            flow.timeout_seq = 0
            self._half_open[flow.acc_node] -= 1

    def _on_handshake_timeout(self, name: str) -> None:
        """The oldest accept of ``name`` reached its timeout: expire it if it is
        still pending, then schedule the next pending one."""
        pending = self._pending_accepts[name]
        flow = pending.popleft()
        if flow.timeout_seq:
            self._settle(flow)
            flow.state = "closed"
            self._forget(flow)
        while pending and not pending[0].timeout_seq:
            pending.popleft()
        if pending:
            self._schedule_timeout(name, pending[0])

    def _send_data(self, name: str, local: int, data: bytes) -> None:
        flow = self._by_local[name].get(local)
        if flow is None or flow.state == "closed":
            return
        if flow.state == "syn-sent" or (name == flow.init_node and flow.state != "established"):
            self._early.setdefault((name, local), []).append(data)  # sent once the stream connects or is accepted
            return
        peer_node, _, dst_port = self._peer(flow, name)
        src_port = flow.init_port if name == flow.init_node else flow.acc_addr[1]
        kind = data[4] if flow.mode == FRAMED and len(data) >= 5 else None
        self._transmit(CLS_DATA, name, peer_node, src_port, dst_port, len(data), kind,
                       self._on_data, (flow, name, data))

    def _close(self, name: str, local: int) -> None:
        flow = self._by_local[name].pop(local, None)
        if flow is None:
            return
        self._early.pop((name, local), None)
        if flow.state == "closed":
            return  # the peer closed it first; its close segment, still in flight, reports nothing now
        peer = self._peer(flow, name)
        flow.state, flow.closer = "closed", name
        if name == flow.acc_node:
            self._settle(flow)
        if peer is None:
            return
        peer_node, _, dst_port = peer
        src_port = flow.init_port if name == flow.init_node else flow.acc_addr[1]
        self._transmit(CLS_CLOSE, name, peer_node, src_port, dst_port, SEGMENT_OVERHEAD_BYTES, None,
                       self._on_close, (flow, name))

    # -- attack injection ---------------------------------------------------

    def inject_syn(self, src: Address, dst: Address, size: int = SEGMENT_OVERHEAD_BYTES, attacker: str | None = None) -> None:
        """A connection-initiation segment with an arbitrary (possibly spoofed)
        source address. ``attacker`` names the link the segment physically
        traverses; defaults to the spoofed source host."""
        host, port = src
        flow = _Flow(mode=RAW, init_node=attacker or host, init_local=-1, init_port=port, acc_addr=dst,
                     spoofed_host=host)
        self._transmit(CLS_SYN, flow.init_node, dst[0], port, dst[1], size, None, self._on_syn, (flow,))

    def half_open_count(self, node: str) -> int:
        return self._half_open.get(node, 0)

    # -- event handlers ----------------------------------------------------------

    def _on_start(self, name: str) -> None:
        node = self.nodes[name]
        self.act(node, node.start(self.clock))

    def _on_datagram(self, host: str, port: int, src: Address, data: bytes) -> None:
        node = self.nodes.get(host)
        if node is not None and port in node.udp_ports:
            self.act(node, node.on_datagram(port, src, data, self.clock))

    def _on_timer(self, name: str, key: Hashable, seq: int) -> None:
        if self._timers.get((name, key)) == seq:
            del self._timers[(name, key)]
            node = self.nodes.get(name)  # the node may have been torn down
            if node is not None:
                self.act(node, node.on_timer(key, self.clock))

    def _on_syn(self, flow: _Flow) -> None:
        host, port = flow.acc_addr
        node = self.nodes.get(host)
        if node is None or port not in node.tcp_ports:
            # a spoofed flow is dropped here: nobody will ever answer or close it
            if flow.spoofed_host is None and node is not None:
                # nothing bound: refuse (the dark case is a bound port whose node declines)
                self._transmit(CLS_CLOSE, host, flow.init_node, port, flow.init_port, SEGMENT_OVERHEAD_BYTES, None,
                               self._on_connect_failed, (flow,))
            return
        flow.acc_node = host
        flow.acc_local = node.new_flow()
        self._by_local[host][flow.acc_local] = flow
        src = (flow.spoofed_host if flow.spoofed_host is not None else flow.init_node, flow.init_port)
        self.act(node, node.on_stream_request(flow.acc_local, port, src, self.clock))
        if flow.closer == flow.init_node or (flow.spoofed_host is not None and flow.state == "syn-sent"):
            # closed by its initiator before the syn arrived, or a spoofed
            # flow declined, which no real initiator can close
            self._forget(flow)

    def _on_connect_failed(self, flow: _Flow) -> None:
        node = self.nodes.get(flow.init_node)
        if node is not None and flow.state == "syn-sent":
            flow.state = "closed"
            self._forget(flow)
            self.act(node, node.on_connect_failed(flow.init_local, "refused", self.clock))

    def _forget(self, flow: _Flow) -> None:
        """Drop a closed or dead flow from both endpoints' maps; either entry
        may be gone already. A spoofed initiator has none."""
        if flow.spoofed_host is None:
            self._by_local[flow.init_node].pop(flow.init_local, None)
            self._early.pop((flow.init_node, flow.init_local), None)
        if flow.acc_node is not None:
            self._by_local[flow.acc_node].pop(flow.acc_local, None)
            self._early.pop((flow.acc_node, flow.acc_local), None)

    def _on_accept(self, flow: _Flow) -> None:
        # accept segment arrives at the initiator
        if flow.spoofed_host is not None:
            return  # no real endpoint: the handshake never completes
        node = self.nodes.get(flow.init_node)
        if node is None or flow.state != "pending-ack":
            return
        flow.state = "established"
        self._transmit(CLS_ACK, flow.init_node, flow.acc_node, flow.init_port, flow.acc_addr[1],
                       SEGMENT_OVERHEAD_BYTES, None, self._on_ack, (flow,))
        for data in self._early.pop((flow.init_node, flow.init_local), ()):
            self._send_data(flow.init_node, flow.init_local, data)
        self.act(node, node.on_connected(flow.init_local, self.clock))

    def _on_ack(self, flow: _Flow) -> None:
        if flow.acc_node is None:
            return
        self._settle(flow)
        node = self.nodes[flow.acc_node]
        self.act(node, node.on_connected(flow.acc_local, self.clock))

    def _on_data(self, flow: _Flow, sender: str, data: bytes) -> None:
        if flow.state == "closed" and flow.closer != sender:
            return
        peer = self._peer(flow, sender)
        if peer is None:
            return
        peer_node, peer_local, _ = peer
        node = self.nodes.get(peer_node)
        if node is not None and peer_local is not None and peer_local >= 0:
            self.act(node, node.on_data(peer_local, data, self.clock))

    def _on_close(self, flow: _Flow, sender: str) -> None:
        peer = self._peer(flow, sender)
        if peer is None:
            return
        peer_node, peer_local, _ = peer
        flow.state = "closed"
        if self._by_local.get(peer_node, {}).pop(peer_local, None) is not flow:
            return  # the peer closed it too, or never held it
        self._early.pop((peer_node, peer_local), None)
        node = self.nodes.get(peer_node)
        if node is not None and peer_local >= 0:
            self.act(node, node.on_closed(peer_local, self.clock))

    # -- trace utilities ----------------------------------------------------

    def trace_jsonl(self) -> str:
        return "".join(map(TraceRecord.to_line, self.trace))
