"""Node/driver contract shared by the simulated and real-socket backends.

Protocol roles are written sans-io: a node consumes events (datagrams,
stream lifecycle, frames, timers) and returns a list of actions. Drivers own
all sockets and clocks. Because the same node classes run under both
backends, the protocol state machines cannot diverge between them.

Stream modes: ``framed`` streams carry length-prefixed control frames (the
driver splits them, the simulator preserves boundaries); ``raw`` streams
carry opaque application bytes (the forwarded-service data plane).
"""

from __future__ import annotations

from collections.abc import Hashable
from dataclasses import dataclass

Address = tuple[str, int]

# Newest ``Log`` records a driver keeps in memory per node without a log file
# (one with a file keeps none); forged packets each log one, so keep a bound.
LOG_KEEP = 1024

FRAMED = "framed"
RAW = "raw"


@dataclass(frozen=True)
class SendDatagram:
    dst: Address
    data: bytes


@dataclass(frozen=True)
class OpenStream:
    flow: int
    dst: Address
    mode: str = FRAMED


@dataclass(frozen=True)
class AcceptStream:
    flow: int


@dataclass(frozen=True)
class Send:
    flow: int
    data: bytes


@dataclass(frozen=True)
class Close:
    flow: int


@dataclass(frozen=True)
class SetTimer:
    key: Hashable
    delay: float


@dataclass(frozen=True)
class CancelTimer:
    key: Hashable


@dataclass(frozen=True)
class Log:
    record: dict


@dataclass(frozen=True)
class Admit:
    port: int
    hosts: frozenset[str]


Action = SendDatagram | OpenStream | AcceptStream | Send | Close | SetTimer | CancelTimer | Log | Admit


class Node:
    """Base protocol node. Subclasses override the ``on_*`` hooks they need;
    every hook returns a list of actions (default none).

    ``udp_ports`` and ``tcp_ports`` declare listeners; drivers bind them.
    ``tcp_ports`` maps port -> stream mode.

    Two declarations let a driver drop traffic the node would drop anyway,
    before the node sees it. The node's own checks stay the decider, since
    a driver may not filter at all:

    - ``udp_shapes`` maps a UDP port to ``(length, ((offset, bytes), ...))``
      or ``(length, ((offset, bytes), ...), (offset, values))``: the node
      wants only datagrams that long with those bytes at those offsets and,
      if the third part is given, one of ``values`` (byte strings of one
      length, a multiple of four) at its offset.
    - ``Admit(port, hosts)``: only ``hosts`` may open a stream to the
      listener on ``port``. A node emits it again whenever the set changes;
      a port no ``Admit`` named admits every source.

    ``RealHost`` enforces both in the kernel on Linux and IPv4, and admits
    every source where it cannot (see ``transport.real``). ``SimNet``
    ignores both, by design: every datagram and initiation still reaches
    the node there, so the simulated traces do not depend on them.

    A ``Send`` on a stream the node opened, issued before its
    ``on_connected`` (in the same action list as the ``OpenStream``, or
    later), waits in the driver and is delivered in order once the stream
    connects, before any later ``Send``; the peer sees its ``on_connected``
    first. If the stream fails or is closed first, the writes are dropped
    with it. A node therefore keeps no backlog of its own.

    A node's own ``Close`` is never reported back to it (no ``on_closed``
    follows), so a node forgets a flow where it closes it. A ``Close`` of a
    flow the driver has already ended, or never opened, does nothing.

    A datagram that reached the host before an inbound stream request, or
    before a frame on a ``FRAMED`` stream, is handed to the node first, so
    a control event never overtakes a datagram its peer sent earlier (an
    SPA, say, queued behind a flood). ``SimNet`` delivers every event in
    arrival order; ``RealHost`` drains its queued datagrams before each such
    event. ``RAW`` chunks carry no such promise.

    A hook that raises returns no actions, so none of its event's actions
    run, and the drivers differ in what follows:

    - ``SimNet``: the exception leaves ``SimNet.run`` (or ``act``), which
      ends the run. The event is already consumed; a later ``run`` goes on
      with the next one.
    - ``RealHost``: it is contained per event. asyncio's exception handler
      reports it and the host keeps serving. A raising ``on_stream_request``
      severs that stream before any byte; a raising ``on_data`` closes its
      stream, and ``on_closed`` then runs for it.
    """

    def __init__(self, name: str):
        self.name = name
        self.udp_ports: list[int] = []
        self.tcp_ports: dict[int, str] = {}
        self.udp_shapes: dict[int, tuple] = {}  # port -> (length, fields[, (offset, values)])
        self._next_flow = 1

    def new_flow(self) -> int:
        flow = self._next_flow
        self._next_flow += 1
        return flow

    # -- lifecycle ---------------------------------------------------------

    def start(self, now: float) -> list[Action]:
        return []

    # -- events ------------------------------------------------------------

    def on_datagram(self, port: int, src: Address, data: bytes, now: float) -> list[Action]:
        return []

    def on_stream_request(self, flow: int, port: int, src: Address, now: float) -> list[Action]:
        """Inbound initiation. Return an AcceptStream action to take the flow;
        returning nothing declines it silently."""
        return []

    def on_connected(self, flow: int, now: float) -> list[Action]:
        return []

    def on_connect_failed(self, flow: int, reason: str, now: float) -> list[Action]:
        return []

    def on_data(self, flow: int, data: bytes, now: float) -> list[Action]:
        return []

    def on_closed(self, flow: int, now: float) -> list[Action]:
        return []

    def on_timer(self, key: Hashable, now: float) -> list[Action]:
        return []
