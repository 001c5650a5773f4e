"""Client node: the initiating host.

Authentication walks SPA -> relay stream -> channel handshake -> login ->
service list, all through the gateway relay; nothing is ever sent to a
service port before that completes. Opening a service sends a gateway-bound
SPA followed by a connection request, and exposes the granted tunnel as raw
streams to the gateway's public port.

On any verification failure the far side stays silent, so failure here is
always a timeout: the SPA phase retries up to ``MAX_SPA_ATTEMPTS`` times and
then gives up. Each attempt starts a new conversation on a new relay stream:
the channel, session id and service list of the last one are dropped with
its stream. ``ForwardNode`` is the client binary's local endpoint.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import spa
from .credentials import CredentialError, HandshakeInitiator, Identity, PeerRole, sign_validation
from .transport.base import FRAMED, RAW, AcceptStream, CancelTimer, Close, Log, Node, OpenStream, Send, SendDatagram, SetTimer
from .wire import encode_frame  # noqa: F401 -- unused, but perimbench/tracer.py wraps it in every node module
from .wire import F, Kind, WireError, decode_frame, parse_service_entry, text, u32

SPA_TIMEOUT = 5.0
MAX_SPA_ATTEMPTS = 3
REQUEST_TIMEOUT = 5.0


@dataclass
class Tunnel:
    endpoint: tuple[str, int]
    flow: int | None = None
    established: bool = False
    closed: bool = False
    rx: bytearray = field(default_factory=bytearray)


@dataclass
class ServiceRequest:
    service_id: str
    state: str = "pending"  # pending | granted | denied | timeout
    reason: str = ""


class ClientNode(Node):
    def __init__(
        self,
        name: str,
        identity: Identity,
        ca_public: bytes,
        spa_key: spa.SpaKey,
        gateway_host: str,
        rng,
        spa_port: int = 62201,
        relay_port: int = 5000,
    ):
        super().__init__(name)
        self.identity = identity
        self.ca_public = ca_public
        self.spa_key = spa_key
        self.gateway_host = gateway_host
        self.spa_port = spa_port
        self.relay_port = relay_port
        self.rng = rng
        # earned by the conversation on the current relay stream; revoked ends it for good
        self.session_id: bytes | None = None
        self.services: list[tuple[str, str, int]] = []
        self.validation_interval = 0.0
        self.revoked = False
        self.ready = False  # gateway confirmed the authorization material
        self.failed = False
        self.failure = ""
        self._counter = spa.SpaCounterSource()
        self.channel = None
        self._relay_flow: int | None = None  # the current attempt's relay stream
        self._attempts = 0
        self._next_request = 1
        self.requests: dict[int, ServiceRequest] = {}
        self.tunnels: dict[str, Tunnel] = {}
        self.flows: dict[int, HandshakeInitiator | Tunnel] = {}  # a relay stream holds its attempt's initiator

    # -- authentication ------------------------------------------------------

    def start(self, now):
        return self._attempt_connect(now)

    def _attempt_connect(self, now):
        self._attempts += 1
        nonce = self.rng.randbytes(spa.NONCE_LEN)
        packet = spa.build_spa(self.spa_key, self._counter.next(now), spa.TargetRole.CONTROLLER, now, nonce)
        initiator = HandshakeInitiator(self.identity, self.ca_public, nonce, self.rng.randbytes(32))
        actions = self._close(self._relay_flow)
        self._relay_flow = self.new_flow()
        self.flows[self._relay_flow] = initiator
        self.channel = self.session_id = None
        self.services = []
        return actions + [
            SendDatagram((self.gateway_host, self.spa_port), packet.encode()),
            OpenStream(self._relay_flow, (self.gateway_host, self.relay_port), FRAMED),
            Send(self._relay_flow, initiator.hello(self.spa_key.client_id)),
            SetTimer("spa-timeout", SPA_TIMEOUT),
        ]

    def on_connected(self, flow, now):
        tunnel = self.flows.get(flow)
        if isinstance(tunnel, Tunnel):
            tunnel.established = True
        return []

    def on_connect_failed(self, flow, reason, now):
        self._close(flow)  # the driver ended it: only forgetting it is left
        if flow == self._relay_flow:
            return self._retry_or_fail(now, f"connect-failed:{reason}")
        return []

    def on_timer(self, key, now):
        if key == "spa-timeout":
            return self._retry_or_fail(now, "timeout")
        if key[0] == "svc-timeout":
            req = self.requests.get(key[1])
            if req is not None and req.state == "pending":
                req.state = "timeout"
                req.reason = "gateway-timeout"
            return []
        return []

    def _retry_or_fail(self, now, reason):
        if self.ready:
            return []
        if self._attempts >= MAX_SPA_ATTEMPTS:
            self.failed = True
            self.failure = reason
            return [Log({"event": "connect", "verdict": "failed", "reason": reason})] + self._close(self._relay_flow)
        return self._attempt_connect(now)

    def on_data(self, flow, data, now):
        rec = self.flows.get(flow)
        if isinstance(rec, Tunnel):
            rec.rx.extend(data)
            return []
        if flow == self._relay_flow:
            return self._on_relay_frame(rec, data, now)
        return []

    def _on_relay_frame(self, initiator, data, now):
        try:
            kind, fields = decode_frame(data)
        except WireError:
            return []
        if kind == Kind.RELAY_READY:
            return []
        if kind == Kind.CHANNEL_ACCEPT and self.channel is None:
            try:
                login, self.channel = initiator.confirm(fields, PeerRole.CONTROLLER, Kind.LOGIN_REQUEST)
            except CredentialError:
                # an imposter controller: go dark and let the timeout handle it
                return [Log({"event": "channel", "verdict": "rejected-accept"})]
            return [Send(self._relay_flow, login)]
        if kind == Kind.SECURE and self.channel is not None:
            try:
                inner_kind, inner = self.channel.open_frame(fields)
            except CredentialError:
                return []
            return self._on_controller_message(inner_kind, inner, now)
        if kind == Kind.GATEWAY_READY:
            self.ready = True
            return [CancelTimer("spa-timeout"), Log({"event": "connect", "verdict": "ok"})]
        return []

    def _on_controller_message(self, kind, fields, now):
        if kind == Kind.LOGIN_RESPONSE:
            self.session_id = fields.need(F.SESSION)
            self.validation_interval = fields.u32(F.INTERVAL_MS) / 1000.0
            return []
        if kind == Kind.IH_SERVICES:
            self.services = [parse_service_entry(e) for e in fields.all(F.ENTRY)]
            return []
        if kind == Kind.CONNECTION_RESPONSE:
            return self._on_connection_response(fields, now)
        if kind == Kind.DEVICE_VALIDATE:
            return self._on_validate(fields, now)
        return []

    def _on_connection_response(self, fields, now):
        request_id = fields.u32(F.REQUEST_ID)
        req = self.requests.get(request_id)
        if req is None or req.state != "pending":
            return []
        if not fields.need(F.OK)[0]:
            req.state = "denied"
            req.reason = (fields.get(F.REASON) or b"").decode("utf-8", "replace")
            return [CancelTimer(("svc-timeout", request_id)), Log({"event": "service", "verdict": "denied", "reason": req.reason})]
        req.state = "granted"
        endpoint = (fields.text(F.HOST), fields.u16(F.PORT))
        tunnel = self.tunnels.setdefault(req.service_id, Tunnel(endpoint))
        tunnel.endpoint = endpoint  # a re-grant keeps the tunnel and the stream it has open
        return [CancelTimer(("svc-timeout", request_id)), Log({"event": "service", "verdict": "granted", "service": req.service_id})]

    def _on_validate(self, fields, now):
        nonce = fields.need(F.NONCE)
        sig = sign_validation(self.identity, nonce)
        return [Send(self._relay_flow, self.channel.frame(Kind.DEVICE_VALIDATE_ACK, [(F.NONCE, nonce), (F.SIG, sig)]))]

    def on_closed(self, flow, now):
        self._close(flow)  # the driver ended it: only forgetting it is left
        if flow == self._relay_flow:
            if self.ready:
                self.revoked = True
                return [a for tunnel in self.tunnels.values() for a in self._close(tunnel.flow)]
            return self._retry_or_fail(now, "closed")
        return []

    def _close(self, flow):
        """Forgets ``flow`` and closes it; a tunnel's stream leaves its tunnel closed.
        The one place this node forgets a flow (see ``Node``); a flow with no
        record, or ``None``, closes nothing."""
        rec = self.flows.pop(flow, None)
        if isinstance(rec, Tunnel):
            rec.closed = True
        return [] if rec is None else [Close(flow)]

    # -- service access (driver/harness entry points) ---------------------------

    def open_service(self, service_id: str, now: float):
        """Request access to one authorized service. Precondition: the session
        is authenticated and the service is in the cached list; violating it
        raises before anything touches the wire."""
        if self.session_id is None or self.revoked:
            raise ValueError("session not authenticated")
        if service_id not in [sid for sid, _, _ in self.services]:
            raise ValueError(f"service {service_id!r} not in the authorized list")
        packet = spa.build_spa(
            self.spa_key, self._counter.next(now), spa.TargetRole.GATEWAY, now, self.rng.randbytes(spa.NONCE_LEN)
        )
        request_id = self._next_request
        self._next_request += 1
        self.requests[request_id] = ServiceRequest(service_id)
        request = self.channel.frame(
            Kind.CONNECTION_REQUEST, [(F.SERVICE_ID, text(service_id)), (F.REQUEST_ID, u32(request_id))]
        )
        return [
            SendDatagram((self.gateway_host, self.spa_port), packet.encode()),
            Send(self._relay_flow, request),
            SetTimer(("svc-timeout", request_id), REQUEST_TIMEOUT),
        ]

    def open_tunnel_stream(self, service_id: str):
        """Open one raw stream through a granted tunnel; bytes flow via
        ``tunnel_send`` and accumulate in ``Tunnel.rx``. A stream the tunnel
        still has open is closed first."""
        tunnel = self.tunnels.get(service_id)
        if tunnel is None:
            raise ValueError(f"no granted tunnel for {service_id!r}")
        out = self._close(tunnel.flow)
        flow = self.new_flow()
        tunnel.flow = flow
        tunnel.established = False
        tunnel.closed = False
        self.flows[flow] = tunnel
        return out + [OpenStream(flow, tunnel.endpoint, RAW)]

    def tunnel_send(self, service_id: str, data: bytes):
        tunnel = self.tunnels.get(service_id)
        if tunnel is None or tunnel.flow is None or tunnel.closed:
            raise ValueError("tunnel not open")
        return [Send(tunnel.flow, data)]  # before the stream connects, the driver holds it


class ForwardNode(Node):
    """Splices each stream accepted on ``port`` to a stream of its own toward
    ``target``, from the node's address. Bytes sent before the far stream
    connects wait in the driver. When either end closes, or the far one fails
    to connect, the other is closed."""

    def __init__(self, name: str, port: int, target: tuple[str, int]):
        super().__init__(name)
        self.tcp_ports = {port: RAW}
        self.target = target
        self.peers: dict[int, int] = {}  # each open flow -> the flow it is spliced to, both ways

    def on_stream_request(self, flow, port, src, now):
        far = self.new_flow()
        self.peers[flow], self.peers[far] = far, flow
        return [AcceptStream(flow), OpenStream(far, self.target, RAW)]

    def on_data(self, flow, data, now):
        return [Send(self.peers[flow], data)]

    def on_closed(self, flow, now):
        return self._close(flow)

    def on_connect_failed(self, flow, reason, now):
        return self._close(flow)

    def _close(self, flow):
        """Forgets the splice of ``flow``, which the driver ended; closes its other end."""
        other = self.peers.pop(flow)
        del self.peers[other]
        return [Close(other)]
