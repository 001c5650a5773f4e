"""Controller node: the control-plane decision point.

Holds the authorized-host and service records, verifies every first-contact
authorization packet, runs the mutual-auth channel with clients (through the
gateway relay) and gateways (directly), distributes service lists, directs
gateways to open access, and revokes sessions that fail device validation.

A host not present in the key store can never elicit a byte from this node:
datagram failures are log-only, and inbound streams from ungated sources are
never accepted. Only a gateway key opens a gate on the SPA port, so no
client key holder can push a gateway's gate out of the capped table.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import spa
from .credentials import (
    CredentialError,
    HandshakeResponder,
    Identity,
    PeerRole,
    verify_certificate,
    verify_validation,
)
from .transport.base import AcceptStream, CancelTimer, Close, Log, Node, Send, SetTimer
from .wire import (
    F,
    Kind,
    WireError,
    decode_frame,
    encode_frame,
    service_entry,
    text,
    u8,
    u16,
    u32,
    u64,
)

GATEWAY_ACK_TIMEOUT = 2.0


@dataclass
class ServiceDescriptor:
    service_id: str
    gateway_id: bytes
    public_port: int


@dataclass
class ClientRecord:
    client_id: bytes
    spa_key: spa.SpaKey
    certificate: bytes
    authorized_services: list[str] = field(default_factory=list)


@dataclass
class GatewayRecord:
    gateway_id: bytes
    spa_key: spa.SpaKey
    host: str = ""


@dataclass
class _GateEntry:
    subject_id: bytes
    nonce: bytes
    deadline: float


@dataclass
class _GatewayLink:
    flow: int
    src: tuple
    subject_id: bytes | None = None
    responder: HandshakeResponder | None = None
    channel: object = None  # set at registration, when the certificate's subject is ``subject_id``


@dataclass
class _ClientCtx:
    """One relayed client conversation (keyed by gateway link + relay flow id)."""

    gw: _GatewayLink
    relay_flow: int
    client_id: bytes
    observed_host: str
    responder: HandshakeResponder | None = None
    channel: object = None
    session_id: bytes | None = None  # set at login with ``channel``: the conversation's session
    record: ClientRecord | None = None
    pending_nonce: bytes | None = None  # the device-validation challenge awaiting its answer


class ControllerNode(Node):
    def __init__(
        self,
        name: str,
        identity: Identity,
        ca_public: bytes,
        clients: list[ClientRecord],
        services: list[ServiceDescriptor],
        gateways: list[GatewayRecord],
        rng,
        control_port: int = 5000,
        spa_port: int = 62201,
        rule_ttl: float = 60.0,
        validation_interval: float = 30.0,
    ):
        super().__init__(name)
        self.identity = identity
        self.ca_public = ca_public
        self.rng = rng
        self.rule_ttl = rule_ttl
        self.validation_interval = validation_interval
        self.records = {c.client_id: c for c in clients}
        self.services = {s.service_id: s for s in services}
        self.gateway_records = {g.gateway_id: g for g in gateways}
        self.store = spa.SpaKeyStore()
        for c in clients:
            self.store.register(c.spa_key)
        for g in gateways:
            self.store.register(g.spa_key)
        self.udp_ports = [spa_port]
        # a driver may drop what on_datagram refuses unread: the malformed, and every id but a gateway's
        self.udp_shapes = {spa_port: (*spa.SHAPE, (spa.CLIENT_ID_OFFSET, frozenset(self.gateway_records)))}
        self.tcp_ports = {control_port: "framed"}
        self.gated = spa.Gates()  # source host -> _GateEntry
        self.links: dict[int, _GatewayLink] = {}
        self.by_gateway: dict[bytes, _GatewayLink] = {}
        self.clients_ctx: dict[tuple[int, int], _ClientCtx] = {}
        self._pending_auth: dict[int, tuple] = {}  # token -> (ctx, request id, service)
        self._next_request = 1

    # -- helpers ------------------------------------------------------------

    def _gw_send(self, link: _GatewayLink, kind: int, fields) -> Send:
        return Send(link.flow, link.channel.frame(kind, fields))

    def _client_send(self, ctx: _ClientCtx, kind: int, fields) -> Send:
        frame = ctx.channel.frame(kind, fields)
        return self._gw_send(ctx.gw, Kind.RELAY_DATA, [(F.FLOW, u32(ctx.relay_flow)), (F.DATA, frame)])

    def _respond(self, initiator_nonce: bytes) -> tuple[HandshakeResponder, bytes]:
        """A fresh responder half for one handshake and its CHANNEL_ACCEPT frame."""
        responder = HandshakeResponder(self.identity, initiator_nonce, self.rng.randbytes(32), self.rng.randbytes(16))
        return responder, encode_frame(Kind.CHANNEL_ACCEPT, responder.accept_fields())

    def _login_response(self, ctx: _ClientCtx) -> Send:
        interval_ms = u32(int(self.validation_interval * 1000))
        return self._client_send(ctx, Kind.LOGIN_RESPONSE, [(F.SESSION, ctx.session_id), (F.INTERVAL_MS, interval_ms)])

    def _connection_response(self, ctx: _ClientCtx, request_id: int, svc=None, reason: bytes = b"") -> Send:
        """Grant a request ``svc``'s public endpoint or, without ``svc``, deny it for ``reason``."""
        if svc is None:
            verdict = [(F.OK, u8(0)), (F.REASON, reason)]
        else:
            host = self.gateway_records[svc.gateway_id].host or ""
            verdict = [(F.OK, u8(1)), (F.HOST, text(host)), (F.PORT, u16(svc.public_port))]
        return self._client_send(ctx, Kind.CONNECTION_RESPONSE, [(F.REQUEST_ID, u32(request_id))] + verdict)

    def session_count(self) -> int:
        return sum(1 for ctx in self.clients_ctx.values() if ctx.session_id is not None)

    # -- datagrams: first contact --------------------------------------------

    def on_datagram(self, port, src, data, now):
        pkt = spa.parse_spa(data)
        if pkt is None:
            return [Log({"event": "spa", "verdict": "malformed", "src": src[0]})]
        if pkt.target != spa.TargetRole.CONTROLLER:
            return [Log({"event": "spa", "verdict": "wrong-target", "src": src[0]})]
        if pkt.client_id not in self.gateway_records:  # a client's SPA reaches this node only as SPA_FORWARD
            return [Log({"event": "spa", "verdict": spa.SpaVerdict.UNKNOWN_CLIENT.value, "src": src[0]})]
        verdict = self.store.verify(pkt, now)
        if verdict is not spa.SpaVerdict.ACCEPT:
            return [Log({"event": "spa", "verdict": verdict.value, "src": src[0]})]
        self.gated.expire(now)
        self.gated.put(src[0], _GateEntry(pkt.client_id, pkt.nonce, now + spa.GATE_WINDOW))
        return [Log({"event": "spa", "verdict": "accept", "src": src[0], "subject": pkt.client_id.hex()})]

    # -- streams ---------------------------------------------------------------

    def on_stream_request(self, flow, port, src, now):
        gate = self.gated.get(src[0])
        if gate is None or gate.deadline < now:
            return [Log({"event": "stream", "verdict": "drop", "reason": "ungated", "src": src[0]})]
        self.links[flow] = _GatewayLink(flow=flow, src=src)
        return [AcceptStream(flow)]

    def on_closed(self, flow, now):
        self._close(flow)  # the driver ended it: only forgetting it is left
        return []

    def _close(self, flow, **record):
        """Forgets ``flow``'s link with every index that names it and closes it,
        logging ``record``; the one place this node forgets a flow (see ``Node``)."""
        link = self.links.pop(flow, None)
        if link is not None and self.by_gateway.get(link.subject_id) is link:  # a newer link may hold the id
            del self.by_gateway[link.subject_id]
        for key in [k for k in self.clients_ctx if k[0] == flow]:
            # channel gone: the session ends, but established service flows
            # are the gateway's business (expiry semantics, not revocation)
            del self.clients_ctx[key]
        return [Log(record), Close(flow)]

    def on_data(self, flow, data, now):
        link = self.links.get(flow)
        if link is None:
            return []
        try:
            kind, fields = decode_frame(data)
        except WireError:
            return [Log({"event": "frame", "verdict": "drop", "reason": "malformed"})]
        try:
            if kind == Kind.CHANNEL_HELLO:
                return self._on_hello(link, fields, now)
            if kind == Kind.AH_REGISTER:
                return self._on_register(link, fields, now)
            if kind == Kind.SECURE and link.channel is not None:
                inner_kind, inner = link.channel.open_frame(fields)
                return self._on_gateway_message(link, inner_kind, inner, now)
        except (CredentialError, WireError, KeyError) as exc:
            # every conversation relayed over the link ends with it
            return self._close(flow, event="channel", verdict="closed", reason=str(exc))
        return [Log({"event": "frame", "verdict": "ignored", "kind": kind})]

    def _on_hello(self, link, fields, now):
        subject = fields.need(F.SUBJECT_ID)
        gate = self.gated.pop(link.src[0], None)  # spent: a second stream from this source is ungated
        if gate is None or gate.subject_id != subject or gate.deadline < now:
            return self._close(link.flow, event="hello", verdict="drop", reason="gate-mismatch")
        link.subject_id = subject
        link.responder, accept = self._respond(gate.nonce)
        return [Send(link.flow, accept)]

    def _on_register(self, link, fields, now):
        if link.responder is None or link.subject_id is None:
            raise CredentialError("register before hello")
        cert, channel = link.responder.open_confirm(fields, self.ca_public, PeerRole.GATEWAY, Kind.AH_REGISTER)
        if cert.subject_id != link.subject_id or cert.subject_id not in self.gateway_records:
            raise CredentialError("gateway certificate subject mismatch")
        old, actions = self.by_gateway.get(cert.subject_id, link), []
        if old is not link:  # a gateway that restarted without closing its stream: the older link goes
            actions = self._close(old.flow, event="gateway", verdict="superseded", gateway=cert.subject_id.hex())
        link.channel = channel
        self.by_gateway[cert.subject_id] = link
        self.gateway_records[cert.subject_id].host = link.src[0]
        return actions + [
            Log({"event": "gateway", "verdict": "registered", "gateway": cert.subject_id.hex()}),
            self._gw_send(link, Kind.AH_REGISTER_ACK, [(F.OK, u8(1))]),
        ]

    # -- relayed client conversation ---------------------------------------------

    def _on_gateway_message(self, link, kind, fields, now):
        if kind == Kind.RELAY_OPEN:
            relay_flow = fields.u32(F.FLOW)
            ctx = _ClientCtx(
                gw=link,
                relay_flow=relay_flow,
                client_id=fields.need(F.SUBJECT_ID),
                observed_host=fields.text(F.HOST),
            )
            self.clients_ctx[(link.flow, relay_flow)] = ctx
            return []
        if kind == Kind.SPA_FORWARD:
            return self._on_client_spa(link, fields, now)
        if kind == Kind.RELAY_DATA:
            ctx = self.clients_ctx.get((link.flow, fields.u32(F.FLOW)))
            if ctx is None:
                return []
            frame = fields.need(F.DATA)
            try:
                return self._on_client_frame(ctx, frame, now)
            except (CredentialError, WireError, KeyError) as exc:
                # one client's bad message ends its own conversation, not the gateway's link
                log = Log({"event": "client-frame", "verdict": "closed", "reason": str(exc), "client": ctx.client_id.hex()})
                return self._end_conversation(ctx, log)
        if kind == Kind.SERVICES_ACK:
            ctx = self.clients_ctx.get((link.flow, fields.u32(F.FLOW)))
            if ctx is None or ctx.session_id is None:
                return []
            return [SetTimer(("validate", ctx.gw.flow, ctx.relay_flow), self.validation_interval)]
        if kind == Kind.AH_ACK:
            return self._on_ah_ack(fields, now)
        if kind == Kind.RELAY_CLOSE:
            self.clients_ctx.pop((link.flow, fields.u32(F.FLOW)), None)
            return []
        return [Log({"event": "gateway-frame", "verdict": "ignored", "kind": kind})]

    def _on_client_spa(self, link, fields, now):
        relay_flow = fields.u32(F.FLOW)
        ctx = self.clients_ctx.get((link.flow, relay_flow))
        if ctx is None:
            return []
        out = []
        pkt = spa.parse_spa(fields.need(F.DATA))
        verdict = None
        if pkt is None or pkt.target != spa.TargetRole.CONTROLLER or pkt.client_id != ctx.client_id:
            verdict = "malformed"
        else:
            verdict = self.store.verify(pkt, now).value
        record = self.records.get(ctx.client_id)
        if verdict != "accept" or record is None:
            # dark toward the client: the gateway blackholes the flow
            log = Log({"event": "client-spa", "verdict": verdict or "unknown-client", "client": ctx.client_id.hex()})
            return self._end_conversation(ctx, log)
        ctx.record = record
        ctx.responder, accept = self._respond(pkt.nonce)
        out.append(Log({"event": "client-spa", "verdict": "accept", "client": ctx.client_id.hex()}))
        out.append(self._gw_send(link, Kind.RELAY_DATA, [(F.FLOW, u32(relay_flow)), (F.DATA, accept)]))
        return out

    def _on_client_frame(self, ctx, frame, now):
        try:
            kind, fields = decode_frame(frame)
        except WireError:
            return [Log({"event": "client-frame", "verdict": "drop", "reason": "malformed"})]
        if kind == Kind.LOGIN_REQUEST:
            return self._on_login(ctx, fields, now)
        if kind == Kind.SECURE and ctx.channel is not None:
            try:
                inner_kind, inner = ctx.channel.open_frame(fields)
            except CredentialError as exc:
                return [Log({"event": "client-frame", "verdict": "drop", "reason": str(exc)})]
            return self._on_client_message(ctx, inner_kind, inner, now)
        return [Log({"event": "client-frame", "verdict": "ignored", "kind": kind})]

    def _end_conversation(self, ctx, log: Log) -> list:
        """Ends one relayed client conversation: its context and session go,
        ``log`` is recorded, and the gateway is told to close the relay flow."""
        self.clients_ctx.pop((ctx.gw.flow, ctx.relay_flow), None)
        return [log, self._gw_send(ctx.gw, Kind.RELAY_CLOSE, [(F.FLOW, u32(ctx.relay_flow))])]

    def _on_login(self, ctx, fields, now):
        if ctx.session_id is not None and ctx.channel is not None:
            # replayed login on an authenticated conversation: idempotent
            return [self._login_response(ctx)]
        if ctx.responder is None or ctx.record is None:
            return []
        try:
            cert, channel = ctx.responder.open_confirm(fields, self.ca_public, PeerRole.CLIENT, Kind.LOGIN_REQUEST)
            if cert.subject_id != ctx.client_id:
                raise CredentialError("certificate/client mismatch")
        except (CredentialError, WireError) as exc:
            # certificate mismatch: the conversation is torn down
            log = Log({"event": "login", "verdict": "rejected", "reason": str(exc), "client": ctx.client_id.hex()})
            return self._end_conversation(ctx, log)
        ctx.channel = channel
        ctx.session_id = self.rng.randbytes(16)
        actions = [
            Log({"event": "login", "verdict": "ok", "client": ctx.client_id.hex(), "session": ctx.session_id.hex()}),
            self._login_response(ctx),
        ]
        actions.extend(self._push_services(ctx))
        return actions

    def client_service_list(self, client_id: bytes) -> list[tuple[str, str, int]]:
        """The service view for one client: exactly its authorized services,
        resolved to (service id, gateway host, public port)."""
        record = self.records.get(client_id)
        if record is None:
            return []
        out = []
        for sid in record.authorized_services:
            svc = self.services.get(sid)
            if svc is None:
                continue
            host = self.gateway_records[svc.gateway_id].host or ""
            out.append((sid, host, svc.public_port))
        return out

    def _push_services(self, ctx):
        entries = self.client_service_list(ctx.client_id)
        ih_frame = ctx.channel.frame(
            Kind.IH_SERVICES, [(F.ENTRY, service_entry(sid, host, port)) for sid, host, port in entries]
        )
        payload = [
            (F.FLOW, u32(ctx.relay_flow)),
            (F.SUBJECT_ID, ctx.client_id),
            (F.SECRET, ctx.record.spa_key.secret),
            (F.COUNTER, u64(self.store.last_counter(ctx.client_id))),
            (F.DATA, ih_frame),
        ]
        return [self._gw_send(ctx.gw, Kind.CLIENT_SERVICES, payload)]

    def _on_client_message(self, ctx, kind, fields, now):
        if kind == Kind.CONNECTION_REQUEST:
            return self._on_connection_request(ctx, fields, now)
        if kind == Kind.DEVICE_VALIDATE_ACK:
            return self._on_validate_ack(ctx, fields, now)
        return [Log({"event": "client-message", "verdict": "ignored", "kind": kind})]

    def _on_connection_request(self, ctx, fields, now):
        service_id = fields.text(F.SERVICE_ID)
        request_id = fields.u32(F.REQUEST_ID)
        svc = self.services.get(service_id)
        if svc is None or service_id not in ctx.record.authorized_services:
            return [
                Log({"event": "authorize", "verdict": "denied", "reason": "unauthorized", "service": service_id}),
                self._connection_response(ctx, request_id, reason=b"unauthorized"),
            ]
        gw_link = self.by_gateway.get(svc.gateway_id)
        if gw_link is None:
            return [
                Log({"event": "authorize", "verdict": "denied", "reason": "gateway-unavailable", "service": service_id}),
                self._connection_response(ctx, request_id, reason=b"GatewayUnavailable"),
            ]
        token = self._next_request
        self._next_request += 1
        self._pending_auth[token] = (ctx, request_id, svc)
        directive = [
            (F.REQUEST_ID, u32(token)),
            (F.SUBJECT_ID, ctx.client_id),
            (F.SERVICE_ID, text(service_id)),
            (F.HOST, text(ctx.observed_host)),
            (F.PORT, u16(svc.public_port)),
            (F.TTL_MS, u32(int(self.rule_ttl * 1000))),
        ]
        return [
            self._gw_send(gw_link, Kind.AH_AUTHORIZE, directive),
            SetTimer(("ahack", token), GATEWAY_ACK_TIMEOUT),
        ]

    def _on_ah_ack(self, fields, now):
        token = fields.u32(F.REQUEST_ID)
        pending = self._pending_auth.pop(token, None)
        if pending is None:
            return []
        ctx, request_id, svc = pending
        if fields.need(F.OK)[0]:
            response = self._connection_response(ctx, request_id, svc=svc)
        else:
            response = self._connection_response(ctx, request_id, reason=fields.get(F.REASON) or b"rejected")
        return [CancelTimer(("ahack", token)), response]

    # -- device validation -------------------------------------------------------

    def _on_validate_ack(self, ctx, fields, now):
        nonce = fields.need(F.NONCE)
        sig = fields.need(F.SIG)
        if ctx.pending_nonce is None or nonce != ctx.pending_nonce:
            return [Log({"event": "validate", "verdict": "stale", "client": ctx.client_id.hex()})]
        cert = verify_certificate(ctx.record.certificate, self.ca_public)
        if not verify_validation(cert, nonce, sig):
            return self._revoke(ctx, "validation-signature", now)
        ctx.pending_nonce = None
        return [Log({"event": "validate", "verdict": "ok", "client": ctx.client_id.hex()})]

    def on_timer(self, key, now):
        if key[0] == "validate":
            ctx = self.clients_ctx.get(key[1:])
            if ctx is None or ctx.channel is None:
                return []
            if ctx.pending_nonce is not None:  # the last challenge went unanswered
                return self._revoke(ctx, "validation-timeout", now)
            ctx.pending_nonce = self.rng.randbytes(16)
            return [
                self._client_send(ctx, Kind.DEVICE_VALIDATE, [(F.NONCE, ctx.pending_nonce)]),
                SetTimer(key, self.validation_interval),
            ]
        if key[0] == "ahack":
            pending = self._pending_auth.pop(key[1], None)
            if pending is None:
                return []
            ctx, request_id, _ = pending
            return [
                Log({"event": "authorize", "verdict": "denied", "reason": "GatewayUnavailable"}),
                self._connection_response(ctx, request_id, reason=b"GatewayUnavailable"),
            ]
        return []

    def _revoke(self, ctx, reason, now):
        self.clients_ctx.pop((ctx.gw.flow, ctx.relay_flow), None)
        actions = [Log({"event": "revoke", "client": ctx.client_id.hex(), "reason": reason})]
        for link in self.by_gateway.values():
            actions.append(self._gw_send(link, Kind.AH_REVOKE, [(F.SUBJECT_ID, ctx.client_id)]))
        return actions
