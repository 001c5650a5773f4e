"""Gateway node: the accepting host in front of protected services.

Default posture is drop-everything. Three kinds of traffic get through:

- first-contact authorization datagrams on the spa port (consumed, never
  answered),
- relay streams on the control port from sources whose controller-bound
  authorization datagram was just seen (bytes are relayed verbatim to the
  controller and back; a stream still silent at the gate's deadline is
  closed), and
- service connections matching an Active firewall rule, which are spliced
  byte-for-byte onto a gateway-originated connection to the protected
  service and tracked until closed or idle.

Any sender can write a relay gate (``relay_gate`` is a ``spa.Gates``), and the
hello it admits spends it. A gate holds its source's one stream awaiting a
hello, closed by a newer stream (a retrying client left it), eviction or expiry.

Rules expire after their TTL; tracked connections survive rule expiry.
Every verdict is logged as one structured record.
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import spa
from ..credentials import CredentialError, HandshakeInitiator, Identity, PeerRole
from ..transport.base import (
    FRAMED,
    RAW,
    AcceptStream,
    Close,
    Log,
    Node,
    OpenStream,
    Send,
    SendDatagram,
    SetTimer,
)
from ..wire import F, Kind, WireError, decode_frame, encode_frame, u8, u16, u32
from .filtering import FORWARD, FilterEngine

REGISTER_RETRY = 2.0  # wait before an unanswered registration is retried, doubled per retry
REGISTER_RETRY_MAX = 32.0  # ... up to this; a registration that succeeds resets it
SWEEP_TICK = 1.0  # period of the sweep that expires rules, idle connections and relay gates
CONNTRACK_IDLE = 300.0  # a tracked connection silent this long is dropped, as conntrack's established timeout


@dataclass
class ServiceBinding:
    service_id: str
    public_port: int
    protected_host: str
    protected_port: int


@dataclass
class _RelayGate:
    client_id: bytes
    spa_bytes: bytes
    deadline: float
    flow: int | None = None  # the relay stream from this source awaiting its hello


@dataclass
class _RelayFlow:
    flow: int
    relay_id: int
    client_id: bytes
    dead: bool = False  # blackholed: bytes are swallowed, nothing is sent
    ready_sent: bool = False  # the relay-confirmed frame waits for the controller's verdict


@dataclass
class _Splice:
    client_flow: int
    service_flow: int
    five: tuple  # (src ip, src port, public port)
    client_id: bytes


class GatewayNode(Node):
    def __init__(
        self,
        name: str,
        identity: Identity,
        ca_public: bytes,
        spa_key: spa.SpaKey,
        controller_addr: tuple[str, int],
        services: list[ServiceBinding],
        rng,
        spa_port: int = 62201,
        relay_port: int = 5000,
    ):
        super().__init__(name)
        self.identity = identity
        self.ca_public = ca_public
        self.spa_key = spa_key
        self.controller_addr = controller_addr
        self.rng = rng
        self.spa_port = spa_port
        self.relay_port = relay_port
        self.services = {s.service_id: s for s in services}
        self.by_public_port = {s.public_port: s for s in services}
        self.udp_ports = [spa_port]
        self.tcp_ports = {relay_port: FRAMED}
        for s in services:
            self.tcp_ports[s.public_port] = RAW
        self.engine = FilterEngine()
        self.client_store = spa.SpaKeyStore()
        self.relay_gate = spa.Gates()  # source host -> _RelayGate
        self.data_gate: dict[bytes, str] = {}
        self.relay_flows: dict[int, _RelayFlow] = {}
        self.by_relay_id: dict[int, _RelayFlow] = {}
        self._next_relay_id = 1
        self.upstream_flow: int | None = None
        self.registered = False
        self._initiator: HandshakeInitiator | None = None
        self._register_delay = REGISTER_RETRY
        self.channel = None
        self._counter = spa.SpaCounterSource()
        self.splices: dict[int, _Splice] = {}  # both flow ids point at the same record
        self._flow_src: dict[int, str] = {}  # relay stream awaiting its hello -> its source host

    # -- upstream channel -----------------------------------------------------

    def start(self, now):
        return self._begin_register(now)

    def _begin_register(self, now):
        nonce = self.rng.randbytes(spa.NONCE_LEN)
        packet = spa.build_spa(self.spa_key, self._counter.next(now), spa.TargetRole.CONTROLLER, now, nonce)
        self._initiator = HandshakeInitiator(self.identity, self.ca_public, nonce, self.rng.randbytes(32))
        # the last attempt's stream goes, so a slow round trip cannot pile them up
        actions = [] if self.upstream_flow is None else [Close(self.upstream_flow)]
        self.upstream_flow = self.new_flow()
        delay, self._register_delay = self._register_delay, min(2 * self._register_delay, REGISTER_RETRY_MAX)
        return actions + [
            SendDatagram((self.controller_addr[0], self.spa_port), packet.encode()),
            OpenStream(self.upstream_flow, self.controller_addr, FRAMED),
            Send(self.upstream_flow, self._initiator.hello(self.identity.cert.subject_id)),
            SetTimer("register-retry", delay),
        ]

    def on_connect_failed(self, flow, reason, now):
        if flow == self.upstream_flow:
            self.registered = False
            return []
        splice = self.splices.get(flow)
        if splice is not None:
            return self._teardown_splice(splice, f"service-unreachable:{reason}")
        return []

    def _upstream(self, kind, fields) -> Send:
        return Send(self.upstream_flow, self.channel.frame(kind, fields))

    # -- datagrams: the authorization gates --------------------------------------

    def on_datagram(self, port, src, data, now):
        pkt = spa.parse_spa(data)
        if pkt is None:
            return [Log({"event": "spa", "verdict": "drop", "reason": "malformed", "src": src[0]})]
        if pkt.target == spa.TargetRole.CONTROLLER:
            # structural gate only; the controller is the verifier of record
            old = self.relay_gate.get(src[0])  # a re-sent SPA keeps the stream its gate holds
            gate = _RelayGate(pkt.client_id, data, now + spa.GATE_WINDOW, old.flow if old else None)
            actions = [Log({"event": "spa", "verdict": "gate-relay", "src": src[0], "client": pkt.client_id.hex()})]
            for host, evicted in self.relay_gate.put(src[0], gate):
                actions += self._end_hello_wait(host, evicted, "evicted")
            return actions
        verdict = self.client_store.verify(pkt, now)
        if verdict is not spa.SpaVerdict.ACCEPT:
            return [Log({"event": "spa", "verdict": verdict.value, "src": src[0]})]
        self.data_gate[pkt.client_id] = src[0]
        return [Log({"event": "spa", "verdict": "accept", "src": src[0], "client": pkt.client_id.hex()})]

    # -- inbound streams ------------------------------------------------------------

    def on_stream_request(self, flow, port, src, now):
        if port == self.relay_port:
            gate = self.relay_gate.get(src[0])
            if not self.registered or gate is None or gate.deadline < now:
                return [Log({"event": "stream", "verdict": "drop", "reason": "ungated", "src": src[0], "port": port})]
            # one stream per source awaits a hello; a retrying client abandoned the older
            actions = self._end_hello_wait(src[0], gate, "superseded")
            gate.flow = flow
            self._flow_src[flow] = src[0]
            actions.append(AcceptStream(flow))
            return actions
        binding = self.by_public_port.get(port)
        if binding is None:
            return []
        verdict, reason = self.engine.verdict_initiation(src[0], src[1], port, now)
        log = Log(
            {
                "event": "filter",
                "verdict": "forward" if verdict == FORWARD else "drop",
                "reason": reason,
                "src": src[0],
                "src_port": src[1],
                "dst_port": port,
                "proto": "tcp",
            }
        )
        if verdict != FORWARD:
            return [log]
        service_flow = self.new_flow()
        splice = _Splice(
            client_flow=flow,
            service_flow=service_flow,
            five=(src[0], src[1], port),
            client_id=self.engine.conntrack_client(src[0], src[1], port),
        )
        self.splices[flow] = splice
        self.splices[service_flow] = splice
        return [
            log,
            AcceptStream(flow),
            OpenStream(service_flow, (binding.protected_host, binding.protected_port), RAW),
        ]

    # -- frames and bytes --------------------------------------------------------------

    def on_data(self, flow, data, now):
        if flow == self.upstream_flow:
            return self._on_upstream_frame(data, now)
        relay = self.relay_flows.get(flow)
        if relay is not None:
            return self._on_relay_frame(relay, data, now)
        if flow in self._flow_src:
            return self._on_first_relay_frame(flow, data, now)
        splice = self.splices.get(flow)
        if splice is not None:
            return self._on_splice_data(splice, flow, data, now)
        return []

    def _end_hello_wait(self, host, gate, reason):
        """Closes the stream ``gate`` holds for its hello, if any, logging ``reason``."""
        if gate.flow is None:
            return []
        flow, gate.flow = gate.flow, None
        del self._flow_src[flow]
        return self._drop_relay(flow, host, reason)

    def _on_first_relay_frame(self, flow, data, now):
        host = self._flow_src.pop(flow)
        gate = self.relay_gate[host]  # a gate outlives the stream it holds
        gate.flow = None
        try:
            kind, fields = decode_frame(data)
            if kind != Kind.CHANNEL_HELLO:
                return self._drop_relay(flow, host, "no-hello")
            subject = fields.need(F.SUBJECT_ID)
        except WireError:
            return self._drop_relay(flow, host, "malformed")
        if gate.client_id != subject or gate.deadline < now:
            return self._drop_relay(flow, host, "gate-mismatch")
        del self.relay_gate[host]  # spent: a second stream from this source is ungated
        relay = _RelayFlow(flow=flow, relay_id=self._next_relay_id, client_id=subject)
        self._next_relay_id += 1
        self.relay_flows[flow] = relay
        self.by_relay_id[relay.relay_id] = relay
        return [
            Log({"event": "relay", "verdict": "open", "src": host, "client": subject.hex()}),
            self._upstream(
                Kind.RELAY_OPEN, [(F.FLOW, u32(relay.relay_id)), (F.SUBJECT_ID, subject), (F.HOST, host.encode())]
            ),
            self._upstream(Kind.SPA_FORWARD, [(F.FLOW, u32(relay.relay_id)), (F.DATA, gate.spa_bytes)]),
        ]

    def _drop_relay(self, flow, host, reason):
        return [Log({"event": "relay", "verdict": "drop", "reason": reason, "src": host}), Close(flow)]

    def _on_relay_frame(self, relay, data, now):
        if relay.dead or not self.registered:
            return []
        return [self._upstream(Kind.RELAY_DATA, [(F.FLOW, u32(relay.relay_id)), (F.DATA, data)])]

    def _on_upstream_frame(self, data, now):
        try:
            kind, fields = decode_frame(data)
        except WireError:
            return []
        if kind == Kind.CHANNEL_ACCEPT and not self.registered:
            try:
                register, self.channel = self._initiator.confirm(fields, PeerRole.CONTROLLER, Kind.AH_REGISTER)
            except CredentialError as exc:
                return [Log({"event": "register", "verdict": "failed", "reason": str(exc)})]
            return [Send(self.upstream_flow, register)]
        if kind == Kind.SECURE and self.channel is not None:
            try:
                inner_kind, inner = self.channel.open_frame(fields)
            except CredentialError:
                return []
            return self._on_controller_message(inner_kind, inner, now)
        return []

    def _on_controller_message(self, kind, fields, now):
        if kind == Kind.AH_REGISTER_ACK:
            self.registered = True
            self._register_delay = REGISTER_RETRY
            return [Log({"event": "register", "verdict": "ok"}), SetTimer("sweep", SWEEP_TICK)]
        if kind == Kind.RELAY_DATA:
            relay = self.by_relay_id.get(fields.u32(F.FLOW))
            if relay is None or relay.dead:
                return []
            out = []
            if not relay.ready_sent:
                # controller spoke: the relay is confirmed, tell the client
                relay.ready_sent = True
                out.append(Send(relay.flow, encode_frame(Kind.RELAY_READY, [])))
            out.append(Send(relay.flow, fields.need(F.DATA)))
            return out
        if kind == Kind.RELAY_CLOSE:
            relay = self.by_relay_id.get(fields.u32(F.FLOW))
            if relay is not None:
                relay.dead = True  # swallow everything; the source times out
            return []
        if kind == Kind.CLIENT_SERVICES:
            return self._on_client_services(fields)
        if kind == Kind.AH_AUTHORIZE:
            return self._on_authorize(fields, now)
        if kind == Kind.AH_REVOKE:
            return self._on_revoke(fields.need(F.SUBJECT_ID), now)
        return []

    def _on_client_services(self, fields):
        relay = self.by_relay_id.get(fields.u32(F.FLOW))
        client_id = fields.need(F.SUBJECT_ID)
        key = spa.SpaKey(client_id, fields.need(F.SECRET))
        self.client_store.register(key, last_counter=fields.u64(F.COUNTER))
        if relay is None or relay.dead:
            return []
        return [
            Send(relay.flow, fields.need(F.DATA)),  # the client-bound service list, sealed end to end
            Send(relay.flow, encode_frame(Kind.GATEWAY_READY, [(F.SPA_PORT, u16(self.spa_port))])),
            self._upstream(Kind.SERVICES_ACK, [(F.FLOW, u32(relay.relay_id)), (F.SUBJECT_ID, client_id)]),
        ]

    def _on_authorize(self, fields, now):
        token = fields.u32(F.REQUEST_ID)
        client_id = fields.need(F.SUBJECT_ID)
        service_id = fields.text(F.SERVICE_ID)
        src_host = fields.text(F.HOST)
        public_port = fields.u16(F.PORT)
        ttl = fields.u32(F.TTL_MS) / 1000.0
        if self.data_gate.get(client_id) != src_host:
            return [
                Log({"event": "rule", "verdict": "refused", "reason": "no-spa-gate", "client": client_id.hex()}),
                self._upstream(
                    Kind.AH_ACK,
                    [(F.REQUEST_ID, u32(token)), (F.OK, u8(0)), (F.REASON, b"no-spa-gate")],
                ),
            ]
        if service_id not in self.services:
            return [
                self._upstream(
                    Kind.AH_ACK,
                    [(F.REQUEST_ID, u32(token)), (F.OK, u8(0)), (F.REASON, b"unknown-service")],
                )
            ]
        rule_id, expires_at = self.engine.install_rule(client_id, src_host, service_id, public_port, now, ttl)
        return [
            Log(
                {
                    "event": "rule",
                    "verdict": "installed",
                    "rule_id": rule_id,
                    "client": client_id.hex(),
                    "service": service_id,
                    "src": src_host,
                    "expires_at": expires_at,
                }
            ),
            self._upstream(Kind.AH_ACK, [(F.REQUEST_ID, u32(token)), (F.OK, u8(1)), (F.RULE_ID, u32(rule_id))]),
        ]

    def _on_revoke(self, client_id, now):
        rules, flows = self.engine.sever_client(client_id)
        actions = [
            Log({"event": "revoke", "client": client_id.hex(), "rules": rules, "flows": len(flows)})
        ]
        severed = set(flows)
        for flow, splice in list(self.splices.items()):
            if flow != splice.client_flow:
                continue
            if splice.five in severed or splice.client_id == client_id:
                actions.extend(self._teardown_splice(splice, "revoked"))
        for relay in [r for r in self.relay_flows.values() if r.client_id == client_id and not r.dead]:
            # no driver reports on_closed for a flow its node closed, so forget it here
            del self.relay_flows[relay.flow]
            del self.by_relay_id[relay.relay_id]
            actions.append(Close(relay.flow))
        self.data_gate.pop(client_id, None)
        self.client_store.remove(client_id)
        return actions

    # -- the data plane ----------------------------------------------------------------

    def _on_splice_data(self, splice, flow, data, now):
        if flow == splice.client_flow:
            verdict, reason = self.engine.verdict_segment(*splice.five, now)
            if verdict != FORWARD:
                return self._teardown_splice(splice, reason)
            return [Send(splice.service_flow, data)]  # the driver holds it until the service connects
        # return path from the protected service
        self.engine.touch(*splice.five, now)
        return [Send(splice.client_flow, data)]

    def _teardown_splice(self, splice, reason):
        self.splices.pop(splice.client_flow, None)
        self.splices.pop(splice.service_flow, None)
        self.engine.conntrack_remove(*splice.five)
        return [
            Log({"event": "splice", "verdict": "closed", "reason": reason, "src": splice.five[0]}),
            Close(splice.client_flow),
            Close(splice.service_flow),
        ]

    def on_closed(self, flow, now):
        if flow == self.upstream_flow:
            self.registered = False
            self.channel = None
            return [SetTimer("register-retry", self._register_delay)]  # backs off as an unanswered retry does
        relay = self.relay_flows.pop(flow, None)
        if relay is not None:
            self.by_relay_id.pop(relay.relay_id, None)
            if self.registered and not relay.dead:
                return [self._upstream(Kind.RELAY_CLOSE, [(F.FLOW, u32(relay.relay_id))])]
            return []
        splice = self.splices.get(flow)
        if splice is not None:
            return self._teardown_splice(splice, "peer-closed")
        host = self._flow_src.pop(flow, None)
        if host is not None:
            self.relay_gate[host].flow = None
        return []

    # -- timers --------------------------------------------------------------------

    def on_timer(self, key, now):
        if key == "sweep":
            expired = self.engine.expire_rules(now)
            idled = self.engine.expire_idle(now, CONNTRACK_IDLE)
            actions = [SetTimer("sweep", SWEEP_TICK)]
            for host, gate in self.relay_gate.expire(now):
                actions += self._end_hello_wait(host, gate, "hello-timeout")
            if expired or idled:
                actions.append(Log({"event": "sweep", "rules_expired": expired, "conns_idled": idled}))
            return actions
        if key == "register-retry":
            if not self.registered:
                return self._begin_register(now)
            return []
        return []
