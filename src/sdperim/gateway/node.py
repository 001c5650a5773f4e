"""Gateway node: the accepting host in front of protected services.

Default posture is drop-everything. Three kinds of traffic get through:

- first-contact authorization datagrams on the spa port (consumed, never
  answered),
- relay streams on the control port from sources whose controller-bound
  authorization datagram was just seen (bytes are relayed verbatim to the
  controller and back; a stream still silent at the gate's deadline is
  closed, and so is a relay the controller refused, ``GATE_WINDOW`` after
  it opened), and
- service connections matching an Active firewall rule, which are spliced
  byte-for-byte onto a gateway-originated connection to the protected
  service and tracked until closed or idle.

Any sender naming a provisioned id can write a relay gate (``relay_gate`` is
a ``spa.Gates``), and the hello it admits spends it. A gate holds its
source's one stream awaiting a hello, closed by a newer stream (a retrying
client left it), eviction or expiry. An SPA naming a client id the node was
not given (``client_ids``, the provisioned clients) is dropped for either
target and logged ``unknown-client``.

Rules expire after their TTL; tracked connections survive rule expiry.
Every verdict is logged as one structured record.

The node tells its driver what it would drop anyway: the SPA port takes only
datagrams of the SPA packet's shape that name one of ``client_ids``
(``udp_shapes``), and each public port only the source hosts holding a rule
for it (an ``Admit`` at start, and whenever a rule install, expiry or
revocation changes that set; the one for a grant goes out before its
``AH_ACK``). A driver that filters in the kernel spares the node those
packets; the node's own checks stay the decider. The relay port is not
filtered: every source's initiation reaches the node, which takes it only
from a source holding a live gate.
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import spa
from ..credentials import CredentialError, HandshakeInitiator, Identity, PeerRole
from ..transport.base import (
    FRAMED,
    RAW,
    AcceptStream,
    Admit,
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
    host: str
    client_id: bytes = b""
    spa_bytes: bytes = b""
    deadline: float = 0.0
    flow: int | None = None  # the relay stream from this source awaiting its hello; its record is this gate


@dataclass
class _Relay:
    flow: int
    relay_id: int
    client_id: bytes
    host: str
    deadline: float  # once ``dead``, the first sweep from here closes it, whenever the verdict came
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
        client_ids,
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
        self.client_ids = frozenset(client_ids)
        self.udp_ports = [spa_port]
        self.udp_shapes = {spa_port: (*spa.SHAPE, (spa.CLIENT_ID_OFFSET, self.client_ids))}
        self.tcp_ports = {relay_port: FRAMED}
        for s in services:
            self.tcp_ports[s.public_port] = RAW
        self.engine = FilterEngine()
        self._admitted: dict[int, frozenset[str]] = {}  # public port -> the hosts its last Admit named
        self.client_store = spa.SpaKeyStore()
        self.relay_gate = spa.Gates()  # source host -> _RelayGate
        self.data_gate: dict[bytes, str] = {}
        # every open stream's record: a splice's two legs share one; the upstream holds its attempt's initiator
        self.flows: dict[int, _RelayGate | _Relay | _Splice | HandshakeInitiator] = {}
        self.by_relay_id: dict[int, _Relay] = {}  # the id the controller names a relay by (pinned bytes carry it)
        self._next_relay_id = 1
        self.upstream_flow: int | None = None
        self.registered = False
        self._register_delay = REGISTER_RETRY
        self.channel = None
        self._counter = spa.SpaCounterSource()

    # -- upstream channel -----------------------------------------------------

    def start(self, now):
        return self._admit() + self._begin_register(now)

    def _begin_register(self, now):
        nonce = self.rng.randbytes(spa.NONCE_LEN)
        packet = spa.build_spa(self.spa_key, self._counter.next(now), spa.TargetRole.CONTROLLER, now, nonce)
        initiator = HandshakeInitiator(self.identity, self.ca_public, nonce, self.rng.randbytes(32))
        # the last attempt's stream goes, so a slow round trip cannot pile them up
        actions = self._close(self.upstream_flow)
        self.upstream_flow = self.new_flow()
        self.flows[self.upstream_flow] = initiator
        delay, self._register_delay = self._register_delay, min(2 * self._register_delay, REGISTER_RETRY_MAX)
        return actions + [
            SendDatagram((self.controller_addr[0], self.spa_port), packet.encode()),
            OpenStream(self.upstream_flow, self.controller_addr, FRAMED),
            Send(self.upstream_flow, initiator.hello(self.identity.cert.subject_id)),
            SetTimer("register-retry", delay),
        ]

    def on_connect_failed(self, flow, reason, now):
        if isinstance(self.flows.get(flow), _Splice):
            return self._close(flow, f"service-unreachable:{reason}")
        self._close(flow)  # the driver ended it: only forgetting it is left
        if flow == self.upstream_flow:
            self.registered = False
        return []

    def _upstream(self, kind, fields) -> Send:
        return Send(self.upstream_flow, self.channel.frame(kind, fields))

    # -- datagrams: the authorization gates --------------------------------------

    def on_datagram(self, port, src, data, now):
        pkt = spa.parse_spa(data)
        if pkt is None:
            return [Log({"event": "spa", "verdict": "drop", "reason": "malformed", "src": src[0]})]
        if pkt.client_id not in self.client_ids:
            return [Log({"event": "spa", "verdict": spa.SpaVerdict.UNKNOWN_CLIENT.value, "src": src[0]})]
        if pkt.target == spa.TargetRole.CONTROLLER:
            # structural gate only; the controller is the verifier of record
            gate = self.relay_gate.get(src[0]) or _RelayGate(src[0])  # a re-sent SPA keeps the stream its gate holds
            gate.client_id, gate.spa_bytes, gate.deadline = pkt.client_id, data, now + spa.GATE_WINDOW
            actions = [Log({"event": "spa", "verdict": "gate-relay", "src": src[0], "client": pkt.client_id.hex()})]
            for _, evicted in self.relay_gate.put(src[0], gate):
                actions += self._close(evicted.flow, "evicted")
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
            actions = self._close(gate.flow, "superseded")
            gate.flow = flow
            self.flows[flow] = gate
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
            return [log]  # (a rule found expired here leaves the admitted set at the next sweep)
        service_flow = self.new_flow()
        splice = _Splice(
            client_flow=flow,
            service_flow=service_flow,
            five=(src[0], src[1], port),
            client_id=self.engine.conntrack_client(src[0], src[1], port),
        )
        self.flows[flow] = self.flows[service_flow] = splice
        return [
            log,
            AcceptStream(flow),
            OpenStream(service_flow, (binding.protected_host, binding.protected_port), RAW),
        ]

    # -- frames and bytes --------------------------------------------------------------

    def on_data(self, flow, data, now):
        rec = self.flows.get(flow)
        if isinstance(rec, _Splice):
            return self._on_splice_data(rec, flow, data, now)
        if isinstance(rec, _Relay):
            return self._on_relay_frame(rec, data, now)
        if isinstance(rec, _RelayGate):
            return self._on_first_relay_frame(flow, rec, data, now)
        if isinstance(rec, HandshakeInitiator):
            return self._on_upstream_frame(rec, data, now)
        return []

    def _on_first_relay_frame(self, flow, gate, data, now):
        try:
            kind, fields = decode_frame(data)
            if kind != Kind.CHANNEL_HELLO:
                return self._close(flow, "no-hello")
            subject = fields.need(F.SUBJECT_ID)
        except WireError:
            return self._close(flow, "malformed")
        if gate.client_id != subject or gate.deadline < now:
            return self._close(flow, "gate-mismatch")
        del self.relay_gate[gate.host]  # spent: a second stream from this source is ungated
        relay = _Relay(flow, self._next_relay_id, subject, gate.host, now + spa.GATE_WINDOW)
        self._next_relay_id += 1
        self.flows[flow] = self.by_relay_id[relay.relay_id] = relay
        return [
            Log({"event": "relay", "verdict": "open", "src": gate.host, "client": subject.hex()}),
            self._upstream(
                Kind.RELAY_OPEN, [(F.FLOW, u32(relay.relay_id)), (F.SUBJECT_ID, subject), (F.HOST, gate.host.encode())]
            ),
            self._upstream(Kind.SPA_FORWARD, [(F.FLOW, u32(relay.relay_id)), (F.DATA, gate.spa_bytes)]),
        ]

    def _on_relay_frame(self, relay, data, now):
        if relay.dead or not self.registered:
            return []
        return [self._upstream(Kind.RELAY_DATA, [(F.FLOW, u32(relay.relay_id)), (F.DATA, data)])]

    def _on_upstream_frame(self, initiator, data, now):
        try:
            kind, fields = decode_frame(data)
        except WireError:
            return []
        if kind == Kind.CHANNEL_ACCEPT and not self.registered:
            try:
                register, self.channel = initiator.confirm(fields, PeerRole.CONTROLLER, Kind.AH_REGISTER)
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
                relay.dead = True  # swallow everything; the sweep closes it at its deadline
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
            *self._admit(),  # before the grant leaves, so the client's first initiation gets through
            self._upstream(Kind.AH_ACK, [(F.REQUEST_ID, u32(token)), (F.OK, u8(1)), (F.RULE_ID, u32(rule_id))]),
        ]

    def _on_revoke(self, client_id, now):
        rules, flows = self.engine.sever_client(client_id)
        actions = [
            Log({"event": "revoke", "client": client_id.hex(), "rules": rules, "flows": len(flows)})
        ]
        severed = set(flows)
        for flow in [
            f for f, r in self.flows.items()
            if isinstance(r, _Splice) and f == r.client_flow and (r.five in severed or r.client_id == client_id)
        ]:
            actions += self._close(flow, "revoked")
        for flow in [
            f for f, r in self.flows.items() if isinstance(r, _Relay) and r.client_id == client_id and not r.dead
        ]:
            actions += self._close(flow)
        self.data_gate.pop(client_id, None)
        self.client_store.remove(client_id)
        return actions + self._admit()

    # -- the data plane ----------------------------------------------------------------

    def _on_splice_data(self, splice, flow, data, now):
        if flow == splice.client_flow:
            verdict, reason = self.engine.verdict_segment(*splice.five, now)
            if verdict != FORWARD:
                return self._close(flow, reason)
            return [Send(splice.service_flow, data)]  # the driver holds it until the service connects
        # return path from the protected service
        self.engine.touch(*splice.five, now)
        return [Send(splice.client_flow, data)]

    def _admit(self):
        """An ``Admit`` for each public port whose set of sources holding a rule
        differs from the one its last ``Admit`` named (every port, the first time)."""
        admitted = self.engine.admitted()
        actions = []
        for port in self.by_public_port:
            hosts = admitted.get(port, frozenset())
            if self._admitted.get(port) != hosts:
                self._admitted[port] = hosts
                actions.append(Admit(port, hosts))
        return actions

    # -- the flow table: every open stream has one record in ``flows`` ----------------

    def _close(self, flow, reason=None):
        """Forgets ``flow`` with every index that names it and closes it (a splice:
        both legs), logging ``reason`` if given; the one place this node forgets a
        flow (see ``Node``). A flow with no record, or ``None``, closes nothing."""
        rec = self.flows.pop(flow, None)
        if rec is None:
            return []
        if isinstance(rec, _Splice):
            self.flows.pop(rec.client_flow, None)
            self.flows.pop(rec.service_flow, None)
            self.engine.conntrack_remove(*rec.five)
            return [
                Log({"event": "splice", "verdict": "closed", "reason": reason, "src": rec.five[0]}),
                Close(rec.client_flow),
                Close(rec.service_flow),
            ]
        if isinstance(rec, _Relay):
            del self.by_relay_id[rec.relay_id]
        elif isinstance(rec, _RelayGate):
            rec.flow = None
        log = [] if reason is None else [Log({"event": "relay", "verdict": "drop", "reason": reason, "src": rec.host})]
        return log + [Close(flow)]

    def on_closed(self, flow, now):
        rec = self.flows.get(flow)
        if isinstance(rec, _Splice):
            return self._close(flow, "peer-closed")
        self._close(flow)  # the driver ended it: only forgetting it is left
        if flow == self.upstream_flow:
            self.registered = False
            self.channel = None
            return [SetTimer("register-retry", self._register_delay)]  # backs off as an unanswered retry does
        if isinstance(rec, _Relay) and self.registered and not rec.dead:
            return [self._upstream(Kind.RELAY_CLOSE, [(F.FLOW, u32(rec.relay_id))])]
        return []

    # -- timers --------------------------------------------------------------------

    def on_timer(self, key, now):
        if key == "sweep":
            expired = self.engine.expire_rules(now)
            idled = self.engine.expire_idle(now, CONNTRACK_IDLE)
            actions = [SetTimer("sweep", SWEEP_TICK), *self._admit()]
            for _, gate in self.relay_gate.expire(now):
                actions += self._close(gate.flow, "hello-timeout")
            for flow in [f for f, r in self.flows.items() if isinstance(r, _Relay) and r.dead and r.deadline <= now]:
                actions += self._close(flow, "dead")
            if idled:  # a splice whose conntrack entry idled out closes with it
                for flow in [
                    f for f, r in self.flows.items()
                    if isinstance(r, _Splice) and f == r.client_flow and self.engine.conntrack_client(*r.five) is None
                ]:
                    actions += self._close(flow, "idle")
            if expired or idled:
                actions.append(Log({"event": "sweep", "rules_expired": expired, "conns_idled": idled}))
            return actions
        if key == "register-retry":
            if not self.registered:
                return self._begin_register(now)
            return []
        return []
