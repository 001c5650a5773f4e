"""End-to-end protocol behavior on the simulated backend.

The same node classes run under the real-socket driver (see
test_real_backend), so everything asserted here is backend-independent
protocol logic: authentication, authorization, relaying, revocation, rule
TTL semantics, and the darkness properties.
"""

import ast
import hashlib
import inspect
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sdperim.client
import sdperim.controller
import sdperim.gateway.node
from sdperim import spa, wire
from sdperim.client import ClientNode, Tunnel
from sdperim.credentials import CredentialError, SecureChannel
from sdperim.deploy import build_sim, default_config
from sdperim.gateway.node import CONNTRACK_IDLE, SWEEP_TICK, _Relay, _RelayGate, _Splice
from sdperim.spa import GATE_CAP, GATE_WINDOW
from sdperim.transport.base import AcceptStream, Admit, Close, Log, Node, OpenStream, Send, SendDatagram
from sdperim.transport.sim import PROTOCOL_CLASSES, two_way
from sdperim.wire import F, Kind, encode_frame

AUTH_DEADLINE = 20.0
TWO_CLIENT_TOPOLOGY = {
    "links": [
        dict(src=s, dst=d, rate_bps=1e9, speed_mps=2e8, beta_m=1.0)
        for s, d in [
            ("client", "gateway"), ("gateway", "client"),
            ("client2", "gateway"), ("gateway", "client2"),
            ("gateway", "controller"), ("controller", "gateway"),
            ("gateway", "cloud"), ("cloud", "gateway"),
        ]
    ]
}


def run_until(net, cond, deadline=AUTH_DEADLINE, step=0.25):
    while net.clock < deadline and not cond():
        net.run(until=net.clock + step)
    return cond()


def authed_deployment(seed=7, **overrides):
    dep = build_sim(default_config(seed=seed, **overrides))
    dep.net.run(until=1.0)
    assert dep.gateway().registered
    return dep


def connect_client(dep, client=None):
    client = client or dep.client()
    dep.net.add_node(client)
    assert run_until(dep.net, lambda: client.ready or client.failed)
    return client


def flows_of(node, kind):
    """``node``'s flows whose record is a ``kind``, in table order, as {flow: record}."""
    return {flow: rec for flow, rec in node.flows.items() if isinstance(rec, kind)}


def hello_waits(gw):
    """The gateway's relay streams awaiting a hello, as {flow: source host}."""
    return {flow: rec.host for flow, rec in flows_of(gw, _RelayGate).items()}


class TestAuthentication:
    def test_valid_credentials_reach_authenticated(self):
        dep = authed_deployment()
        client = connect_client(dep)
        assert client.ready and not client.failed
        assert client.session_id is not None and not client.revoked
        assert client.services == [("echo-cloud", "gateway", 4444)]
        assert client.validation_interval == 30.0

    def test_wrong_key_sees_pure_silence_and_fails(self):
        dep = authed_deployment()
        good = dep.client()
        bad = ClientNode(
            "client",
            good.identity,
            good.ca_public,
            spa.SpaKey(good.spa_key.client_id, b"\xee" * 32),
            "gateway",
            rng=dep.net.node_rng("client"),
        )
        dep.net.add_node(bad)
        assert run_until(dep.net, lambda: bad.failed, deadline=40.0)
        assert bad._attempts == 3
        assert not bad.ready
        # darkness: not a single protocol frame ever went back to the client
        frames_back = [r for r in dep.net.trace if r.src == "gateway" and r.dst == "client" and r.cls == "data"]
        assert frames_back == []

    def test_a_client_that_gives_up_closes_its_relay_stream(self):
        dep = authed_deployment()
        good = dep.client()
        bad = ClientNode(
            "client", good.identity, good.ca_public, spa.SpaKey(good.spa_key.client_id, b"\xee" * 32), "gateway",
            rng=dep.net.node_rng("client"),
        )
        dep.net.add_node(bad)
        assert run_until(dep.net, lambda: bad.failed, deadline=40.0)
        dep.net.run(until=dep.net.clock + 1.0)
        assert dep.net._by_local["client"] == {}
        assert [f for f in dep.net._by_local["gateway"].values() if f.acc_node == "gateway"] == []  # no relay left

    def test_unknown_client_id_is_dark(self):
        dep = authed_deployment()
        stranger_key = spa.SpaKey(b"\x99" * 16, b"\x98" * 32)
        good = dep.client()
        stranger = ClientNode(
            "client", good.identity, good.ca_public, stranger_key, "gateway", rng=dep.net.node_rng("client")
        )
        dep.net.add_node(stranger)
        assert run_until(dep.net, lambda: stranger.failed, deadline=40.0)
        frames_back = [r for r in dep.net.trace if r.src == "gateway" and r.dst == "client" and r.cls == "data"]
        assert frames_back == []

    def test_per_hop_frame_counts(self):
        dep = authed_deployment()
        start = len(dep.net.trace)
        client = connect_client(dep)
        assert client.ready
        window = dep.net.trace[start:]

        def count(src, dst):
            return sum(1 for r in window if r.cls in PROTOCOL_CLASSES and not r.dropped and (r.src, r.dst) == (src, dst))

        assert count("client", "gateway") == 3
        assert count("gateway", "controller") == 4
        assert count("controller", "gateway") == 3
        assert count("gateway", "client") == 5

    def test_login_replay_is_idempotent(self):
        dep = authed_deployment()
        client = connect_client(dep)
        ctrl = dep.controller
        assert ctrl.session_count() == 1
        session_id = client.session_id
        ctx = next(iter(ctrl.clients_ctx.values()))
        # replay the login frame on the authenticated conversation
        actions = ctrl._on_login(ctx, None, dep.net.clock)
        dep.net.act(ctrl, actions)
        dep.net.run(until=dep.net.clock + 1.0)
        assert ctrl.session_count() == 1
        assert client.session_id == session_id

    def test_client_with_no_services_still_authenticates(self):
        dep = authed_deployment(clients=[{"id": "aa" * 16, "host": "client", "services": []}])
        client = connect_client(dep)
        assert client.ready
        assert client.session_id is not None and not client.revoked
        assert client.services == []

    def test_retry_after_the_channel_came_up_authenticates(self, monkeypatch):
        # the gateway drops the first service list: that conversation logs in but never hears GATEWAY_READY
        dep = authed_deployment()
        gw = dep.gateway()
        forward, calls = gw._on_client_services, []

        def drop_first(fields):
            calls.append(fields)
            return [] if len(calls) == 1 else forward(fields)

        monkeypatch.setattr(gw, "_on_client_services", drop_first)
        client = dep.client()
        dep.net.add_node(client)
        assert run_until(dep.net, lambda: client.session_id is not None)
        assert client.channel is not None and not client.ready
        assert run_until(dep.net, lambda: client.ready or client.failed)
        assert client.ready and client._attempts == 2 and len(calls) == 2
        assert client.session_id is not None and client.services == [("echo-cloud", "gateway", 4444)]
        assert dep.net.clock < 1.0 + 2 * sdperim.client.SPA_TIMEOUT  # within the second attempt, not after the third


class TestServiceVisibility:
    def test_two_clients_see_disjoint_service_sets(self):
        rng = random.Random(31)
        pool = [f"svc{i}" for i in range(6)]
        a_set = sorted(rng.sample(pool, 3))
        b_set = sorted(set(pool) - set(a_set))
        services = [
            {
                "service_id": sid,
                "gateway": "bb" * 16,
                "protected_host": "cloud",
                "protected_port": 7700 + i,
                "public_port": 4400 + i,
            }
            for i, sid in enumerate(pool)
        ]
        dep = authed_deployment(
            clients=[
                {"id": "aa" * 16, "host": "client", "services": a_set},
                {"id": "dd" * 16, "host": "client2", "services": b_set},
            ],
            services=services,
            topology=TWO_CLIENT_TOPOLOGY,
        )
        a = connect_client(dep, dep.clients["aa" * 16])
        b = connect_client(dep, dep.clients["dd" * 16])
        seen_a = {sid for sid, _, _ in a.services}
        seen_b = {sid for sid, _, _ in b.services}
        assert seen_a == set(a_set)
        assert seen_b == set(b_set)
        assert seen_a.isdisjoint(seen_b)

    def test_a_200_service_list_fits_one_frame(self):
        # the service list is the one frame that grows with the deployment
        pool = [f"{i:032d}" for i in range(200)]
        services = [
            {"service_id": sid, "gateway": "bb" * 16, "protected_host": "cloud", "protected_port": 7000 + i,
             "public_port": 10000 + i}
            for i, sid in enumerate(pool)
        ]
        dep = authed_deployment(clients=[{"id": "aa" * 16, "host": "client", "services": pool}], services=services)
        client = connect_client(dep)
        assert [sid for sid, _, _ in client.services] == pool
        (ctx,) = dep.controller.clients_ctx.values()
        (frame,) = [a.data for a in dep.controller._push_services(ctx)]
        assert len(frame) <= wire.MAX_FRAME_LEN
        assert wire.FrameSplitter().feed(frame) == [frame]


class TestAuthorization:
    def test_grant_installs_rule_with_ttl(self):
        dep = authed_deployment()
        client = connect_client(dep)
        gw = dep.gateway()
        dep.net.act(client, client.open_service("echo-cloud", dep.net.clock))
        assert run_until(dep.net, lambda: client.requests[1].state != "pending")
        assert client.requests[1].state == "granted"
        installed = [r for r in dep.net.logs["gateway"] if r.get("event") == "rule" and r["verdict"] == "installed"]
        assert [(r["client"], r["service"]) for r in installed] == [(client.spa_key.client_id.hex(), "echo-cloud")]
        expiry = installed[0]["expires_at"]
        assert expiry > dep.net.clock
        assert expiry - dep.net.clock <= 60.0
        assert gw.engine.rule_count() == 1

    def test_the_gateway_admits_exactly_the_sources_holding_a_rule(self, monkeypatch):
        """One ``Admit`` per change of the set of sources holding a rule for the
        public port: at start, at a grant (before its ``AH_ACK``), at expiry and
        at revocation; none for a re-grant that changes nothing."""
        dep = build_sim(default_config(seed=7, timing={"rule_ttl": 10.0, "validation_interval": 2.0}))
        gw, admits = dep.gateway(), []  # (hook, Admit, the actions after it)
        for hook in ("start", "on_data", "on_timer", "on_stream_request"):
            def tap(*args, original=getattr(gw, hook), hook=hook):
                actions = original(*args)
                admits.extend((hook, a, actions[i + 1:]) for i, a in enumerate(actions) if isinstance(a, Admit))
                return actions

            setattr(gw, hook, tap)
        dep.net.run(until=1.0)
        client = connect_client(dep)
        for n in (1, 2):
            dep.net.act(client, client.open_service("echo-cloud", dep.net.clock))
            assert run_until(dep.net, lambda: client.requests[n].state == "granted", deadline=dep.net.clock + 5.0)
        assert run_until(dep.net, lambda: gw.engine.rule_count() == 0, deadline=dep.net.clock + 15.0)
        dep.net.act(client, client.open_service("echo-cloud", dep.net.clock))
        assert run_until(dep.net, lambda: client.requests[3].state == "granted", deadline=dep.net.clock + 5.0)
        monkeypatch.setattr(client, "_on_validate", lambda fields, now: [])
        assert run_until(dep.net, lambda: client.revoked, deadline=dep.net.clock + 8.0)
        none, only = frozenset(), frozenset({"client"})
        assert [(hook, a.port, a.hosts) for hook, a, _ in admits] == [
            ("start", 4444, none), ("on_data", 4444, only), ("on_timer", 4444, none),
            ("on_data", 4444, only), ("on_data", 4444, none),
        ]
        for _, _, after in (admits[1], admits[3]):  # the grant's AH_ACK follows it
            assert [(type(x), x.flow) for x in after] == [(Send, gw.upstream_flow)]

    def test_unauthorized_service_denied_without_gateway_change(self):
        dep = authed_deployment()
        client = connect_client(dep)
        gw = dep.gateway()
        # forge a request for a service outside the authorized list, at the
        # protocol level (the client API would refuse locally)
        request = client.channel.frame(Kind.CONNECTION_REQUEST, [(10, b"not-mine"), (20, (99).to_bytes(4, "big"))])
        client.requests[99] = __import__("sdperim.client", fromlist=["ServiceRequest"]).ServiceRequest("not-mine")
        dep.net.act(client, [Send(client._relay_flow, request)])
        assert run_until(dep.net, lambda: client.requests[99].state != "pending")
        assert client.requests[99].state == "denied"
        assert client.requests[99].reason == "unauthorized"
        assert gw.engine.rule_count() == 0

    def test_local_precondition_sends_nothing(self):
        dep = authed_deployment()
        client = connect_client(dep)
        before = len(dep.net.trace)
        with pytest.raises(ValueError):
            client.open_service("not-a-service", dep.net.clock)
        assert len(dep.net.trace) == before

    def test_open_service_needs_a_live_session(self, monkeypatch):
        dep = authed_deployment(timing={"validation_interval": 2.0})
        client = dep.client()
        dep.net.add_node(client)
        before = len(dep.net.trace)
        with pytest.raises(ValueError):  # not logged in yet
            client.open_service("echo-cloud", dep.net.clock)
        assert len(dep.net.trace) == before
        assert run_until(dep.net, lambda: client.ready)
        monkeypatch.setattr(client, "_on_validate", lambda fields, now: [])
        assert run_until(dep.net, lambda: client.revoked, deadline=dep.net.clock + 10.0)
        assert client.session_id is not None  # the revocation, not a missing login, refuses it
        before = len(dep.net.trace)
        with pytest.raises(ValueError):
            client.open_service("echo-cloud", dep.net.clock)
        assert len(dep.net.trace) == before

    def test_wedged_gateway_yields_unavailable_after_ack_window(self):
        dep = authed_deployment()
        client = connect_client(dep)
        gw = dep.gateway()
        # the gateway keeps relaying but its rule installation is wedged, so
        # directives go unacknowledged and the controller denies after 2 s
        gw._on_authorize = lambda fields, now: []
        t0 = dep.net.clock
        dep.net.act(client, client.open_service("echo-cloud", dep.net.clock))
        assert run_until(dep.net, lambda: client.requests[1].state != "pending", deadline=t0 + 10.0)
        assert client.requests[1].state == "denied"
        assert client.requests[1].reason == "GatewayUnavailable"
        assert 2.0 <= dep.net.clock - t0 <= 3.5  # the 2 s ack window governs

    def test_killed_gateway_times_out_client_and_denies_at_controller(self):
        dep = authed_deployment()
        client = connect_client(dep)
        # hard kill: the gateway host disappears entirely
        del dep.net.nodes["gateway"]
        t0 = dep.net.clock
        dep.net.act(client, client.open_service("echo-cloud", dep.net.clock))
        assert run_until(dep.net, lambda: client.requests[1].state != "pending", deadline=t0 + 10.0)
        assert client.requests[1].state == "timeout"

    def test_offline_gateway_denied_immediately(self):
        dep = authed_deployment()
        client = connect_client(dep)
        ctrl = dep.controller
        link = next(iter(ctrl.by_gateway.values()))
        ctrl.by_gateway.clear()  # gateway channel torn down
        ctx = next(iter(ctrl.clients_ctx.values()))
        from sdperim.wire import F, Fields, encode_fields, text, u32

        fields = Fields.decode(encode_fields([(F.SERVICE_ID, text("echo-cloud")), (F.REQUEST_ID, u32(5))]))
        actions = ctrl._on_connection_request(ctx, fields, dep.net.clock)
        denied = [a for a in actions if hasattr(a, "record") and a.record.get("reason") == "gateway-unavailable"]
        assert denied


class TestTunnelAndTtl:
    def test_echo_round_trip(self):
        dep = authed_deployment()
        client = connect_client(dep)
        dep.net.act(client, client.open_service("echo-cloud", dep.net.clock))
        run_until(dep.net, lambda: client.requests[1].state == "granted")
        dep.net.act(client, client.open_tunnel_stream("echo-cloud"))
        tunnel = client.tunnels["echo-cloud"]
        assert run_until(dep.net, lambda: tunnel.established)
        dep.net.act(client, client.tunnel_send("echo-cloud", b"ping"))
        assert run_until(dep.net, lambda: bytes(tunnel.rx) == b"ping")

    def test_established_flow_survives_rule_expiry_new_ones_do_not(self):
        dep = authed_deployment(timing={"rule_ttl": 5.0, "validation_interval": 300.0})
        client = connect_client(dep)
        gw = dep.gateway()
        dep.net.act(client, client.open_service("echo-cloud", dep.net.clock))
        run_until(dep.net, lambda: client.requests[1].state == "granted")
        t_open = dep.net.clock
        dep.net.act(client, client.open_tunnel_stream("echo-cloud"))
        tunnel = client.tunnels["echo-cloud"]
        assert run_until(dep.net, lambda: tunnel.established)
        # rule gone by t_open + 5 (+ sweep tick); bytes still flow at T + 5
        dep.net.run(until=t_open + 10.0)
        assert gw.engine.rule_count() == 0
        dep.net.act(client, client.tunnel_send("echo-cloud", b"late-bytes"))
        assert run_until(dep.net, lambda: bytes(tunnel.rx) == b"late-bytes", deadline=t_open + 15.0)
        # a fresh initiation is silently dropped
        dep.net.inject_syn(("client", 55555), ("gateway", 4444))
        dep.net.run(until=dep.net.clock + 1.0)
        (verdict,) = [r for r in dep.net.logs["gateway"] if r.get("src_port") == 55555]
        assert (verdict["event"], verdict["verdict"]) == ("filter", "drop")
        # a second service request re-authorizes and reopens access
        dep.net.act(client, client.open_service("echo-cloud", dep.net.clock))
        assert run_until(dep.net, lambda: client.requests[2].state == "granted", deadline=dep.net.clock + 10.0)
        assert gw.engine.rule_count() == 1

    def test_no_client_bytes_touch_service_ports_before_authentication(self):
        dep = authed_deployment()
        start = len(dep.net.trace)
        client = connect_client(dep)
        auth_end_index = len(dep.net.trace)
        for rec in dep.net.trace[start:auth_end_index]:
            if rec.src == "client":
                assert rec.dst_port != 4444

    def test_service_down_closes_client_flow(self):
        dep = authed_deployment()
        client = connect_client(dep)
        dep.net.act(client, client.open_service("echo-cloud", dep.net.clock))
        run_until(dep.net, lambda: client.requests[1].state == "granted")
        # the protected service stops listening
        dep.net.nodes["cloud"].tcp_ports.clear()
        t0 = dep.net.clock
        dep.net.act(client, client.open_tunnel_stream("echo-cloud"))
        tunnel = client.tunnels["echo-cloud"]
        assert run_until(dep.net, lambda: tunnel.closed, deadline=t0 + 2.0)
        assert dep.net.clock - t0 <= 2.0

    def test_reopened_tunnel_stream_closes_the_one_before(self):
        dep = authed_deployment()
        client = connect_client(dep)
        dep.net.act(client, client.open_service("echo-cloud", dep.net.clock))
        assert run_until(dep.net, lambda: client.requests[1].state == "granted")
        for _ in range(5):
            dep.net.act(client, client.open_tunnel_stream("echo-cloud"))
            dep.net.run(until=dep.net.clock + 0.5)
        tunnel = client.tunnels["echo-cloud"]
        assert tunnel.established and not tunnel.closed
        for wait in (0.0, 200.0):
            dep.net.run(until=dep.net.clock + wait)
            assert list(flows_of(client, Tunnel)) == [tunnel.flow]
            assert dep.gateway().engine.conntrack_count() == 1
            assert len(dep.net._by_local["cloud"]) == 1  # the echo service's open connections
        dep.net.act(client, client.tunnel_send("echo-cloud", b"ping"))
        assert run_until(dep.net, lambda: bytes(tunnel.rx) == b"ping", deadline=dep.net.clock + 5.0)

    def test_regranted_service_keeps_its_open_tunnel_stream(self):
        dep = authed_deployment()
        client = connect_client(dep)
        dep.net.act(client, client.open_service("echo-cloud", dep.net.clock))
        assert run_until(dep.net, lambda: client.requests[1].state == "granted")
        dep.net.act(client, client.open_tunnel_stream("echo-cloud"))
        tunnel = client.tunnels["echo-cloud"]
        assert run_until(dep.net, lambda: tunnel.established)
        dep.net.act(client, client.open_service("echo-cloud", dep.net.clock))
        assert run_until(dep.net, lambda: client.requests[2].state == "granted", deadline=dep.net.clock + 5.0)
        dep.net.act(client, client.tunnel_send("echo-cloud", b"ping"))  # the stream open before the grant
        assert run_until(dep.net, lambda: bytes(tunnel.rx) == b"ping", deadline=dep.net.clock + 5.0)
        dep.net.run(until=dep.net.clock + 200.0)
        assert client.tunnels["echo-cloud"] is tunnel and tunnel.established and not tunnel.closed
        tunnel_streams = [f for f in dep.net._by_local["client"] if f != client._relay_flow]
        assert tunnel_streams == [tunnel.flow]
        assert dep.gateway().engine.conntrack_count() == 1
        assert len(dep.net._by_local["cloud"]) == 1  # the echo service's open connections

    def test_an_idle_splice_closes_with_its_conntrack_entry(self):
        dep = authed_deployment()
        client = connect_client(dep)
        gw = dep.gateway()
        dep.net.act(client, client.open_service("echo-cloud", dep.net.clock))
        assert run_until(dep.net, lambda: client.requests[1].state == "granted")
        dep.net.act(client, client.open_tunnel_stream("echo-cloud"))
        tunnel = client.tunnels["echo-cloud"]
        assert run_until(dep.net, lambda: tunnel.established)
        assert len(flows_of(gw, _Splice)) == 2 and len(dep.net._by_local["cloud"]) == 1
        dep.net.run(until=dep.net.clock + CONNTRACK_IDLE + 100.0)
        assert gw.engine.conntrack_count() == 0
        assert flows_of(gw, _Splice) == {}
        assert len(dep.net._by_local["cloud"]) == 0  # the echo service's open connections
        assert tunnel.closed


class TestSpliceIsolation:
    def test_two_clients_bytes_never_cross(self):
        dep = authed_deployment(
            clients=[
                {"id": "aa" * 16, "host": "client", "services": ["echo-cloud"]},
                {"id": "dd" * 16, "host": "client2", "services": ["echo-cloud"]},
            ],
            topology=TWO_CLIENT_TOPOLOGY,
        )
        a = connect_client(dep, dep.clients["aa" * 16])
        b = connect_client(dep, dep.clients["dd" * 16])
        rng = random.Random(8)
        for node, req_id in ((a, 1), (b, 1)):
            dep.net.act(node, node.open_service("echo-cloud", dep.net.clock))
            assert run_until(dep.net, lambda n=node: n.requests[1].state == "granted")
            dep.net.act(node, node.open_tunnel_stream("echo-cloud"))
            assert run_until(dep.net, lambda n=node: n.tunnels["echo-cloud"].established)
        sent_a, sent_b = bytearray(), bytearray()
        for i in range(40):
            pa = bytes([0xA0]) + rng.randbytes(10)
            pb = bytes([0xB0]) + rng.randbytes(10)
            sent_a.extend(pa)
            sent_b.extend(pb)
            dep.net.act(a, a.tunnel_send("echo-cloud", pa))
            dep.net.act(b, b.tunnel_send("echo-cloud", pb))
        assert run_until(dep.net, lambda: len(a.tunnels["echo-cloud"].rx) == len(sent_a) and len(b.tunnels["echo-cloud"].rx) == len(sent_b))
        assert bytes(a.tunnels["echo-cloud"].rx) == bytes(sent_a)
        assert bytes(b.tunnels["echo-cloud"].rx) == bytes(sent_b)


class TestConversationIsolation:
    @pytest.mark.parametrize(
        "kind, fields",
        [
            (Kind.CONNECTION_REQUEST, []),
            (Kind.CONNECTION_REQUEST, [(F.SERVICE_ID, b"echo-cloud")]),
            (Kind.DEVICE_VALIDATE_ACK, []),
        ],
        ids=["request-without-fields", "request-without-id", "validate-ack-without-fields"],
    )
    def test_malformed_message_ends_only_its_conversation(self, kind, fields):
        dep = authed_deployment(
            clients=[
                {"id": "aa" * 16, "host": "client", "services": ["echo-cloud"]},
                {"id": "dd" * 16, "host": "client2", "services": ["echo-cloud"]},
            ],
            topology=TWO_CLIENT_TOPOLOGY,
        )
        ctl, gw = dep.controller, dep.gateway()
        links = dict(ctl.links)
        bad = connect_client(dep, dep.clients["aa" * 16])
        assert bad.ready and ctl.session_count() == 1
        # sealed with the live session key, but without the fields the message needs
        dep.net.act(bad, [Send(bad._relay_flow, bad.channel.frame(kind, fields))])
        dep.net.run(until=dep.net.clock + 1.0)
        assert ctl.links == links and gw.registered
        assert ctl.session_count() == 0 and ctl.clients_ctx == {}
        assert any(r.get("event") == "client-frame" and r.get("verdict") == "closed" for r in dep.net.logs[ctl.name])

        good = connect_client(dep, dep.clients["dd" * 16])
        assert good.ready
        dep.net.act(good, good.open_service("echo-cloud", dep.net.clock))
        assert run_until(dep.net, lambda: good.requests[1].state == "granted", deadline=dep.net.clock + 5.0)
        dep.net.act(good, good.open_tunnel_stream("echo-cloud"))
        tunnel = good.tunnels["echo-cloud"]
        assert run_until(dep.net, lambda: tunnel.established, deadline=dep.net.clock + 5.0)
        dep.net.act(good, good.tunnel_send("echo-cloud", b"ping"))
        assert run_until(dep.net, lambda: bytes(tunnel.rx) == b"ping", deadline=dep.net.clock + 5.0)
        assert ctl.links == links and gw.registered

    def test_broken_gateway_link_ends_the_conversations_it_relayed(self):
        dep = authed_deployment()
        ctl, gw = dep.controller, dep.gateway()
        connect_client(dep)
        assert ctl.session_count() == 1 and len(ctl.clients_ctx) == 1
        dep.net.act(gw, [gw._upstream(Kind.RELAY_OPEN, [])])  # no flow id: the link itself is broken
        dep.net.run(until=dep.net.clock + 0.5)
        assert ctl.session_count() == 0 and ctl.clients_ctx == {} and ctl.by_gateway == {}


class TestDeviceValidation:
    def test_answering_client_persists(self):
        dep = authed_deployment(timing={"validation_interval": 2.0})
        client = connect_client(dep)
        dep.net.run(until=dep.net.clock + 10.0)  # several challenge cycles
        assert client.session_id is not None and not client.revoked
        assert dep.controller.session_count() == 1

    def test_silent_client_revoked_and_rules_removed(self, monkeypatch):
        dep = authed_deployment(timing={"validation_interval": 2.0})
        client = connect_client(dep)
        monkeypatch.setattr(client, "_on_validate", lambda fields, now: [])
        dep.net.act(client, client.open_service("echo-cloud", dep.net.clock))
        run_until(dep.net, lambda: client.requests[1].state == "granted")
        dep.net.act(client, client.open_tunnel_stream("echo-cloud"))
        run_until(dep.net, lambda: client.tunnels["echo-cloud"].established)
        assert run_until(dep.net, lambda: client.revoked, deadline=dep.net.clock + 10.0)
        assert client.tunnels["echo-cloud"].closed
        assert dep.controller.session_count() == 0
        assert dep.gateway().engine.rule_count() == 0
        assert dep.gateway().engine.conntrack_count() == 0

    def test_revoked_client_relay_is_forgotten(self, monkeypatch):
        # the gateway closes the relay itself, so no on_closed ever reports it
        dep = authed_deployment(timing={"validation_interval": 2.0})
        client = connect_client(dep)
        monkeypatch.setattr(client, "_on_validate", lambda fields, now: [])
        assert run_until(dep.net, lambda: client.revoked, deadline=dep.net.clock + 10.0)
        dep.net.run(until=dep.net.clock + 120.0)
        gw = dep.gateway()
        assert flows_of(gw, _Relay) == {}
        assert gw.by_relay_id == {}

    def test_tampered_ack_revokes(self, monkeypatch):
        dep = authed_deployment(timing={"validation_interval": 2.0})
        client = connect_client(dep)
        monkeypatch.setattr(sdperim.client, "sign_validation", lambda identity, nonce: bytes(64))
        assert run_until(dep.net, lambda: client.revoked, deadline=dep.net.clock + 10.0)
        assert dep.controller.session_count() == 0


def forged_spa(now, client_id=b"\xaa" * 16):
    """A controller-target SPA naming a provisioned client (the default's
    ``aa`` id) under a made-up key: it passes the gateway's structural gate,
    so it writes a relay gate for its source."""
    key = spa.SpaKey(client_id, b"\x98" * 32)
    return spa.build_spa(key, 1, spa.TargetRole.CONTROLLER, now, b"\x00" * spa.NONCE_LEN).encode()


def forged_src(i):
    return (f"10.{i >> 16 & 255}.{i >> 8 & 255}.{i & 255}", 40000)


class TestDarkness:
    def test_fuzz_unknown_host_never_gets_a_byte(self):
        # every port the perimeter guards: first-contact, relay, service
        dep = authed_deployment()
        rng = random.Random(13)
        stranger = Node("stranger")
        for link in two_way("stranger", "gateway") + two_way("stranger", "controller"):
            dep.net.topology.links[(link.src, link.dst)] = link
        dep.net.add_node(stranger)
        actions = []
        for i in range(300):
            if rng.random() < 0.5:
                port = rng.choice([62201, 5000, 4444])
                actions.append(SendDatagram(("gateway", port), rng.randbytes(rng.randrange(0, 200))))
            else:
                port = rng.choice([5000, 4444])  # the tcp ports the filter guards
                actions.append(OpenStream(stranger.new_flow(), ("gateway", port), "raw"))
        dep.net.act(stranger, actions)
        for i in range(100):
            port = rng.choice([62201, 5000])
            dep.net.act(stranger, [SendDatagram(("controller", port), rng.randbytes(rng.randrange(0, 200)))])
            dep.net.act(stranger, [OpenStream(stranger.new_flow(), ("controller", 5000), "raw")])
        dep.net.run(until=dep.net.clock + 10.0)
        replies = [r for r in dep.net.trace if r.dst == "stranger"]
        assert replies == []

    def test_malformed_spa_datagram_is_silent(self):
        dep = authed_deployment()
        stranger = Node("client")  # legitimate link, garbage traffic
        before = len(dep.net.trace)
        dep.net.add_node(stranger)
        dep.net.act(stranger, [SendDatagram(("gateway", 62201), b"\x00" * 89)])
        dep.net.run(until=dep.net.clock + 2.0)
        replies = [r for r in dep.net.trace[before:] if r.dst == "client"]
        assert replies == []

    BAD_FIRST_RELAY_FRAMES = {
        "malformed": encode_frame(Kind.CHANNEL_HELLO, []),
        "no-hello": encode_frame(Kind.RELAY_DATA, [(F.DATA, b"x")]),
        "gate-mismatch": encode_frame(Kind.CHANNEL_HELLO, [(F.SUBJECT_ID, b"\x77" * 16)]),
    }

    @pytest.mark.parametrize("reason", sorted(BAD_FIRST_RELAY_FRAMES))
    def test_relay_hello_without_subject_is_dropped_silently(self, reason):
        # the relay gate is structural, so a made-up key opens it; a bad first
        # frame must be a logged drop that closes the stream, not a crash or
        # an entry the gateway keeps
        dep = authed_deployment()

        class Forger(Node):
            closed = []

            def on_connected(self, flow, now):
                return [Send(flow, TestDarkness.BAD_FIRST_RELAY_FRAMES[reason])]

            def on_closed(self, flow, now):
                self.closed.append(flow)
                return []

        forger = Forger("client")
        dep.net.add_node(forger)
        before = len(dep.net.trace)
        dep.net.act(forger, [SendDatagram(("gateway", 62201), forged_spa(dep.net.clock))])
        dep.net.run(until=dep.net.clock + 0.5)
        flow = forger.new_flow()
        dep.net.act(forger, [OpenStream(flow, ("gateway", 5000))])
        dep.net.run(until=dep.net.clock + 2.0)
        relay = [r for r in dep.net.logs["gateway"] if r.get("event") == "relay"]
        assert [r["reason"] for r in relay] == [reason]
        assert forger.closed == [flow]
        assert hello_waits(dep.gateway()) == {}
        replies = [r for r in dep.net.trace[before:] if r.dst == "client" and r.cls == "data"]
        assert replies == []

    def test_silent_relay_streams_close_at_gate_deadline(self):
        # a made-up key opens the structural gate; streams that never send a
        # first frame must not outlive it
        dep = authed_deployment()

        class Silent(Node):
            closed = []

            def on_closed(self, flow, now):
                self.closed.append(flow)
                return []

        forger = Silent("client")
        dep.net.add_node(forger)
        dep.net.act(forger, [SendDatagram(("gateway", 62201), forged_spa(dep.net.clock))])
        dep.net.run(until=dep.net.clock + 0.5)
        flows = [forger.new_flow() for _ in range(50)]
        dep.net.act(forger, [OpenStream(flow, ("gateway", 5000)) for flow in flows])
        dep.net.run(until=dep.net.clock + 1.0)
        # one stream per source awaits its hello: each newer one closed the older
        gw = dep.gateway()
        assert len(hello_waits(gw)) == 1 and gw.relay_gate["client"].flow in hello_waits(gw)
        assert sorted(forger.closed) == flows[:-1]
        dep.net.run(until=dep.net.clock + GATE_WINDOW + 2 * SWEEP_TICK)
        assert sorted(forger.closed) == flows
        assert hello_waits(gw) == {} and "client" not in gw.relay_gate
        relay = [r["reason"] for r in dep.net.logs["gateway"] if r.get("event") == "relay"]
        assert relay == ["superseded"] * 49 + ["hello-timeout"]

    def test_a_dead_relay_closes_one_sweep_after_its_deadline(self):
        # a made-up key opens the structural gate and its hello opens a relay;
        # the controller refuses the SPA, and the source keeps its stream open
        dep = authed_deployment()
        gw = dep.gateway()

        class Knocker(Node):
            closed = []

            def on_connected(self, flow, now):
                return [Send(flow, encode_frame(Kind.CHANNEL_HELLO, [(F.SUBJECT_ID, b"\xaa" * 16)]))]

            def on_closed(self, flow, now):
                self.closed.append(flow)
                return []

        knocker = Knocker("client")
        dep.net.add_node(knocker)
        dep.net.act(knocker, [SendDatagram(("gateway", 62201), forged_spa(dep.net.clock))])
        dep.net.run(until=dep.net.clock + 0.5)
        flow = knocker.new_flow()
        dep.net.act(knocker, [OpenStream(flow, ("gateway", gw.relay_port))])
        dep.net.run(until=dep.net.clock + 1.0)
        (opened,) = [r["ts"] for r in dep.net.logs["gateway"] if r.get("event") == "relay" and r["verdict"] == "open"]
        refused = [r["verdict"] for r in dep.net.logs["controller"] if r.get("event") == "client-spa"]
        assert refused == ["bad-tag"]  # a provisioned id under a made-up key
        dep.net.run(until=opened + GATE_WINDOW - 0.01)
        assert knocker.closed == [] and len(dep.net._by_local["client"]) == 1  # held before its deadline
        dep.net.run(until=opened + GATE_WINDOW + SWEEP_TICK + 0.01)
        assert knocker.closed == [flow] and dep.net._by_local["client"] == {}
        drops = [r for r in dep.net.logs["gateway"] if r.get("event") == "relay" and r["verdict"] == "drop"]
        assert [r["reason"] for r in drops] == ["dead"] and opened + GATE_WINDOW <= drops[0]["ts"]

    def test_least_privilege_rule_table_subset_of_records(self):
        dep = authed_deployment()
        client = connect_client(dep)
        dep.net.act(client, client.open_service("echo-cloud", dep.net.clock))
        run_until(dep.net, lambda: client.requests[1].state == "granted")
        allowed = {(c.id_bytes.hex(), sid) for c in dep.cfg.clients for sid in c.services}
        installed = {
            (r["client"], r["service"])
            for r in dep.net.logs["gateway"]
            if r.get("event") == "rule" and r["verdict"] == "installed"
        }
        assert installed == {(client.spa_key.client_id.hex(), "echo-cloud")} and installed <= allowed
        assert dep.gateway().engine.rule_count() == 1


class TestRelayGate:
    def test_an_spa_naming_no_provisioned_client_writes_no_gate(self):
        dep = authed_deployment()
        gw = dep.gateway()
        stranger = Node("client")
        dep.net.add_node(stranger)
        before = len(dep.net.trace)
        dep.net.act(stranger, [SendDatagram(("gateway", gw.spa_port), forged_spa(dep.net.clock, b"\x99" * 16))])
        dep.net.run(until=dep.net.clock + 0.5)
        dep.net.act(stranger, [OpenStream(stranger.new_flow(), ("gateway", gw.relay_port))])
        dep.net.run(until=dep.net.clock + 2.0)
        records = [{k: v for k, v in r.items() if k != "ts"} for r in dep.net.logs["gateway"] if r.get("src") == "client"]
        assert records == [
            {"event": "spa", "verdict": "unknown-client", "src": "client"},
            {"event": "stream", "verdict": "drop", "reason": "ungated", "src": "client", "port": gw.relay_port},
        ]
        assert not gw.relay_gate and hello_waits(gw) == {}
        relay = [f.state for f in dep.net._by_local["gateway"].values() if f.acc_addr == ("gateway", gw.relay_port)]
        assert relay == ["syn-sent"]  # declined: never answered
        assert [r for r in dep.net.trace[before:] if r.dst == "client"] == []

    def test_forged_gates_are_capped_oldest_first(self):
        dep = authed_deployment()
        gw = dep.gateway()
        packet, now = forged_spa(dep.net.clock), dep.net.clock
        for i in range(GATE_CAP + 500):
            gw.on_datagram(gw.spa_port, forged_src(i), packet, now + i * 1e-3)
        assert list(gw.relay_gate) == [forged_src(i)[0] for i in range(500, GATE_CAP + 500)]

    def test_controller_gates_are_capped_and_expire(self):
        # a gateway key holder can write a controller gate from each spoofed source
        dep = authed_deployment()
        ctl, key = dep.controller, dep.gateway().spa_key
        first, now = ctl.store.last_counter(key.client_id) + 1, dep.net.clock

        def accept(i, at):
            packet = spa.build_spa(key, first + i, spa.TargetRole.CONTROLLER, at, b"\x00" * spa.NONCE_LEN)
            actions = ctl.on_datagram(ctl.udp_ports[0], forged_src(i), packet.encode(), at)
            assert [a.record["verdict"] for a in actions] == ["accept"]

        for i in range(20_000):
            accept(i, now)
        assert len(ctl.gated) <= GATE_CAP
        assert list(ctl.gated) == [forged_src(i)[0] for i in range(20_000 - GATE_CAP, 20_000)]
        accept(20_000, now + GATE_WINDOW + 1.0)
        assert list(ctl.gated) == [forged_src(20_000)[0]]

    def test_client_keys_cannot_evict_a_gateway_gate_at_the_controller(self):
        dep = authed_deployment()
        ctl, now = dep.controller, dep.net.clock
        gw_key, client_key = dep.gateway().spa_key, dep.client().spa_key

        def send(key, src, counter):
            packet = spa.build_spa(key, counter, spa.TargetRole.CONTROLLER, now, b"\x00" * spa.NONCE_LEN)
            return [a.record["verdict"] for a in ctl.on_datagram(ctl.udp_ports[0], src, packet.encode(), now)]

        assert send(gw_key, ("gateway", 40000), ctl.store.last_counter(gw_key.client_id) + 1) == ["accept"]
        first = ctl.store.last_counter(client_key.client_id) + 1
        for i in range(GATE_CAP):  # a client's SPA reaches the controller only through its gateway
            assert send(client_key, forged_src(i), first + i) == ["unknown-client"]
        assert list(ctl.gated) == ["gateway"]

    def test_resent_spa_survives_the_sweep_at_its_first_deadline(self):
        dep = authed_deployment()
        gw = dep.gateway()
        t0 = dep.net.clock
        packet = forged_spa(t0)
        gw.on_datagram(gw.spa_port, forged_src(1), packet, t0)
        gw.on_datagram(gw.spa_port, forged_src(2), packet, t0 + 10.0)
        gw.on_datagram(gw.spa_port, forged_src(1), packet, t0 + 30.0)  # re-sent: now the newest gate
        gw.on_timer("sweep", t0 + GATE_WINDOW + 15.0)
        assert list(gw.relay_gate) == [forged_src(1)[0]]

    def test_hello_spends_the_gate(self):
        dep = authed_deployment()
        client = connect_client(dep)
        assert client.ready
        assert "client" not in dep.gateway().relay_gate
        dep.net.act(client, [OpenStream(client.new_flow(), ("gateway", 5000))])
        dep.net.run(until=dep.net.clock + 1.0)
        streams = [r for r in dep.net.logs["gateway"] if r.get("event") == "stream"]
        assert [(r["reason"], r["src"]) for r in streams] == [("ungated", "client")]

    def test_client_authenticates_right_after_a_cap_sized_flood(self):
        dep = authed_deployment()
        gw = dep.gateway()
        packet = forged_spa(dep.net.clock)
        for i in range(GATE_CAP):
            gw.on_datagram(gw.spa_port, forged_src(i), packet, dep.net.clock)
        assert len(gw.relay_gate) == GATE_CAP
        client = connect_client(dep)
        assert client.ready and not client.failed
        assert client.session_id is not None and not client.revoked

    def test_table_stays_bounded_ordered_and_swept(self):
        # keyless input only: bursts of forged controller-target SPAs and of
        # relay streams (some closed by their source) from a pool of sources
        # (so sources repeat; the streams' pool is the first sources, which a
        # burst of SPAs most likely gated), clock advances and sweeps
        ids = [bytes([i]) * 16 for i in range(8)]
        clients = [{"id": cid.hex(), "host": f"client{i}", "services": ["echo-cloud"]} for i, cid in enumerate(ids)]
        gw = authed_deployment(clients=clients).gateway()
        packets = [forged_spa(0.0, cid) for cid in ids]
        step = st.one_of(
            st.tuples(st.just("spa"), st.integers(1, 2000), st.integers(1, 4000), st.integers(0, 2**16)),
            st.tuples(st.just("streams"), st.integers(1, 200), st.integers(1, 64), st.integers(0, 2**16)),
            st.tuples(st.just("advance"), st.floats(0.0, 1.5 * GATE_WINDOW)),
            st.tuples(st.just("sweep")),
        )

        @settings(max_examples=300, derandomize=True, deadline=None)
        @given(st.lists(step, max_size=12))
        def check(steps):
            gw.relay_gate.clear()
            for flow in hello_waits(gw):
                del gw.flows[flow]
            now = 0.0
            for op, *args in steps:
                if op == "spa":
                    count, pool, seed = args
                    rng = random.Random(seed)
                    for _ in range(count):
                        src = forged_src(rng.randrange(pool))
                        gw.on_datagram(gw.spa_port, src, rng.choice(packets), now)
                    assert next(reversed(gw.relay_gate)) == src[0]  # the newest write is never evicted
                elif op == "streams":
                    count, pool, seed = args
                    rng = random.Random(seed)
                    for _ in range(count):
                        src, flow = forged_src(rng.randrange(pool)), gw.new_flow()
                        gate = gw.relay_gate.get(src[0])
                        older = gate.flow if gate is not None else None
                        actions = gw.on_stream_request(flow, gw.relay_port, src, now)
                        if gate is None or gate.deadline < now:
                            assert AcceptStream(flow) not in actions and flow not in hello_waits(gw)
                        else:  # admitted, and the older stream from its source is closed
                            assert actions[-1] == AcceptStream(flow) and gate.flow == flow
                            assert [a.flow for a in actions if isinstance(a, Close)] == [older] * (older is not None)
                        if hello_waits(gw) and rng.random() < 0.3:  # a source gives up on a waiting stream
                            gw.on_closed(rng.choice(list(hello_waits(gw))), now)
                elif op == "advance":
                    now += args[0]
                else:
                    gw.on_timer("sweep", now)
                    assert all(g.deadline >= now for g in gw.relay_gate.values())
                deadlines = [g.deadline for g in gw.relay_gate.values()]
                waiting = hello_waits(gw)
                assert len(waiting) <= len(deadlines) <= GATE_CAP
                assert deadlines == sorted(deadlines)
                # each waiting stream's gate exists and names it, and each named stream waits
                assert all(gw.relay_gate[host].flow == flow for flow, host in waiting.items())
                assert all(waiting[g.flow] == host for host, g in gw.relay_gate.items() if g.flow is not None)

        check()


class TestHelloWait:
    """Relay streams a live gate admitted, awaiting their first frame: at
    most one per source, at most ``GATE_CAP`` in all."""

    def test_silent_streams_from_one_source_keep_one_entry(self):
        dep = authed_deployment()
        gw = dep.gateway()
        forger = Node("client")
        dep.net.add_node(forger)
        dep.net.act(forger, [SendDatagram(("gateway", gw.spa_port), forged_spa(dep.net.clock))])
        dep.net.run(until=dep.net.clock + 0.5)
        dep.net.act(forger, [OpenStream(forger.new_flow(), ("gateway", gw.relay_port)) for _ in range(5000)])
        dep.net.run(until=dep.net.clock + 5.0)
        assert len(hello_waits(gw)) == 1 and len(gw.relay_gate) == 1
        open_relay = [
            f for f in dep.net._by_local["gateway"].values()
            if f.acc_node == "gateway" and f.acc_addr[1] == gw.relay_port
        ]
        assert len(open_relay) == 1

    def test_streams_awaiting_a_hello_are_capped_oldest_first(self):
        dep = authed_deployment()
        gw = dep.gateway()
        packet, now = forged_spa(dep.net.clock), dep.net.clock
        flows = []
        for i in range(GATE_CAP + 100):
            # a gate evicted at the cap takes the stream it holds with it
            actions = gw.on_datagram(gw.spa_port, forged_src(i), packet, now)
            closed = [a.flow for a in actions if isinstance(a, Close)]
            reasons = [a.record["reason"] for a in actions if isinstance(a, Log) and a.record["event"] == "relay"]
            if i < GATE_CAP:
                assert closed == [] and reasons == []
            else:  # the oldest waiting stream goes
                assert closed == [flows[i - GATE_CAP]] and reasons == ["evicted"]
            flows.append(gw.new_flow())
            assert gw.on_stream_request(flows[-1], gw.relay_port, forged_src(i), now) == [AcceptStream(flows[-1])]
        assert list(hello_waits(gw)) == flows[100:]
        assert [g.flow for g in gw.relay_gate.values()] == flows[100:]

    def test_resent_spa_keeps_the_waiting_stream_and_its_hello_opens_the_relay(self):
        dep = authed_deployment()
        gw, key = dep.gateway(), dep.client().spa_key
        src, now = ("client", 40000), dep.net.clock
        first = spa.build_spa(key, 1, spa.TargetRole.CONTROLLER, now, b"\x01" * spa.NONCE_LEN).encode()
        resent = spa.build_spa(key, 2, spa.TargetRole.CONTROLLER, now + 1.0, b"\x02" * spa.NONCE_LEN).encode()
        flow = gw.new_flow()
        gw.on_datagram(gw.spa_port, src, first, now)
        assert gw.on_stream_request(flow, gw.relay_port, src, now) == [AcceptStream(flow)]
        actions = gw.on_datagram(gw.spa_port, src, resent, now + 1.0)
        assert [a.record["verdict"] for a in actions] == ["gate-relay"]  # logged, nothing closed
        gate = gw.relay_gate["client"]
        assert gate.flow == flow and gate.spa_bytes == resent and hello_waits(gw) == {flow: src[0]}
        actions = gw.on_data(flow, encode_frame(Kind.CHANNEL_HELLO, [(F.SUBJECT_ID, key.client_id)]), now + 2.0)
        assert [a.record for a in actions if isinstance(a, Log)] == [
            {"event": "relay", "verdict": "open", "src": "client", "client": key.client_id.hex()}
        ]
        assert [a.flow for a in actions if isinstance(a, Send)] == [gw.upstream_flow] * 2  # RELAY_OPEN, SPA_FORWARD
        assert flow in flows_of(gw, _Relay) and hello_waits(gw) == {} and "client" not in gw.relay_gate

    def test_a_waiting_stream_its_source_closed_is_forgotten(self):
        dep = authed_deployment()
        gw = dep.gateway()
        src, now = forged_src(1), dep.net.clock
        gw.on_datagram(gw.spa_port, src, forged_spa(now), now)
        first, second = gw.new_flow(), gw.new_flow()
        assert gw.on_stream_request(first, gw.relay_port, src, now) == [AcceptStream(first)]
        gw.on_closed(first, now)
        assert hello_waits(gw) == {} and gw.relay_gate[src[0]].flow is None
        assert gw.on_stream_request(second, gw.relay_port, src, now) == [AcceptStream(second)]

    def test_client_whose_first_stream_sent_no_hello_authenticates_on_retry(self):
        dep = authed_deployment()
        client = dep.client()
        muted = []
        attempt, retry = client._attempt_connect, client._retry_or_fail

        def attempt_connect(now):
            actions = attempt(now)
            if not muted:  # the first relay stream never sends its hello
                muted.append(client._relay_flow)
                actions = [a for a in actions if not isinstance(a, Send)]
            return actions

        def retry_or_fail(now, reason):
            if client._relay_flow in muted:
                client._relay_flow = None  # abandoned, not closed: the gateway must end it
            return retry(now, reason)

        client._attempt_connect, client._retry_or_fail = attempt_connect, retry_or_fail
        connect_client(dep, client)
        assert client.ready and client.session_id is not None and not client.revoked
        relay = [(r["verdict"], r.get("reason")) for r in dep.net.logs["gateway"] if r.get("event") == "relay"]
        assert relay == [("drop", "superseded"), ("open", None)]
        assert hello_waits(dep.gateway()) == {}


class TestRegistration:
    def test_registration_converges_on_a_slow_link(self):
        """With round trips longer than the first retry delay, each retry closes
        the last attempt's stream and waits twice as long, so one attempt ends."""
        links = [
            dict(src=s, dst=d, rate_bps=1e9, speed_mps=2e8, beta_m=2.4e8 if {s, d} == {"gateway", "controller"} else 1.0)
            for s, d in [
                ("client", "gateway"), ("gateway", "client"),
                ("gateway", "controller"), ("controller", "gateway"),  # 1.2 s one way
                ("gateway", "cloud"), ("cloud", "gateway"),
            ]
        ]
        dep = build_sim(default_config(seed=7, topology={"links": links}))
        assert run_until(dep.net, lambda: dep.gateway().registered, deadline=30.0)
        dep.net.run(until=60.0)
        assert dep.gateway().registered
        assert len(dep.controller.links) == 1 and len(dep.controller.by_gateway) == 1

    @staticmethod
    def link_closes(dep):
        return [r for r in dep.net.logs["controller"] if r["event"] == "channel" and r["verdict"] == "closed"]

    def test_a_controller_that_closes_the_link_is_retried_with_backoff(self, monkeypatch):
        """A controller that rejects the gateway's registration closes each
        link there; the gateway's waits still double up to 32 s."""
        dep = build_sim(default_config(seed=7))

        def reject(link, fields, now):
            raise CredentialError("gateway certificate subject mismatch")

        monkeypatch.setattr(dep.controller, "_on_register", reject)
        dep.net.run(until=120.0)
        assert 1 <= len(self.link_closes(dep)) <= 8  # 2, 4, 8, 16, 32, 32 ... s apart, not every 2 s
        assert not dep.gateway().registered

    def test_a_restarted_gateway_stays_registered_when_its_old_stream_closes(self):
        """The gateway registers again without closing its first stream, as a
        restart does. The controller closes the older link, so the old
        stream's close cannot unregister the gateway."""
        dep = authed_deployment()
        gw, ctl = dep.gateway(), dep.controller
        old = gw.upstream_flow
        gw.upstream_flow, gw.registered, gw.channel = None, False, None  # a restart forgets, it does not close
        dep.net.act(gw, gw._begin_register(dep.net.clock))
        assert run_until(dep.net, lambda: gw.registered, deadline=dep.net.clock + 2.0)
        dep.net.act(gw, [Close(old)])
        dep.net.run(until=dep.net.clock + 1.0)
        assert gw.registered and len(ctl.by_gateway) == 1
        assert list(ctl.links) == [ctl.by_gateway[gw.spa_key.client_id].flow]
        client = connect_client(dep)
        dep.net.act(client, client.open_service("echo-cloud", dep.net.clock))
        assert run_until(dep.net, lambda: client.requests[1].state != "pending", deadline=dep.net.clock + 5.0)
        assert client.requests[1].state == "granted"

    def test_a_registered_link_that_closes_is_retried_after_two_seconds(self):
        dep = authed_deployment()
        gw, ctl = dep.gateway(), dep.controller
        (link,) = ctl.links.values()
        closed_at = dep.net.clock
        # the controller ends the link as its error path does
        dep.net.act(ctl, ctl._close(link.flow, event="channel", verdict="closed", reason="test"))
        dep.net.run(until=closed_at + 1.9)
        assert not gw.registered
        assert run_until(dep.net, lambda: gw.registered, deadline=closed_at + 2.5)


class TestGatewayIntegrity:
    def test_registration_spends_the_controller_gate(self):
        dep = authed_deployment()
        ctl, gw = dep.controller, dep.gateway()
        assert ctl.gated == {}
        mark, flow = len(dep.net.trace), gw.new_flow()
        dep.net.act(gw, [OpenStream(flow, gw.controller_addr)])
        dep.net.run(until=dep.net.clock + 1.0)
        streams = [(r["verdict"], r["reason"]) for r in dep.net.logs[ctl.name] if r.get("event") == "stream"]
        assert streams == [("drop", "ungated")]
        assert [r for r in dep.net.trace[mark:] if r.src == "controller"] == []  # declined silently
        assert gw.registered and len(ctl.links) == 1

    def test_forged_directive_from_client_flow_ignored(self):
        dep = authed_deployment()
        client = connect_client(dep)
        gw = dep.gateway()
        forged = encode_frame(
            Kind.AH_AUTHORIZE,
            [(20, (1).to_bytes(4, "big")), (1, client.spa_key.client_id), (10, b"echo-cloud"),
             (8, b"client"), (9, (4444).to_bytes(2, "big")), (11, (60000).to_bytes(4, "big"))],
        )
        dep.net.act(client, [Send(client._relay_flow, forged)])
        dep.net.run(until=dep.net.clock + 2.0)
        assert gw.engine.rule_count() == 0

    def test_verdict_log_records_filter_decisions(self):
        dep = authed_deployment()
        client = connect_client(dep)
        dep.net.inject_syn(("nowhere", 1), ("gateway", 4444), attacker="client")
        dep.net.run(until=dep.net.clock + 1.0)
        verdicts = [r for r in dep.net.logs["gateway"] if r.get("event") == "filter"]
        assert verdicts
        rec = verdicts[-1]
        assert rec["verdict"] == "drop"
        assert {"ts", "src", "src_port", "dst_port", "proto", "reason"} <= set(rec)


class TestControlPlaneBytes:
    def test_trimmed_frames_carry_only_what_their_reader_reads(self, monkeypatch):
        """CLIENT_SERVICES carries what the gateway reads and RELAY_OPEN what
        the controller reads, no more."""
        sent = {}
        frame = SecureChannel.frame

        def spy(channel, kind, fields):
            sent.setdefault(kind, set()).update(fid for fid, _ in fields)
            return frame(channel, kind, fields)

        monkeypatch.setattr(SecureChannel, "frame", spy)
        dep = authed_deployment()
        assert connect_client(dep).ready
        assert sent[Kind.CLIENT_SERVICES] == {F.FLOW, F.SUBJECT_ID, F.SECRET, F.COUNTER, F.DATA}
        assert sent[Kind.RELAY_OPEN] == {F.FLOW, F.SUBJECT_ID, F.HOST}

    def test_session_payload_bytes_pinned(self):
        """Every byte the nodes put on the wire during one whole session
        (registration, login, a grant, a tunnel echo and one device-validation
        round), in order. Refactors of the message builders must keep it."""
        dep = build_sim(default_config(seed=5))
        net, client = dep.net, dep.client()
        digest, count = hashlib.sha256(), 0
        act = net.act

        def spy(node, actions):
            nonlocal count
            actions = list(actions or ())
            for action in actions:
                if isinstance(action, (Send, SendDatagram)):
                    digest.update(action.data)
                    count += 1
            act(node, actions)

        net.act = spy
        net.call_at(1.0, lambda: net.add_node(client))
        net.call_at(3.0, lambda: net.act(client, client.open_service("echo-cloud", net.clock)))
        net.call_at(4.0, lambda: net.act(client, client.open_tunnel_stream("echo-cloud")))
        net.call_at(5.0, lambda: net.act(client, client.tunnel_send("echo-cloud", b"hello")))
        net.run(until=70.0)
        assert bytes(client.tunnels["echo-cloud"].rx) == b"hello"
        assert dep.controller.session_count() == 1
        assert count == 39
        assert digest.hexdigest() == "868b7b8f98b3169b71d15424efedbf50a6bd0afe359b0bbfb52f57646eaca41b"


class TestFlowTables:
    """Each protocol node keeps one record per open flow in one table (the
    controller's is ``links``) and forgets a flow only in its ``_close``."""

    @pytest.mark.parametrize("module", [sdperim.client, sdperim.controller, sdperim.gateway.node])
    def test_only_close_builds_a_close(self, module):
        """No driver reports a node's own ``Close``, so a ``Close`` built
        anywhere but a node's ``_close`` could leave its flow's record behind
        (``client.py`` holds two nodes, each with its own)."""

        def closes(root):
            return [
                n for n in ast.walk(root)
                if isinstance(n, ast.Call) and getattr(n.func, "id", getattr(n.func, "attr", None)) == "Close"
            ]

        tree = ast.parse(inspect.getsource(module))
        owners = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef) and f.name == "_close"]
        assert owners and all(closes(f) for f in owners)
        assert len(closes(tree)) == sum(len(closes(f)) for f in owners)

    def test_tables_hold_exactly_the_flows_the_driver_holds_open(self, monkeypatch):
        """A full session (authentication, a grant, a tunnel stream, a re-grant,
        a client that fails, revocation). After each step, once its segments
        have landed, each node's table names exactly the flows ``SimNet`` holds
        open for it. The one allowed difference is an inbound initiation the
        node declined: ``SimNet`` keeps it in ``syn-sent``, as its initiator
        is never answered."""
        dep = authed_deployment(
            clients=[
                {"id": "aa" * 16, "host": "client", "services": ["echo-cloud"]},
                {"id": "dd" * 16, "host": "client2", "services": ["echo-cloud"]},
            ],
            topology=TWO_CLIENT_TOPOLOGY,
            timing={"validation_interval": 2.0},
        )
        net, gw, ctl = dep.net, dep.gateway(), dep.controller
        client, other = dep.clients["aa" * 16], dep.clients["dd" * 16]
        failing = ClientNode(
            "client2", other.identity, other.ca_public, spa.SpaKey(other.spa_key.client_id, b"\xee" * 32), "gateway",
            rng=net.node_rng("client2"),
        )
        tables = {gw.name: gw.flows, ctl.name: ctl.links, client.name: client.flows, failing.name: failing.flows}

        def step(until):
            assert run_until(net, until, deadline=net.clock + 60.0)
            net.run(until=net.clock + 1.0)  # the step's segments land
            for name, table in tables.items():
                held = net._by_local.get(name, {})
                open_ = {f for f, flow in held.items() if not (flow.acc_node == name and flow.state == "syn-sent")}
                assert set(table) == open_, name

        step(lambda: gw.registered)
        net.add_node(client)
        step(lambda: client.ready)
        net.act(client, client.open_service("echo-cloud", net.clock))
        step(lambda: client.requests[1].state == "granted")
        net.act(client, client.open_tunnel_stream("echo-cloud"))
        tunnel = client.tunnels["echo-cloud"]
        step(lambda: tunnel.established)
        net.act(client, client.open_service("echo-cloud", net.clock))
        step(lambda: client.requests[2].state == "granted")
        net.act(client, client.tunnel_send("echo-cloud", b"ping"))
        step(lambda: bytes(tunnel.rx) == b"ping")
        assert list(flows_of(client, Tunnel)) == [tunnel.flow]
        net.add_node(failing)
        step(lambda: failing.failed)
        assert failing.flows == {}
        monkeypatch.setattr(client, "_on_validate", lambda fields, now: [])
        step(lambda: client.revoked)
        assert client.flows == {} and flows_of(gw, _Relay) == {} and ctl.session_count() == 0
