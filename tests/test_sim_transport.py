"""Simulated backend: delivery arithmetic, ordering, loss, streams, timers, traces."""

import dataclasses
import gc
import json
import tracemalloc
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdperim.transport.base import RAW, AcceptStream, Close, Node, OpenStream, Send, SendDatagram, SetTimer
from sdperim.harness.experiment import setup_with_sdp
from sdperim.harness.scan import ScannerNode
from sdperim.transport.sim import HANDSHAKE_TIMEOUT, LinkSpec, SimNet, TraceRecord, _Flow, two_way


class Sink(Node):
    def __init__(self, name, port=9):
        super().__init__(name)
        self.udp_ports = [port]
        self.tcp_ports = {port: RAW}
        self.datagrams = []
        self.accepted = []
        self.data = []

    def on_datagram(self, port, src, data, now):
        self.datagrams.append((src, data, now))
        return []

    def on_stream_request(self, flow, port, src, now):
        self.accepted.append((flow, src))
        return [AcceptStream(flow)]

    def on_data(self, flow, data, now):
        self.data.append((flow, data, now))
        return []


class Opener(Node):
    def __init__(self, name, dst):
        super().__init__(name)
        self.dst = dst
        self.connected = []
        self.failed = []

    def start(self, now):
        self.flow = self.new_flow()
        return [OpenStream(self.flow, self.dst, RAW)]

    def on_connected(self, flow, now):
        self.connected.append(now)
        return [Send(flow, b"hello")]

    def on_connect_failed(self, flow, reason, now):
        self.failed.append(reason)
        return []


class Dark(Node):
    """Binds a port and declines every stream on it."""

    def __init__(self, name="b", port=9):
        super().__init__(name)
        self.tcp_ports = {port: RAW}


def make_net(**link_kw):
    links = two_way("a", "b", **link_kw)
    return SimNet(links, seed=1)


def live_flows() -> int:
    """Stream flows still held anywhere in this process: a forgotten flow is
    freed, so no node's map, queue or event keeps it."""
    gc.collect()
    return sum(isinstance(obj, _Flow) for obj in gc.get_objects())


class TestDelayArithmetic:
    def test_transmission_plus_propagation(self):
        # 1500 bytes at 12000 bit/s is 1 s; distance equal to speed is 1 s
        net = make_net(rate_bps=12000, speed_mps=3e8, beta_m=3e8)
        sink = Sink("b")
        net.add_node(sink)
        a = Node("a")
        net.add_node(a)
        net.act(a, [SendDatagram(("b", 9), b"\x00" * 1500)])
        net.run()
        assert sink.datagrams[0][2] == 2.0

    def test_zero_length_zero_distance_is_instant(self):
        net = make_net(rate_bps=1e6, speed_mps=2e8, beta_m=0.0)
        sink = Sink("b")
        net.add_node(sink)
        a = Node("a")
        net.add_node(a)
        net.act(a, [SendDatagram(("b", 9), b"")])
        net.run()
        assert sink.datagrams[0][2] == 0.0

    def test_total_loss_never_delivers(self):
        # a send between hosts with no link is lost, and traced as dropped
        net = make_net()
        sink = Sink("c")
        net.add_node(sink)
        a = Node("a")
        net.add_node(a)
        for _ in range(50):
            net.act(a, [SendDatagram(("c", 9), b"x")])
        net.run()
        assert sink.datagrams == []
        assert len(net.trace) == 50
        assert all(r.dropped and r.delivered is None for r in net.trace)

    def test_fixed_accounting_size_overrides_payload(self):
        net = make_net(rate_bps=1000, speed_mps=2e8, beta_m=0.0, alpha_default_bits=1000)
        sink = Sink("b")
        net.add_node(sink)
        a = Node("a")
        net.add_node(a)
        net.act(a, [SendDatagram(("b", 9), b"x")])  # 8 bits on the wire, priced at 1000
        net.run()
        assert sink.datagrams[0][2] == 1.0


class TestOrdering:
    def test_in_order_per_link_despite_sizes(self):
        net = make_net(rate_bps=8000, speed_mps=2e8, beta_m=0.0)
        sink = Sink("b")
        net.add_node(sink)
        a = Node("a")
        net.add_node(a)
        net.act(a, [SendDatagram(("b", 9), b"\x00" * 1000), SendDatagram(("b", 9), b"\x00" * 10)])
        net.run()
        payload_sizes = [len(d) for _, d, _ in sink.datagrams]
        assert payload_sizes == [1000, 10]
        times = [t for _, _, t in sink.datagrams]
        assert times[0] <= times[1]


class TestStreams:
    def test_declined_stream_is_silent(self):
        net = make_net()
        net.add_node(Dark())
        opener = Opener("a", ("b", 9))
        net.add_node(opener)
        net.run()
        assert opener.connected == [] and opener.failed == []
        sent_back = [r for r in net.trace if r.src == "b"]
        assert sent_back == []

    def test_spoofed_initiation_leaves_half_open(self):
        net = make_net()
        sink = Sink("b")
        net.add_node(sink)
        net.add_node(Node("a"))
        net.inject_syn(("10.0.0.1", 555), ("b", 9), attacker="a")
        net.run(until=1.0)  # before the handshake timeout clears the backlog
        assert net.half_open_count("b") == 1
        assert sink.data == []

    def test_half_open_clears_after_handshake_timeout(self):
        net = make_net()
        sink = Sink("b")
        net.add_node(sink)
        net.add_node(Node("a"))
        net.inject_syn(("10.0.0.1", 555), ("b", 9), attacker="a")
        net.run(until=HANDSHAKE_TIMEOUT - 1)
        assert net.half_open_count("b") == 1
        net.run(until=HANDSHAKE_TIMEOUT + 1)
        assert net.half_open_count("b") == 0

    def test_declined_spoofed_flows_are_forgotten(self):
        net = make_net()
        net.add_node(Dark())
        net.add_node(Node("a"))
        net.run()
        before = live_flows()
        for i in range(25):
            net.inject_syn((f"10.0.0.{i}", 555), ("b", 9), attacker="a")
        net.run()
        assert live_flows() == before

    @pytest.mark.parametrize("bound", [True, False], ids=["unbound-port", "no-node"])
    def test_unanswered_spoofed_flows_are_forgotten(self, bound):
        net = make_net()
        if bound:
            net.add_node(Sink("b"))  # listens on 9 only
        net.add_node(Node("a"))
        net.run()
        before = live_flows()
        for i in range(1000):
            net.inject_syn((f"10.0.{i // 256}.{i % 256}", 555), ("b", 1234), attacker="a")
        net.run(until=200.0)
        assert live_flows() == before

    def test_timed_out_spoofed_flows_are_forgotten(self):
        net = make_net()
        net.add_node(Sink("b"))
        net.add_node(Node("a"))
        net.run()
        before = live_flows()
        for i in range(25):
            net.inject_syn((f"10.0.0.{i}", 555), ("b", 9), attacker="a")
        net.run(until=HANDSHAKE_TIMEOUT - 1)
        assert live_flows() == before + 25
        assert net.half_open_count("b") == 25
        net.run(until=HANDSHAKE_TIMEOUT + 1)
        assert live_flows() == before
        assert net.half_open_count("b") == 0

    def test_timeouts_keep_their_place_among_ties(self):
        # a flow times out at exactly (accept time + timeout, the sequence
        # number drawn at accept): a callback scheduled for that instant
        # before the accept runs first, one scheduled after it runs after.
        # The second flow's timeout is scheduled when the first one's fires.
        net = make_net()
        net.add_node(Sink("b"))
        net.add_node(Node("a"))
        seen = []

        def read():
            seen.append(net.half_open_count("b"))

        for i, start in enumerate((0.0, 1.0)):
            net.run(until=start)
            net.inject_syn((f"10.0.0.{i}", 555), ("b", 9), attacker="a")
            accepted_at = net.trace[-1].delivered  # the Sink accepts as the SYN arrives
            deadline = accepted_at + HANDSHAKE_TIMEOUT
            net.call_at(deadline, read)
            net.call_at(accepted_at, lambda deadline=deadline: net.call_at(deadline, read))
        net.run()
        assert seen == [2, 1, 1, 0]

    def test_half_open_flow_memory(self):
        # what the net keeps for each half-open spoofed flow of a SYN flood
        n = 20_000
        net = SimNet(two_way("a", "b"), seed=1)
        net.trace = deque(maxlen=0)  # keep no trace records
        sink = Sink("b")
        net.add_node(sink)
        net.add_node(Node("a"))
        net.run()
        syns = [(f"10.66.{i // 250 % 250}.{i % 250 + 1}", 1024 + i) for i in range(n)]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            for src in syns:
                net.inject_syn(src, ("b", 9), attacker="a")
            net.run(until=1.0)
            sink.accepted.clear()  # the node's own record of each accept, not the net's
            grown = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert net.half_open_count("b") == n
        assert grown / n <= 360

    def test_declined_real_flow_is_kept_for_its_close(self):
        net = make_net()
        net.add_node(Dark())
        opener = Opener("a", ("b", 9))
        net.add_node(opener)
        net.run()
        net.act(opener, [Close(opener.flow)])
        net.run()
        assert [r.cls for r in net.trace if r.src == "a"] == ["syn", "close"]

    @pytest.mark.parametrize("ending", ["initiator-closes", "acceptor-closes", "closed-before-syn", "refused", "declined"])
    def test_closed_streams_are_forgotten(self, ending):
        class Hangup(Sink):
            def on_connected(self, flow, now):
                return [Close(flow)]

        class Decliner(Sink):  # writes, then never accepts
            def on_stream_request(self, flow, port, src, now):
                return [Send(flow, b"banner")]

        net = make_net()
        net.add_node({"acceptor-closes": Hangup, "declined": Decliner}.get(ending, Sink)("b"))
        opener = Hangup("a") if ending == "initiator-closes" else Node("a")
        net.add_node(opener)
        net.run()
        before = live_flows()
        port = 1234 if ending == "refused" else 9
        for _ in range(500):
            flow = opener.new_flow()
            net.act(opener, [OpenStream(flow, ("b", port), RAW), Send(flow, b"early")])
            if ending == "closed-before-syn":
                net.act(opener, [Close(flow)])
        net.run()
        if ending == "declined":  # a declined flow is kept for its initiator's close
            net.act(opener, [Close(flow) for flow in list(net._by_local["a"])])
            net.run()
        assert live_flows() == before
        assert net._by_local == {"a": {}, "b": {}}
        assert net._early == {} and net.half_open_count("b") == 0


class TestRun:
    def test_event_whose_hook_raises_is_consumed(self):
        class Faulty(Node):
            def __init__(self):
                super().__init__("a")
                self.fired = []

            def start(self, now):
                return [SetTimer("x", 1.0), SetTimer("y", 2.0)]

            def on_timer(self, key, now):
                self.fired.append(key)
                if key == "x":
                    raise RuntimeError("hook fault")
                return []

        net = make_net()
        node = Faulty()
        net.add_node(node)
        with pytest.raises(RuntimeError, match="hook fault"):
            net.run(until=5.0)
        assert net.clock == 1.0
        net.run(until=5.0)
        assert node.fired == ["x", "y"]  # y fired once, x never again


class TestTimers:
    def test_table_holds_only_pending_timers(self):
        # the scan sets one probe timer per port; each is forgotten once it fires
        dep = setup_with_sdp(7, "scanner")
        net = dep.net
        net.run(until=5.0)
        scanner = ScannerNode("scanner", dep.gateway().name, range(1, 2049))
        net.add_node(scanner)
        net.run(until=net.clock + 10.0)
        assert scanner.done()
        pending = {args for _, _, handler, args in net._heap if handler == net._on_timer}
        assert {(name, key, seq) for (name, key), seq in net._timers.items()} <= pending
        assert len(net._timers) < 10


class TestTrace:
    def test_empty_run_empty_trace(self):
        net = make_net()
        net.run()
        assert net.trace == []

    def test_one_message_one_record(self):
        net = make_net()
        net.add_node(Sink("b"))
        a = Node("a")
        net.add_node(a)
        net.act(a, [SendDatagram(("b", 9), b"xyz")])
        net.run()
        assert len(net.trace) == 1
        rec = net.trace[0]
        assert (rec.src, rec.dst, rec.size, rec.cls) == ("a", "b", 3, "datagram")
        assert rec.link_delay is not None

    @staticmethod
    def lossy_run(seed, trace=None):
        """Every third send goes to a host with no link, and is dropped."""
        net = SimNet(two_way("a", "b"), seed=seed)
        if trace is not None:
            net.trace = trace
        net.add_node(Sink("b"))
        a = Node("a")
        net.add_node(a)
        for i in range(100):
            net.act(a, [SendDatagram(("c" if i % 3 == 0 else "b", 9), bytes([i % 256]) * (i % 17 + 1))])
        net.run()
        return net

    def test_identical_seeds_identical_traces(self):
        assert self.lossy_run(5).trace_jsonl() == self.lossy_run(5).trace_jsonl()

    def test_records_are_final_when_appended(self):
        class Spy:
            def __init__(self):
                self.records, self.lines = [], []

            def append(self, rec):
                self.records.append(rec)
                self.lines.append(rec.to_line())

        spy = Spy()
        self.lossy_run(5, trace=spy)
        assert any(r.dropped for r in spy.records) and any(not r.dropped for r in spy.records)
        assert spy.lines == [r.to_line() for r in spy.records]
        assert "".join(spy.lines) == self.lossy_run(5).trace_jsonl()


# finite times only: the simulator clock never holds NaN or infinity, and
# json.dumps would spell those NaN/Infinity, which to_line does not
times = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-7, 1e16, 1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(),
)
names = st.one_of(st.sampled_from(['"', "\\", '\\"', "\x00\x1f\x7f\n\t", "é→😀", ""]), st.text())


@settings(max_examples=300, deadline=None)
@given(
    st.builds(
        TraceRecord,
        seq=st.integers(),
        cls=names,
        src=names,
        dst=names,
        src_port=st.integers(),
        dst_port=st.integers(),
        size=st.integers(),
        kind=st.none() | st.integers(),
        sent=times,
        delivered=st.none() | times,
        link_delay=st.none() | times,
        dropped=st.booleans(),
    )
)
def test_trace_line_matches_json_dumps(rec):
    assert rec.to_line() == json.dumps(dataclasses.asdict(rec), sort_keys=True) + "\n"


class TestLinkSpecValidation:
    @pytest.mark.parametrize("kw", [{"rate_bps": 0}, {"speed_mps": -1}, {"beta_m": -2}])
    def test_invalid_parameters(self, kw):
        base = {"rate_bps": 1e6, "speed_mps": 2e8, "beta_m": 1.0}
        base.update(kw)
        with pytest.raises(ValueError):
            LinkSpec("a", "b", **base)

