"""Attack harness: flood generation, capture series, scanning, experiments."""

import asyncio

import pytest

from sdperim.gateway.filtering import FORWARD, FilterEngine
from sdperim.harness.capture import CaptureSeries, is_attack_segment
from sdperim.harness.experiment import ExperimentSpec, run_experiment
from sdperim.harness.flood import FloodSpec, sim_flood
from sdperim.harness.scan import CLOSED, CONCURRENCY, OPEN, ScannerNode, ScanReport, real_port_scan
from sdperim.services import EchoNode
from sdperim.transport.base import RAW, Node
from sdperim.transport.sim import SimNet, Topology, two_way


class TestFloodSpec:
    def test_invariants(self):
        with pytest.raises(ValueError):
            FloodSpec("gw", 4444, rate=0)
        with pytest.raises(ValueError):
            FloodSpec("gw", 4444, duration=-1)

    def test_sender_count_matches_rate_times_duration(self):
        net = SimNet(Topology(two_way("attacker", "gw")), seed=1)
        net.add_node(EchoNode("gw", 4444))
        stats = sim_flood(net, FloodSpec("gw", 4444, rate=200, duration=3.0), attacker="attacker", start=0.0)
        net.run(until=5.0)
        expected = 200 * 3
        assert stats.sent == expected  # exact on the simulated backend
        assert abs(stats.sent - expected) <= 0.05 * expected


class TestCaptureSeries:
    def test_forwarded_cannot_exceed_seen(self):
        series = CaptureSeries(start=0.0)
        series.append(acked=5, attack_seen=10, attack_forwarded=0, cpu=10, half_open=0)
        with pytest.raises(ValueError):
            series.append(acked=5, attack_seen=1, attack_forwarded=2, cpu=10, half_open=0)

    def test_csv_shape(self):
        series = CaptureSeries(start=5.0)
        series.append(1, 2, 0, 3, 4)
        lines = series.to_csv().strip().splitlines()
        assert lines[0] == "t,acked_segments,attack_segments_seen,attack_segments_forwarded,cpu_proxy,half_open"
        assert lines[1] == "5.0,1,2,0,3,4"

    def test_attack_labeling_by_frame_length(self):
        net = SimNet(Topology(two_way("attacker", "gw") + two_way("c", "gw")), seed=1)
        net.add_node(EchoNode("gw", 4444))
        net.inject_syn(("10.66.0.1", 99), ("gw", 4444), size=40, attacker="attacker")
        from sdperim.transport.base import Node, OpenStream

        legit = Node("c")
        net.add_node(legit)
        net.act(legit, [OpenStream(legit.new_flow(), ("gw", 4444), "raw")])  # 64-byte handshake segment
        net.run(until=1.0)
        labeled = [rec for rec in net.trace if is_attack_segment(rec, "gw", 4444)]
        assert len(labeled) == 1
        assert labeled[0].size == 40


class TestScanReport:
    def test_unknown_verdict_rejected(self):
        with pytest.raises(ValueError):
            ScanReport({80: "Weird"}, 0.1)

    def test_coverage_check(self):
        report = ScanReport({1: CLOSED, 2: OPEN}, 0.1)
        assert report.covers([1, 2])
        assert not report.covers([1, 2, 3])
        assert report.open_ports() == [2]


class TestSimScanner:
    def test_open_vs_dark_vs_refused(self):
        net = SimNet(Topology(two_way("scanner", "target")), seed=2)
        net.add_node(EchoNode("target", 100))
        scanner = ScannerNode("scanner", "target", [100, 101])
        net.add_node(scanner)
        net.run(until=2.0)
        report = scanner.report()
        assert report.verdicts == {100: OPEN, 101: CLOSED}

    def test_at_most_concurrency_probes_in_flight(self):
        # a target that declines every initiation in silence: each probe waits out its timeout
        net = SimNet(Topology(two_way("scanner", "target")), seed=2)
        dark = Node("target")
        dark.tcp_ports = {port: RAW for port in range(1, CONCURRENCY + 2)}
        net.add_node(dark)
        scanner = ScannerNode("scanner", "target", [*dark.tcp_ports, 1], timeout=0.5)  # a repeated port counts once
        net.add_node(scanner)
        net.run(until=0.75)
        assert len(scanner.verdicts) == CONCURRENCY  # the last port waited for a free slot
        net.run(until=2.0)
        report = scanner.report()
        assert report.counts() == {OPEN: 0, CLOSED: CONCURRENCY + 1}
        assert report.elapsed == pytest.approx(1.0, abs=1e-3)


class TestRealScan:
    def test_loopback_refused_and_open(self):
        async def hold(reader, writer):
            # a live service: the connection stays up until the scanner
            # hangs up (closing at once would make the port read closed)
            try:
                await reader.read()
            except ConnectionError:
                pass
            finally:
                writer.close()

        async def main():
            server = await asyncio.start_server(hold, "127.0.0.1", 29123)
            try:
                report = await real_port_scan("127.0.0.1", [29123, 29124], timeout=0.4)
            finally:
                server.close()
                await server.wait_closed()
            return report

        report = asyncio.run(main())
        assert report.verdicts[29123] == OPEN
        assert report.verdicts[29124] == CLOSED


class TestExperiment:
    SPEC = dict(window=16.0, flood_rate=300, flood_duration=6.0, flood_start=5.0, echo_rate=40)

    def test_protected_arm_blocks_everything(self):
        result = run_experiment(ExperimentSpec(seed=3, with_sdp=True, **self.SPEC))
        assert result.zero_leak
        assert sum(result.capture.attack_segments_seen) == 300 * 6
        assert sum(result.capture.attack_segments_forwarded) == 0
        assert result.attacker_segments_to_service == 0
        # segments appear only inside the flood interval
        for i, seen in enumerate(result.capture.attack_segments_seen):
            inside = 5.0 <= i < 11.0
            assert (seen > 0) == inside

    def test_protected_arm_counts_every_forwarded_initiation(self, monkeypatch):
        # a filter that forwards every initiation it would drop: each flood
        # initiation is counted as forwarded in the interval it was seen
        verdict_initiation = FilterEngine.verdict_initiation

        def forward_all(engine, *args):
            verdict = verdict_initiation(engine, *args)
            return verdict if verdict[0] == FORWARD else (FORWARD, "no-rule")

        monkeypatch.setattr(FilterEngine, "verdict_initiation", forward_all)
        result = run_experiment(ExperimentSpec(seed=3, with_sdp=True, **self.SPEC))
        assert sum(result.capture.attack_segments_seen) == 300 * 6
        assert result.capture.attack_segments_forwarded == result.capture.attack_segments_seen
        assert not result.zero_leak

    def test_protected_throughput_unaffected(self):
        result = run_experiment(ExperimentSpec(seed=3, with_sdp=True, **self.SPEC))
        assert result.baseline_throughput > 0
        assert abs(result.flood_throughput - result.baseline_throughput) <= 0.1 * result.baseline_throughput

    def test_unprotected_arm_leaks_and_accumulates(self):
        result = run_experiment(ExperimentSpec(seed=3, with_sdp=False, **self.SPEC))
        assert not result.zero_leak
        assert result.attacker_segments_to_service == 300 * 6
        flood_window = result.capture.half_open[5:11]
        assert all(b > a for a, b in zip(flood_window, flood_window[1:]))  # strictly growing

    def test_protected_verdict_work_is_constant_per_segment(self):
        result = run_experiment(ExperimentSpec(seed=3, with_sdp=True, **self.SPEC))
        for i in range(len(result.capture.cpu_proxy)):
            attack = result.capture.attack_segments_seen[i]
            legit = result.capture.acked_segments[i]
            work = result.capture.cpu_proxy[i]
            assert work <= attack + 2 * legit + 5  # bounded by a small constant per segment

    def test_baseline_without_flood_sees_no_attack_traffic(self):
        result = run_experiment(ExperimentSpec(seed=4, with_sdp=True, window=10.0, flood_enabled=False, echo_rate=40))
        assert sum(result.capture.attack_segments_seen) == 0
        assert result.flood is None

    def test_unknown_spec_key_rejected(self):
        with pytest.raises(ValueError):
            ExperimentSpec.from_dict({"window": 10.0, "flod_rate": 5})
