"""Acceptance suite: one test per criterion, at stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion. Criteria 1 and 6 run on loopback sockets as their definitions
require; the rest run on the simulated backend.
"""

import asyncio
import random
import threading
import time

from oracles import mp_e2e_delay, mp_init_delay, mp_lte_delay, mp_sdp_overhead, mp_total, rel_err
from sdperim import spa
from sdperim.delay_model import DelayParams, e2e_delay, init_delay, lte_delay, reconcile, sdp_overhead
from sdperim.deploy import build_sim, default_config
from sdperim.harness.experiment import ExperimentSpec, run_experiment
from sdperim.harness.scan import real_port_scan
from sdperim.scenarios import AUTH_HOPS, auth_trace_run
from sdperim.transport.sim import PROTOCOL_CLASSES

from test_real_backend import CLIENT_IP, CLOUD_IP, GW_IP, OTHER_IP, Stack, wait_for


def _report(number: int, text: str):
    print(f"\n[criterion {number}] PASS  {text}")


# -- 1. darkness under a port scan -------------------------------------------


def test_criterion_1_port_scan_darkness():
    async def protected():
        async with Stack(24000) as stack:
            ports = sorted({*range(1, 2049), *stack.gw.tcp_ports})  # the gateway's own listeners too
            report = await real_port_scan(GW_IP, ports, timeout=0.5, bind_ip=OTHER_IP)
            assert report.covers(ports) and len(ports) == 2050
            # the relay port was reached and declined the probe; the service port
            # admits no source without a rule, so the probe's SYN never reached the node
            seen = [r for r in stack.hosts[1].logs if r.get("src") == OTHER_IP]
            assert {r.get("port", r.get("dst_port")) for r in seen} == {stack.cfg.ports.control}
            assert all(r["verdict"] == "drop" for r in seen)
            return report

    report = asyncio.run(protected())
    assert report.open_ports() == [], f"open ports visible: {report.open_ports()}"

    async def hold(reader, writer):
        try:
            await reader.read()  # a live service holds the connection until the scanner hangs up
        except ConnectionError:
            pass
        finally:
            writer.close()

    async def unprotected():
        # gateway removed: scan the protected service directly
        server = await asyncio.start_server(hold, CLOUD_IP, 24102)
        try:
            return await real_port_scan(CLOUD_IP, range(24100, 24105), timeout=0.5, bind_ip=OTHER_IP)
        finally:
            server.close()
            await server.wait_closed()

    direct = asyncio.run(unprotected())
    assert direct.verdicts[24102] == "Open"
    assert report.elapsed < 60.0
    _report(1, f"2050 guarded ports (2 of them the gateway's listeners) all dark in {report.elapsed:.1f}s; "
               "unguarded service port reports Open")


# -- 2. flood zero-leak with steady legitimate throughput ----------------------


FLOOD = dict(window=120.0, flood_rate=1000.0, flood_duration=60.0, flood_start=30.0, echo_rate=50.0)


def test_criterion_2_dos_zero_leak_and_throughput():
    result = run_experiment(ExperimentSpec(seed=42, with_sdp=True, **FLOOD))
    assert sum(result.capture.attack_segments_seen) == 60000
    assert sum(result.capture.attack_segments_forwarded) == 0
    assert result.attacker_segments_to_service == 0
    assert result.zero_leak
    base, during = result.baseline_throughput, result.flood_throughput
    assert base > 0
    assert abs(during - base) <= 0.10 * base, f"throughput moved {base} -> {during}"
    _report(2, f"60000 flood segments, 0 delivered; echo throughput {base:.1f}/s -> {during:.1f}/s")


# -- 3. authentication exchange hop counts -------------------------------------


def test_criterion_3_per_hop_frame_counts():
    dep = build_sim(default_config(seed=21))
    dep.net.run(until=1.0)
    start = len(dep.net.trace)
    client = dep.client()
    dep.net.add_node(client)
    while dep.net.clock < 20.0 and not client.ready:
        dep.net.run(until=dep.net.clock + 0.25)
    assert client.ready
    window = [r for r in dep.net.trace[start:] if r.cls in PROTOCOL_CLASSES and not r.dropped]

    def count(src, dst):
        return sum(1 for r in window if (r.src, r.dst) == (src, dst))

    counts = (
        count("client", "gateway"),
        count("gateway", "controller"),
        count("controller", "gateway"),
        count("gateway", "client"),
    )
    assert counts == (3, 4, 3, 5), f"per-hop counts {counts}"
    _report(3, f"one authentication: per-hop frames {counts}")


# -- 4. delay-model algebra against the arbitrary-precision oracle --------------


def test_criterion_4_delay_algebra_1000_randomized():
    rng = random.Random(2024)
    worst = 0.0
    for _ in range(1000):
        p = DelayParams(
            tuple(rng.uniform(8, 1e7) for _ in range(8)),
            tuple(rng.uniform(0, 1e7) for _ in range(8)),
            rng.uniform(1e3, 1e10),
            rng.uniform(1e6, 3e8),
        )
        # (a) initialization = exchange + attach
        err = rel_err(init_delay(p), mp_sdp_overhead(p) + mp_lte_delay(p))
        worst = max(worst, float(err))
        assert err <= 1e-12
        # (b) end-to-end minus initialization = service round trip
        service = mp_total(p.alpha_bits[6], p.rate_bps, p.beta_m[6], p.speed_mps) + mp_total(
            p.alpha_bits[7], p.rate_bps, p.beta_m[7], p.speed_mps
        )
        err = rel_err(e2e_delay(p), mp_init_delay(p) + service)
        worst = max(worst, float(err))
        assert err <= 1e-12
        # (c) linearity under doubling all sizes and lengths
        doubled = DelayParams(
            tuple(a * 2 for a in p.alpha_bits), tuple(b * 2 for b in p.beta_m), p.rate_bps, p.speed_mps, p.hop_counts
        )
        for fn, oracle in ((sdp_overhead, mp_sdp_overhead), (lte_delay, mp_lte_delay),
                           (init_delay, mp_init_delay), (e2e_delay, mp_e2e_delay)):
            err = rel_err(fn(doubled), 2 * oracle(p))
            worst = max(worst, float(err))
            assert err <= 1e-12
    _report(4, f"1000 randomized parameter sets; worst relative error {worst:.2e} <= 1e-12")


# -- 5. simulator/prediction reconciliation -------------------------------------


def test_criterion_5_reconcile_exact_zero():
    frames, params = auth_trace_run(seed=5)
    report = reconcile(frames, params, AUTH_HOPS)
    assert report.uniform_sizes
    assert report.count_mismatches == []
    assert report.delta == 0.0, f"delta {report.delta!r}"
    _report(5, f"initialization phase predicted {report.predicted:.9f}s == measured {report.measured:.9f}s (delta exactly 0)")


# -- 6. overhead ordering on loopback --------------------------------------------


def test_criterion_6_loopback_overheads():
    """Time one full connection's phases on loopback: authentication
    (controller overhead), the grant (gateway overhead), and a first echo
    through the tunnel against the same echo reached directly."""

    def poll(cond):
        return wait_for(cond, 10.0, 0.005)

    async def measure():
        async with Stack(24200) as stack:
            t0 = time.time()
            client, host = await stack.join_client()
            assert await poll(lambda: client.ready)
            controller_overhead = time.time() - t0
            t1 = time.time()
            await host.call(lambda now: client.open_service("echo-cloud", now))
            assert await poll(lambda: client.requests[1].state == "granted")
            gateway_overhead = time.time() - t1
            await host.call(lambda now: client.open_tunnel_stream("echo-cloud"))
            assert await poll(lambda: client.tunnels["echo-cloud"].established)
            await host.call(lambda now: client.tunnel_send("echo-cloud", b"x" * 64))
            assert await poll(lambda: len(client.tunnels["echo-cloud"].rx) >= 64)
            e2e_with = time.time() - t0
            t2 = time.time()
            reader, writer = await asyncio.open_connection(CLOUD_IP, stack.echo.port, local_addr=(CLIENT_IP, 0))
            writer.write(b"y" * 64)
            await asyncio.wait_for(reader.readexactly(64), timeout=5.0)
            writer.close()
            return controller_overhead, gateway_overhead, e2e_with, time.time() - t2

    controller, gateway, e2e_with, e2e_without = asyncio.run(measure())
    assert e2e_with > e2e_without
    assert controller < 0.5
    assert gateway < 0.5
    ordering = "controller > gateway" if controller > gateway else "gateway >= controller"
    _report(
        6,
        f"e2e with perimeter {e2e_with*1000:.1f}ms > without {e2e_without*1000:.1f}ms; "
        f"controller {controller*1000:.1f}ms, gateway {gateway*1000:.1f}ms "
        f"(reported comparison: {ordering}; both < 500ms)",
    )


# -- 7. rule TTL semantics ---------------------------------------------------------


def test_criterion_7_ttl_grandfathering():
    T = 5.0
    dep = build_sim(default_config(seed=77, timing={"rule_ttl": T, "validation_interval": 300.0}))
    net = dep.net
    client = dep.client()
    net.run(until=1.0)
    net.add_node(client)
    while net.clock < 10.0 and not client.ready:
        net.run(until=net.clock + 0.25)
    assert client.ready
    net.act(client, client.open_service("echo-cloud", net.clock))
    net.run(until=net.clock + 1.0)
    assert client.requests[1].state == "granted"
    t0 = net.clock
    net.act(client, client.open_tunnel_stream("echo-cloud"))
    net.run(until=t0 + 0.5)
    tunnel = client.tunnels["echo-cloud"]
    assert tunnel.established

    # fresh unauthorized attempt at t0 + T + 1: silently dropped
    gw = dep.gateway()
    net.run(until=t0 + T + 1.0)
    trace_mark = len(net.trace)
    net.inject_syn((OTHER_IP, 4321), ("gateway", 4444), attacker="client")
    net.run(until=t0 + T + 2.0)
    (verdict,) = [r for r in net.logs["gateway"] if r.get("src_port") == 4321]
    assert (verdict["event"], verdict["verdict"]) == ("filter", "drop")
    replies = [r for r in net.trace[trace_mark:] if r.src == "gateway" and r.dst_port == 4321]
    assert replies == []

    # the established tunnel still passes bytes at t0 + T + 5
    net.run(until=t0 + T + 5.0)
    assert gw.engine.rule_count() == 0  # rule long expired
    net.act(client, client.tunnel_send("echo-cloud", b"still-flowing"))
    net.run(until=net.clock + 1.0)
    assert bytes(tunnel.rx) == b"still-flowing"
    _report(7, f"T={T:.0f}s: tunnel alive at T+5 with zero rules; fresh attempt at T+1 dropped silently")


# -- 8. first-contact authorization suite --------------------------------------------


def test_criterion_8_spa_suite():
    key = spa.SpaKey(b"\xaa" * 16, b"\x01" * 32)
    now = 1_000_000.0
    store = spa.SpaKeyStore()
    store.register(key)
    # round trip
    assert store.verify(spa.build_spa(key, 1, spa.TargetRole.CONTROLLER, now), now) is spa.SpaVerdict.ACCEPT
    # replay
    pkt = spa.build_spa(key, 2, spa.TargetRole.CONTROLLER, now)
    assert store.verify(pkt, now) is spa.SpaVerdict.ACCEPT
    assert store.verify(pkt, now) is spa.SpaVerdict.REPLAY_DETECTED
    # stale timestamp
    stale = spa.build_spa(key, 3, spa.TargetRole.CONTROLLER, now - 3600)
    assert store.verify(stale, now) is spa.SpaVerdict.STALE_TIMESTAMP
    # exhaustive single-byte-flip rejection
    wire = bytearray(spa.build_spa(key, 10, spa.TargetRole.CONTROLLER, now).encode())
    flips = rejected = 0
    for pos in range(len(wire)):
        original = wire[pos]
        for delta in range(1, 256):
            wire[pos] = original ^ delta
            flips += 1
            parsed = spa.parse_spa(bytes(wire))
            if parsed is None or store.verify(parsed, now) is not spa.SpaVerdict.ACCEPT:
                rejected += 1
        wire[pos] = original
    assert rejected == flips == 90 * 255
    # concurrent same-counter submissions accept at most one
    racing = spa.build_spa(key, 50, spa.TargetRole.CONTROLLER, now)
    barrier = threading.Barrier(8)
    verdicts = []
    lock = threading.Lock()

    def attempt():
        barrier.wait()
        v = store.verify(racing, now)
        with lock:
            verdicts.append(v)

    threads = [threading.Thread(target=attempt) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert verdicts.count(spa.SpaVerdict.ACCEPT) == 1
    _report(8, f"round-trip, replay, stale, {flips} byte flips 100% rejected, same-counter race accepts exactly 1")


# -- 9. load-growth contrast under the criterion-2 flood -------------------------------


def test_criterion_9_load_growth_contrast():
    protected = run_experiment(ExperimentSpec(seed=42, with_sdp=True, **FLOOD))
    unprotected = run_experiment(ExperimentSpec(seed=42, with_sdp=False, **FLOOD))

    # unprotected target: half-open backlog grows monotonically through the flood
    f0, f1 = int(FLOOD["flood_start"]), int(FLOOD["flood_start"] + FLOOD["flood_duration"])
    backlog = unprotected.capture.half_open[f0:f1]
    assert all(b >= a for a, b in zip(backlog, backlog[1:]))
    assert backlog[-1] > backlog[0]
    assert max(unprotected.capture.half_open) >= 0.9 * 60000

    # and the backlog scales with flood volume
    smaller = run_experiment(
        ExperimentSpec(seed=42, with_sdp=False, window=120.0, flood_rate=250.0, flood_duration=60.0,
                       flood_start=30.0, echo_rate=50.0)
    )
    assert max(unprotected.capture.half_open) > 3 * max(smaller.capture.half_open)

    # perimeter: verdict work stays constant-bounded per segment
    for i in range(len(protected.capture.cpu_proxy)):
        segments = protected.capture.attack_segments_seen[i] + 2 * protected.capture.acked_segments[i]
        assert protected.capture.cpu_proxy[i] <= segments + 5
    assert max(protected.capture.half_open) == 0
    _report(
        9,
        f"unprotected backlog peaks at {max(unprotected.capture.half_open)} and scales with volume; "
        f"perimeter verdict work stays O(1) per segment",
    )
