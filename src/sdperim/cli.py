"""Command-line entry points.

Six binaries share one deployment config (see ``sdperim.config``):

- ``controller --config deploy.yaml [--provision [--force]]``
- ``gateway --config deploy.yaml [--id HEX]``
- ``client --config deploy.yaml --service ID [--local-port N] [--id HEX]``
- ``attack flood|scan|experiment ...``
- ``scenario NAME [--seed N] [--out DIR]``
- ``delaycalc --params FILE [--trace FILE]``

Each is installed as a console script of that name; from a source checkout
``python -m sdperim <binary> ...`` runs the same function (see
``sdperim.__main__``). Exit codes follow the shared contract: 0 success,
2 authorization or configuration failure, 3 timeout.
"""

from __future__ import annotations

import argparse
import asyncio
import dataclasses
import json
import os
import random
import sys
from typing import TYPE_CHECKING

# module attributes, so that a traced perimbench run can wrap the node builders
from .deploy import build_client, build_controller, build_gateway

if TYPE_CHECKING:
    from .transport.real import RealHost

EXIT_OK = 0
EXIT_AUTH = 2
EXIT_TIMEOUT = 3


def _config_dir(path: str) -> str:
    return os.path.dirname(os.path.abspath(path))


def _load_host(path: str, section: str, host_id: str | None):
    """The config, this host's entry in ``section`` (the first one unless
    ``host_id`` names another) and only this host's material."""
    from .config import load_config, load_host_material
    cfg = load_config(path)
    entries = getattr(cfg, section)
    entry = next(e for e in entries if e.id == (host_id or entries[0].id))
    return cfg, entry, load_host_material(cfg, _config_dir(path), entry)


def _load_yaml(path: str):
    import yaml
    with open(path, "r", encoding="utf-8") as fh:
        return yaml.safe_load(fh)


async def _run_forever(host: RealHost) -> int:
    await host.start()
    stop = asyncio.Event()
    try:
        await stop.wait()
    except (KeyboardInterrupt, asyncio.CancelledError):
        pass
    finally:
        await host.stop()
    return EXIT_OK


def controller_main(argv=None) -> int:
    from .config import ConfigError, load_config, load_controller_material, provision
    parser = argparse.ArgumentParser(prog="controller", description="Run the control-plane node.")
    parser.add_argument("--config", required=True)
    parser.add_argument("--provision", action="store_true", help="generate key material and records, then exit")
    parser.add_argument("--force", action="store_true", help="overwrite existing material when provisioning")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.provision:
            path = provision(cfg, _config_dir(args.config), force=args.force)
            print(f"material written to {path}")
            return EXIT_OK
        material = load_controller_material(cfg, _config_dir(args.config))
    except (ConfigError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_AUTH
    from .transport.real import RealHost  # only here: provisioning, which perimbench runs in-process, needs no driver
    node = build_controller(cfg, material, random.SystemRandom())
    print(f"controller {cfg.controller.id[:8]} on {cfg.controller.host}:{cfg.ports.control}")
    try:
        return asyncio.run(_run_forever(RealHost(node, cfg.controller.host)))
    except KeyboardInterrupt:
        return EXIT_OK


def gateway_main(argv=None) -> int:
    from .config import ConfigError
    from .transport.real import RealHost
    parser = argparse.ArgumentParser(prog="gateway", description="Run an accepting-host node.")
    parser.add_argument("--config", required=True)
    parser.add_argument("--id", help="gateway id (hex); defaults to the first configured gateway")
    parser.add_argument("--log", help="JSON-lines verdict log path")
    args = parser.parse_args(argv)
    try:
        cfg, entry, material = _load_host(args.config, "gateways", args.id)
    except (ConfigError, FileNotFoundError, StopIteration, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_AUTH
    node = build_gateway(cfg, material, entry.id, random.SystemRandom())
    print(f"gateway {entry.id[:8]} on {entry.host} (spa {cfg.ports.spa}, relay {cfg.ports.control})")
    try:
        return asyncio.run(_run_forever(RealHost(node, entry.host, log_path=args.log)))
    except KeyboardInterrupt:
        return EXIT_OK


async def _client_session(node, bind_host: str, args) -> int:
    from .transport.real import RealHost
    host = RealHost(node, bind_host)
    await host.start()
    try:
        for _ in range(int(20 / 0.05)):
            if node.ready or node.failed:
                break
            await asyncio.sleep(0.05)
        if not node.ready:
            print(f"authentication failed: {node.failure or 'timeout'}", file=sys.stderr)
            return EXIT_TIMEOUT if "timeout" in (node.failure or "timeout") else EXIT_AUTH
        print(f"authenticated; services: {[s[0] for s in node.services]}")
        if not args.service:
            return EXIT_OK
        try:
            await host.call(lambda now: node.open_service(args.service, now))
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_AUTH
        request = node.requests[max(node.requests)]
        for _ in range(200):
            if request.state != "pending":
                break
            await asyncio.sleep(0.05)
        if request.state == "timeout":
            print("connection request timed out", file=sys.stderr)
            return EXIT_TIMEOUT
        if request.state != "granted":
            print(f"denied: {request.reason}", file=sys.stderr)
            return EXIT_AUTH
        tunnel = node.tunnels[args.service]
        print(f"granted; forwarding {tunnel.endpoint[0]}:{tunnel.endpoint[1]}")
        server = await asyncio.start_server(
            lambda r, w: _serve_local(host, node, args.service, r, w),
            host=bind_host,
            port=args.local_port,
        )
        addr = server.sockets[0].getsockname()
        print(f"local endpoint {addr[0]}:{addr[1]}")
        async with server:
            await server.serve_forever()
        return EXIT_OK
    finally:
        await host.stop()


async def _serve_local(host: RealHost, node, service_id: str, reader, writer):
    """Splice one local connection through the tunnel (one at a time)."""
    await host.call(lambda now: node.open_tunnel_stream(service_id))
    tunnel = node.tunnels[service_id]
    for _ in range(100):
        if tunnel.established or tunnel.closed:
            break
        await asyncio.sleep(0.02)
    if not tunnel.established:
        writer.close()
        return
    tunnel.rx.clear()  # bytes an earlier local connection left unread

    async def pump_out():
        while not tunnel.closed:
            if tunnel.rx:
                writer.write(bytes(tunnel.rx))
                tunnel.rx.clear()  # written bytes are not kept
                await writer.drain()
            await asyncio.sleep(0.01)

    out_task = asyncio.ensure_future(pump_out())
    try:
        while True:
            data = await reader.read(65536)
            if not data:
                break
            await host.call(lambda now, data=data: node.tunnel_send(service_id, data))
    except (ConnectionError, OSError):
        pass
    finally:
        out_task.cancel()
        writer.close()


def client_main(argv=None) -> int:
    from .config import ConfigError
    parser = argparse.ArgumentParser(prog="client", description="Authenticate and forward one service locally.")
    parser.add_argument("--config", required=True)
    parser.add_argument("--service", help="service id to open")
    parser.add_argument("--local-port", type=int, default=0)
    parser.add_argument("--id", help="client id (hex); defaults to the first configured client")
    args = parser.parse_args(argv)
    try:
        cfg, entry, material = _load_host(args.config, "clients", args.id)
    except (ConfigError, FileNotFoundError, StopIteration, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_AUTH
    node = build_client(cfg, material, entry.id, random.SystemRandom())
    try:
        return asyncio.run(_client_session(node, entry.host, args))
    except KeyboardInterrupt:
        return EXIT_OK


def attack_main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="attack", description="Adversarial harness.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_flood = sub.add_parser("flood", help="half-open initiation flood against a live endpoint")
    p_flood.add_argument("--target", help="host:port; defaults to the config's first public service")
    p_flood.add_argument("--config", help="deployment config to derive the target from")
    p_flood.add_argument("--rate", type=float, default=1000.0)
    p_flood.add_argument("--duration", type=float, default=60.0)
    p_flood.add_argument("--sources", default="127.0.0.1", help="comma-separated bind addresses")
    p_flood.add_argument("--out", default=".")

    p_scan = sub.add_parser("scan", help="connect scan with timeout-based filtered detection")
    p_scan.add_argument("--target", help="host; defaults to the config's first gateway")
    p_scan.add_argument("--config", help="deployment config to derive the target from")
    p_scan.add_argument("--ports", default="1-1024", help="a-b inclusive")
    p_scan.add_argument("--timeout", type=float, default=0.5)
    p_scan.add_argument("--bind", default=None, help="source address to scan from")
    p_scan.add_argument("--out", default=".")

    p_exp = sub.add_parser("experiment", help="full simulated capture experiment")
    p_exp.add_argument("--config", help="experiment spec overrides (YAML mapping)")
    p_exp.add_argument("--seed", type=int, default=42)
    p_exp.add_argument("--out", default=".")
    p_exp.add_argument("--no-sdp", action="store_true")

    args = parser.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)

    if args.command == "flood":
        from .harness.flood import FloodSpec, real_flood

        if args.target:
            host, port = args.target.rsplit(":", 1)
            port = int(port)
        elif args.config:
            from .config import load_config
            cfg = load_config(args.config)
            svc = cfg.services[0]
            host = next(g.host for g in cfg.gateways if g.id == svc.gateway)
            port = svc.public_port
        else:
            print("error: give --target or --config", file=sys.stderr)
            return EXIT_AUTH
        spec = FloodSpec(host, port, rate=args.rate, duration=args.duration)
        stats = asyncio.run(real_flood(spec, args.sources.split(",")))
        path = os.path.join(args.out, "flood.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(dataclasses.asdict(stats), fh, indent=2)
        print(f"sent {stats.sent} initiations ({stats.mode}); stats in {path}")
        return EXIT_OK

    if args.command == "scan":
        from .harness.scan import real_port_scan

        if args.target:
            target = args.target
        elif args.config:
            from .config import load_config
            target = load_config(args.config).gateways[0].host
        else:
            print("error: give --target or --config", file=sys.stderr)
            return EXIT_AUTH
        a, b = args.ports.split("-")
        ports = range(int(a), int(b) + 1)
        report = asyncio.run(real_port_scan(target, ports, timeout=args.timeout, bind_ip=args.bind))
        path = os.path.join(args.out, "scan.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
        counts = report.counts()
        print(f"scanned {len(report.verdicts)} ports in {report.elapsed:.1f}s: "
              f"{counts['Open']} open, {counts['ClosedOrFiltered']} closed-or-filtered; report in {path}")
        return EXIT_OK

    from .harness.experiment import ExperimentSpec, run_experiment

    overrides = (_load_yaml(args.config) or {}) if args.config else {}
    overrides.setdefault("seed", args.seed)
    if args.no_sdp:
        overrides["with_sdp"] = False
    spec = ExperimentSpec.from_dict(overrides)
    result = run_experiment(spec)
    with open(os.path.join(args.out, "capture.csv"), "w", encoding="utf-8") as fh:
        fh.write(result.capture.to_csv())
    with open(os.path.join(args.out, "experiment.json"), "w", encoding="utf-8") as fh:
        fh.write(result.to_json())
    print(result.to_json())
    return EXIT_OK


def scenario_main(argv=None) -> int:
    from .scenarios import SCENARIO_NAMES, scenario_run

    parser = argparse.ArgumentParser(prog="scenario", description="Run a shipped scenario.")
    parser.add_argument("name", choices=SCENARIO_NAMES)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--out", default="artifacts")
    args = parser.parse_args(argv)
    out_dir = scenario_run(args.name, args.seed, args.out)
    print(f"artifacts in {out_dir}")
    return EXIT_OK


def delaycalc_main(argv=None) -> int:
    from .delay_model import DelayParams, e2e_delay, init_delay, lte_delay, reconcile, sdp_overhead
    from .transport.sim import PROTOCOL_CLASSES, TraceRecord
    parser = argparse.ArgumentParser(prog="delaycalc", description="Evaluate the delay model, optionally against a trace.")
    parser.add_argument("--params", required=True, help="YAML/JSON parameter file")
    parser.add_argument("--trace", help="JSON-lines trace from a simulated run")
    args = parser.parse_args(argv)
    raw = _load_yaml(args.params)
    params = DelayParams.from_dict(raw)
    report = {
        "sdp_overhead": sdp_overhead(params),
        "lte_delay": lte_delay(params),
        "init_delay": init_delay(params),
        "e2e_delay": e2e_delay(params),
    }
    if args.trace:
        hop_nodes = tuple(tuple(h) for h in raw.get("hop_nodes", ()))
        if len(hop_nodes) != 4:
            print("error: trace reconciliation needs hop_nodes (4 pairs) in the params file", file=sys.stderr)
            return EXIT_AUTH
        with open(args.trace, "r", encoding="utf-8") as fh:
            records = [TraceRecord(**json.loads(line)) for line in fh if line.strip()]
        frames = [r for r in records if r.cls in PROTOCOL_CLASSES and not r.dropped]
        report["reconcile"] = reconcile(frames, params, hop_nodes).to_dict()
    print(json.dumps(report, indent=2, sort_keys=True))
    return EXIT_OK
