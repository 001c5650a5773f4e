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
2 authorization or configuration failure (a bad input file prints ``error:
...``, with no traceback), 3 timeout.

Every socket of a node binary belongs to a ``RealHost``; the client binary
runs a second one for its local endpoint, a ``ForwardNode``.
"""

from __future__ import annotations

import argparse
import asyncio
import dataclasses
import functools
import json
import os
import random
import sys
import time

# module attributes, so that a traced perimbench run can wrap the node builders
from .deploy import build_client, build_controller, build_gateway

EXIT_OK = 0
EXIT_AUTH = 2
EXIT_TIMEOUT = 3


class _BadInput(Exception):
    """A config or parameter file that cannot be read or is not valid, or a service not granted."""


def _load(load, *args, **kw):
    """``load(*args, **kw)``, which reads an input file; what a bad one raises becomes ``_BadInput``."""
    try:
        return load(*args, **kw)
    except (ValueError, OSError) as exc:  # ConfigError and DelayDomainError are ValueErrors
        raise _BadInput(exc) from exc


def _main(main):
    """A binary's entry point that prints a ``_BadInput`` as ``error: ...`` and exits ``EXIT_AUTH``."""
    @functools.wraps(main)
    def run(argv=None) -> int:
        try:
            return main(argv)
        except _BadInput as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_AUTH
    return run


def _config_entry(path: str, section: str, host_id: str | None = None):
    """The config and its entry in ``section``: the first one unless ``host_id`` names another."""
    from .config import ConfigError, load_config
    cfg = load_config(path)
    entry = next((e for e in getattr(cfg, section) if host_id is None or e.id == host_id), None)
    if entry is None:
        raise ConfigError(f"{path}: {section} has no entry with id {host_id}" if host_id else f"{path}: no {section}")
    return cfg, entry


def _load_host(path: str, section: str, host_id: str | None):
    """``_config_entry`` plus only this host's material."""
    from .config import load_host_material
    cfg, entry = _config_entry(path, section, host_id)
    return cfg, entry, load_host_material(cfg, os.path.dirname(os.path.abspath(path)), entry)


def _load_yaml(path: str) -> dict:
    """A YAML mapping (an empty file is an empty one)."""
    import yaml
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ValueError(f"{path}: not YAML: {exc}") from exc
    if not isinstance(raw, (dict, type(None))):
        raise ValueError(f"{path}: the root must be a mapping")
    return raw or {}


def _run(main) -> int:
    """Runs the coroutine ``main``; an interrupt ends the binary with ``EXIT_OK``."""
    try:
        return asyncio.run(main)
    except KeyboardInterrupt:
        return EXIT_OK


async def _run_forever(host):
    await host.start()
    try:
        await asyncio.Event().wait()  # until interrupted: ``_run`` gives the exit code
    finally:
        await host.stop()


@_main
def controller_main(argv=None) -> int:
    from .config import load_config, load_controller_material, provision
    parser = argparse.ArgumentParser(prog="controller", description="Run the control-plane node.")
    parser.add_argument("--config", required=True)
    parser.add_argument("--provision", action="store_true", help="generate key material and records, then exit")
    parser.add_argument("--force", action="store_true", help="overwrite existing material when provisioning")
    args = parser.parse_args(argv)
    cfg, base_dir = _load(load_config, args.config), os.path.dirname(os.path.abspath(args.config))
    if args.provision:
        path = _load(provision, cfg, base_dir, force=args.force)
        print(f"material written to {path}")
        return EXIT_OK
    material = _load(load_controller_material, cfg, base_dir)
    from .transport.real import RealHost  # only here: provisioning, which perimbench runs in-process, needs no driver
    node = build_controller(cfg, material, random.SystemRandom())
    print(f"controller {cfg.controller.id[:8]} on {cfg.controller.host}:{cfg.ports.control}")
    return _run(_run_forever(RealHost(node, cfg.controller.host)))


@_main
def gateway_main(argv=None) -> int:
    from .transport.real import RealHost
    parser = argparse.ArgumentParser(prog="gateway", description="Run an accepting-host node.")
    parser.add_argument("--config", required=True)
    parser.add_argument("--id", help="gateway id (hex); defaults to the first configured gateway")
    parser.add_argument("--log", help="JSON-lines verdict log path")
    args = parser.parse_args(argv)
    cfg, entry, material = _load(_load_host, args.config, "gateways", args.id)
    node = build_gateway(cfg, material, entry.id, random.SystemRandom())
    print(f"gateway {entry.id[:8]} on {entry.host} (spa {cfg.ports.spa}, relay {cfg.ports.control})")
    return _run(_run_forever(RealHost(node, entry.host, log_path=args.log)))


async def _client_session(node, bind_host: str, args) -> int:
    from .client import ForwardNode
    from .transport.real import RealHost
    hosts = [RealHost(node, bind_host)]
    try:
        await hosts[0].start()
        while not (node.ready or node.failed):  # the node's own SPA timeouts end the wait
            await asyncio.sleep(0.05)
        if not node.ready:
            print(f"authentication failed: {node.failure or 'timeout'}", file=sys.stderr)
            return EXIT_TIMEOUT if "timeout" in (node.failure or "timeout") else EXIT_AUTH
        print(f"authenticated; services: {[s[0] for s in node.services]}")
        if not args.service:
            return EXIT_OK
        opening = _load(node.open_service, args.service, time.time())  # a service the session lacks is bad input
        await hosts[0].call(lambda now: opening)
        request = node.requests[max(node.requests)]
        while request.state == "pending":  # the request's own timeout ends this wait
            await asyncio.sleep(0.05)
        if request.state == "timeout":
            print("connection request timed out", file=sys.stderr)
            return EXIT_TIMEOUT
        if request.state != "granted":
            print(f"denied: {request.reason}", file=sys.stderr)
            return EXIT_AUTH
        endpoint = node.tunnels[args.service].endpoint
        print(f"granted; forwarding {endpoint[0]}:{endpoint[1]}")
        hosts.append(RealHost(ForwardNode(bind_host, args.local_port, endpoint), bind_host))
        await hosts[1].start()
        print(f"local endpoint {bind_host}:{hosts[1].stream_port(args.local_port)}")
        await asyncio.Event().wait()
    finally:
        for host in hosts:
            await host.stop()


@_main
def client_main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="client", description="Authenticate and forward one service locally.")
    parser.add_argument("--config", required=True)
    parser.add_argument("--service", help="service id to open")
    parser.add_argument("--local-port", type=int, default=0)
    parser.add_argument("--id", help="client id (hex); defaults to the first configured client")
    args = parser.parse_args(argv)
    cfg, entry, material = _load(_load_host, args.config, "clients", args.id)
    node = build_client(cfg, material, entry.id, random.SystemRandom())
    return _run(_client_session(node, entry.host, args))


@_main
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
            host, _, port = args.target.rpartition(":")
            if not host or not port.isdigit():
                p_flood.error(f"--target {args.target!r} is not HOST:PORT")
        elif args.config:
            cfg, svc = _load(_config_entry, args.config, "services")
            host = next(g.host for g in cfg.gateways if g.id == svc.gateway)
            port = svc.public_port
        else:
            p_flood.error("give --target or --config")
        spec = FloodSpec(host, int(port), rate=args.rate, duration=args.duration)
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
            target = _load(_config_entry, args.config, "gateways")[1].host
        else:
            p_scan.error("give --target or --config")
        a, _, b = args.ports.partition("-")
        if not (a.isdigit() and b.isdigit()):
            p_scan.error(f"--ports {args.ports!r} is not A-B")
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

    overrides = _load(_load_yaml, args.config) if args.config else {}
    overrides.setdefault("seed", args.seed)
    if args.no_sdp:
        overrides["with_sdp"] = False
    spec = _load(ExperimentSpec.from_dict, overrides)
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


@_main
def delaycalc_main(argv=None) -> int:
    from .delay_model import DelayParams, e2e_delay, init_delay, lte_delay, reconcile, sdp_overhead
    from .transport.sim import PROTOCOL_CLASSES, TraceRecord
    parser = argparse.ArgumentParser(prog="delaycalc", description="Evaluate the delay model, optionally against a trace.")
    parser.add_argument("--params", required=True, help="YAML/JSON parameter file")
    parser.add_argument("--trace", help="JSON-lines trace from a simulated run")
    args = parser.parse_args(argv)
    raw = _load(_load_yaml, args.params)
    params = _load(DelayParams.from_dict, raw)
    report = {
        "sdp_overhead": sdp_overhead(params),
        "lte_delay": lte_delay(params),
        "init_delay": init_delay(params),
        "e2e_delay": e2e_delay(params),
    }
    if args.trace:
        hop_nodes = tuple(tuple(h) for h in raw.get("hop_nodes", ()))
        if len(hop_nodes) != 4:
            raise _BadInput("trace reconciliation needs hop_nodes (4 pairs) in the params file")
        with _load(open, args.trace, "r", encoding="utf-8") as fh:
            try:
                records = [TraceRecord(**json.loads(line)) for line in fh if line.strip()]
            except (ValueError, TypeError) as exc:  # not JSON lines, or not a trace record's fields
                raise _BadInput(f"{args.trace}: not a trace: {exc}") from exc
        frames = [r for r in records if r.cls in PROTOCOL_CLASSES and not r.dropped]
        report["reconcile"] = reconcile(frames, params, hop_nodes).to_dict()
    print(json.dumps(report, indent=2, sort_keys=True))
    return EXIT_OK
