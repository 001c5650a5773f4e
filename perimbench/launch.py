"""Start one process of the system under test, optionally traced.

    python3 perimbench/launch.py controller --config deploy.yaml [--trace OUT]
    python3 perimbench/launch.py gateway --config deploy.yaml --log gw.jsonl [--trace OUT]
    python3 perimbench/launch.py echo --host IP --port N --out origins.json
    python3 perimbench/launch.py scenario NAME --seed N --out DIR --result R [--trace OUT]

The controller and gateway run through the program's own entry points
(``controller_main``, ``gateway_main``); the echo service is an ``EchoNode``
on a ``RealHost``; a scenario runs through ``scenario_run``. Each long-lived
role prints ``ready`` once its sockets are bound and stops cleanly on SIGINT.
With ``--trace`` the process records spans around the program's public
functions and writes their summary, plus sampled table sizes, on exit.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

GAUGE_PERIOD = 0.25


def _gauges(node) -> dict:
    """Table sizes of a gateway or controller node, read from public state."""
    if hasattr(node, "relay_gate"):
        return {
            "filter.rules": node.engine.rule_count(),
            "filter.conntrack": node.engine.conntrack_count(),
            "gateway.relay_gate_entries": len(node.relay_gate),
            "gateway.data_gate_entries": len(node.data_gate),
        }
    return {"controller.sessions": node.session_count(), "controller.gated_entries": len(node.gated)}


def _announce_ready(on_ready) -> None:
    """Print ``ready`` after ``RealHost.start`` has bound every socket."""
    from sdperim.transport.real import RealHost

    start = RealHost.start

    async def start_then_announce(self):
        await start(self)
        on_ready(self)
        print("ready", flush=True)

    RealHost.start = start_then_announce


def run_server(role: str, args, tracer) -> int:
    import sdperim.cli as cli

    gauges: dict[str, int] = {}
    nodes = []
    cpu_at_ready = [0.0]

    if tracer is not None:
        for name in ("build_gateway", "build_controller"):
            build = getattr(cli, name)

            def capture(*a, _build=build, **kw):
                node = _build(*a, **kw)
                nodes.append(node)
                return node

            setattr(cli, name, capture)

    def on_ready(host):
        cpu_at_ready[0] = time.process_time()
        if tracer is None or not nodes:
            return
        loop = asyncio.get_running_loop()

        def sample():
            for key, value in _gauges(nodes[0]).items():
                gauges[key] = max(gauges.get(key, 0), value)
            loop.call_later(GAUGE_PERIOD, sample)

        sample()

    _announce_ready(on_ready)
    argv = ["--config", args.config] + (["--log", args.log] if role == "gateway" else [])
    code = (cli.controller_main if role == "controller" else cli.gateway_main)(argv)
    if tracer is not None:
        tracer.dump(args.trace, {"gauges_max": gauges, "cpu_after_ready_s": time.process_time() - cpu_at_ready[0]})
    return code


def run_echo(args) -> int:
    from sdperim.services import EchoNode
    from sdperim.transport.real import RealHost

    node = EchoNode(args.host, args.port)

    async def serve():
        host = RealHost(node, args.host)
        await host.start()
        print("ready", flush=True)
        try:
            await asyncio.Event().wait()
        except asyncio.CancelledError:
            pass
        finally:
            await host.stop()

    try:
        asyncio.run(serve())
    except KeyboardInterrupt:
        pass
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({"origins": node.stats.origins, "bytes_in": node.stats.bytes_in}, fh)
    return 0


def run_scenario(args, tracer) -> int:
    import sdperim.scenarios as scenarios

    started = time.perf_counter()
    out_dir = scenarios.scenario_run(args.name, args.seed, args.out)
    wall = time.perf_counter() - started
    with open(os.path.join(out_dir, "summary.json"), "r", encoding="utf-8") as fh:
        summary = json.load(fh)
    result = {
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "out_dir": out_dir,
        "summary": summary,
    }
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    if tracer is not None:
        tracer.dump(args.trace)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("role", choices=("controller", "gateway", "echo", "scenario"))
    parser.add_argument("name", nargs="?")
    parser.add_argument("--config")
    parser.add_argument("--log")
    parser.add_argument("--host")
    parser.add_argument("--port", type=int)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out")
    parser.add_argument("--result")
    parser.add_argument("--trace")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        from tracer import Tracer, instrument

        tracer = Tracer()
        instrument(tracer)
    if args.role == "echo":
        return run_echo(args)
    if args.role == "scenario":
        return run_scenario(args, tracer)
    return run_server(args.role, args, tracer)


if __name__ == "__main__":
    sys.exit(main())
