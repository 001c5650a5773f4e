"""Named scenarios: repeatable experiment runs with artifact output.

All six shipped scenarios execute on the simulated backend, so a (name,
seed) pair fully determines the artifacts. Each run writes into
``<out>/<name>-<seed>/`` and is idempotent: re-running replaces the files
with identical content.
"""

from __future__ import annotations

import json
import os

from .delay_model import DelayParams, reconcile
from .deploy import build_sim, default_config
from .harness.experiment import ExperimentSpec, run_experiment, setup_with_sdp
from .harness.scan import ScannerNode
from .services import EchoNode
from .transport.sim import PROTOCOL_CLASSES, SimNet, Topology, two_way

AUTH_HOPS = (("client", "gateway"), ("gateway", "controller"), ("controller", "gateway"), ("gateway", "client"))
AUTH_ALPHA_BITS = 720  # one accounting size on every hop, so the model's per-hop alphas are exact
AUTH_RATE_BPS = 1e6  # a slow access link, so transmission is a visible share of each hop's delay
AUTH_SPEED_MPS = 2e8  # propagation speed in fibre


def auth_trace_run(seed: int, beta_m=(50.0, 200.0, 200.0, 50.0)):
    """One full authentication on links pinned to uniform per-hop packet
    sizes; returns (protocol frame records, matching model params)."""
    link = {"rate_bps": AUTH_RATE_BPS, "speed_mps": AUTH_SPEED_MPS}
    links = [{"src": s, "dst": d, "beta_m": b, "alpha_default_bits": AUTH_ALPHA_BITS, **link}
             for (s, d), b in zip(AUTH_HOPS, beta_m)]
    links += [{"src": "gateway", "dst": "cloud", "beta_m": 1.0, **link}, {"src": "cloud", "dst": "gateway", "beta_m": 1.0, **link}]
    cfg = default_config(seed=seed, topology={"links": links})
    dep = build_sim(cfg)
    net = dep.net
    net.run(until=5.0)
    if not dep.gateway().registered:
        raise RuntimeError("gateway failed to register")
    start_index = len(net.trace)
    client = dep.client()
    net.add_node(client)
    deadline = net.clock + 25.0  # well short of the first device-validation cycle
    while net.clock < deadline and not client.ready:
        net.run(until=net.clock + 0.25)
    if not client.ready:
        raise RuntimeError("authentication did not finish")
    frames = [r for r in net.trace[start_index:] if r.cls in PROTOCOL_CLASSES and not r.dropped]
    params = DelayParams(
        alpha_bits=(float(AUTH_ALPHA_BITS),) * 4 + (0.0, 0.0, 0.0, 0.0),
        beta_m=tuple(float(b) for b in beta_m) + (0.0, 0.0, 0.0, 0.0),
        rate_bps=AUTH_RATE_BPS,
        speed_mps=AUTH_SPEED_MPS,
    )
    return frames, params


def _write(out_dir: str, name: str, content: str) -> None:
    with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
        fh.write(content)


def _scenario_dos(seed: int, out_dir: str, with_sdp: bool, flood: bool = True) -> dict:
    spec = ExperimentSpec(seed=seed, with_sdp=with_sdp, flood_enabled=flood)  # the defaults are the DoS run
    path = os.path.join(out_dir, "trace.jsonl")
    part = path + ".part"  # a failed run leaves the previous trace in place
    fh = open(part, "w", encoding="utf-8")
    try:
        with fh:
            result = run_experiment(spec, trace_out=fh)
    except BaseException:
        os.remove(part)
        raise
    os.replace(part, path)
    _write(out_dir, "capture.csv", result.capture.to_csv())
    _write(out_dir, "experiment.json", result.to_json())
    return result.summary()


def _scenario_portscan(seed: int, out_dir: str, with_sdp: bool) -> dict:
    if with_sdp:
        dep = setup_with_sdp(seed, "scanner")
        net, target = dep.net, dep.gateway().name
        net.run(until=5.0)
    else:
        net, target = SimNet(Topology(two_way("scanner", "cloud")), seed=seed), "cloud"
        net.add_node(EchoNode("cloud", 22))
    ports = sorted({*range(1, 2049), *net.nodes[target].tcp_ports})  # the target's own listeners too
    scanner = ScannerNode("scanner", target, ports)
    net.add_node(scanner)
    net.run(until=net.clock + 10.0)
    report = scanner.report()
    _write(out_dir, "scan.json", report.to_json())
    return {"open": report.open_ports(), "counts": report.counts()}


def _scenario_delay_sweep(seed: int, out_dir: str) -> dict:
    rows = []
    for scale in (1, 2, 5, 10, 20, 50):
        beta = tuple(b * scale for b in (50.0, 200.0, 200.0, 50.0))
        frames, params = auth_trace_run(seed, beta_m=beta)
        report = reconcile(frames, params, AUTH_HOPS)
        rows.append(
            {
                "scale": scale,
                "predicted": report.predicted,
                "measured": report.measured,
                "delta": report.delta,
                "count_mismatches": report.count_mismatches,
            }
        )
    _write(out_dir, "delay_sweep.json", json.dumps(rows, indent=2))
    csv = "scale,predicted,measured,delta\n" + "".join(
        f"{r['scale']},{r['predicted']},{r['measured']},{r['delta']}\n" for r in rows
    )
    _write(out_dir, "delay_sweep.csv", csv)
    return {"rows": rows}


_RUNNERS = {
    "baseline": lambda seed, d: _scenario_dos(seed, d, with_sdp=True, flood=False),
    "dos_with_sdp": lambda seed, d: _scenario_dos(seed, d, with_sdp=True),
    "dos_without_sdp": lambda seed, d: _scenario_dos(seed, d, with_sdp=False),
    "portscan_with_sdp": lambda seed, d: _scenario_portscan(seed, d, with_sdp=True),
    "portscan_without_sdp": lambda seed, d: _scenario_portscan(seed, d, with_sdp=False),
    "delay_sweep": _scenario_delay_sweep,
}
SCENARIO_NAMES = tuple(_RUNNERS)


def scenario_run(name: str, seed: int, out: str) -> str:
    """Execute one shipped scenario; returns the artifacts directory."""
    if name not in _RUNNERS:
        raise ValueError(f"unknown scenario {name!r}; shipped: {', '.join(sorted(_RUNNERS))}")
    out_dir = os.path.join(out, f"{name}-{seed}")
    os.makedirs(out_dir, exist_ok=True)
    summary = _RUNNERS[name](seed, out_dir)
    _write(out_dir, "summary.json", json.dumps(summary, indent=2, sort_keys=True))
    return out_dir
