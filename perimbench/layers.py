"""Per-layer metrics of the traced run.

Each traced process (controller, gateway, load, and every scenario child)
writes a span summary when it exits (see tracer.py). This module turns those
summaries into the per-layer metrics named in BENCHMARK.json. "_us" metrics
are microseconds of self time per call, "_calls" their call counts; layers a
workload leaves idle report 0.
"""

from __future__ import annotations

import glob
import json
import os

SPA_VERDICTS = ("accept", "bad-tag", "replay-detected", "stale-timestamp", "unknown-client")
NODE_PREFIXES = ("gateway.", "controller.", "client.", "echo.", "pinger.")


def _per_call(name: str) -> list[tuple[str, str]]:
    return [(f"{name}_us", "us"), (f"{name}_calls", "count")]


LAYER_UNITS = (
    _per_call("spa.parse") + _per_call("spa.verify")
    + [(f"spa.verify_calls.{v}", "count") for v in SPA_VERDICTS]
    + _per_call("filter.verdict_initiation") + _per_call("filter.verdict_segment")
    + _per_call("filter.install_rule") + _per_call("filter.sweep")
    + [("filter.rules", "count"), ("filter.conntrack", "count")]
    + _per_call("gateway.on_datagram") + _per_call("gateway.on_stream_request")
    + _per_call("gateway.on_data") + _per_call("gateway.on_timer")
    + [("gateway.relay_gate_entries", "count"), ("gateway.data_gate_entries", "count"),
       ("gateway.log_records_per_pkt", "rec/pkt")]
    + _per_call("controller.on_data") + _per_call("controller.on_datagram")
    + [("controller.sessions", "count"), ("controller.gated_entries", "count")]
    + [("credentials.handshake_us", "us"), ("credentials.handshakes", "count")]
    + _per_call("credentials.seal") + _per_call("credentials.open")
    + _per_call("wire.decode_frame") + _per_call("wire.encode_frame") + _per_call("wire.splitter_feed")
    + [("real.driver_us_per_event", "us"), ("real.hook_calls", "count"), ("real.log_bytes_per_pkt", "B/pkt")]
    + [("sim.run_s", "s"), ("sim.driver_self_s", "s"), ("sim.node_hooks_s", "s"),
       ("sim.trace_records", "count"), ("sim.trace_jsonl_s", "s")]
    + [("harness.postprocess_s", "s"), ("scenarios.write_s", "s"), ("trace.spans", "count")]
)


def _load(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


class Spans:
    """Span summaries of a group of processes, summed by span name."""

    def __init__(self, summaries: list[dict]):
        self.summaries = summaries

    def calls(self, name: str) -> int:
        return sum(s["spans"].get(name, {}).get("calls", 0) for s in self.summaries)

    def self_s(self, name: str) -> float:
        return sum(s["spans"].get(name, {}).get("self_s", 0.0) for s in self.summaries)

    def total_s(self, name: str) -> float:
        return sum(s["spans"].get(name, {}).get("total_s", 0.0) for s in self.summaries)

    def names(self, prefixes: tuple[str, ...]) -> set[str]:
        return {n for s in self.summaries for n in s["spans"] if n.startswith(prefixes)}

    def label(self, name: str, key: str) -> int:
        return sum(s["labels"].get(name, {}).get(key, 0) for s in self.summaries)

    def size(self, name: str) -> int:
        return sum(s["sizes"].get(name, 0) for s in self.summaries)

    def per_call(self, out: dict, name: str) -> None:
        calls = self.calls(name)
        out[f"{name}_us"] = self.self_s(name) / calls * 1e6 if calls else 0.0
        out[f"{name}_calls"] = calls


def layer_metrics(work: str, log: dict) -> dict:
    """``log`` holds the gateway verdict log's record and byte counts."""
    gw_sum = _load(os.path.join(work, "gateway.trace.json"))
    ctrl_sum = _load(os.path.join(work, "controller.trace.json"))
    gw, ctrl = Spans([gw_sum]), Spans([ctrl_sum])
    servers = Spans([gw_sum, ctrl_sum])
    everyone = Spans([gw_sum, ctrl_sum, _load(os.path.join(work, "load.trace.json"))])
    sim_files = sorted(glob.glob(os.path.join(work, "sim*.trace.json")))
    sims = Spans([_load(p) for p in sim_files])
    pairs = max(len(sim_files) // 2, 1)
    gauges = {**gw_sum.get("gauges_max", {}), **ctrl_sum.get("gauges_max", {})}

    m: dict = {}
    servers.per_call(m, "spa.parse")
    servers.per_call(m, "spa.verify")
    for verdict in SPA_VERDICTS:
        m[f"spa.verify_calls.{verdict}"] = servers.label("spa.verify", verdict)
    for op in ("verdict_initiation", "verdict_segment", "install_rule", "sweep"):
        gw.per_call(m, f"filter.{op}")
    for hook in ("on_datagram", "on_stream_request", "on_data", "on_timer"):
        gw.per_call(m, f"gateway.{hook}")
    for name in ("filter.rules", "filter.conntrack", "gateway.relay_gate_entries", "gateway.data_gate_entries",
                 "controller.sessions", "controller.gated_entries"):
        m[name] = gauges.get(name, 0)
    packets = gw.calls("gateway.on_datagram") + gw.calls("gateway.on_stream_request")
    m["gateway.log_records_per_pkt"] = log["records"] / packets if packets else 0.0
    ctrl.per_call(m, "controller.on_data")
    ctrl.per_call(m, "controller.on_datagram")

    sessions = everyone.calls("credentials.handshake_finish")
    handshake_s = everyone.self_s("credentials.handshake") + everyone.self_s("credentials.handshake_finish")
    m["credentials.handshake_us"] = handshake_s / sessions * 1e6 if sessions else 0.0
    m["credentials.handshakes"] = sessions
    for name in ("credentials.seal", "credentials.open", "wire.decode_frame", "wire.encode_frame", "wire.splitter_feed"):
        everyone.per_call(m, name)

    # every gateway hook is a top-level span on the real driver, so their
    # totals are the node's share of the process CPU; the rest is the driver
    hooks = gw.names(("gateway.",))
    hook_calls = sum(gw.calls(n) for n in hooks)
    hook_s = sum(gw.total_s(n) for n in hooks)
    m["real.driver_us_per_event"] = (gw_sum["cpu_after_ready_s"] - hook_s) / hook_calls * 1e6 if hook_calls else 0.0
    m["real.hook_calls"] = hook_calls
    m["real.log_bytes_per_pkt"] = log["bytes"] / packets if packets else 0.0

    m["sim.run_s"] = sims.total_s("sim.run") / pairs
    m["sim.driver_self_s"] = sims.self_s("sim.run") / pairs
    m["sim.node_hooks_s"] = sum(sims.total_s(n) for n in sims.names(NODE_PREFIXES)) / pairs
    m["sim.trace_records"] = sims.size("sim.trace_jsonl") / pairs
    m["sim.trace_jsonl_s"] = sims.total_s("sim.trace_jsonl") / pairs
    m["harness.postprocess_s"] = sims.self_s("harness.experiment") / pairs
    m["scenarios.write_s"] = sims.self_s("scenarios.run") / pairs
    m["trace.spans"] = sum(s["span_count"] for s in everyone.summaries + sims.summaries)
    return m
