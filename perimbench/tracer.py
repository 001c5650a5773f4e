"""In-memory span recorder for the traced benchmark run.

The benchmark's launchers wrap public functions and methods of the program
with ``Tracer.wrap``. Each call records one span: its name, start, end and
the index of the span that was open when it started (its parent). Spans stay
in memory and are summarised when the process exits. A span's self time is
its duration minus the time its child spans cover; every traced process runs
the program on one thread, so children never overlap.
"""

from __future__ import annotations

import json
import time

START, END, CHILD = 1, 2, 4

NODE_HOOKS = ("start", "on_datagram", "on_stream_request", "on_connected", "on_connect_failed",
              "on_data", "on_closed", "on_timer")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, child seconds]
        self.labels: dict[str, dict] = {}  # name -> {label of the result: count}
        self.sizes: dict[str, int] = {}  # name -> sum of a size of the result
        self._stack: list[int] = []

    def wrap(self, owner, attr: str, name: str, label=None, size=None) -> None:
        """Replace ``owner.attr`` with a recording wrapper. ``label`` maps the
        return value to a string counted under ``name``; ``size`` maps it to a
        number summed under ``name``."""
        original = getattr(owner, attr)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        labels = self.labels.setdefault(name, {}) if label else None
        sizes = self.sizes

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [name, clock(), 0.0, parent, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = original(*args, **kwargs)
            finally:
                stack.pop()
                rec[END] = end = clock()
                if parent >= 0:
                    spans[parent][CHILD] += end - rec[START]
            if labels is not None:
                key = label(result)
                labels[key] = labels.get(key, 0) + 1
            if size is not None:
                sizes[name] = sizes.get(name, 0) + size(result)
            return result

        traced.__wrapped__ = original
        setattr(owner, attr, traced)

    def summary(self) -> dict:
        """Per span name: calls, total seconds and self seconds."""
        out: dict[str, dict] = {}
        for name, start, end, _parent, child in self.spans:
            agg = out.get(name)
            if agg is None:
                agg = out[name] = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            agg["calls"] += 1
            agg["total_s"] += end - start
            agg["self_s"] += end - start - child
        return {"spans": out, "span_count": len(self.spans), "labels": self.labels, "sizes": self.sizes}

    def dump(self, path: str, extra: dict | None = None) -> None:
        data = self.summary()
        data.update(extra or {})
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)


def instrument(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics read. Only public
    module functions and public methods of the program's classes are wrapped;
    a name imported into several modules is wrapped in each of them."""
    import sdperim.client
    import sdperim.controller
    import sdperim.credentials
    import sdperim.gateway.node
    import sdperim.scenarios
    import sdperim.spa
    import sdperim.wire
    from sdperim.client import ClientNode
    from sdperim.controller import ControllerNode
    from sdperim.credentials import HandshakeInitiator, HandshakeResponder, SecureChannel
    from sdperim.gateway import filtering
    from sdperim.gateway.node import GatewayNode
    from sdperim.services import EchoNode, PingerNode
    from sdperim.transport.sim import SimNet

    tracer.wrap(sdperim.spa, "parse_spa", "spa.parse")
    tracer.wrap(sdperim.spa.SpaKeyStore, "verify", "spa.verify", label=lambda v: v.value)

    engine = filtering.FilterEngine
    if isinstance(engine.__dict__.get("verdict_initiation"), type(instrument)):  # pure-Python engine
        tracer.wrap(engine, "verdict_initiation", "filter.verdict_initiation")
        tracer.wrap(engine, "verdict_segment", "filter.verdict_segment")
        tracer.wrap(engine, "install_rule", "filter.install_rule")
        tracer.wrap(engine, "expire_rules", "filter.sweep")
        tracer.wrap(engine, "expire_idle", "filter.sweep")

    for cls, prefix in ((GatewayNode, "gateway"), (ControllerNode, "controller"), (ClientNode, "client"),
                        (EchoNode, "echo"), (PingerNode, "pinger")):
        for hook in NODE_HOOKS:
            if hook in cls.__dict__:
                tracer.wrap(cls, hook, f"{prefix}.{hook}")

    tracer.wrap(HandshakeResponder, "accept_fields", "credentials.handshake")
    tracer.wrap(HandshakeResponder, "finish", "credentials.handshake_finish")
    tracer.wrap(HandshakeInitiator, "process_accept", "credentials.handshake")
    for module in (sdperim.credentials, sdperim.controller):
        tracer.wrap(module, "verify_certificate", "credentials.handshake")
    tracer.wrap(SecureChannel, "seal", "credentials.seal")
    tracer.wrap(SecureChannel, "open_blob", "credentials.open")

    for module in (sdperim.wire, sdperim.gateway.node, sdperim.controller, sdperim.client):
        tracer.wrap(module, "decode_frame", "wire.decode_frame")
        tracer.wrap(module, "encode_frame", "wire.encode_frame")
    tracer.wrap(sdperim.wire.FrameSplitter, "feed", "wire.splitter_feed")

    tracer.wrap(SimNet, "run", "sim.run")
    tracer.wrap(SimNet, "trace_jsonl", "sim.trace_jsonl", size=lambda text: text.count("\n"))
    tracer.wrap(sdperim.scenarios, "run_experiment", "harness.experiment")
    tracer.wrap(sdperim.scenarios, "scenario_run", "scenarios.run")
