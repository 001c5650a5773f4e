"""Protected-side service nodes and traffic generators used in experiments
and tests."""

from __future__ import annotations

from dataclasses import dataclass, field

from .transport.base import RAW, AcceptStream, Node, OpenStream, Send, SetTimer

PING_SIZE = 128  # bytes per echo payload: the unit the DoS captures count acked segments in


@dataclass
class ServiceStats:
    bytes_in: int = 0
    origins: dict = field(default_factory=dict)  # src host -> connection count


class EchoNode(Node):
    """Accepts everything on its ports and echoes bytes back. Tracks who
    reached it, which is what the leak measurements read."""

    def __init__(self, name: str, port: int, extra_ports: list[int] | None = None):
        super().__init__(name)
        self.port = port
        self.tcp_ports = {port: RAW}
        for p in extra_ports or []:
            self.tcp_ports[p] = RAW
        self.stats = ServiceStats()

    def on_stream_request(self, flow, port, src, now):
        self.stats.origins[src[0]] = self.stats.origins.get(src[0], 0) + 1
        return [AcceptStream(flow)]

    def on_data(self, flow, data, now):
        self.stats.bytes_in += len(data)
        return [Send(flow, data)]


class PingerNode(Node):
    """Fixed-rate echo traffic straight at a target (the no-perimeter arm of
    the experiments). Sends one payload per tick once connected and counts
    the bytes that come back."""

    def __init__(self, name: str, target: tuple[str, int], rate: float):
        super().__init__(name)
        self.target = target
        self.period = 1.0 / rate
        self.payload = b"\x55" * PING_SIZE
        self.rx_bytes = 0
        self.connected = False
        self._flow = None

    def start(self, now):
        self._flow = self.new_flow()
        return [OpenStream(self._flow, self.target, RAW)]

    def on_connected(self, flow, now):
        self.connected = True
        return [SetTimer("tick", self.period)]

    def on_timer(self, key, now):
        if key != "tick" or not self.connected:
            return []
        return [Send(self._flow, self.payload), SetTimer("tick", self.period)]

    def on_data(self, flow, data, now):
        self.rx_bytes += len(data)
        return []

    def on_closed(self, flow, now):
        self.connected = False
        return []
