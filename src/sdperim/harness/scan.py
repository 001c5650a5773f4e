"""Port scanning with timeout-based filtered detection.

One node, ``ScannerNode``, is the scanner under both drivers: ``SimNet`` in
the scenarios, ``RealHost`` in ``real_port_scan`` (``attack scan``). One rule:
a port is Open only when a connection is accepted AND held through a short
liveness window; refused, unanswered, or accepted-then-severed probes are
ClosedOrFiltered. A perimeter that severs unauthorized connections before any
service byte therefore scans exactly like a closed port, which is the
observable the experiments compare.
"""

from __future__ import annotations

import asyncio
import json
import socket
from dataclasses import dataclass
from itertools import islice

from ..transport.base import RAW, CancelTimer, Close, Node, OpenStream, SetTimer

OPEN = "Open"
CLOSED = "ClosedOrFiltered"

PROBE_TIMEOUT = 0.5  # an initiation unanswered this long is ClosedOrFiltered
LIVENESS_WINDOW = 0.12  # an accepted probe must stay up this long to be Open
CONCURRENCY = 256  # probes in flight at once, well under a process's descriptor limit


@dataclass
class ScanReport:
    verdicts: dict[int, str]
    elapsed: float

    def __post_init__(self):
        bad = {v for v in self.verdicts.values()} - {OPEN, CLOSED}
        if bad:
            raise ValueError(f"unknown verdicts {bad}")

    def open_ports(self) -> list[int]:
        return sorted(p for p, v in self.verdicts.items() if v == OPEN)

    def counts(self) -> dict[str, int]:
        out = {OPEN: 0, CLOSED: 0}
        for v in self.verdicts.values():
            out[v] += 1
        return out

    def covers(self, ports) -> bool:
        return set(self.verdicts) == set(ports)

    def to_json(self) -> str:
        return json.dumps(
            {"elapsed": self.elapsed, "counts": self.counts(), "open": self.open_ports(),
             "verdicts": {str(p): v for p, v in sorted(self.verdicts.items())}},
            indent=2,
        )


async def real_port_scan(host: str, ports, timeout: float = PROBE_TIMEOUT, bind_ip: str | None = None) -> ScanReport:
    """Runs one ``ScannerNode`` on real sockets from ``bind_ip`` (by default
    the wildcard address of ``host``'s family) until every port has a verdict."""
    from ..transport.real import RealHost  # the scenarios never load the socket driver

    if bind_ip is None:
        family = socket.getaddrinfo(host, None, type=socket.SOCK_STREAM)[0][0]
        bind_ip = "::" if family == socket.AF_INET6 else "0.0.0.0"
    scanner = ScannerNode("scanner", host, ports, timeout)
    driver = RealHost(scanner, bind_ip)
    try:
        await driver.start()
        while not scanner.done():
            await asyncio.sleep(0.01)
    finally:
        await driver.stop()
    return scanner.report()


class ScannerNode(Node):
    """One probe stream per port, at most ``CONCURRENCY`` in flight; the next
    port starts when a verdict lands. A probe has ``timeout`` to connect and
    then ``LIVENESS_WINDOW`` to stay up; a timer that fires while it is
    connected makes the port Open, anything else ClosedOrFiltered. Every
    verdict cancels its probe's timer and closes its stream. ``report()`` is
    valid once every port has a verdict."""

    def __init__(self, name: str, target_host: str, ports, timeout: float = PROBE_TIMEOUT):
        super().__init__(name)
        self.target_host = target_host
        self.ports = list(dict.fromkeys(ports))  # each port once, or done() never holds
        self.timeout = timeout
        self.verdicts: dict[int, str] = {}
        self._waiting = iter(self.ports)
        self._flow_port: dict[int, int] = {}
        self._connected: set[int] = set()
        self._started_at = self._finished_at = 0.0

    def start(self, now):
        self._started_at = now
        return self._probe(CONCURRENCY)

    def _probe(self, n):
        actions = []
        for port in islice(self._waiting, n):
            flow = self.new_flow()
            self._flow_port[flow] = port
            actions += [OpenStream(flow, (self.target_host, port), RAW), SetTimer(("probe", flow), self.timeout)]
        return actions

    def _verdict(self, flow, verdict, now):
        port = self._flow_port.pop(flow, None)
        if port is None:
            return []
        self._connected.discard(flow)
        self.verdicts[port] = verdict
        self._finished_at = now  # the last verdict's time once done()
        return [CancelTimer(("probe", flow)), Close(flow)] + self._probe(1)

    def on_connected(self, flow, now):
        self._connected.add(flow)
        return [SetTimer(("probe", flow), LIVENESS_WINDOW)]

    def on_connect_failed(self, flow, reason, now):
        return self._verdict(flow, CLOSED, now)

    def on_closed(self, flow, now):
        return self._verdict(flow, CLOSED, now)

    def on_timer(self, key, now):
        _, flow = key
        return self._verdict(flow, OPEN if flow in self._connected else CLOSED, now)

    def done(self) -> bool:
        return len(self.verdicts) == len(self.ports)

    def report(self) -> ScanReport:
        if not self.done():
            raise RuntimeError("scan incomplete")
        return ScanReport(dict(self.verdicts), self._finished_at - self._started_at)
