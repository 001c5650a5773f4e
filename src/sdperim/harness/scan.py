"""Port scanning with timeout-based filtered detection.

Verdict rule (both backends): a port is Open only when a connection is
accepted AND held through a short liveness window; refused, unanswered, or
accepted-then-severed probes are ClosedOrFiltered. A perimeter that severs
unauthorized connections before any service byte therefore scans exactly
like a closed port, which is the observable the experiments compare.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass

from ..transport.base import Close, Node, OpenStream, SetTimer

OPEN = "Open"
CLOSED = "ClosedOrFiltered"

PROBE_TIMEOUT = 0.5  # an initiation unanswered this long is ClosedOrFiltered
LIVENESS_WINDOW = 0.12  # an accepted probe must stay up this long to be Open
CONCURRENCY = 256  # probes in flight at once on real sockets, well under a process's descriptor limit


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


async def real_port_scan(
    host: str,
    ports,
    timeout: float = PROBE_TIMEOUT,
    bind_ip: str | None = None,
) -> ScanReport:
    started = time.time()
    sem = asyncio.Semaphore(CONCURRENCY)
    verdicts: dict[int, str] = {}

    async def probe(port: int):
        async with sem:
            try:
                kw = {"local_addr": (bind_ip, 0)} if bind_ip else {}
                reader, writer = await asyncio.wait_for(
                    asyncio.open_connection(host, port, **kw), timeout=timeout
                )
            except (OSError, asyncio.TimeoutError):
                verdicts[port] = CLOSED
                return
            try:
                # accepted: only a connection that stays up is a live service
                data = await asyncio.wait_for(reader.read(1), timeout=LIVENESS_WINDOW)
                verdicts[port] = CLOSED if data == b"" else OPEN
            except asyncio.TimeoutError:
                verdicts[port] = OPEN
            except OSError:
                verdicts[port] = CLOSED
            finally:
                try:
                    writer.transport.abort()
                except Exception:
                    pass

    await asyncio.gather(*(probe(p) for p in ports))
    return ScanReport(verdicts, time.time() - started)


class ScannerNode(Node):
    """Simulated scanner: one probe stream per port, each given
    ``PROBE_TIMEOUT``. ``report()`` is valid once every port has a verdict."""

    def __init__(self, name: str, target_host: str, ports):
        super().__init__(name)
        self.target_host = target_host
        self.ports = list(ports)
        self.verdicts: dict[int, str] = {}
        self._flow_port: dict[int, int] = {}
        self._started_at = 0.0
        self._finished_at = 0.0

    def start(self, now):
        self._started_at = now
        actions = []
        for port in self.ports:
            flow = self.new_flow()
            self._flow_port[flow] = port
            actions.append(OpenStream(flow, (self.target_host, port), "raw"))
            actions.append(SetTimer(f"probe:{flow}", PROBE_TIMEOUT))
        return actions

    def _verdict(self, flow, verdict, now):
        port = self._flow_port.pop(flow, None)
        if port is None:
            return []
        self.verdicts[port] = verdict
        if len(self.verdicts) == len(self.ports):
            self._finished_at = now
        return [Close(flow)]

    def on_connected(self, flow, now):
        return self._verdict(flow, OPEN, now)

    def on_connect_failed(self, flow, reason, now):
        return self._verdict(flow, CLOSED, now)

    def on_closed(self, flow, now):
        return self._verdict(flow, CLOSED, now)

    def on_timer(self, key, now):
        if key.startswith("probe:"):
            return self._verdict(int(key.split(":")[1]), CLOSED, now)
        return []

    def done(self) -> bool:
        return len(self.verdicts) == len(self.ports)

    def report(self) -> ScanReport:
        if not self.done():
            raise RuntimeError("scan incomplete")
        return ScanReport(dict(self.verdicts), self._finished_at - self._started_at)
