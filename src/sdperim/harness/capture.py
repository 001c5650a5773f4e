"""Per-interval capture series for the adversarial experiments."""

from __future__ import annotations

import io
from dataclasses import dataclass, field

ATTACK_FRAME_LIMIT = 60  # labeling only, never used for filtering decisions
INTERVAL = 1.0  # seconds per row: the per-second series the DoS results are read from


@dataclass
class CaptureSeries:
    """One row per observation second: legitimate acknowledged traffic,
    attack segments seen and forwarded, the filter-work proxy, and the
    target's half-open backlog."""

    start: float
    acked_segments: list[int] = field(default_factory=list)
    attack_segments_seen: list[int] = field(default_factory=list)
    attack_segments_forwarded: list[int] = field(default_factory=list)
    cpu_proxy: list[int] = field(default_factory=list)
    half_open: list[int] = field(default_factory=list)

    def append(self, acked: int, attack_seen: int, attack_forwarded: int, cpu: int, half_open: int):
        if attack_forwarded > attack_seen:
            raise ValueError("forwarded attack segments cannot exceed those seen")
        self.acked_segments.append(acked)
        self.attack_segments_seen.append(attack_seen)
        self.attack_segments_forwarded.append(attack_forwarded)
        self.cpu_proxy.append(cpu)
        self.half_open.append(half_open)

    def __len__(self):
        return len(self.acked_segments)

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("t,acked_segments,attack_segments_seen,attack_segments_forwarded,cpu_proxy,half_open\n")
        columns = (self.acked_segments, self.attack_segments_seen, self.attack_segments_forwarded, self.cpu_proxy, self.half_open)
        for i, row in enumerate(zip(*columns)):
            buf.write(",".join(map(str, (self.start + i * INTERVAL, *row))) + "\n")
        return buf.getvalue()


def is_attack_segment(rec, dst: str, dst_port: int) -> bool:
    """An initiation segment at the target whose frame length is under the
    attack-labeling threshold (reporting only)."""
    return rec.cls == "syn" and rec.dst == dst and rec.dst_port == dst_port and rec.size < ATTACK_FRAME_LIMIT
