"""Closed-form delay model and trace reconciliation.

The model assumes transmission and propagation dominate (processing and
queuing are ignored). One packet of alpha bits on a link of length beta
meters, rate R bits/s and propagation speed S m/s costs

    total_delay = alpha / R + beta / S

A full authentication exchange costs the per-hop frame counts n = (n1..n4)
times the per-hop packet costs over the four control hops

    hop 1: client -> gateway      hop 2: gateway -> controller
    hop 3: controller -> gateway  hop 4: gateway -> client

with default counts (3, 4, 3, 5), matching the protocol's frame sequence.
Hops 5 and 6 model the access-network attach (two pure delay stages); hops 7
and 8 are the service round trip. ``init_delay`` is the authentication plus
attach cost and ``e2e_delay`` adds the service round trip.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_HOP_COUNTS = (3, 4, 3, 5)

HOP_LABELS = ("client->gateway", "gateway->controller", "controller->gateway", "gateway->client")


class DelayDomainError(ValueError):
    pass


@dataclass
class DelayParams:
    """Packet sizes (bits) and link lengths (meters) for the eight hops, a
    shared transmission rate (bits/s) and propagation speed (m/s), and the
    per-hop frame counts of one authentication exchange."""

    alpha_bits: tuple[float, ...]
    beta_m: tuple[float, ...]
    rate_bps: float
    speed_mps: float
    hop_counts: tuple[int, ...] = DEFAULT_HOP_COUNTS

    def __post_init__(self):
        if len(self.alpha_bits) != 8 or len(self.beta_m) != 8:
            raise DelayDomainError("alpha_bits and beta_m need exactly 8 entries")
        if self.rate_bps <= 0 or self.speed_mps <= 0:
            raise DelayDomainError("rate and speed must be positive")
        if any(a < 0 for a in self.alpha_bits) or any(b < 0 for b in self.beta_m):
            raise DelayDomainError("packet sizes and link lengths must be non-negative")
        if len(self.hop_counts) != 4 or any(n < 0 or n != int(n) for n in self.hop_counts):
            raise DelayDomainError("hop_counts must be 4 non-negative integers")

    @classmethod
    def from_dict(cls, raw: dict) -> "DelayParams":
        """Build from a parameter mapping; packet sizes may be given in bytes
        (``alpha_bytes``) or bits (``alpha_bits``)."""
        scale, key = (8.0, "alpha_bytes") if "alpha_bytes" in raw and "alpha_bits" not in raw else (1.0, "alpha_bits")
        try:
            return cls(
                alpha_bits=tuple(float(a) * scale for a in raw[key]),
                beta_m=tuple(float(b) for b in raw["beta_m"]),
                rate_bps=float(raw["rate_bps"]),
                speed_mps=float(raw["speed_mps"]),
                hop_counts=tuple(int(n) for n in raw.get("hop_counts", DEFAULT_HOP_COUNTS)),
            )
        except KeyError as exc:
            raise DelayDomainError(f"missing {exc.args[0]}") from None


def total_delay(alpha_bits: float, rate_bps: float, beta_m: float, speed_mps: float) -> float:
    """Transmission plus propagation cost of one packet on one link."""
    if rate_bps <= 0 or speed_mps <= 0:
        raise DelayDomainError("rate and speed must be positive")
    return alpha_bits / rate_bps + beta_m / speed_mps


def sdp_overhead(p: DelayParams) -> float:
    """Authentication exchange cost: per-hop counts times per-hop packet cost
    over the four control hops."""
    out = 0.0
    for i in range(4):
        out += p.hop_counts[i] * total_delay(p.alpha_bits[i], p.rate_bps, p.beta_m[i], p.speed_mps)
    return out


def lte_delay(p: DelayParams) -> float:
    """Access-network attach cost: hops 5 and 6, one packet each."""
    return total_delay(p.alpha_bits[4], p.rate_bps, p.beta_m[4], p.speed_mps) + total_delay(
        p.alpha_bits[5], p.rate_bps, p.beta_m[5], p.speed_mps
    )


def init_delay(p: DelayParams) -> float:
    """Initialization cost: authentication exchange plus attach."""
    return sdp_overhead(p) + lte_delay(p)


def e2e_delay(p: DelayParams) -> float:
    """End-to-end cost: initialization plus the service round trip (hops 7, 8)."""
    return (
        init_delay(p)
        + total_delay(p.alpha_bits[6], p.rate_bps, p.beta_m[6], p.speed_mps)
        + total_delay(p.alpha_bits[7], p.rate_bps, p.beta_m[7], p.speed_mps)
    )


# -- reconciliation against simulated traces ---------------------------------


@dataclass
class HopReconciliation:
    label: str
    expected_frames: int
    observed_frames: int
    predicted: float
    measured: float

    @property
    def delta(self) -> float:
        return self.measured - self.predicted

    @property
    def count_mismatch(self) -> bool:
        return self.expected_frames != self.observed_frames


@dataclass
class ReconcileReport:
    hops: list[HopReconciliation]
    predicted: float
    measured: float
    uniform_sizes: bool

    @property
    def delta(self) -> float:
        return self.measured - self.predicted

    @property
    def count_mismatches(self) -> list[str]:
        return [h.label for h in self.hops if h.count_mismatch]

    def to_dict(self) -> dict:
        return {
            "predicted": self.predicted,
            "measured": self.measured,
            "delta": self.delta,
            "uniform_sizes": self.uniform_sizes,
            "count_mismatches": self.count_mismatches,
            "hops": [
                {
                    "hop": h.label,
                    "expected_frames": h.expected_frames,
                    "observed_frames": h.observed_frames,
                    "predicted": h.predicted,
                    "measured": h.measured,
                    "delta": h.delta,
                }
                for h in self.hops
            ],
        }


def reconcile(trace_records, p: DelayParams, hop_nodes: tuple[tuple[str, str], ...]) -> ReconcileReport:
    """Compare the model's predicted authentication cost against a simulated
    trace.

    ``trace_records`` are protocol-frame ``TraceRecord``s, of which src, dst
    and the link-priced per-frame delay are read; ``hop_nodes`` maps the
    four control hops to (src node, dst node) pairs. When hop counts
    match and the simulation ran with uniform per-hop packet sizes equal to
    the model's, predicted and measured agree exactly, because the simulator
    prices each frame with the same expression the model uses.
    """
    hops = []
    uniform = True
    for i, (src, dst) in enumerate(hop_nodes):
        per_frame = total_delay(p.alpha_bits[i], p.rate_bps, p.beta_m[i], p.speed_mps)
        observed = [
            rec.link_delay for rec in trace_records if (rec.src, rec.dst) == (src, dst) and rec.link_delay is not None
        ]
        if observed and any(d != observed[0] for d in observed):
            uniform = False
        # measured per hop: observed frame count times the uniform observed
        # per-frame delay (falls back to the mean if sizes were not uniform)
        if observed:
            if uniform:
                measured = len(observed) * observed[0]
            else:
                measured = float(sum(observed))
        else:
            measured = 0.0
        hops.append(
            HopReconciliation(
                label=HOP_LABELS[i],
                expected_frames=p.hop_counts[i],
                observed_frames=len(observed),
                predicted=p.hop_counts[i] * per_frame,
                measured=measured,
            )
        )
    predicted = hops[0].predicted + hops[1].predicted + hops[2].predicted + hops[3].predicted
    measured = hops[0].measured + hops[1].measured + hops[2].measured + hops[3].measured
    return ReconcileReport(hops=hops, predicted=predicted, measured=measured, uniform_sizes=uniform)
