"""Single Packet Authorization.

The SPA datagram is the mandatory first message from any host to the
controller or to a gateway. It proves possession of a provisioned symmetric
key without opening a connection, and it is the only packet a dark host will
ever look at from an unknown source.

Wire layout, big-endian, 90 bytes total, one UDP datagram:

    magic "SDP1" (4) | version=1 (1) | target_role (1) | client_id (16) |
    counter (8) | timestamp (8) | nonce (16) | reserved zeros (4) | auth_tag (32)

The auth tag is HMAC-SHA256 over the 58 bytes preceding it. Replay defense is
a strictly increasing per-client counter plus a clock-skew window; both checks
keep O(1) state per client.
"""

from __future__ import annotations

import enum
import hmac
import hashlib
import os
import struct
import threading
from dataclasses import dataclass, field
from itertools import takewhile
from typing import NamedTuple

MAGIC = b"SDP1"
VERSION = 1
PACKET_LEN = 90
_SIGNED_LEN = 58
_LAYOUT = struct.Struct("!4sBB16sQQ16s4s")
# What every well-formed packet shares: its length, magic and version, and the
# zero reserved bytes. A receiving node declares it as its ``udp_shapes``
# (``transport.base.Node``), so a driver may drop any other datagram early.
SHAPE = (PACKET_LEN, ((0, MAGIC + bytes([VERSION])), (_SIGNED_LEN - 4, bytes(4))))
# Where the client id starts; a node adds the ids it knows to its shape as
# ``(*SHAPE, (CLIENT_ID_OFFSET, ids))``.
CLIENT_ID_OFFSET = 6

SECRET_LEN = 32
CLIENT_ID_LEN = 16
NONCE_LEN = 16
TAG_LEN = 32

SKEW_WINDOW = 30.0  # seconds a packet's timestamp may differ from the verifier's clock
GATE_WINDOW = 60.0  # seconds a gate that an SPA opened stays usable
GATE_CAP = 1024  # gates kept at once per table; a sender can write one per datagram

_COUNTER_MAX = 2**64 - 1


class TargetRole(enum.IntEnum):
    CONTROLLER = 1
    GATEWAY = 2


_ROLES = {role.value: role for role in TargetRole}  # a lookup, not an enum call, per parsed packet


class SpaVerdict(enum.Enum):
    ACCEPT = "accept"
    BAD_TAG = "bad-tag"
    REPLAY_DETECTED = "replay-detected"
    STALE_TIMESTAMP = "stale-timestamp"
    UNKNOWN_CLIENT = "unknown-client"


class KeyRotationRequired(Exception):
    """The 64-bit counter space for a key is exhausted; the key must be replaced."""


@dataclass
class SpaKey:
    """A provisioned client key. The secret never appears in repr or logs."""

    client_id: bytes
    secret: bytes

    def __post_init__(self):
        if len(self.client_id) != CLIENT_ID_LEN:
            raise ValueError(f"client_id must be {CLIENT_ID_LEN} bytes")
        if len(self.secret) != SECRET_LEN:
            raise ValueError(f"secret must be {SECRET_LEN} bytes")

    def __repr__(self):
        return f"SpaKey(client_id={self.client_id.hex()}, secret=<redacted>)"


class SpaPacket(NamedTuple):
    """A decoded packet. Immutable, and a tuple so that building one per
    parsed datagram costs no dataclass ``__init__``."""

    client_id: bytes
    counter: int
    timestamp: int
    target: TargetRole
    nonce: bytes
    auth_tag: bytes

    def signed_portion(self) -> bytes:
        return _LAYOUT.pack(
            MAGIC,
            VERSION,
            int(self.target),
            self.client_id,
            self.counter,
            self.timestamp,
            self.nonce,
            b"\x00" * 4,
        )

    def encode(self) -> bytes:
        wire = self.signed_portion() + self.auth_tag
        assert len(wire) == PACKET_LEN
        return wire


def _tag(secret: bytes, signed: bytes) -> bytes:
    return hmac.new(secret, signed, hashlib.sha256).digest()


def build_spa(key: SpaKey, counter: int, target: TargetRole, now: float, nonce: bytes | None = None) -> SpaPacket:
    """Build a packet that the holder of ``key`` will accept at time ``now``.

    ``nonce`` is injectable so deterministic backends can derive it from a
    seeded RNG; it defaults to fresh OS randomness.
    """
    if counter >= _COUNTER_MAX:
        raise KeyRotationRequired(f"counter space exhausted for {key.client_id.hex()}")
    if counter < 0:
        raise ValueError("counter must be non-negative")
    if nonce is None:
        nonce = os.urandom(NONCE_LEN)
    if len(nonce) != NONCE_LEN:
        raise ValueError(f"nonce must be {NONCE_LEN} bytes")
    pkt = SpaPacket(key.client_id, counter, int(now), TargetRole(target), nonce, b"")
    return pkt._replace(auth_tag=_tag(key.secret, pkt.signed_portion()))


def parse_spa(data: bytes) -> SpaPacket | None:
    """Decode a datagram; returns None for anything that is not a well-formed
    SPA packet (wrong length, magic, version, or role byte)."""
    if len(data) != PACKET_LEN:
        return None
    magic, version, role, client_id, counter, timestamp, nonce, reserved = _LAYOUT.unpack_from(data)
    if magic != MAGIC or version != VERSION or reserved != b"\x00" * 4:
        return None
    target = _ROLES.get(role)
    if target is None:
        return None
    return SpaPacket(client_id, counter, timestamp, target, nonce, data[_SIGNED_LEN:])


class SpaKeyStore:
    """Key and replay-counter store for a verifying host.

    Counter advancement is atomic per client: of any set of concurrent
    packets carrying the same counter value, at most one is accepted. One
    active key per client id; re-registering replaces the key and resets the
    counter floor unless a floor is given.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._secrets: dict[bytes, bytes] = {}
        self._last_counter: dict[bytes, int] = {}

    def register(self, key: SpaKey, last_counter: int = 0) -> None:
        with self._lock:
            self._secrets[key.client_id] = key.secret
            self._last_counter[key.client_id] = last_counter

    def remove(self, client_id: bytes) -> None:
        with self._lock:
            self._secrets.pop(client_id, None)
            self._last_counter.pop(client_id, None)

    def last_counter(self, client_id: bytes) -> int:
        with self._lock:
            return self._last_counter.get(client_id, 0)

    def verify(self, packet: SpaPacket, now: float) -> SpaVerdict:
        """Full verification; advances the stored counter only on ACCEPT."""
        with self._lock:
            secret = self._secrets.get(packet.client_id)
        if secret is None:
            return SpaVerdict.UNKNOWN_CLIENT
        expected = _tag(secret, packet.signed_portion())
        if not hmac.compare_digest(expected, packet.auth_tag):
            return SpaVerdict.BAD_TAG
        if abs(packet.timestamp - now) > SKEW_WINDOW:
            return SpaVerdict.STALE_TIMESTAMP
        with self._lock:
            # re-read under the lock: the key may have rotated, and the
            # compare-and-advance must be atomic for same-counter races
            if packet.client_id not in self._secrets:
                return SpaVerdict.UNKNOWN_CLIENT
            last = self._last_counter.get(packet.client_id, 0)
            if packet.counter <= last:
                return SpaVerdict.REPLAY_DETECTED
            self._last_counter[packet.client_id] = packet.counter
        return SpaVerdict.ACCEPT


@dataclass
class SpaCounterSource:
    """Client-side counter generator.

    Counters are the max of (previous + 1, current milliseconds), so a client
    that restarts without persisting its counter still never reuses one.
    """

    last: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def next(self, now: float) -> int:
        with self._lock:
            candidate = max(self.last + 1, int(now * 1000))
            if candidate >= _COUNTER_MAX:
                raise KeyRotationRequired("counter space exhausted")
            self.last = candidate
            return candidate


class Gates(dict):
    """Gates SPA datagrams opened, keyed by source host, in deadline order (each
    has a ``deadline`` and lives ``GATE_WINDOW``). ``put`` moves a re-written host
    to the back and at ``GATE_CAP`` evicts the oldest, as conntrack early-drops;
    ``expire`` pops gates up to the first live one. Both return the pairs that left."""

    def put(self, host: str, gate) -> list:
        self.pop(host, None)
        gone = []
        if len(self) >= GATE_CAP:
            oldest = next(iter(self))
            gone.append((oldest, self.pop(oldest)))
        self[host] = gate
        return gone

    def expire(self, now: float) -> list:
        expired = list(takewhile(lambda host: self[host].deadline < now, self))
        return [(host, self.pop(host)) for host in expired]
