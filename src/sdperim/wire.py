"""Control-plane wire format.

Every control stream carries length-prefixed frames:

    u32 length (big-endian, covers kind + payload) | u8 kind | payload

Payloads are TLV field lists: ``u8 field id | u16 value length | value``.
A field id may repeat; decoders see values in wire order. Integers are
unsigned big-endian. The same TLV codec is reused for nested structures
(certificates, encrypted bodies, service entries).

The README lists the frame kinds.
"""

from __future__ import annotations

import enum
import struct

_TLV_HDR = struct.Struct("!BH")
_FRAME_HDR = struct.Struct("!I")

MAX_FRAME_LEN = 1 << 14  # 16 KiB, HTTP/2's default: what a stream may buffer before it is trusted


class Kind(enum.IntEnum):
    # channel establishment and secure framing
    CHANNEL_HELLO = 0x01
    CHANNEL_ACCEPT = 0x02
    SECURE = 0x03

    # authenticated client <-> controller messages (inside SECURE after the
    # handshake; LOGIN_REQUEST itself carries the client half of the handshake)
    LOGIN_REQUEST = 0x10
    LOGIN_RESPONSE = 0x11
    IH_SERVICES = 0x12
    CONNECTION_REQUEST = 0x13
    CONNECTION_RESPONSE = 0x14
    DEVICE_VALIDATE = 0x15
    DEVICE_VALIDATE_ACK = 0x16

    # controller <-> gateway
    AH_REGISTER = 0x20
    AH_REGISTER_ACK = 0x21
    CLIENT_SERVICES = 0x22
    SERVICES_ACK = 0x23
    AH_AUTHORIZE = 0x24
    AH_ACK = 0x25
    AH_REVOKE = 0x26

    # relay plumbing between gateway and its peers
    RELAY_READY = 0x30
    RELAY_OPEN = 0x31
    SPA_FORWARD = 0x32
    RELAY_DATA = 0x33
    RELAY_CLOSE = 0x34
    GATEWAY_READY = 0x35


class F(enum.IntEnum):
    """TLV field ids (shared across kinds; meaning is per-kind)."""

    SUBJECT_ID = 1
    CERT = 2
    EPH_PUB = 3
    SIG = 4
    NONCE = 5
    BODY = 6
    FLOW = 7
    HOST = 8
    PORT = 9
    SERVICE_ID = 10
    TTL_MS = 11
    REASON = 12
    RULE_ID = 13
    OK = 14
    DATA = 15
    COUNTER = 16
    SECRET = 17
    SESSION = 18
    INTERVAL_MS = 19
    REQUEST_ID = 20
    ENTRY = 21
    PUBLIC_KEY = 22
    ROLE = 23
    ISSUED_AT = 24
    SERIAL = 25
    SPA_PORT = 27


class WireError(ValueError):
    pass


def encode_fields(fields: list[tuple[int, bytes]]) -> bytes:
    parts = []
    for fid, value in fields:
        if not 0 <= fid <= 0xFF:
            raise WireError("field id out of range")
        if len(value) > 0xFFFF:
            raise WireError("field value too long")
        parts.append(_TLV_HDR.pack(fid, len(value)))
        parts.append(value)
    return b"".join(parts)


def decode_fields(blob: bytes) -> list[tuple[int, bytes]]:
    out = []
    i = 0
    n = len(blob)
    while i < n:
        if i + _TLV_HDR.size > n:
            raise WireError("truncated field header")
        fid, ln = _TLV_HDR.unpack_from(blob, i)
        i += _TLV_HDR.size
        if i + ln > n:
            raise WireError("truncated field value")
        out.append((fid, blob[i : i + ln]))
        i += ln
    return out


class Fields:
    """Decoded TLV payload with typed accessors."""

    def __init__(self, pairs: list[tuple[int, bytes]]):
        self.pairs = pairs

    @classmethod
    def decode(cls, blob: bytes) -> "Fields":
        return cls(decode_fields(blob))

    def all(self, fid: int) -> list[bytes]:
        return [v for f, v in self.pairs if f == fid]

    def get(self, fid: int) -> bytes | None:
        for f, v in self.pairs:
            if f == fid:
                return v
        return None

    def need(self, fid: int) -> bytes:
        v = self.get(fid)
        if v is None:
            raise WireError(f"missing field {fid}")
        return v

    def u16(self, fid: int) -> int:
        return int.from_bytes(self.need(fid), "big")

    def u32(self, fid: int) -> int:
        return int.from_bytes(self.need(fid), "big")

    def u64(self, fid: int) -> int:
        return int.from_bytes(self.need(fid), "big")

    def text(self, fid: int) -> str:
        return self.need(fid).decode("utf-8")


def u8(x: int) -> bytes:
    return x.to_bytes(1, "big")


def u16(x: int) -> bytes:
    return x.to_bytes(2, "big")


def u32(x: int) -> bytes:
    return x.to_bytes(4, "big")


def u64(x: int) -> bytes:
    return x.to_bytes(8, "big")


def text(s: str) -> bytes:
    return s.encode("utf-8")


def encode_frame(kind: int, fields: list[tuple[int, bytes]]) -> bytes:
    body = bytes([kind]) + encode_fields(fields)
    if len(body) > MAX_FRAME_LEN:
        raise WireError("frame too long")
    return _FRAME_HDR.pack(len(body)) + body


def decode_frame(data: bytes) -> tuple[int, Fields]:
    """Decode one complete frame (header included)."""
    if len(data) < _FRAME_HDR.size + 1:
        raise WireError("short frame")
    (ln,) = _FRAME_HDR.unpack_from(data, 0)
    if ln != len(data) - _FRAME_HDR.size:
        raise WireError("frame length mismatch")
    kind = data[_FRAME_HDR.size]
    return kind, Fields.decode(data[_FRAME_HDR.size + 1 :])


class FrameSplitter:
    """Incremental splitter for a length-prefixed byte stream (real sockets
    deliver arbitrary chunks; the simulator preserves frame boundaries and
    does not need one)."""

    def __init__(self):
        self._buf = bytearray()

    def feed(self, data: bytes) -> list[bytes]:
        self._buf.extend(data)
        frames = []
        while True:
            if len(self._buf) < _FRAME_HDR.size:
                break
            (ln,) = _FRAME_HDR.unpack_from(self._buf, 0)
            if ln > MAX_FRAME_LEN:
                raise WireError("frame too long")
            total = _FRAME_HDR.size + ln
            if len(self._buf) < total:
                break
            frames.append(bytes(self._buf[:total]))
            del self._buf[:total]
        return frames


def service_entry(service_id: str, host: str, port: int) -> bytes:
    return encode_fields([(F.SERVICE_ID, text(service_id)), (F.HOST, text(host)), (F.PORT, u16(port))])


def parse_service_entry(blob: bytes) -> tuple[str, str, int]:
    f = Fields.decode(blob)
    return f.text(F.SERVICE_ID), f.text(F.HOST), f.u16(F.PORT)
