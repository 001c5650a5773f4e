"""Identity material and the mutually authenticated channel.

The controller is its own issuing authority: it signs compact certificates
(subject id, role, Ed25519 public key) with an Ed25519 CA key. Peers build an
encrypted channel with a condensed handshake:

    initiator                               responder
    SPA datagram (nonce Nc) ------------->
    CHANNEL_HELLO ----------------------->
    <----- CHANNEL_ACCEPT{cert_r, Er, Nr, sig_r over "accept"|Nc|Nr|Er}
    LOGIN_REQUEST/AH_REGISTER{cert_i, Ei,
        sig_i over "confirm"|Nr|Ei|Er,
        body = AEAD(K, ...)} ------------>
    <----------------------- SECURE frames both ways

K = HKDF-SHA256(X25519(Ei, Er), salt=Nc|Nr). Successful AEAD opens in both
directions give mutual key confirmation. Per-direction nonces are a direction
flag plus a message counter, so a channel never reuses a nonce.
The hello, the confirm frame with its sealed body and the SECURE envelope are
built and checked in this module only.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from cryptography.exceptions import InvalidSignature, InvalidTag
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey, Ed25519PublicKey
from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey, X25519PublicKey
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from cryptography.hazmat.primitives.hashes import SHA256
from cryptography.hazmat.primitives.kdf.hkdf import HKDF

from . import wire
from .wire import F, Fields, Kind, WireError, encode_fields, u8, u64

_ACCEPT_CONTEXT = b"sdperim-channel-accept"
_CONFIRM_CONTEXT = b"sdperim-channel-confirm"
_KEY_INFO = b"sdperim-channel-key-v1"
_VALIDATE_CONTEXT = b"sdperim-device-validate"


class PeerRole(enum.IntEnum):
    CLIENT = 1
    GATEWAY = 2
    CONTROLLER = 3


class CredentialError(Exception):
    pass


@dataclass(frozen=True)
class Certificate:
    subject_id: bytes
    role: PeerRole
    public_key: bytes
    issued_at: int
    serial: int
    signature: bytes

    def signed_portion(self) -> bytes:
        return encode_fields(
            [
                (F.SUBJECT_ID, self.subject_id),
                (F.ROLE, u8(int(self.role))),
                (F.PUBLIC_KEY, self.public_key),
                (F.ISSUED_AT, u64(self.issued_at)),
                (F.SERIAL, u64(self.serial)),
            ]
        )

    def encode(self) -> bytes:
        return encode_fields([(F.BODY, self.signed_portion()), (F.SIG, self.signature)])

    @classmethod
    def decode(cls, blob: bytes) -> "Certificate":
        outer = Fields.decode(blob)
        body = Fields.decode(outer.need(F.BODY))
        return cls(
            subject_id=body.need(F.SUBJECT_ID),
            role=PeerRole(body.need(F.ROLE)[0]),
            public_key=body.need(F.PUBLIC_KEY),
            issued_at=body.u64(F.ISSUED_AT),
            serial=body.u64(F.SERIAL),
            signature=outer.need(F.SIG),
        )

    def verifying_key(self) -> Ed25519PublicKey:
        return Ed25519PublicKey.from_public_bytes(self.public_key)


class CertificateAuthority:
    def __init__(self, private_key: Ed25519PrivateKey | None = None):
        self._key = private_key or Ed25519PrivateKey.generate()
        self._serial = 0

    @classmethod
    def from_seed(cls, seed: bytes) -> "CertificateAuthority":
        return cls(Ed25519PrivateKey.from_private_bytes(seed))

    @property
    def public_bytes(self) -> bytes:
        return self._key.public_key().public_bytes_raw()

    def private_bytes(self) -> bytes:
        return self._key.private_bytes_raw()

    def issue(self, subject_id: bytes, role: PeerRole, public_key: bytes, issued_at: int = 0) -> Certificate:
        self._serial += 1
        unsigned = Certificate(subject_id, role, public_key, issued_at, self._serial, b"")
        return Certificate(
            subject_id, role, public_key, issued_at, self._serial, self._key.sign(unsigned.signed_portion())
        )


def verify_certificate(blob: bytes, ca_public: bytes, expected_role: PeerRole | None = None) -> Certificate:
    """Decode and validate a certificate against the issuing authority."""
    try:
        cert = Certificate.decode(blob)
    except (WireError, ValueError, IndexError) as exc:
        raise CredentialError(f"malformed certificate: {exc}") from exc
    try:
        Ed25519PublicKey.from_public_bytes(ca_public).verify(cert.signature, cert.signed_portion())
    except InvalidSignature as exc:
        raise CredentialError("certificate not signed by the issuing authority") from exc
    if expected_role is not None and cert.role != expected_role:
        raise CredentialError(f"certificate role {cert.role} != expected {expected_role}")
    return cert


@dataclass
class Identity:
    """A host's own credential: signing key plus its certificate."""

    cert: Certificate
    _signing_key: Ed25519PrivateKey

    @classmethod
    def from_material(cls, cert_blob: bytes, signing_seed: bytes) -> "Identity":
        return cls(Certificate.decode(cert_blob), Ed25519PrivateKey.from_private_bytes(signing_seed))

    def signing_seed(self) -> bytes:
        return self._signing_key.private_bytes_raw()

    def sign(self, message: bytes) -> bytes:
        return self._signing_key.sign(message)


def _derive_key(shared: bytes, initiator_nonce: bytes, responder_nonce: bytes) -> bytes:
    return HKDF(algorithm=SHA256(), length=32, salt=initiator_nonce + responder_nonce, info=_KEY_INFO).derive(shared)


class SecureChannel:
    """AEAD framing for one established channel.

    ``initiator`` picks the nonce direction flags; both sides keep independent
    send counters. ``seal``/``open_blob`` work on (kind, payload) pairs encoded
    as one inner byte string: u8 kind || payload; ``frame``/``open_frame``
    wrap that blob in a SECURE frame.
    """

    def __init__(self, key: bytes, initiator: bool):
        self._aead = AESGCM(key)
        self._send_dir = 1 if initiator else 2
        self._recv_dir = 2 if initiator else 1
        self._send_seq = 0
        self._recv_seq = 0

    def _nonce(self, direction: int, seq: int) -> bytes:
        return direction.to_bytes(4, "big") + seq.to_bytes(8, "big")

    def seal(self, kind: int, payload: bytes) -> bytes:
        nonce = self._nonce(self._send_dir, self._send_seq)
        self._send_seq += 1
        return self._aead.encrypt(nonce, bytes([kind]) + payload, None)

    def open_blob(self, blob: bytes) -> tuple[int, bytes]:
        nonce = self._nonce(self._recv_dir, self._recv_seq)
        try:
            inner = self._aead.decrypt(nonce, blob, None)
        except InvalidTag as exc:
            raise CredentialError("channel frame failed authentication") from exc
        self._recv_seq += 1
        if not inner:
            raise CredentialError("empty channel frame")
        return inner[0], inner[1:]

    def frame(self, kind: int, fields: list[tuple[int, bytes]]) -> bytes:
        """The SECURE frame carrying ``kind`` and ``fields`` sealed."""
        return wire.encode_frame(Kind.SECURE, [(F.DATA, self.seal(kind, encode_fields(fields)))])

    def open_frame(self, fields: Fields) -> tuple[int, Fields]:
        """Open a received SECURE frame's fields: (inner kind, inner fields)."""
        kind, payload = self.open_blob(fields.need(F.DATA))
        return kind, Fields.decode(payload)


def accept_transcript(initiator_nonce: bytes, responder_nonce: bytes, responder_eph: bytes) -> bytes:
    return _ACCEPT_CONTEXT + initiator_nonce + responder_nonce + responder_eph


def confirm_transcript(responder_nonce: bytes, initiator_eph: bytes, responder_eph: bytes) -> bytes:
    return _CONFIRM_CONTEXT + responder_nonce + initiator_eph + responder_eph


class HandshakeResponder:
    """Responder half-state between CHANNEL_ACCEPT and the confirm message."""

    def __init__(self, identity: Identity, initiator_nonce: bytes, eph_seed: bytes, nonce: bytes):
        self.identity = identity
        self.initiator_nonce = initiator_nonce
        self.nonce = nonce
        self._eph = X25519PrivateKey.from_private_bytes(eph_seed)
        self.eph_pub = self._eph.public_key().public_bytes_raw()
        self.signature = identity.sign(accept_transcript(initiator_nonce, nonce, self.eph_pub))

    def accept_fields(self) -> list[tuple[int, bytes]]:
        return [
            (F.CERT, self.identity.cert.encode()),
            (F.EPH_PUB, self.eph_pub),
            (F.NONCE, self.nonce),
            (F.SIG, self.signature),
        ]

    def finish(self, initiator_cert: Certificate, initiator_eph: bytes, signature: bytes) -> SecureChannel:
        try:
            initiator_cert.verifying_key().verify(
                signature, confirm_transcript(self.nonce, initiator_eph, self.eph_pub)
            )
        except InvalidSignature as exc:
            raise CredentialError("handshake confirm signature invalid") from exc
        shared = self._eph.exchange(X25519PublicKey.from_public_bytes(initiator_eph))
        return SecureChannel(_derive_key(shared, self.initiator_nonce, self.nonce), initiator=False)

    def open_confirm(self, fields: Fields, ca_public: bytes, role: PeerRole, kind: int) -> tuple[Certificate, SecureChannel]:
        """Check a ``kind`` confirm frame: certificate and role, signature, and a sealed
        body of the same kind naming the certificate's subject. Returns (cert, channel)."""
        cert = verify_certificate(fields.need(F.CERT), ca_public, role)
        channel = self.finish(cert, fields.need(F.EPH_PUB), fields.need(F.SIG))
        body_kind, body = channel.open_blob(fields.need(F.BODY))
        if body_kind != kind or Fields.decode(body).need(F.SUBJECT_ID) != cert.subject_id:
            raise CredentialError("handshake confirm body mismatch")
        return cert, channel


class HandshakeInitiator:
    """Initiator side: emits the hello, consumes CHANNEL_ACCEPT, emits the confirm."""

    def __init__(self, identity: Identity, ca_public: bytes, initiator_nonce: bytes, eph_seed: bytes):
        self.identity = identity
        self.ca_public = ca_public
        self.initiator_nonce = initiator_nonce
        self._eph = X25519PrivateKey.from_private_bytes(eph_seed)
        self.eph_pub = self._eph.public_key().public_bytes_raw()

    def hello(self, subject_id: bytes) -> bytes:
        """CHANNEL_HELLO naming the first-contact datagram's subject, which the gates match."""
        return wire.encode_frame(Kind.CHANNEL_HELLO, [(F.SUBJECT_ID, subject_id)])

    def process_accept(self, fields: Fields, expected_role: PeerRole) -> tuple[Certificate, list[tuple[int, bytes]], SecureChannel]:
        """Validate the responder's accept; returns (responder cert, confirm
        fields to send, established channel)."""
        cert = verify_certificate(fields.need(F.CERT), self.ca_public, expected_role)
        responder_eph = fields.need(F.EPH_PUB)
        responder_nonce = fields.need(F.NONCE)
        try:
            cert.verifying_key().verify(
                fields.need(F.SIG), accept_transcript(self.initiator_nonce, responder_nonce, responder_eph)
            )
        except InvalidSignature as exc:
            raise CredentialError("handshake accept signature invalid") from exc
        signature = self.identity.sign(confirm_transcript(responder_nonce, self.eph_pub, responder_eph))
        shared = self._eph.exchange(X25519PublicKey.from_public_bytes(responder_eph))
        channel = SecureChannel(_derive_key(shared, self.initiator_nonce, responder_nonce), initiator=True)
        confirm = [
            (F.CERT, self.identity.cert.encode()),
            (F.EPH_PUB, self.eph_pub),
            (F.SIG, signature),
        ]
        return cert, confirm, channel

    def confirm(self, accept: Fields, expected_role: PeerRole, kind: int) -> tuple[bytes, SecureChannel]:
        """Validate the responder's accept; returns the ``kind`` frame confirming it,
        its sealed body naming this initiator's subject, and the channel."""
        _, confirm, channel = self.process_accept(accept, expected_role)
        body = channel.seal(kind, encode_fields([(F.SUBJECT_ID, self.identity.cert.subject_id)]))
        return wire.encode_frame(kind, confirm + [(F.BODY, body)]), channel


def sign_validation(identity: Identity, challenge: bytes) -> bytes:
    return identity.sign(_VALIDATE_CONTEXT + challenge)


def verify_validation(cert: Certificate, challenge: bytes, signature: bytes) -> bool:
    try:
        cert.verifying_key().verify(signature, _VALIDATE_CONTEXT + challenge)
        return True
    except InvalidSignature:
        return False
