"""Certificates and the mutual-auth channel handshake."""

import pytest

from sdperim.credentials import (
    CertificateAuthority,
    CredentialError,
    HandshakeInitiator,
    HandshakeResponder,
    PeerRole,
    sign_validation,
    verify_certificate,
    verify_validation,
)
from sdperim.wire import F, Fields, Kind, decode_frame, encode_fields, encode_frame


def test_certificate_round_trip(ca, client_identity):
    cert = verify_certificate(client_identity.cert.encode(), ca.public_bytes, PeerRole.CLIENT)
    assert cert.subject_id == client_identity.cert.subject_id
    assert cert.role == PeerRole.CLIENT


def test_certificate_from_other_authority_rejected(client_identity):
    other = CertificateAuthority.from_seed(b"\x22" * 32)
    with pytest.raises(CredentialError):
        verify_certificate(client_identity.cert.encode(), other.public_bytes)


def test_certificate_role_enforced(ca, client_identity):
    with pytest.raises(CredentialError):
        verify_certificate(client_identity.cert.encode(), ca.public_bytes, PeerRole.GATEWAY)


def test_tampered_certificate_rejected(ca, client_identity):
    blob = bytearray(client_identity.cert.encode())
    blob[10] ^= 0x01
    with pytest.raises(CredentialError):
        verify_certificate(bytes(blob), ca.public_bytes)


def _handshake(ca, initiator_identity, responder_identity):
    initiator_nonce = b"\x0f" * 16
    init = HandshakeInitiator(initiator_identity, ca.public_bytes, initiator_nonce, b"\x31" * 32)
    resp = HandshakeResponder(responder_identity, initiator_nonce, b"\x32" * 32, b"\x33" * 16)
    accept = Fields.decode(encode_fields(resp.accept_fields()))
    cert, confirm, chan_i = init.process_accept(accept, PeerRole.CONTROLLER)
    confirm_fields = Fields.decode(encode_fields(confirm))
    initiator_cert = verify_certificate(confirm_fields.need(F.CERT), ca.public_bytes)
    chan_r = resp.finish(initiator_cert, confirm_fields.need(F.EPH_PUB), confirm_fields.need(F.SIG))
    return chan_i, chan_r


def test_handshake_establishes_matching_channels(ca, client_identity, controller_identity):
    chan_i, chan_r = _handshake(ca, client_identity, controller_identity)
    blob = chan_i.seal(0x10, b"payload-one")
    assert chan_r.open_blob(blob) == (0x10, b"payload-one")
    reply = chan_r.seal(0x11, b"payload-two")
    assert chan_i.open_blob(reply) == (0x11, b"payload-two")


def test_channel_frames_ordered_and_authenticated(ca, client_identity, controller_identity):
    chan_i, chan_r = _handshake(ca, client_identity, controller_identity)
    first = chan_i.seal(1, b"a")
    second = chan_i.seal(2, b"b")
    # out-of-order delivery fails (sequence numbers are the nonces)
    with pytest.raises(CredentialError):
        chan_r.open_blob(second)


def test_channel_rejects_tampered_blob(ca, client_identity, controller_identity):
    chan_i, chan_r = _handshake(ca, client_identity, controller_identity)
    blob = bytearray(chan_i.seal(1, b"payload"))
    blob[0] ^= 0xFF
    with pytest.raises(CredentialError):
        chan_r.open_blob(bytes(blob))


def test_accept_signature_binds_initiator_nonce(ca, client_identity, controller_identity):
    resp = HandshakeResponder(controller_identity, b"\x0f" * 16, b"\x32" * 32, b"\x33" * 16)
    accept = Fields.decode(encode_fields(resp.accept_fields()))
    # an initiator with a different first-contact nonce must reject the accept
    init = HandshakeInitiator(client_identity, ca.public_bytes, b"\x0e" * 16, b"\x31" * 32)
    with pytest.raises(CredentialError):
        init.process_accept(accept, PeerRole.CONTROLLER)


def test_confirm_signature_checked(ca, client_identity, controller_identity):
    initiator_nonce = b"\x0f" * 16
    init = HandshakeInitiator(client_identity, ca.public_bytes, initiator_nonce, b"\x31" * 32)
    resp = HandshakeResponder(controller_identity, initiator_nonce, b"\x32" * 32, b"\x33" * 16)
    accept = Fields.decode(encode_fields(resp.accept_fields()))
    _, confirm, _ = init.process_accept(accept, PeerRole.CONTROLLER)
    fields = Fields.decode(encode_fields(confirm))
    cert = verify_certificate(fields.need(F.CERT), ca.public_bytes)
    with pytest.raises(CredentialError):
        resp.finish(cert, fields.need(F.EPH_PUB), b"\x00" * 64)


def _confirmed(ca, initiator_identity, responder_identity, kind=Kind.LOGIN_REQUEST):
    """Run the handshake through the frame-level halves: returns the responder,
    the decoded confirm frame and the initiator's channel."""
    init = HandshakeInitiator(initiator_identity, ca.public_bytes, b"\x0f" * 16, b"\x31" * 32)
    resp = HandshakeResponder(responder_identity, b"\x0f" * 16, b"\x32" * 32, b"\x33" * 16)
    frame, chan_i = init.confirm(Fields.decode(encode_fields(resp.accept_fields())), PeerRole.CONTROLLER, kind)
    frame_kind, fields = decode_frame(frame)
    assert frame_kind == kind
    return resp, fields, chan_i


def test_hello_names_the_subject(client_identity, ca):
    init = HandshakeInitiator(client_identity, ca.public_bytes, b"\x0f" * 16, b"\x31" * 32)
    kind, fields = decode_frame(init.hello(b"\xaa" * 16))
    assert kind == Kind.CHANNEL_HELLO
    assert fields.need(F.SUBJECT_ID) == b"\xaa" * 16


def test_confirm_frame_opens_and_secure_frames_round_trip(ca, client_identity, controller_identity):
    resp, fields, chan_i = _confirmed(ca, client_identity, controller_identity)
    cert, chan_r = resp.open_confirm(fields, ca.public_bytes, PeerRole.CLIENT, Kind.LOGIN_REQUEST)
    assert cert.subject_id == client_identity.cert.subject_id
    kind, secure = decode_frame(chan_r.frame(Kind.LOGIN_RESPONSE, [(F.SESSION, b"s" * 16)]))
    assert kind == Kind.SECURE
    inner_kind, inner = chan_i.open_frame(secure)
    assert inner_kind == Kind.LOGIN_RESPONSE and inner.need(F.SESSION) == b"s" * 16


def test_open_confirm_checks_role_and_body_kind(ca, client_identity, controller_identity):
    resp, fields, _ = _confirmed(ca, client_identity, controller_identity)
    with pytest.raises(CredentialError):
        resp.open_confirm(fields, ca.public_bytes, PeerRole.GATEWAY, Kind.LOGIN_REQUEST)
    resp, fields, _ = _confirmed(ca, client_identity, controller_identity)
    with pytest.raises(CredentialError):
        resp.open_confirm(fields, ca.public_bytes, PeerRole.CLIENT, Kind.AH_REGISTER)


def test_open_confirm_checks_body_subject(ca, client_identity, controller_identity):
    init = HandshakeInitiator(client_identity, ca.public_bytes, b"\x0f" * 16, b"\x31" * 32)
    resp = HandshakeResponder(controller_identity, b"\x0f" * 16, b"\x32" * 32, b"\x33" * 16)
    _, confirm, chan_i = init.process_accept(Fields.decode(encode_fields(resp.accept_fields())), PeerRole.CONTROLLER)
    # a validly signed confirm whose sealed body names someone else
    body = chan_i.seal(Kind.LOGIN_REQUEST, encode_fields([(F.SUBJECT_ID, b"\x99" * 16)]))
    _, fields = decode_frame(encode_frame(Kind.LOGIN_REQUEST, confirm + [(F.BODY, body)]))
    with pytest.raises(CredentialError):
        resp.open_confirm(fields, ca.public_bytes, PeerRole.CLIENT, Kind.LOGIN_REQUEST)


def test_validation_signature(ca, client_identity):
    challenge = b"\x44" * 16
    sig = sign_validation(client_identity, challenge)
    cert = verify_certificate(client_identity.cert.encode(), ca.public_bytes)
    assert verify_validation(cert, challenge, sig)
    assert not verify_validation(cert, b"\x45" * 16, sig)
    assert not verify_validation(cert, challenge, bytes(64))
