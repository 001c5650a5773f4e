import random

import pytest
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

from sdperim import spa
from sdperim.credentials import CertificateAuthority, Identity, PeerRole

CLIENT_ID = bytes.fromhex("aa" * 16)
GATEWAY_ID = bytes.fromhex("bb" * 16)
CONTROLLER_ID = bytes.fromhex("cc" * 16)


@pytest.fixture
def rng():
    return random.Random(1234)


@pytest.fixture
def ca():
    return CertificateAuthority.from_seed(b"\x11" * 32)


@pytest.fixture
def client_key():
    return spa.SpaKey(CLIENT_ID, b"\x01" * 32)


def issue_identity(ca, subject_id, role):
    key = Ed25519PrivateKey.generate()
    return Identity(ca.issue(subject_id, role, key.public_key().public_bytes_raw()), key)


@pytest.fixture
def client_identity(ca):
    return issue_identity(ca, CLIENT_ID, PeerRole.CLIENT)


@pytest.fixture
def controller_identity(ca):
    return issue_identity(ca, CONTROLLER_ID, PeerRole.CONTROLLER)
