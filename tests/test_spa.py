"""First-contact authorization packet: format, verdicts, replay, forgery."""

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdperim import spa

NOW = 1_000_000.0


def fresh_store(key):
    store = spa.SpaKeyStore()
    store.register(key)
    return store


class TestWireFormat:
    def test_packet_is_90_bytes(self, client_key):
        pkt = spa.build_spa(client_key, 1, spa.TargetRole.CONTROLLER, NOW)
        assert len(pkt.encode()) == 90

    def test_layout_fields(self, client_key):
        pkt = spa.build_spa(client_key, 7, spa.TargetRole.GATEWAY, NOW, nonce=b"n" * 16)
        wire = pkt.encode()
        assert wire[:4] == b"SDP1"
        assert wire[4] == 1  # version
        assert wire[5] == 2  # gateway role
        assert wire[6:22] == client_key.client_id
        assert int.from_bytes(wire[22:30], "big") == 7
        assert int.from_bytes(wire[30:38], "big") == int(NOW)
        assert wire[38:54] == b"n" * 16
        assert wire[54:58] == b"\x00" * 4
        assert len(wire[58:]) == 32

    def test_parse_round_trip(self, client_key):
        pkt = spa.build_spa(client_key, 3, spa.TargetRole.CONTROLLER, NOW)
        parsed = spa.parse_spa(pkt.encode())
        assert parsed == pkt

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda w: w[:89],  # short datagram
            lambda w: w + b"\x00",  # long datagram
            lambda w: b"XXXX" + w[4:],  # bad magic
            lambda w: w[:4] + b"\x02" + w[5:],  # unknown version
            lambda w: w[:5] + b"\x09" + w[6:],  # unknown role
        ],
    )
    def test_parse_rejects_malformed(self, client_key, mutate):
        wire = spa.build_spa(client_key, 1, spa.TargetRole.CONTROLLER, NOW).encode()
        assert spa.parse_spa(mutate(wire)) is None


class TestVerdicts:
    def test_round_trip_accept(self, client_key):
        store = fresh_store(client_key)
        pkt = spa.build_spa(client_key, 1, spa.TargetRole.CONTROLLER, NOW)
        assert store.verify(pkt, NOW) is spa.SpaVerdict.ACCEPT

    def test_duplicate_delivery_is_replay(self, client_key):
        store = fresh_store(client_key)
        pkt = spa.build_spa(client_key, 5, spa.TargetRole.CONTROLLER, NOW)
        assert store.verify(pkt, NOW) is spa.SpaVerdict.ACCEPT
        assert store.verify(pkt, NOW) is spa.SpaVerdict.REPLAY_DETECTED

    def test_lower_counter_after_accept_is_replay(self, client_key):
        store = fresh_store(client_key)
        assert store.verify(spa.build_spa(client_key, 5, spa.TargetRole.CONTROLLER, NOW), NOW) is spa.SpaVerdict.ACCEPT
        old = spa.build_spa(client_key, 1, spa.TargetRole.CONTROLLER, NOW)
        assert store.verify(old, NOW) is spa.SpaVerdict.REPLAY_DETECTED

    def test_stale_timestamp(self, client_key):
        store = fresh_store(client_key)
        pkt = spa.build_spa(client_key, 1, spa.TargetRole.CONTROLLER, NOW - 3600)
        assert store.verify(pkt, NOW) is spa.SpaVerdict.STALE_TIMESTAMP

    def test_skew_window_boundary(self, client_key):
        store = fresh_store(client_key)
        ok = spa.build_spa(client_key, 1, spa.TargetRole.CONTROLLER, NOW - 30)
        assert store.verify(ok, NOW) is spa.SpaVerdict.ACCEPT
        late = spa.build_spa(client_key, 2, spa.TargetRole.CONTROLLER, NOW - 31)
        assert store.verify(late, NOW) is spa.SpaVerdict.STALE_TIMESTAMP

    def test_unknown_client(self, client_key):
        store = spa.SpaKeyStore()
        pkt = spa.build_spa(client_key, 1, spa.TargetRole.CONTROLLER, NOW)
        assert store.verify(pkt, NOW) is spa.SpaVerdict.UNKNOWN_CLIENT

    def test_wrong_key_is_bad_tag(self, client_key):
        store = fresh_store(client_key)
        forged_key = spa.SpaKey(client_key.client_id, b"\xee" * 32)
        pkt = spa.build_spa(forged_key, 1, spa.TargetRole.CONTROLLER, NOW)
        assert store.verify(pkt, NOW) is spa.SpaVerdict.BAD_TAG

    def test_counter_overflow_requires_rotation(self, client_key):
        with pytest.raises(spa.KeyRotationRequired):
            spa.build_spa(client_key, 2**64 - 1, spa.TargetRole.CONTROLLER, NOW)


def test_single_byte_flip_oracle_rejects_everything(client_key):
    """Exhaustive: every single-byte corruption of a valid packet, at every
    position and to every other value, must fail verification."""
    store = fresh_store(client_key)
    wire = bytearray(spa.build_spa(client_key, 1, spa.TargetRole.CONTROLLER, NOW).encode())
    rejected = 0
    total = 0
    for pos in range(len(wire)):
        original = wire[pos]
        for delta in range(1, 256):
            wire[pos] = original ^ delta
            total += 1
            pkt = spa.parse_spa(bytes(wire))
            if pkt is None or store.verify(pkt, NOW) is not spa.SpaVerdict.ACCEPT:
                rejected += 1
        wire[pos] = original
    assert total == 90 * 255
    assert rejected == total


def test_auth_tag_flips_report_bad_tag(client_key):
    store = fresh_store(client_key)
    wire = bytearray(spa.build_spa(client_key, 1, spa.TargetRole.CONTROLLER, NOW).encode())
    for pos in range(58, 90):
        wire[pos] ^= 0x5A
        pkt = spa.parse_spa(bytes(wire))
        assert store.verify(pkt, NOW) is spa.SpaVerdict.BAD_TAG
        wire[pos] ^= 0x5A


class TestConcurrency:
    def test_same_counter_accepts_at_most_one(self, client_key):
        store = fresh_store(client_key)
        pkt = spa.build_spa(client_key, 9, spa.TargetRole.CONTROLLER, NOW)
        barrier = threading.Barrier(8)
        verdicts = []
        lock = threading.Lock()

        def attempt():
            barrier.wait()
            v = store.verify(pkt, NOW)
            with lock:
                verdicts.append(v)

        threads = [threading.Thread(target=attempt) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert verdicts.count(spa.SpaVerdict.ACCEPT) == 1

    def test_distinct_clients_verify_concurrently(self):
        keys = [spa.SpaKey(bytes([i]) * 16, bytes([i]) * 32) for i in range(1, 9)]
        store = spa.SpaKeyStore()
        for k in keys:
            store.register(k)
        packets = [spa.build_spa(k, 1, spa.TargetRole.CONTROLLER, NOW) for k in keys]
        results = {}
        lock = threading.Lock()

        def attempt(i):
            v = store.verify(packets[i], NOW)
            with lock:
                results[i] = v

        threads = [threading.Thread(target=attempt, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(v is spa.SpaVerdict.ACCEPT for v in results.values())


@given(tag=st.binary(min_size=32, max_size=32))
@settings(max_examples=200)
def test_random_tags_never_accepted(tag):
    key = spa.SpaKey(b"\xaa" * 16, b"\x01" * 32)
    store = fresh_store(key)
    good = spa.build_spa(key, 1, spa.TargetRole.CONTROLLER, NOW)
    forged = spa.SpaPacket(good.client_id, good.counter, good.timestamp, good.target, good.nonce, tag)
    verdict = store.verify(forged, NOW)
    if tag == good.auth_tag:
        assert verdict is spa.SpaVerdict.ACCEPT
    else:
        assert verdict is spa.SpaVerdict.BAD_TAG


@given(order=st.permutations(list(range(8))))
@settings(max_examples=100)
def test_any_delivery_order_accepts_only_increasing_counters(order):
    key = spa.SpaKey(b"\xaa" * 16, b"\x01" * 32)
    store = fresh_store(key)
    packets = [spa.build_spa(key, c + 1, spa.TargetRole.CONTROLLER, NOW) for c in range(8)]
    accepted = []
    for i in order:
        if store.verify(packets[i], NOW) is spa.SpaVerdict.ACCEPT:
            accepted.append(packets[i].counter)
    assert accepted == sorted(accepted)
    assert len(accepted) == len(set(accepted))
    # the first delivered packet is always accepted, so the set is never empty
    assert accepted


# header fields of a 90-byte datagram, each drawn mostly valid and sometimes not
spa_headers = st.fixed_dictionaries(
    {
        "magic": st.just(spa.MAGIC) | st.binary(min_size=4, max_size=4),
        "version": st.just(spa.VERSION) | st.integers(0, 255),
        "role": st.sampled_from([int(r) for r in spa.TargetRole]) | st.integers(0, 255),
        "reserved": st.just(b"\x00" * 4) | st.binary(min_size=4, max_size=4),
    }
)
spa_bodies = st.tuples(
    st.binary(min_size=spa.CLIENT_ID_LEN, max_size=spa.CLIENT_ID_LEN),
    st.integers(0, 2**64 - 1),
    st.integers(0, 2**64 - 1),
    st.binary(min_size=spa.NONCE_LEN, max_size=spa.NONCE_LEN),
    st.binary(min_size=spa.TAG_LEN, max_size=spa.TAG_LEN),
)


def spa_wire(head, body):
    client_id, counter, timestamp, nonce, tag = body
    layout = spa._LAYOUT.pack(head["magic"], head["version"], head["role"], client_id, counter, timestamp, nonce, head["reserved"])
    return layout + tag


@given(data=st.binary(max_size=2 * spa.PACKET_LEN) | st.builds(spa_wire, spa_headers, spa_bodies))
@settings(max_examples=300, derandomize=True)
def test_parse_is_none_or_round_trips(data):
    pkt = spa.parse_spa(data)
    assert pkt is None or pkt.encode() == data


@given(head=spa_headers, body=spa_bodies)
@settings(max_examples=300, derandomize=True)
def test_parse_rejects_exactly_a_bad_header(head, body):
    pkt = spa.parse_spa(spa_wire(head, body))
    well_formed = (
        head["magic"] == spa.MAGIC
        and head["version"] == spa.VERSION
        and head["role"] in {int(r) for r in spa.TargetRole}
        and head["reserved"] == b"\x00" * 4
    )
    assert (pkt is not None) == well_formed
    if pkt is not None:
        assert pkt.target is spa.TargetRole(head["role"])
        assert (pkt.client_id, pkt.counter, pkt.timestamp, pkt.nonce, pkt.auth_tag) == body


@given(
    verdict=st.sampled_from(spa.SpaVerdict),
    counter=st.integers(1, 2**63),
    skew=st.integers(-30, 30),
    stale_by=st.integers(31, 10**6) | st.integers(-(10**6), -31),
    target=st.sampled_from(spa.TargetRole),
    nonce=st.binary(min_size=spa.NONCE_LEN, max_size=spa.NONCE_LEN),
)
@settings(max_examples=200, derandomize=True)
def test_verdicts_of_parsed_packets(verdict, counter, skew, stale_by, target, nonce):
    key = spa.SpaKey(b"\xaa" * 16, b"\x01" * 32)
    store = fresh_store(key)
    signer, ts = key, NOW + skew
    if verdict is spa.SpaVerdict.BAD_TAG:
        signer = spa.SpaKey(key.client_id, b"\x02" * 32)
    elif verdict is spa.SpaVerdict.UNKNOWN_CLIENT:
        signer = spa.SpaKey(b"\xbb" * 16, key.secret)
    elif verdict is spa.SpaVerdict.STALE_TIMESTAMP:
        ts = NOW + stale_by
    pkt = spa.parse_spa(spa.build_spa(signer, counter, target, ts, nonce).encode())
    if verdict is spa.SpaVerdict.REPLAY_DETECTED:
        assert store.verify(pkt, NOW) is spa.SpaVerdict.ACCEPT
    assert store.verify(pkt, NOW) is verdict


class TestCounterSource:
    def test_monotone_and_restart_safe(self):
        src = spa.SpaCounterSource()
        a = src.next(NOW)
        b = src.next(NOW)
        assert b > a
        restarted = spa.SpaCounterSource()  # state lost
        c = restarted.next(NOW + 1)
        assert c > b  # time-derived floor prevents reuse


def test_secret_never_in_repr(client_key):
    assert "01" * 8 not in repr(client_key)
    assert "redacted" in repr(client_key)


def test_key_length_enforced():
    with pytest.raises(ValueError):
        spa.SpaKey(b"short", b"\x01" * 32)
    with pytest.raises(ValueError):
        spa.SpaKey(b"\xaa" * 16, b"\x01" * 31)
