"""Filter core semantics: rule table, connection tracking, work accounting,
thread safety, and invariants under randomized operation streams."""

import random
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdperim.gateway.filtering import DROP, FORWARD, FilterEngine

CLIENT_A = b"\xaa" * 16
CLIENT_B = b"\xbb" * 16


# The single "python" id keeps the test names the suite has always reported.
@pytest.fixture(params=["python"])
def engine(request):
    return FilterEngine()


class TestRules:
    def test_install_and_match(self, engine):
        rule_id, expires = engine.install_rule(CLIENT_A, "1.2.3.4", "svc", 4444, now=100.0, ttl=60.0)
        assert expires == 160.0
        verdict, reason = engine.verdict_initiation("1.2.3.4", 5555, 4444, now=120.0)
        assert (verdict, reason) == (FORWARD, "rule-match")

    def test_default_deny(self, engine):
        verdict, reason = engine.verdict_initiation("9.9.9.9", 1, 4444, now=0.0)
        assert (verdict, reason) == (DROP, "no-rule")

    def test_refresh_not_duplicate(self, engine):
        rid1, _ = engine.install_rule(CLIENT_A, "1.2.3.4", "svc", 4444, now=100.0, ttl=60.0)
        rid2, expires = engine.install_rule(CLIENT_A, "1.2.3.4", "svc", 4444, now=110.0, ttl=60.0)
        assert rid1 == rid2
        assert expires == 170.0
        assert engine.rule_count() == 1

    def test_refresh_moves_source(self, engine):
        engine.install_rule(CLIENT_A, "1.2.3.4", "svc", 4444, now=100.0, ttl=60.0)
        engine.install_rule(CLIENT_A, "5.6.7.8", "svc", 4444, now=110.0, ttl=60.0)
        assert engine.verdict_initiation("1.2.3.4", 1, 4444, now=120.0)[0] == DROP
        assert engine.verdict_initiation("5.6.7.8", 1, 4444, now=120.0)[0] == FORWARD

    def test_expiry_boundary_is_closed(self, engine):
        engine.install_rule(CLIENT_A, "1.2.3.4", "svc", 4444, now=100.0, ttl=60.0)
        assert engine.expire_rules(159.999) == 0
        assert engine.expire_rules(160.0) == 1
        assert engine.rule_count() == 0

    def test_lazy_expiry_on_arrival(self, engine):
        engine.install_rule(CLIENT_A, "1.2.3.4", "svc", 4444, now=100.0, ttl=60.0)
        verdict, reason = engine.verdict_initiation("1.2.3.4", 1, 4444, now=160.0)
        assert (verdict, reason) == (DROP, "rule-expired")
        assert engine.rule_count() == 0

    def test_expire_empty_table(self, engine):
        assert engine.expire_rules(1e9) == 0

    def test_randomized_expiry_matches_oracle(self, engine):
        rng = random.Random(99)
        expiries = {}
        for i in range(100):
            client = bytes([i]) + b"\x00" * 15
            ttl = rng.uniform(1.0, 100.0)
            engine.install_rule(client, f"10.0.0.{i}", f"svc{i}", 4444, now=0.0, ttl=ttl)
            expiries[i] = ttl
        cutoff = 50.0
        expected = sum(1 for ttl in expiries.values() if ttl <= cutoff)
        assert engine.expire_rules(cutoff) == expected
        assert engine.rule_count() == 100 - expected


class TestConnTrack:
    def test_entry_survives_rule_expiry(self, engine):
        engine.install_rule(CLIENT_A, "1.2.3.4", "svc", 4444, now=100.0, ttl=10.0)
        engine.verdict_initiation("1.2.3.4", 5555, 4444, now=101.0)
        assert engine.expire_rules(110.0) == 1
        verdict, reason = engine.verdict_segment("1.2.3.4", 5555, 4444, now=200.0)
        assert (verdict, reason) == (FORWARD, "conntrack")

    def test_new_initiation_after_expiry_dropped(self, engine):
        engine.install_rule(CLIENT_A, "1.2.3.4", "svc", 4444, now=100.0, ttl=10.0)
        engine.verdict_initiation("1.2.3.4", 5555, 4444, now=101.0)
        engine.expire_rules(110.0)
        assert engine.verdict_initiation("1.2.3.4", 5556, 4444, now=111.0)[0] == DROP

    def test_no_entry_without_active_rule(self, engine):
        assert engine.verdict_segment("1.2.3.4", 5555, 4444, now=0.0)[0] == DROP
        assert engine.conntrack_count() == 0

    def test_idle_timeout(self, engine):
        engine.install_rule(CLIENT_A, "1.2.3.4", "svc", 4444, now=0.0, ttl=10.0)
        engine.verdict_initiation("1.2.3.4", 5555, 4444, now=1.0)
        engine.verdict_segment("1.2.3.4", 5555, 4444, now=50.0)  # touch
        assert engine.expire_idle(100.0, idle_timeout=300.0) == 0
        assert engine.expire_idle(350.0, idle_timeout=300.0) == 1
        assert engine.conntrack_count() == 0

    def test_touch_refreshes_idle_clock(self, engine):
        engine.install_rule(CLIENT_A, "1.2.3.4", "svc", 4444, now=0.0, ttl=10.0)
        engine.verdict_initiation("1.2.3.4", 5555, 4444, now=1.0)
        assert engine.touch("1.2.3.4", 5555, 4444, now=200.0)
        assert engine.expire_idle(400.0, idle_timeout=300.0) == 0

    def test_sever_client_kills_flows_and_rules(self, engine):
        engine.install_rule(CLIENT_A, "1.2.3.4", "svc", 4444, now=0.0, ttl=60.0)
        engine.install_rule(CLIENT_B, "5.6.7.8", "svc2", 4445, now=0.0, ttl=60.0)
        engine.verdict_initiation("1.2.3.4", 5555, 4444, now=1.0)
        engine.verdict_initiation("5.6.7.8", 5555, 4445, now=1.0)
        rules, flows = engine.sever_client(CLIENT_A)
        assert rules == 1
        assert flows == [("1.2.3.4", 5555, 4444)]
        assert engine.conntrack_count() == 1
        assert engine.verdict_segment("5.6.7.8", 5555, 4445, now=2.0)[0] == FORWARD


class TestWorkAccounting:
    def test_constant_work_per_verdict(self, engine):
        engine.install_rule(CLIENT_A, "1.2.3.4", "svc", 4444, now=0.0, ttl=60.0)
        before = engine.work_units
        verdicts = {engine.verdict_initiation(f"10.9.{i % 256}.{i // 256}", i, 4444, now=1.0) for i in range(1000)}
        assert engine.work_units - before == 1000
        assert verdicts == {(DROP, "no-rule")}


def test_concurrent_mutation_and_verdicts(engine):
    engine.install_rule(CLIENT_A, "1.2.3.4", "svc", 4444, now=0.0, ttl=1000.0)
    stop = threading.Event()
    errors = []

    def churn():
        i = 0
        while not stop.is_set():
            t = float(i % 50)  # stays far below the main rule's expiry
            engine.install_rule(CLIENT_B, f"10.0.0.{i % 250}", "svc2", 4445, now=t, ttl=5.0)
            engine.expire_rules(t)
            i += 1

    def verdicts():
        try:
            for i in range(5000):
                v, _ = engine.verdict_initiation("1.2.3.4", i % 60000, 4444, now=1.0)
                if v != FORWARD:
                    errors.append(i)
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    churner = threading.Thread(target=churn)
    worker = threading.Thread(target=verdicts)
    churner.start()
    worker.start()
    worker.join()
    stop.set()
    churner.join()
    assert errors == []


@given(
    steps=st.lists(
        st.tuples(st.integers(0, 4), st.integers(0, 5), st.integers(0, 3), st.floats(0, 100)),
        min_size=1,
        max_size=60,
    )
)
@settings(max_examples=100, deadline=None)
def test_random_workloads_keep_invariants(steps):
    """Drive one engine through a random operation stream and check the
    accounting and table invariants after every step."""
    engine = FilterEngine()
    installed = set()
    verdicts = 0
    for op, a, b, t in steps:
        client = bytes([a]) * 16
        ip = f"10.0.0.{a}"
        if op == 0:
            engine.install_rule(client, ip, f"svc{b}", 4444, now=t, ttl=(b + 1) * 7.0)
            installed.add((client, f"svc{b}"))
        elif op == 1:
            verdicts += 1
            verdict, _ = engine.verdict_initiation(ip, 1000 + b, 4444, now=t)
            if verdict == FORWARD:
                assert engine.conntrack_client(ip, 1000 + b, 4444) == client
        elif op == 2:
            verdicts += 1
            engine.verdict_segment(ip, 1000 + b, 4444, now=t)
        elif op == 3:
            engine.expire_rules(t)
        else:
            engine.expire_idle(t, idle_timeout=25.0)
        assert engine.work_units == verdicts
        assert engine.rule_count() <= len(installed)
