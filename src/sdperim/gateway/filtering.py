"""Gateway filter core: default-deny rule table plus connection tracker.

``FilterEngine`` decides every packet's verdict at the gateway. One lock
guards both tables, so rule writes and verdicts may come from different
threads.

Semantics:

- A rule is Active iff now < expires_at (the boundary instant is expired).
- At most one rule per (client id, service id); reinstalling refreshes the
  expiry and source instead of adding a second rule.
- An initiation is forwarded iff an Active rule matches (source ip, dest
  port); forwarding creates a tracked entry that outlives the rule.
- A non-initiation segment is forwarded iff its flow is tracked; tracked
  entries die only on close, idle timeout, or revocation severance.
- Every verdict costs a constant number of table probes; ``work_units``
  counts them so load experiments can sample per-segment filter work.
"""

from __future__ import annotations

import threading

FORWARD = 1
DROP = 0

BACKEND = "python"  # read by the benchmark's run metadata (perimbench/run.py)


class FilterEngine:
    def __init__(self):
        self._lock = threading.Lock()
        self._rules = {}  # rule_id -> [client_id, src_ip, service_id, public_port, expires_at]
        self._by_source = {}  # (src_ip, public_port) -> rule_id
        self._by_owner = {}  # (client_id, service_id) -> rule_id
        self._conntrack = {}  # (src_ip, src_port, dst_port) -> [last_activity, client_id]
        self._next_rule_id = 1
        self.work_units = 0

    # -- rule table ------------------------------------------------------

    def install_rule(self, client_id, src_ip, service_id, public_port, now, ttl):
        """Install or refresh the (client, service) rule; returns (rule id,
        expires_at)."""
        with self._lock:
            expires_at = now + ttl
            owner = (client_id, service_id)
            rule_id = self._by_owner.get(owner)
            if rule_id is not None:
                rule = self._rules[rule_id]
                old_src = (rule[1], rule[3])
                if old_src != (src_ip, public_port):
                    self._by_source.pop(old_src, None)
                rule[1] = src_ip
                rule[3] = public_port
                rule[4] = expires_at
            else:
                rule_id = self._next_rule_id
                self._next_rule_id += 1
                self._rules[rule_id] = [client_id, src_ip, service_id, public_port, expires_at]
                self._by_owner[owner] = rule_id
            self._by_source[(src_ip, public_port)] = rule_id
            return rule_id, expires_at

    def _drop_rule(self, rule_id):
        rule = self._rules.pop(rule_id, None)
        if rule is None:
            return False
        self._by_owner.pop((rule[0], rule[2]), None)
        if self._by_source.get((rule[1], rule[3])) == rule_id:
            del self._by_source[(rule[1], rule[3])]
        return True

    def expire_rules(self, now):
        """Remove every rule with expires_at <= now; tracked entries are left
        untouched. Returns the number removed."""
        with self._lock:
            doomed = [rid for rid, rule in self._rules.items() if rule[4] <= now]
            for rid in doomed:
                self._drop_rule(rid)
            return len(doomed)

    def sever_client(self, client_id):
        """Revocation: remove the client's rules and kill its tracked flows.
        Returns (rules removed, flows severed)."""
        with self._lock:
            rules = [rid for rid, rule in self._rules.items() if rule[0] == client_id]
            for rid in rules:
                self._drop_rule(rid)
            flows = [k for k, e in self._conntrack.items() if e[1] == client_id]
            for k in flows:
                del self._conntrack[k]
            return len(rules), flows

    def rule_count(self):
        with self._lock:
            return len(self._rules)

    def admitted(self):
        """Public port -> the frozenset of source hosts an initiation to it may
        match a rule from; a port no rule names is absent."""
        with self._lock:
            hosts = {}
            for src_ip, port in self._by_source:
                hosts.setdefault(port, set()).add(src_ip)
            return {port: frozenset(ips) for port, ips in hosts.items()}

    # -- verdicts --------------------------------------------------------

    def verdict_initiation(self, src_ip, src_port, dst_port, now):
        """Connection-initiation segment: forward iff an Active rule matches;
        on forward a tracked entry is created. Returns (verdict, reason)."""
        with self._lock:
            self.work_units += 1
            rid = self._by_source.get((src_ip, dst_port))
            if rid is None:
                return DROP, "no-rule"
            rule = self._rules[rid]
            if rule[4] <= now:
                self._drop_rule(rid)
                return DROP, "rule-expired"
            self._conntrack[(src_ip, src_port, dst_port)] = [now, rule[0]]
            return FORWARD, "rule-match"

    def verdict_segment(self, src_ip, src_port, dst_port, now):
        """Mid-flow segment: forward iff tracked; touches last_activity."""
        with self._lock:
            self.work_units += 1
            entry = self._conntrack.get((src_ip, src_port, dst_port))
            if entry is None:
                return DROP, "no-conntrack"
            entry[0] = now
            return FORWARD, "conntrack"

    # -- connection tracking ----------------------------------------------

    def touch(self, src_ip, src_port, dst_port, now):
        with self._lock:
            entry = self._conntrack.get((src_ip, src_port, dst_port))
            if entry is None:
                return False
            entry[0] = now
            return True

    def conntrack_remove(self, src_ip, src_port, dst_port):
        with self._lock:
            return self._conntrack.pop((src_ip, src_port, dst_port), None) is not None

    def expire_idle(self, now, idle_timeout):
        with self._lock:
            doomed = [k for k, e in self._conntrack.items() if now - e[0] >= idle_timeout]
            for k in doomed:
                del self._conntrack[k]
            return len(doomed)

    def conntrack_count(self):
        with self._lock:
            return len(self._conntrack)

    def conntrack_client(self, src_ip, src_port, dst_port):
        with self._lock:
            entry = self._conntrack.get((src_ip, src_port, dst_port))
            return None if entry is None else entry[1]
