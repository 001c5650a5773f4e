#!/usr/bin/env python3
"""Benchmark the gateway's filter engine.

The workload mirrors what the gateway does under flood load: a table of
installed rules, a population of tracked flows, and a firehose of verdicts
that are mostly unauthorized initiations with some legitimate segments mixed
in. Run from the repository root; no install is needed:

    PYTHONPATH=src python benchmarks/bench_filter.py [--segments N]
"""

import argparse
import random
import time

from sdperim.gateway.filtering import FilterEngine


def build_workload(n_rules: int, n_flows: int, n_segments: int, seed: int = 1):
    rng = random.Random(seed)
    rules = [(bytes([i % 250, i // 250]) + bytes(14), f"10.1.{i % 250}.{i // 250}", f"svc{i}", 4444) for i in range(n_rules)]
    flows = [(rules[rng.randrange(n_rules)][1], 1024 + i, 4444) for i in range(n_flows)]
    segments = []
    for i in range(n_segments):
        roll = rng.random()
        if roll < 0.80:  # unauthorized initiation (the flood)
            segments.append(("init", f"10.66.{rng.randrange(250)}.{rng.randrange(250)}", rng.randrange(1024, 60000), 4444))
        elif roll < 0.90:  # legitimate initiation
            rule = rules[rng.randrange(n_rules)]
            segments.append(("init", rule[1], rng.randrange(1024, 60000), 4444))
        else:  # tracked-flow segment
            flow = flows[rng.randrange(n_flows)]
            segments.append(("seg", *flow))
    return rules, flows, segments


def run(rules, flows, segments):
    engine = FilterEngine()
    for client, ip, svc, port in rules:
        engine.install_rule(client, ip, svc, port, now=0.0, ttl=1e9)
    for ip, sport, dport in flows:
        engine.verdict_initiation(ip, sport, dport, now=1.0)
    t0 = time.perf_counter()
    for kind, ip, sport, dport in segments:
        if kind == "init":
            engine.verdict_initiation(ip, sport, dport, now=2.0)
        else:
            engine.verdict_segment(ip, sport, dport, now=2.0)
    elapsed = time.perf_counter() - t0
    return elapsed, engine.forwarded, engine.dropped


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rules", type=int, default=200)
    parser.add_argument("--flows", type=int, default=500)
    parser.add_argument("--segments", type=int, default=500_000)
    args = parser.parse_args()

    rules, flows, segments = build_workload(args.rules, args.flows, args.segments)
    elapsed, forwarded, dropped = run(rules, flows, segments)
    print(f"{args.segments / elapsed / 1e6:.2f} M verdicts/s"
          f"  ({elapsed:.3f}s for {args.segments} segments; {forwarded} forwarded, {dropped} dropped)")


if __name__ == "__main__":
    main()
