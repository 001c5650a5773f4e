#!/usr/bin/env python3
"""Record perimbench medians in BENCH_perimbench.json.

    python3 benchmarks/record.py [--seeds 1 2 3] [--parent DIR] [--note TEXT] [--out BENCH_perimbench.json]

Runs ``perimbench/run.py`` of this repository once per seed on each gated
workload (``auth_churn`` and ``flood_mix``) and appends one entry to the
output file. An entry holds the commit (and whether tracked files differ
from it), the machine facts run.py reports (nproc, Python,
``cryptography``), every run's outcome, and per metric the values, their
median and quartiles: the gated metrics of ``BENCHMARK.json`` in ``gated``
and the ungated user-visible numbers in ``outcomes``.

``--parent DIR`` names a checkout of the parent commit (for example a
``git clone`` checked out at it). Its runs alternate with this
repository's: for each seed and workload both run once, the parent first on
every other seed, so a slow spell of a shared machine lands on both sides.
A parent entry and a change entry are appended, and a summary gives per
gated metric and workload both medians, the parent's interquartile range,
and in how many pairs the change read lower.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import re
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("auth_churn", "flood_mix")
# run.py's report lines: "  name      12.3456 unit"
METRIC_LINE = re.compile(r"^  (\w+)\s+(-?\d+(?:\.\d+)?) (\S+)$")


def run_once(checkout: str, workload: str, seed: int) -> dict:
    cmd = [sys.executable, "perimbench/run.py", "--workload", workload, "--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"{checkout}: {workload} seed {seed} gave no result:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    meta = next(json.loads(line[len("run: "):]) for line in lines if line.startswith("run: "))
    outcomes = {}
    for line in lines:
        match = METRIC_LINE.match(line)
        if match and match[1] not in result["metrics"]:
            outcomes[match[1]] = {"value": float(match[2]), "unit": match[3]}
    return {"meta": meta, "result": result, "outcomes": outcomes}


def summarize(values: list[float]) -> dict:
    values = [round(v, 4) for v in values]  # run.py's report prints four decimals
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def block(samples: list[dict]) -> dict:
    """``samples``: one ``{name: {"value", "unit"}}`` per run."""
    return {
        name: {"unit": metric["unit"], **summarize([s[name]["value"] for s in samples if name in s])}
        for name, metric in samples[0].items()
    }


def dirty(checkout: str) -> bool | None:
    try:
        proc = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"], cwd=checkout,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return bool(proc.stdout.strip()) if proc.returncode == 0 else None


def entry(checkout: str, role: str, seeds: list[int], runs: dict[str, list[dict]], note: str) -> dict:
    meta = runs[WORKLOADS[0]][0]["meta"]
    workloads = {}
    for workload, done in runs.items():
        workloads[workload] = {
            "runs": [{"seed": s, **{k: r["result"][k] for k in ("correct", "attempted", "failed")}}
                     for s, r in zip(seeds, done)],
            "gated": block([r["result"]["metrics"] for r in done]),
            "outcomes": block([r["outcomes"] for r in done]),
        }
    return {
        "commit": meta["commit"],
        "dirty": dirty(checkout),
        "role": role,
        "note": note,
        "recorded": datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "machine": {k: meta[k] for k in ("nproc", "python", "cryptography")},
        "seeds": seeds,
        "workloads": workloads,
    }


def print_pairs(parent: dict, change: dict) -> None:
    for workload, side in change["workloads"].items():
        for name, metric in side["gated"].items():
            base = parent["workloads"][workload]["gated"][name]
            wins = sum(c < p for p, c in zip(base["values"], metric["values"]))
            print(f"{workload:10s} {name:16s} parent {base['median']:9.3f} (IQR {base['q3'] - base['q1']:.3f})"
                  f"  change {metric['median']:9.3f}  change lower in {wins} of {len(metric['values'])} pairs")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--out", default=os.path.join(ROOT, "BENCH_perimbench.json"))
    parser.add_argument("--parent", help="checkout of the parent commit to run in alternation")
    parser.add_argument("--note", default="", help="free text stored with the entries")
    args = parser.parse_args(argv)

    roles = {os.path.abspath(args.parent): "parent", ROOT: "change"} if args.parent else {ROOT: "baseline"}
    checkouts = list(roles)
    runs = {c: {w: [] for w in WORKLOADS} for c in checkouts}
    for i, seed in enumerate(args.seeds):
        for workload in WORKLOADS:
            for checkout in checkouts[::-1] if i % 2 else checkouts:
                done = run_once(checkout, workload, seed)
                runs[checkout][workload].append(done)
                print(f"seed {seed} {workload} {checkout}: "
                      + json.dumps({k: done["result"][k] for k in ("correct", "failed", "metrics")}), flush=True)
    entries = [entry(c, roles[c], args.seeds, runs[c], args.note) for c in checkouts]
    history = []
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            history = json.load(fh)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(history + entries, fh, indent=1)
        fh.write("\n")
    if args.parent:
        print_pairs(*entries)
    return 0


if __name__ == "__main__":
    sys.exit(main())
