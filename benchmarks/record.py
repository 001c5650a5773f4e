#!/usr/bin/env python3
"""Record perimbench medians in BENCH_perimbench.json.

    python3 benchmarks/record.py [--seeds 1 2 3] [--parent DIR] [--note TEXT] [--out BENCH_perimbench.json]

Runs ``perimbench/run.py`` of this repository once per seed on each gated
workload (``auth_churn`` and ``flood_mix``) and appends one entry to the
output file. An entry holds the commit (and whether tracked files differ
from it), the machine facts run.py reports (nproc, Python,
``cryptography``), every run's outcome, and per metric the values, their
median and quartiles: the gated metrics of ``BENCHMARK.json`` in ``gated``
and the ungated user-visible numbers in ``outcomes``. A run's outcome names
its exit code, every check run.py reported failed, and the share of the
host's CPU time stolen by the hypervisor while it ran (from ``/proc/stat``;
null where that cannot be read), so a run late on a starved host can be told
from a slow program; a run that printed no result line also keeps the tail
of its standard error, and gives a null in each metric's values instead of
ending the series.

``--parent DIR`` names a checkout of the parent commit (for example a
``git clone`` checked out at it). Its runs alternate with this
repository's: for each seed and workload both run once, the parent first on
every other seed, so a slow spell of a shared machine lands on both sides.
A parent entry and a change entry are appended, and a summary gives per
gated metric and workload both medians, the parent's interquartile range,
in how many pairs the change read better, and two verdicts: ``gain`` when
the change reads better in at least nine tenths of at least ten pairs and
its median beats the parent's by more than the parent's interquartile
range; ``beyond bound`` when its median is worse than the parent's by more
than that metric's ``BENCHMARK.json`` bound, a fraction of the parent
median.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import re
import signal
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("auth_churn", "flood_mix")
# run.py's report lines: "  name      12.3456 unit"
METRIC_LINE = re.compile(r"^  (\w+)\s+(-?\d+(?:\.\d+)?) (\S+)$")


def cpu_times() -> list[int] | None:
    """The host's aggregate CPU times in ticks (``/proc/stat``'s ``cpu`` line:
    user, nice, system, idle, iowait, irq, softirq, steal), or None."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    if len(fields) < 9 or fields[0] != "cpu":
        return None
    return [int(v) for v in fields[1:9]]


def steal_share(before: list[int] | None, after: list[int] | None) -> float | None:
    """Stolen ticks over all ticks between two ``cpu_times`` readings."""
    if before is None or after is None:
        return None
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta)
    return round(delta[7] / total, 4) if total > 0 else None


def run_once(checkout: str, workload: str, seed: int) -> dict:
    """One run.py run: its exit code, failed checks, host steal share,
    machine facts, result line and ungated outcomes. ``result`` is None, and
    ``stderr`` holds the tail of standard error, when the run printed no
    result line."""
    cmd = [sys.executable, "perimbench/run.py", "--workload", workload, "--seed", str(seed)]
    before = cpu_times()
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    steal = steal_share(before, cpu_times())
    lines = proc.stdout.splitlines()
    done = {"exit": proc.returncode, "failed_checks": [], "steal": steal, "meta": None, "result": None, "outcomes": {}}
    for line in lines:
        if line.startswith("run: "):
            done["meta"] = json.loads(line[len("run: "):])
        elif line.startswith("checks: "):
            verdicts = (check.rsplit("=", 1) for check in line[len("checks: "):].split(", "))
            done["failed_checks"] += [name for name, verdict in verdicts if verdict != "ok"]
    if not lines or not lines[-1].startswith("{"):
        done["stderr"] = proc.stderr[-2000:]
        return done
    done["result"] = result = json.loads(lines[-1])
    for line in lines:
        match = METRIC_LINE.match(line)
        if match and match[1] not in result["metrics"]:
            done["outcomes"][match[1]] = {"value": float(match[2]), "unit": match[3]}
    return done


def summarize(values: list[float | None]) -> dict:
    """Median and quartiles of the runs that gave a value; ``values`` keeps
    one entry per run, None where a run gave none."""
    values = [None if v is None else round(v, 4) for v in values]  # run.py's report prints four decimals
    given = [v for v in values if v is not None]
    if len(given) > 1:
        q1, median, q3 = statistics.quantiles(given, n=4, method="inclusive")
    else:
        q1 = median = q3 = given[0] if given else None
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def block(samples: list[dict]) -> dict:
    """``samples``: one ``{name: {"value", "unit"}}`` per run, empty for a run
    that gave no result."""
    units = {name: metric["unit"] for sample in samples for name, metric in sample.items()}
    return {
        name: {"unit": unit, **summarize([s[name]["value"] if name in s else None for s in samples])}
        for name, unit in units.items()
    }


def describe(done: dict) -> str:
    """One run's outcome for the progress lines."""
    steal = "unknown" if done["steal"] is None else f"{done['steal']:.2%}"
    if done["result"] is None:
        last = (done["stderr"].strip().splitlines() or [""])[-1]
        return f"no result (exit {done['exit']}, host steal {steal}): {last}"
    text = json.dumps({k: done["result"][k] for k in ("correct", "failed", "metrics")})
    late = {k: v["value"] for k, v in done["outcomes"].items() if "_late_ms_" in k}
    if done["failed_checks"]:
        text += f" exit {done['exit']}; failed checks: {', '.join(done['failed_checks'])}"
    return text + f"; lateness ms: {late}; host steal {steal}"


def dirty(checkout: str) -> bool | None:
    try:
        proc = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"], cwd=checkout,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return bool(proc.stdout.strip()) if proc.returncode == 0 else None


def run_record(seed: int, done: dict) -> dict:
    record = {"seed": seed, "exit": done["exit"], "failed_checks": done["failed_checks"], "steal": done["steal"]}
    if done["result"] is None:
        return {**record, "stderr": done["stderr"]}
    return {**record, **{k: done["result"][k] for k in ("correct", "attempted", "failed")}}


def entry(checkout: str, role: str, seeds: list[int], runs: dict[str, list[dict]], note: str) -> dict:
    meta = next((r["meta"] for done in runs.values() for r in done if r["meta"]), None) or {}
    workloads = {}
    for workload, done in runs.items():
        workloads[workload] = {
            "runs": [run_record(s, r) for s, r in zip(seeds, done)],
            "gated": block([r["result"]["metrics"] if r["result"] else {} for r in done]),
            "outcomes": block([r["outcomes"] for r in done]),
        }
    return {
        "commit": meta.get("commit"),
        "dirty": dirty(checkout),
        "role": role,
        "note": note,
        "recorded": datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "machine": {k: meta.get(k) for k in ("nproc", "python", "cryptography")},
        "seeds": seeds,
        "workloads": workloads,
    }


def gates() -> dict[str, dict]:
    """The end-to-end metrics of ``BENCHMARK.json`` by name: ``better`` and ``bound``."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m for m in json.load(fh)["end_to_end"]}


def verdicts(base: dict, metric: dict, gate: dict) -> tuple[int, int, bool, bool]:
    """Pairs in which the change read better, pairs compared, whether the
    gain rule holds and whether the change's median is beyond the bound."""
    sign = -1 if gate["better"] == "higher" else 1  # sign * (change - parent) < 0 is better
    pairs = [(p, c) for p, c in zip(base["values"], metric["values"]) if p is not None and c is not None]
    wins = sum(sign * (c - p) < 0 for p, c in pairs)
    gained = sign * (base["median"] - metric["median"]) > base["q3"] - base["q1"]
    gain = len(pairs) >= 10 and wins >= 0.9 * len(pairs) and gained
    beyond = sign * (metric["median"] - base["median"]) > gate["bound"] * abs(base["median"])
    return wins, len(pairs), gain, beyond


def print_pairs(parent: dict, change: dict) -> None:
    bounds = gates()
    for workload, side in change["workloads"].items():
        for name, metric in side["gated"].items():
            base = parent["workloads"][workload]["gated"].get(name)
            if base is None or base["median"] is None or metric["median"] is None:
                print(f"{workload:10s} {name:16s} no value on one side")
                continue
            wins, n, gain, beyond = verdicts(base, metric, bounds[name])
            print(f"{workload:10s} {name:16s} parent {base['median']:9.3f} (IQR {base['q3'] - base['q1']:.3f})"
                  f"  change {metric['median']:9.3f}  change better in {wins} of {n} pairs"
                  f"  gain: {'yes' if gain else 'no'}  beyond bound ({bounds[name]['bound']:g}):"
                  f" {'yes' if beyond else 'no'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--out", default=os.path.join(ROOT, "BENCH_perimbench.json"))
    parser.add_argument("--parent", help="checkout of the parent commit to run in alternation")
    parser.add_argument("--note", default="", help="free text stored with the entries")
    args = parser.parse_args(argv)
    # A shell without job control starts a background job with SIGINT
    # ignored, and exec keeps that; caught here, it is back at its default in
    # each run.py and the servers it starts, which it stops with SIGINT.
    signal.signal(signal.SIGINT, signal.default_int_handler)

    roles = {os.path.abspath(args.parent): "parent", ROOT: "change"} if args.parent else {ROOT: "baseline"}
    checkouts = list(roles)
    runs = {c: {w: [] for w in WORKLOADS} for c in checkouts}
    for i, seed in enumerate(args.seeds):
        for workload in WORKLOADS:
            for checkout in checkouts[::-1] if i % 2 else checkouts:
                done = run_once(checkout, workload, seed)
                runs[checkout][workload].append(done)
                print(f"seed {seed} {workload} {checkout}: {describe(done)}", flush=True)
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
