"""Scenario runner: determinism, pinned artifacts, artifact shape, unknown names."""

import hashlib
import json
import os

import pytest
import test_harness

from sdperim.harness.experiment import ExperimentSpec, run_experiment
from sdperim.scenarios import SCENARIO_NAMES, scenario_run


def _digest(d):
    h = hashlib.sha256()
    for name in sorted(os.listdir(d)):
        with open(os.path.join(d, name), "rb") as fh:
            h.update(name.encode())
            h.update(fh.read())
    return h.hexdigest()


def test_unknown_scenario_rejected(tmp_path):
    with pytest.raises(ValueError, match="unknown scenario"):
        scenario_run("nope", 1, tmp_path)


def test_same_seed_same_artifacts(tmp_path):
    a = scenario_run("delay_sweep", 42, os.path.join(tmp_path, "a"))
    b = scenario_run("delay_sweep", 42, os.path.join(tmp_path, "b"))
    assert _digest(a) == _digest(b)


def test_rerun_is_idempotent(tmp_path):
    a = scenario_run("portscan_with_sdp", 1, tmp_path)
    first = _digest(a)
    again = scenario_run("portscan_with_sdp", 1, tmp_path)
    assert again == a
    assert _digest(again) == first


def test_portscan_scenarios_contrast(tmp_path):
    with_sdp = scenario_run("portscan_with_sdp", 2, tmp_path)
    without = scenario_run("portscan_without_sdp", 2, tmp_path)
    s1 = json.load(open(os.path.join(with_sdp, "summary.json")))
    s2 = json.load(open(os.path.join(without, "summary.json")))
    assert s1["open"] == []
    assert s1["counts"]["ClosedOrFiltered"] == 2048
    assert s2["open"] == [22]


def test_delay_sweep_reconciles_exactly(tmp_path):
    out = scenario_run("delay_sweep", 7, tmp_path)
    rows = json.load(open(os.path.join(out, "delay_sweep.json")))
    assert len(rows) == 6
    assert all(r["delta"] == 0.0 for r in rows)
    assert all(r["count_mismatches"] == [] for r in rows)


def test_scenario_names_cover_the_shipped_set():
    assert set(SCENARIO_NAMES) == {
        "baseline",
        "dos_with_sdp",
        "dos_without_sdp",
        "portscan_with_sdp",
        "portscan_without_sdp",
        "delay_sweep",
    }


# sha256 of (capture.csv, experiment.json, trace.jsonl) for TestExperiment.SPEC
# at seed 3; the simulator contract is byte-identical artifacts per seed
PINNED = {
    True: (
        "a4074de79cb51da1235e1f19e2bdf0584213530f1cf45bfdf80202441e3b19e3",
        "7ea31baa40a03c2f4debeb82edf394126c991e7b6a35da5cba79c35294faab4a",
        "aaf7c848fd69e2483788866b246c29589300311b42087ce07e712a13b29abee1",
    ),
    False: (
        "b597bf7e7d299020f475bdd0f1a05df88ea5aafed102acb33914ecc24b87c993",
        "4d9a17df2779f0ba9aa2b80af3aacedbe3ce324839d99249eae5e5a65e1e2f57",
        "76615a1f82ade3dcadf41b778287ee59adee4fa0bacb8ae22a4f006574a44a41",
    ),
}


@pytest.mark.parametrize("with_sdp", [True, False])
def test_experiment_artifacts_are_pinned(with_sdp):
    result = run_experiment(ExperimentSpec(seed=3, with_sdp=with_sdp, **test_harness.TestExperiment.SPEC))
    artifacts = (result.capture.to_csv(), result.to_json(), result.trace_jsonl)
    assert tuple(hashlib.sha256(a.encode()).hexdigest() for a in artifacts) == PINNED[with_sdp]
