"""Scenario runner: determinism, pinned artifacts, artifact shape, unknown names."""

import hashlib
import io
import json
import os

import pytest
import test_harness

import sdperim.scenarios
from sdperim.harness.experiment import ExperimentSpec, run_experiment
from sdperim.scenarios import SCENARIO_NAMES, scenario_run


def _digest(d):
    h = hashlib.sha256()
    for name in sorted(os.listdir(d)):
        with open(os.path.join(d, name), "rb") as fh:
            h.update(name.encode())
            h.update(fh.read())
    return h.hexdigest()


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


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
    s1 = _load(os.path.join(with_sdp, "summary.json"))
    s2 = _load(os.path.join(without, "summary.json"))
    assert s1["open"] == []
    assert s1["counts"]["ClosedOrFiltered"] == 2050  # ports 1-2048 and the gateway's two listeners
    assert s2["open"] == [22]


def test_delay_sweep_reconciles_exactly(tmp_path):
    out = scenario_run("delay_sweep", 7, tmp_path)
    rows = _load(os.path.join(out, "delay_sweep.json"))
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


def test_dos_scenario_writes_each_result_once(tmp_path):
    # the run's summary goes to summary.json alone; CI's pinned file list holds the same set
    out = scenario_run("baseline", 7, tmp_path)
    assert sorted(os.listdir(out)) == ["capture.csv", "summary.json", "trace.jsonl"]


# sha256 of (capture.csv, experiment.json, trace.jsonl) for TestExperiment.SPEC
# at seed 3; the simulator contract is byte-identical artifacts per seed
PINNED = {
    True: (
        "a4074de79cb51da1235e1f19e2bdf0584213530f1cf45bfdf80202441e3b19e3",
        "7ea31baa40a03c2f4debeb82edf394126c991e7b6a35da5cba79c35294faab4a",
        "0fe3420a1b43756729abe412191b86205587c3e0616e06130343ed22d64cad44",
    ),
    False: (
        "b597bf7e7d299020f475bdd0f1a05df88ea5aafed102acb33914ecc24b87c993",
        "4d9a17df2779f0ba9aa2b80af3aacedbe3ce324839d99249eae5e5a65e1e2f57",
        "76615a1f82ade3dcadf41b778287ee59adee4fa0bacb8ae22a4f006574a44a41",
    ),
}


def _run_and_digest(spec):
    """The run, and the digests of its artifacts; the trace is taken from
    the stream the scenarios write."""
    trace = io.StringIO()
    result = run_experiment(spec, trace_out=trace)
    artifacts = (result.capture.to_csv(), result.to_json(), trace.getvalue())
    return result, tuple(hashlib.sha256(a.encode()).hexdigest() for a in artifacts)


@pytest.mark.parametrize("with_sdp", [True, False])
def test_experiment_artifacts_are_pinned(with_sdp):
    _, digests = _run_and_digest(ExperimentSpec(seed=3, with_sdp=with_sdp, **test_harness.TestExperiment.SPEC))
    assert digests == PINNED[with_sdp]


# the same digests for a window that runs past the 60 s handshake timeout of
# the flood's half-open flows, where the simulator forgets dead spoofed flows
LONG_SPEC = dict(window=75.0, flood_rate=50, flood_duration=5.0, flood_start=5.0, echo_rate=10)
PINNED_LONG = {
    True: (
        "e7153e0ca9253c949885006e02fba538301df57be1fa913152a3062df1df1824",
        "a7b0e4ca0ef8641cb4ec194014f3588df06a0063b6206dae6a19b08b4512657a",
        "e8b1bf1072311c2fcb0ba65188a01b34cc61532b1a19008fdd8e198a5eadddc4",
    ),
    False: (
        "faf1dd12cae655813bc4ef49f7adb8f6faa204f8e5d349eab0728c07fb92c6c9",
        "fd972f6a875fb4b9db172cb73da6412afc9749080555c7d51bf2e25c2182083b",
        "f65a955553c06419f056bbfb34ab0b51bfd3607d8a245bb1a180b5c19dc6a2af",
    ),
}


@pytest.mark.parametrize("with_sdp", [True, False])
def test_artifacts_past_handshake_timeout_are_pinned(with_sdp):
    result, digests = _run_and_digest(ExperimentSpec(seed=3, with_sdp=with_sdp, **LONG_SPEC))
    if not with_sdp:  # the window sees the flood's half-open flows rise and time out
        assert max(result.capture.half_open) > 0
        assert result.capture.half_open[-1] == 0
    assert digests == PINNED_LONG[with_sdp]


def test_failed_run_keeps_the_previous_trace(tmp_path, monkeypatch):
    out_dir = tmp_path / "dos_with_sdp-1"
    out_dir.mkdir()
    (out_dir / "trace.jsonl").write_text("previous run\n")

    def failing_run(spec, trace_out):
        trace_out.write("partial\n")
        raise RuntimeError("run failed")

    monkeypatch.setattr(sdperim.scenarios, "run_experiment", failing_run)
    with pytest.raises(RuntimeError, match="run failed"):
        scenario_run("dos_with_sdp", 1, tmp_path)
    assert (out_dir / "trace.jsonl").read_text() == "previous run\n"
    assert sorted(os.listdir(out_dir)) == ["trace.jsonl"]
