"""The six binaries, exercised as subprocesses.

Each binary runs as ``python -m sdperim <name>`` from the checkout under
test, so no install or console script on ``PATH`` is needed.
"""

import ast
import importlib
import json
import os
import shutil
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest
import yaml

import sdperim
import sdperim.cli
from sdperim.__main__ import BINARIES

# The directory holding the imported package goes first on the subprocesses'
# path, so they run the code under test wherever pytest was started from.
SRC = os.path.dirname(os.path.dirname(os.path.abspath(sdperim.__file__)))
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}

CONFIG = """
seed: 11
ports: {{spa: {spa}, control: {control}}}
timing:
  rule_ttl: 60.0
  validation_interval: 30.0
material_dir: material
controller: {{id: "{ctrl}", host: 127.0.0.20}}
gateways:
  - {{id: "{gw}", host: 127.0.0.21}}
clients:
  - {{id: "{client}", host: 127.0.0.23, services: [echo-cloud]}}
services:
  - {{service_id: echo-cloud, gateway: "{gw}", protected_host: 127.0.0.22,
     protected_port: {svc}, public_port: {public}}}
"""

IDS = dict(ctrl="cc" * 16, gw="bb" * 16, client="aa" * 16)


def write_config(tmp_path, base, name="deploy.yaml"):
    """The test deployment's config on ports from ``base``; a ``.json`` name writes it as JSON."""
    text = CONFIG.format(spa=base + 1, control=base, svc=base + 2, public=base + 3, **IDS)
    path = tmp_path / name
    path.write_text(json.dumps(yaml.safe_load(text)) if name.endswith(".json") else text)
    return path


def host_copy(cfg, dest, names):
    """A directory holding ``cfg`` and, of its provisioned material, only the files ``names``."""
    material = dest / "material"
    material.mkdir(parents=True)
    for name in names:
        shutil.copy(cfg.parent / "material" / name, material / name)
    return Path(shutil.copy(cfg, dest))


def own_files(hex_id):
    """What a gateway or client reads: ``ca.pub`` and its own certificate, key and SPA secret."""
    return ["ca.pub", f"{hex_id}.cert", f"{hex_id}.key", f"{hex_id}.spa"]


# what the controller reads: its own certificate and key, each client's certificate, every SPA secret
CONTROLLER_FILES = ["ca.pub", f"{IDS['ctrl']}.cert", f"{IDS['ctrl']}.key", f"{IDS['client']}.cert",
                    f"{IDS['gw']}.spa", f"{IDS['client']}.spa"]


def cmd(args):
    """The command line that runs binary ``args[0]`` with the rest as its arguments."""
    return [sys.executable, "-m", "sdperim", *args]


def run(args, **kw):
    return subprocess.run(cmd(args), capture_output=True, text=True, timeout=60, env=ENV, **kw)


# Runs one binary's main with the given arguments in a fresh interpreter and
# prints its exit code and every module then loaded. A node binary returns once
# it has loaded its config and material and built its node, before it binds a socket.
IMPORT_PROBE = """
import contextlib, io, json, sys
import sdperim.cli

rngs = []

async def built(host):
    rngs.append(type(host.node.rng).__name__)
    return 0

async def session(node, bind_host, args):
    rngs.append(type(node.rng).__name__)
    return 0

sdperim.cli._run_forever = built
sdperim.cli._client_session = session
role, args = sys.argv[1], sys.argv[2:]
with contextlib.redirect_stdout(io.StringIO()):
    code = getattr(sdperim.cli, role + "_main")(args)
print(json.dumps({"code": code, "modules": sorted(sys.modules), "rngs": rngs}))
"""

NOT_LIVE = {"sdperim.transport.sim", "sdperim.client", "sdperim.delay_model", "sdperim.services", "sdperim.scenarios"}
# what a node binary needs only for a config that is not JSON, or not at all
NOT_AT_START = {"yaml", "cryptography.hazmat.primitives.serialization"}


def probe(code, *args) -> dict:
    result = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True, timeout=60, env=ENV)
    assert result.returncode == 0, result.stderr
    out = json.loads(result.stdout)
    assert out["code"] == 0
    return out


def loaded(code, *args):
    return set(probe(code, *args)["modules"])


def test_live_binaries_load_only_their_own_role(tmp_path):
    json_cfg = write_config(tmp_path, 31600, "deploy.json")
    yaml_cfg = write_config(tmp_path, 31600)  # the same deployment as YAML, beside the same material
    assert run(["controller", "--config", str(json_cfg), "--provision"]).returncode == 0
    for role, own, other in (("gateway", "sdperim.gateway.node", "sdperim.controller"),
                             ("controller", "sdperim.controller", "sdperim.gateway.node")):
        out = probe(IMPORT_PROBE, role, "--config", str(json_cfg))
        modules = set(out["modules"])
        assert out["rngs"] == ["SystemRandom"]  # every nonce and ephemeral key from the OS
        assert own in modules and "sdperim.transport.real" in modules
        assert modules.isdisjoint(NOT_LIVE | NOT_AT_START | {other}), modules & (NOT_LIVE | NOT_AT_START | {other})
        assert not any(m.startswith("sdperim.harness") for m in modules)
        modules = loaded(IMPORT_PROBE, role, "--config", str(yaml_cfg))
        assert own in modules and "yaml" in modules
    assert probe(IMPORT_PROBE, "client", "--config", str(json_cfg))["rngs"] == ["SystemRandom"]
    # the binaries that build no node load no key material code
    params = tmp_path / "params.yaml"
    params.write_text(yaml.safe_dump(dict(alpha_bits=[720.0] * 8, beta_m=[50.0] * 8, rate_bps=1.0e6, speed_mps=2.0e8)))
    for own, args in (("sdperim.delay_model", ["delaycalc", "--params", str(params)]),
                      ("sdperim.harness.scan", ["attack", "scan", "--target", "127.0.0.25", "--ports", "31520-31521",
                                                "--timeout", "0.1", "--out", str(tmp_path)])):
        modules = loaded(IMPORT_PROBE, *args)
        assert own in modules and "sdperim.config" not in modules
        assert not any(m.startswith(("cryptography", "sdperim.credentials")) for m in modules)
    modules = loaded('import json, sys, sdperim.transport.real; print(json.dumps({"code": 0, "modules": list(sys.modules)}))')
    assert "sdperim.transport.real" in modules and "sdperim.transport.sim" not in modules


def test_provisioning_loads_no_socket_driver(tmp_path):
    # perimbench provisions in the process whose peak memory it reports
    modules = loaded(IMPORT_PROBE, "controller", "--config", str(write_config(tmp_path, 31650, "deploy.json")),
                     "--provision")
    assert (tmp_path / "material" / "ca.key").exists()
    assert "sdperim.config" in modules and "sdperim.transport.real" not in modules


def test_binaries_build_no_seedable_generator():
    # a Mersenne Twister's state can be recovered from its outputs, and the nodes publish nonces
    tree = ast.parse(Path(sdperim.cli.__file__).read_text(encoding="utf-8"))
    calls = [ast.unparse(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)]
    assert "random.SystemRandom" in calls and "random.Random" not in calls


def test_unparsable_config_exits_2_without_a_traceback(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("seed: [1")
    good = write_config(tmp_path, 31700)
    no_clients = yaml.safe_load(good.read_text())
    no_clients["clients"] = []
    (tmp_path / "no-clients.yaml").write_text(yaml.safe_dump(no_clients))
    unknown = tmp_path / "unknown.yaml"
    unknown.write_text("window: 10.0\nno_such_setting: 1\n")
    no_alpha = tmp_path / "no-alpha.yaml"
    no_alpha.write_text(yaml.safe_dump(dict(beta_m=[50.0] * 8, rate_bps=1.0e6, speed_mps=2.0e8)))
    missing = str(tmp_path / "nonexistent.yaml")
    # valid configs without the entry an attack takes its target from
    no_services = dict(no_clients, services=[])
    (tmp_path / "no-services.yaml").write_text(yaml.safe_dump(no_services))
    (tmp_path / "no-gateways.yaml").write_text(yaml.safe_dump(dict(no_services, gateways=[])))
    # valid parameters beside trace files that are not JSON lines, or not a trace's records
    hops = tmp_path / "hops.yaml"
    hops.write_text(yaml.safe_dump(dict(alpha_bits=[720.0] * 8, beta_m=[50.0] * 8, rate_bps=1.0e6, speed_mps=2.0e8,
                                        hop_nodes=[["a", "b"], ["b", "c"], ["c", "b"], ["b", "a"]])))
    (tmp_path / "not-json.jsonl").write_text("{not json\n")
    (tmp_path / "not-a-trace.jsonl").write_text('{"event": "spa", "verdict": "accept"}\n')
    cases = [
        *([binary, "--config", str(bad)] for binary in ("gateway", "controller", "client")),
        ["gateway", "--config", str(good), "--id", "ee" * 16],  # no such host: it names the section and the id
        ["client", "--config", str(good), "--id", "ee" * 16],
        ["client", "--config", str(tmp_path / "no-clients.yaml")],
        ["attack", "flood", "--config", missing, "--out", str(tmp_path)],
        ["attack", "flood", "--config", str(bad), "--out", str(tmp_path)],
        ["attack", "flood", "--target", "127.0.0.1", "--out", str(tmp_path)],
        ["attack", "flood", "--config", str(tmp_path / "no-services.yaml"), "--out", str(tmp_path)],
        ["attack", "scan", "--config", missing, "--out", str(tmp_path)],
        ["attack", "scan", "--config", str(tmp_path / "no-gateways.yaml"), "--out", str(tmp_path)],
        ["attack", "scan", "--target", "127.0.0.25", "--ports", "1:9", "--out", str(tmp_path)],
        ["attack", "experiment", "--config", str(unknown), "--out", str(tmp_path)],
        ["attack", "experiment", "--config", str(bad), "--out", str(tmp_path)],
        ["delaycalc", "--params", str(no_alpha)],
        ["delaycalc", "--params", str(bad)],
        ["delaycalc", "--params", missing],
        *(["delaycalc", "--params", str(hops), "--trace", str(tmp_path / t)] for t in ("not-json.jsonl", "not-a-trace.jsonl")),
    ]
    for args in cases:
        result = run(args)
        assert result.returncode == 2, (args, result.stderr)
        assert "Traceback" not in result.stderr and "error:" in result.stderr, (args, result.stderr)
        if "--id" in args:
            assert f"{args[0]}s has no entry with id {'ee' * 16}" in result.stderr


def test_provision_and_force(tmp_path):
    cfg = write_config(tmp_path, 31000)
    first = run(["controller", "--config", str(cfg), "--provision"])
    assert first.returncode == 0, first.stderr
    again = run(["controller", "--config", str(cfg), "--provision"])
    assert again.returncode == 2
    assert "force" in again.stderr
    forced = run(["controller", "--config", str(cfg), "--provision", "--force"])
    assert forced.returncode == 0


def test_client_rejects_missing_material(tmp_path):
    cfg = write_config(tmp_path, 31100)
    result = run(["client", "--config", str(cfg), "--service", "echo-cloud"])
    assert result.returncode == 2


def echo(sock, data, expect=None):
    """Sends ``data`` on ``sock``, reads as many bytes as ``expect`` (``data``
    by default) holds and checks that they are ``expect``."""
    expect = data if expect is None else expect
    sock.sendall(data)
    got = b""
    while len(got) < len(expect):
        chunk = sock.recv(65536)
        assert chunk, got
        got += chunk
    assert got == expect


def gw_records(log, event, verdict):
    lines = [json.loads(l) for l in log.read_text().splitlines()]
    return [l for l in lines if l.get("event") == event and l.get("verdict") == verdict]


def test_full_binary_session(tmp_path):
    """The controller, the gateway and the client each run on a directory
    holding only the files it reads: no CA key, and no other host's key.
    Each local connection is spliced on a tunnel stream of its own and
    closed with it."""
    base = 31200
    cfg = write_config(tmp_path, base)
    assert run(["controller", "--config", str(cfg), "--provision"]).returncode == 0
    ctrl_cfg = host_copy(cfg, tmp_path / "controller", CONTROLLER_FILES)
    gw_cfg = host_copy(cfg, tmp_path / "gateway", own_files(IDS["gw"]))
    client_cfg = host_copy(cfg, tmp_path / "client", own_files(IDS["client"]))

    echo_code = (
        "import asyncio\n"
        "async def h(r, w):\n"
        "    while True:\n"
        "        d = await r.read(65536)\n"
        "        if not d: break\n"
        "        w.write(d)\n"
        "    w.close()\n"
        "async def m():\n"
        f"    s = await asyncio.start_server(h, '127.0.0.22', {base + 2})\n"
        "    async with s: await s.serve_forever()\n"
        "asyncio.run(m())\n"
    )
    procs = []
    try:
        procs.append(subprocess.Popen([sys.executable, "-c", echo_code]))
        procs.append(subprocess.Popen(cmd(["controller", "--config", str(ctrl_cfg)]), stdout=subprocess.DEVNULL, env=ENV))
        time.sleep(0.5)
        procs.append(
            subprocess.Popen(
                cmd(["gateway", "--config", str(gw_cfg), "--log", str(tmp_path / "gw.jsonl")]),
                stdout=subprocess.DEVNULL,
                env=ENV,
            )
        )
        time.sleep(0.7)
        client = subprocess.Popen(
            cmd(["client", "--config", str(client_cfg), "--service", "echo-cloud", "--local-port", str(base + 9)]),
            stdout=subprocess.DEVNULL,
            env=ENV,
        )
        procs.append(client)
        deadline = time.time() + 15
        while time.time() < deadline:
            try:
                one = socket.create_connection(("127.0.0.23", base + 9), timeout=0.5)
                break
            except OSError:
                time.sleep(0.2)
        else:
            raise AssertionError("local endpoint never came up")
        one.settimeout(5)
        echo(one, b"cli-tunnel-bytes")
        # a second local connection gets a splice of its own; neither disturbs the other
        two = socket.create_connection(("127.0.0.23", base + 9), timeout=5)
        echo(two, b"second-connection")
        for sock, data in ((one, b"first-again"), (two, b"second-again"), (one, b"first-last")):
            sock.sendall(data)
        echo(two, b"", expect=b"second-again")
        echo(one, b"", expect=b"first-againfirst-last")
        log = tmp_path / "gw.jsonl"
        forwards = gw_records(log, "filter", "forward")
        assert [l["src"] for l in forwards] == ["127.0.0.23"] * 2
        assert gw_records(log, "splice", "closed") == []
        # closing one closes its splice at once; the other still echoes
        one.close()
        deadline = time.time() + 1.0
        while not gw_records(log, "splice", "closed") and time.time() < deadline:
            time.sleep(0.05)
        assert len(gw_records(log, "splice", "closed")) == 1
        echo(two, b"still-here")
        two.close()
        deadline = time.time() + 1.0
        while len(gw_records(log, "splice", "closed")) < 2 and time.time() < deadline:
            time.sleep(0.05)
        assert len(gw_records(log, "splice", "closed")) == 2
    finally:
        for p in procs:
            p.terminate()
        for p in procs:
            try:
                p.wait(timeout=5)
            except subprocess.TimeoutExpired:
                p.kill()


def test_attack_experiment_writes_artifacts(tmp_path):
    spec = tmp_path / "exp.yaml"
    spec.write_text(yaml.safe_dump(dict(window=10.0, flood_rate=100.0, flood_duration=4.0, flood_start=3.0, echo_rate=20.0)))
    result = run(["attack", "experiment", "--config", str(spec), "--seed", "5", "--out", str(tmp_path / "out")])
    assert result.returncode == 0, result.stderr
    summary = json.loads((tmp_path / "out" / "experiment.json").read_text())
    assert summary["zero_leak"] is True
    csv = (tmp_path / "out" / "capture.csv").read_text().splitlines()
    assert len(csv) == 11  # header + 10 intervals


def test_attack_scan_loopback(tmp_path):
    # a listener that never accepts: the kernel completes the handshake and holds the connection
    with socket.create_server(("127.0.0.25", 31505)):
        result = run(["attack", "scan", "--target", "127.0.0.25", "--ports", "31500-31510", "--timeout", "0.3",
                      "--out", str(tmp_path)])
    assert result.returncode == 0, result.stderr
    report = json.loads((tmp_path / "scan.json").read_text())
    assert report["open"] == [31505]
    assert report["counts"]["ClosedOrFiltered"] == 10


def test_attack_flood_loopback(tmp_path):
    with socket.create_server(("127.0.0.1", 0), backlog=64) as listener:
        port = listener.getsockname()[1]
        result = run(["attack", "flood", "--target", f"127.0.0.1:{port}", "--rate", "50", "--duration", "0.3",
                      "--out", str(tmp_path)])
    assert result.returncode == 0, result.stderr
    stats = json.loads((tmp_path / "flood.json").read_text())
    assert stats["sent"] > 0 and stats["errors"] == 0


def test_scenario_cli(tmp_path):
    result = run(["scenario", "delay_sweep", "--seed", "3", "--out", str(tmp_path)])
    assert result.returncode == 0, result.stderr
    rows = json.loads((tmp_path / "delay_sweep-3" / "delay_sweep.json").read_text())
    assert all(r["delta"] == 0.0 for r in rows)


def test_delaycalc_with_trace(tmp_path):
    params = tmp_path / "params.yaml"
    params.write_text(
        yaml.safe_dump(
            dict(
                alpha_bits=[720.0, 720.0, 720.0, 720.0, 0.0, 0.0, 0.0, 0.0],
                beta_m=[50.0, 200.0, 200.0, 50.0, 0.0, 0.0, 0.0, 0.0],
                rate_bps=1.0e6,
                speed_mps=2.0e8,
                hop_nodes=[["client", "gateway"], ["gateway", "controller"], ["controller", "gateway"], ["gateway", "client"]],
            )
        )
    )
    from sdperim.scenarios import auth_trace_run

    frames, _ = auth_trace_run(seed=6)
    trace = tmp_path / "trace.jsonl"
    trace.write_text("".join(r.to_line() for r in frames))
    result = run(["delaycalc", "--params", str(params), "--trace", str(trace)])
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    assert report["reconcile"]["delta"] == 0.0
    assert report["reconcile"]["count_mismatches"] == []
    assert report["sdp_overhead"] > 0


def test_console_scripts_match_dispatcher():
    for argv in ([], ["no-such-binary"]):
        result = run(argv)
        assert result.returncode == 2
        assert "usage" in result.stderr
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert sorted(scripts) == sorted(BINARIES)
    for name, target in scripts.items():
        module, attr = target.split(":")
        assert module == "sdperim.cli"
        assert getattr(importlib.import_module(module), attr) is BINARIES[name]
