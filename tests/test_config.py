"""Deployment config: round trip, validation, provisioning."""

import json
import os

import pytest
import yaml

from sdperim.config import (
    ConfigError,
    config_from_dict,
    dump_config,
    load_config,
    load_controller_material,
    load_host_material,
    load_material,
    provision,
)
from sdperim.deploy import controller_records, default_config


def test_round_trip_is_identity(tmp_path):
    cfg = default_config()
    text = dump_config(cfg)
    again = config_from_dict(yaml.safe_load(text))
    assert dump_config(again) == text
    assert again.to_dict() == cfg.to_dict()


def test_load_from_file(tmp_path):
    path = tmp_path / "deploy.yaml"
    path.write_text(dump_config(default_config()))
    cfg = load_config(path)
    assert cfg.services[0].public_port == 4444
    path.write_text(json.dumps(default_config().to_dict()))  # JSON text is read the same
    assert load_config(path).to_dict() == cfg.to_dict()


def test_timing_values_are_numbers(tmp_path):
    # YAML 1.1 reads 3e1 as a string, which would fail at every login; JSON reads it as a number
    path = tmp_path / "deploy.yaml"
    path.write_text(dump_config(default_config()).replace("validation_interval: 30.0", "validation_interval: 3e1"))
    with pytest.raises(ConfigError, match="validation_interval"):
        load_config(path)
    path.write_text(json.dumps(default_config().to_dict()).replace('"validation_interval": 30.0', '"validation_interval": 3e1'))
    assert load_config(path).timing.validation_interval == 30.0


@pytest.mark.parametrize(
    "mutate,message",
    [
        (lambda d: d["services"].append(dict(d["services"][0])), "duplicate"),
        (lambda d: d["services"][0].update(gateway="ee" * 16), "unknown gateway"),
        (lambda d: d["clients"][0]["services"].append("ghost"), "unknown service"),
        (lambda d: d["clients"][0].update(id="zz"), "hex"),
        (lambda d: d["gateways"].append({"id": "bb" * 16, "host": "gateway2"}), "duplicate id"),
        (lambda d: d["timing"].update(rule_ttl="60"), "string rule_ttl"),
        (lambda d: d["timing"].update(rule_ttl=True), "bool rule_ttl"),
        (lambda d: d["timing"].update(rule_ttl=float("nan")), "nan rule_ttl"),
        (lambda d: d["timing"].update(validation_interval=0), "zero validation_interval"),
        (lambda d: d["timing"].update(validation_interval=float("inf")), "infinite validation_interval"),
        (lambda d: d["ports"].update(spa="x"), "string port"),
        (lambda d: d["ports"].update(spa=0), "port 0"),
        (lambda d: d["ports"].update(control=70000), "port past 65535"),
        (lambda d: d["ports"].update(control=True), "bool port"),
        (lambda d: d["services"][0].update(public_port=-1), "negative service port"),
        (lambda d: d["clients"][0].update(id="zz" * 16), "32 chars, not hex"),
        (lambda d: d.update(seed="x"), "string seed"),
    ],
)
def test_validation_rejects_bad_configs(mutate, message):
    raw = default_config().to_dict()
    mutate(raw)
    with pytest.raises(ConfigError):
        config_from_dict(raw)


def test_text_neither_json_nor_yaml_is_a_config_error(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("seed: [1")
    with pytest.raises(ConfigError, match="neither JSON nor YAML"):
        load_config(path)


def test_port_collision_rejected():
    raw = default_config().to_dict()
    # protected service landing on the controller's control port and host
    raw["services"][0].update(protected_host="controller", protected_port=5000)
    with pytest.raises(ConfigError, match="collision"):
        config_from_dict(raw)


def test_provision_writes_material_and_refuses_overwrite(tmp_path):
    cfg = default_config()
    (tmp_path / "deploy.yaml").write_text(dump_config(cfg))
    material_dir = provision(cfg, tmp_path)
    names = sorted(os.listdir(material_dir))
    assert "ca.pub" in names
    assert f"{cfg.clients[0].id}.spa" in names
    assert f"{cfg.gateways[0].id}.cert" in names
    with pytest.raises(ConfigError, match="force"):
        provision(cfg, tmp_path)
    provision(cfg, tmp_path, force=True)  # explicit override allowed


def test_a_host_reads_only_its_own_material(tmp_path):
    cfg = default_config()
    material_dir = provision(cfg, tmp_path)
    gw = cfg.gateways[0]
    full = load_material(cfg, tmp_path)
    for name in os.listdir(material_dir):
        if name not in ("ca.pub", f"{gw.id}.cert", f"{gw.id}.key", f"{gw.id}.spa"):
            os.remove(os.path.join(material_dir, name))
    own = load_host_material(cfg, tmp_path, gw)
    assert own.ca is None and own.ca_public == full.ca.public_bytes
    assert list(own.identities) == list(own.spa_keys) == [gw.id]
    assert own.identities[gw.id].cert == full.identities[gw.id].cert
    assert own.spa_keys[gw.id] == full.spa_keys[gw.id]
    with pytest.raises(FileNotFoundError):
        load_material(cfg, tmp_path)


def test_the_controller_reads_only_its_own_material(tmp_path):
    cfg = default_config()
    material_dir = provision(cfg, tmp_path)
    ctrl, gw, client = cfg.controller, cfg.gateways[0], cfg.clients[0]
    full = load_material(cfg, tmp_path)
    for name in os.listdir(material_dir):
        if name not in ("ca.pub", f"{ctrl.id}.cert", f"{ctrl.id}.key", f"{client.id}.cert", f"{gw.id}.spa",
                        f"{client.id}.spa"):
            os.remove(os.path.join(material_dir, name))
    own = load_controller_material(cfg, tmp_path)
    assert own.ca is None and own.ca_public == full.ca.public_bytes
    assert list(own.identities) == [ctrl.id] and own.identities[ctrl.id].cert == full.identities[ctrl.id].cert
    assert controller_records(cfg, own) == controller_records(cfg, full)
    with pytest.raises(FileNotFoundError):
        load_material(cfg, tmp_path)


def test_provisioned_material_loads_and_matches_records(tmp_path):
    cfg = default_config()
    material_dir = provision(cfg, tmp_path)
    clients, _, gateways = controller_records(cfg, load_material(cfg, tmp_path))
    assert len(clients) == 1
    record = clients[0]
    assert record.client_id == cfg.clients[0].id_bytes
    with open(os.path.join(material_dir, f"{cfg.clients[0].id}.spa"), encoding="utf-8") as fh:
        assert record.spa_key.secret.hex() == fh.read().strip()
    assert record.authorized_services == ["echo-cloud"]
    assert len(gateways) == 1
    assert gateways[0].gateway_id == cfg.gateways[0].id_bytes
