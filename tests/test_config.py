"""Deployment config: round trip, validation, provisioning."""

import os

import pytest
import yaml

from sdperim.config import (
    ConfigError,
    config_from_dict,
    dump_config,
    load_config,
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


@pytest.mark.parametrize(
    "mutate,message",
    [
        (lambda d: d["services"].append(dict(d["services"][0])), "duplicate"),
        (lambda d: d["services"][0].update(gateway="ee" * 16), "unknown gateway"),
        (lambda d: d["clients"][0]["services"].append("ghost"), "unknown service"),
        (lambda d: d["clients"][0].update(id="zz"), "hex"),
        (lambda d: d["gateways"].append({"id": "bb" * 16, "host": "gateway2"}), "duplicate id"),
    ],
)
def test_validation_rejects_bad_configs(mutate, message):
    raw = default_config().to_dict()
    mutate(raw)
    with pytest.raises(ConfigError):
        config_from_dict(raw)


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
