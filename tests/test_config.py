"""Config validation, strict key handling and JSON round trips."""
import dataclasses
import json

import pytest

from himie.autodiff import ConfigError
from himie.config import (
    GenConfig,
    LossConfig,
    ModelConfig,
    OptimConfig,
    RunConfig,
    config_from_dict,
    config_to_dict,
    load_config,
)


def test_defaults_validate():
    RunConfig().validate()


@pytest.mark.parametrize("patch,fragment", [
    ({"d_h": 30}, "divisible by heads"),
    ({"n_l": 4}, "divisible by 3"),
    ({"d_vae": 64}, "smaller than d_h"),
    ({"d_vae": 15}, "divisible by heads"),
    ({"vae_mode": "vote"}, "vae_mode"),
    ({"kl_weight": -0.1}, "kl_weight"),
    ({"d_h": 0}, ">= 1"),
    ({"grounding_types": ("PER", "XYZ")}, "subset"),
    ({"entity_types": ()}, "non-empty"),
    ({"entity_types": ("PER", "")}, "model.entity_types has an empty name"),
    ({"relation_types": ("R0", "")}, "model.relation_types has an empty name"),
    ({"grounding_types": ("",)}, "model.grounding_types has an empty name"),
    ({"entity_types": ("PER", "LOC", "PER")}, r"model.entity_types repeats \['PER'\]"),
    ({"relation_types": ("R0", "R1", "R0")}, r"model.relation_types repeats \['R0'\]"),
    ({"grounding_types": ("PER", "PER")}, r"model.grounding_types repeats \['PER'\]"),
])
def test_model_config_rejections(patch, fragment):
    cfg = dataclasses.replace(ModelConfig(), **patch)
    with pytest.raises(ConfigError, match=fragment):
        cfg.validate()


@pytest.mark.parametrize("patch,fragment", [
    ({"docs": 0}, "docs"),
    ({"tokens_per_doc": (10, 4)}, "tokens_per_doc"),
    ({"frames_per_doc": (0, 2)}, "frames_per_doc"),
    ({"entity_rate": 1.5}, "entity_rate"),
    ({"relation_rate": -0.2}, "relation_rate"),
    ({"seed": -1}, "gen.seed"),
])
def test_gen_config_rejections(patch, fragment):
    cfg = dataclasses.replace(GenConfig(), **patch)
    with pytest.raises(ConfigError, match=fragment):
        cfg.validate()


@pytest.mark.parametrize("patch", [
    {"lr_encoder": 0.0}, {"lr_other": -1.0}, {"beta1": 1.0}, {"beta2": -0.1},
    {"eps": 0.0},
])
def test_optim_config_rejections(patch):
    with pytest.raises(ConfigError):
        dataclasses.replace(OptimConfig(), **patch).validate()


def test_loss_weights_must_be_nonnegative():
    with pytest.raises(ConfigError, match="alpha_rel"):
        dataclasses.replace(LossConfig(), alpha_rel=-1.0).validate()


@pytest.mark.parametrize("patch,fragment", [
    ({"epochs": -1}, "epochs"),
    ({"regime_fractions": (0.5, 0.5, 0.5)}, "regime_fractions"),
    ({"regime_fractions": (1.0, -0.5, 0.5)}, "regime_fractions"),
    ({"eval_mode": "strict"}, "eval_mode"),
    ({"seed": -2}, "seed must be >= 0"),
])
def test_run_config_rejections(patch, fragment):
    cfg = dataclasses.replace(RunConfig(), **patch)
    with pytest.raises(ConfigError, match=fragment):
        cfg.validate()


def test_unknown_top_level_key_rejected():
    with pytest.raises(ConfigError, match="unknown config keys.*lr"):
        config_from_dict({"lr": 0.1})


def test_unknown_nested_key_rejected():
    with pytest.raises(ConfigError, match="config.model"):
        config_from_dict({"model": {"width": 8}})


def test_partial_dict_fills_defaults():
    cfg = config_from_dict({"epochs": 3, "model": {"d_h": 16, "d_vae": 8}})
    assert cfg.epochs == 3
    assert cfg.model.d_h == 16
    assert cfg.model.heads == ModelConfig().heads


def test_lists_coerce_to_tuples():
    cfg = config_from_dict({"regime_fractions": [1.0, 0.0, 0.0],
                            "gen": {"tokens_per_doc": [8, 12]}})
    assert cfg.regime_fractions == (1.0, 0.0, 0.0)
    assert cfg.gen.tokens_per_doc == (8, 12)


def test_round_trip_preserves_everything(tmp_path):
    cfg = RunConfig(epochs=7, seed=11,
                    model=dataclasses.replace(ModelConfig(), d_h=16, d_vae=8,
                                              mmcm_enabled=False),
                    gen=dataclasses.replace(GenConfig(), docs=3, seed=4))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config_to_dict(cfg)), encoding="utf-8")
    back = load_config(path)
    assert back == cfg
    assert config_to_dict(back) == config_to_dict(cfg)


def test_invalid_json_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(path)


@pytest.mark.parametrize("bad,fragment", [
    ({"model": {"d_h": "x"}}, "model.d_h must be int"),
    ({"epochs": "3"}, "epochs must be int"),
    ({"optim": {"lr_other": None}}, "optim.lr_other must be float"),
    ({"model": {"entity_types": "PER"}}, "model.entity_types must be a list"),
    ({"model": {"mmcm_enabled": 1}}, "model.mmcm_enabled must be bool"),
    ({"gen": {"tokens_per_doc": [8, 12, 16]}}, "gen.tokens_per_doc must have 2 items"),
])
def test_value_types_checked(tmp_path, bad, fragment):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(bad))
    with pytest.raises(ConfigError, match=fragment):
        load_config(path)


def test_int_accepted_where_float_expected():
    cfg = config_from_dict({"optim": {"lr_other": 1}, "corpus_path": None})
    assert cfg.optim.lr_other == 1 and cfg.corpus_path is None


def test_loaded_config_is_validated(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"epochs": -2}')
    with pytest.raises(ConfigError, match="epochs"):
        load_config(path)
