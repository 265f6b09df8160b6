import dataclasses
import json

import pytest

from cogent.augment import AugmentConfig
from cogent.config import SCHEMA, _coerce, defaults, resolve_config, settings_from_config
from cogent.data import DatasetMeta, SplitPlan
from cogent.errors import ConfigError
from cogent.losses import LossConfig
from cogent.model import ModelConfig
from cogent.patchmask import PatchConfig
from cogent.trainer import TrainConfig, run_config

STAGES = {
    "augment": AugmentConfig,
    "patch": PatchConfig,
    "model": ModelConfig,
    "loss": LossConfig,
    "train": TrainConfig,
    "split": SplitPlan,
}


class TestSchema:
    """The key schema is derived from the stage-config dataclasses."""

    def test_keys_are_the_stage_fields_plus_three(self):
        expected = {
            f"{section}.{f.name}"
            for section, cls in STAGES.items()
            for f in dataclasses.fields(cls)
            if f.name != "seed"
        }
        assert set(SCHEMA) == expected | {"seed", "mask.keep_zeroed", "model.init_seed"}
        assert len(SCHEMA) == 34

    def test_every_kind_is_one_coerce_accepts(self):
        for key, (kind, default) in SCHEMA.items():
            assert kind in ("int", "optional_int", "float", "bool", "str"), key
            for given in (default, str(default)):
                errors = []
                got = _coerce(key, given, errors)
                assert errors == [] and got == default, (key, given)
                assert type(got) is type(default), (key, given)

    def test_default_settings_are_the_default_dataclasses(self):
        meta = DatasetMeta(T=96, D=1, num_classes=3, name="m")
        settings = settings_from_config({**defaults(), "seed": 5}, meta)
        assert settings.augment == AugmentConfig()
        assert settings.patch == PatchConfig()
        assert settings.model == ModelConfig(init_seed=5)
        assert settings.loss == LossConfig()
        assert settings.train == TrainConfig(seed=5)
        assert settings.split == SplitPlan(seed=5)
        assert settings.keep_zeroed is False


class TestResolveConfig:
    def test_empty_file_gives_all_defaults(self, tmp_path):
        f = tmp_path / "empty.json"
        f.write_text("{}")
        cfg = resolve_config(f, {})
        assert cfg == defaults()
        assert cfg["patch.theta"] == 0.75

    def test_no_file_gives_defaults(self):
        cfg = resolve_config(None, {}, env={})
        assert cfg["model.d_model"] == 512
        assert cfg["loss.tau"] == 0.2

    def test_nested_and_flat_keys_both_accepted(self, tmp_path):
        nested = tmp_path / "nested.json"
        nested.write_text(json.dumps({"patch": {"theta": 0.5}, "loss.tau": 0.3}))
        cfg = resolve_config(nested, {})
        assert cfg["patch.theta"] == 0.5
        assert cfg["loss.tau"] == 0.3

    def test_override_precedence(self, tmp_path):
        f = tmp_path / "cfg.json"
        f.write_text(json.dumps({"patch.theta": 0.5, "seed": 3}))
        cfg = resolve_config(f, {"patch.theta": "0.25"}, env={"COGENT_SEED": "99"})
        assert cfg["patch.theta"] == 0.25  # cli beats file
        assert cfg["seed"] == 3  # file beats env

    def test_env_seed_lowest_precedence(self):
        cfg = resolve_config(None, {}, env={"COGENT_SEED": "42"})
        assert cfg["seed"] == 42

    def test_unknown_keys_all_reported(self, tmp_path):
        f = tmp_path / "bad.json"
        f.write_text(json.dumps({"patch.len": 4, "modle.d_model": 8}))
        with pytest.raises(ConfigError) as err:
            resolve_config(f, {"also.bad": "1"})
        msg = str(err.value)
        assert "patch.len" in msg and "modle.d_model" in msg and "also.bad" in msg

    def test_type_mismatch_reported(self, tmp_path):
        f = tmp_path / "bad.json"
        f.write_text(json.dumps({"patch.L": "abc"}))
        with pytest.raises(ConfigError, match="patch.L"):
            resolve_config(f, {})

    def test_bool_and_null_parsing(self):
        cfg = resolve_config(
            None,
            {
                "mask.keep_zeroed": "true",
                "loss.symmetric_ntxent": "0",
                "model.init_seed": "null",
            },
            env={},
        )
        assert cfg["mask.keep_zeroed"] is True
        assert cfg["loss.symmetric_ntxent"] is False
        assert cfg["model.init_seed"] is None

    def test_non_finite_floats_reported(self, tmp_path):
        f = tmp_path / "nan.json"
        f.write_text('{"loss.tau": NaN}')  # Python's json reads NaN
        with pytest.raises(ConfigError) as err:
            resolve_config(f, {"train.lr_pretrain": "inf", "patch.theta": "-inf"})
        msg = str(err.value)
        assert "loss.tau" in msg and "train.lr_pretrain" in msg and "patch.theta" in msg


class TestSettingsFromConfig:
    def meta(self):
        return DatasetMeta(T=96, D=1, num_classes=3, name="m")

    def test_theta_one_rejected_with_invariant_message(self):
        cfg = resolve_config(None, {"patch.theta": "1.0", "patch.L": "16"}, env={})
        with pytest.raises(ConfigError, match="masking ratio"):
            settings_from_config(cfg, self.meta())

    def test_init_seed_falls_back_to_run_seed(self):
        cfg = resolve_config(None, {"seed": "17", "patch.L": "16"}, env={})
        settings = settings_from_config(cfg, self.meta())
        assert settings.model.init_seed == 17
        cfg2 = resolve_config(
            None, {"seed": "17", "model.init_seed": "3", "patch.L": "16"}, env={}
        )
        assert settings_from_config(cfg2, self.meta()).model.init_seed == 3

    def test_patch_longer_than_series_rejected(self):
        cfg = resolve_config(None, {"patch.L": "128"}, env={})
        with pytest.raises(ConfigError, match="patch.L"):
            settings_from_config(cfg, self.meta())

    def test_multiple_constraint_violations_reported_together(self):
        cfg = resolve_config(
            None,
            {"patch.theta": "1.0", "patch.L": "16", "loss.tau": "-1"},
            env={},
        )
        with pytest.raises(ConfigError) as err:
            settings_from_config(cfg, self.meta())
        msg = str(err.value)
        assert "masking ratio" in msg and "temperature" in msg


class TestRunConfig:
    """`run_config` maps settings back to the flat keys they came from."""

    META = DatasetMeta(T=96, D=2, num_classes=3, name="m")
    CASES = {
        "defaults": {},
        "contrastive_only": {"loss.mode": "contrastive_only", "loss.lambda_r": "4"},
        "generative_only": {"loss.mode": "generative_only", "loss.lambda_c": "5"},
        "masked target": {"loss.reconstruct_target": "masked"},
        "keep_zeroed": {"mask.keep_zeroed": "true"},
        "fixed weights": {
            "loss.lambda_policy": "fixed", "loss.lambda_c": "0.5", "loss.lambda_r": "2",
        },
        "init seed": {"seed": "11", "model.init_seed": "3"},
    }

    def derived(self, overrides):
        cfg = resolve_config(None, {"patch.L": "16", **overrides}, env={})
        settings = settings_from_config(cfg, self.META)
        return cfg, settings, run_config(settings, self.META)

    @pytest.mark.parametrize("case", CASES)
    def test_settings_to_config_and_back_is_the_identity(self, case):
        _, settings, config = self.derived(self.CASES[case])
        assert settings_from_config(config, self.META) == settings

    @pytest.mark.parametrize("case", CASES)
    def test_keys_are_the_schema_plus_the_corpus_shape(self, case):
        _, _, config = self.derived(self.CASES[case])
        assert set(config) == set(SCHEMA) | {"data.T", "data.D", "data.num_classes"}
        assert (config["data.T"], config["data.D"], config["data.num_classes"]) == (
            96, 2, 3
        )

    def test_config_holds_what_ran(self):
        # the resolved init seed and a single-objective mode's forced
        # weight; every other key is the resolved configuration's
        cfg, _, config = self.derived(self.CASES["generative_only"])
        changed = {k for k in SCHEMA if config[k] != cfg[k]}
        assert changed == {"model.init_seed", "loss.lambda_c"}
        assert config["model.init_seed"] == cfg["seed"] == 0
        assert config["loss.lambda_c"] == 0.0
