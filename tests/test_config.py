import dataclasses
import json
import math
import warnings

import numpy as np
import pytest

from cogent import errors
from cogent.augment import AugmentConfig
from cogent.config import (
    SCHEMA,
    TrainConfig,
    _coerce,
    defaults,
    read_run_config,
    resolve_config,
    run_config,
    settings_from_config,
)
from cogent.data import DatasetMeta, SplitPlan, gen_synthetic
from cogent.errors import ConfigError
from cogent.losses import LossConfig
from cogent.model import ModelConfig, init_params
from cogent.patchmask import PatchConfig

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

    @pytest.mark.parametrize("source", ["file", "override"])
    def test_float_integer_beyond_the_float_range_reported(self, tmp_path, source):
        huge = 10**400
        f = tmp_path / "big.json"
        f.write_text(json.dumps({"loss": {"tau": huge}}))
        args = (f, {}) if source == "file" else (None, {"loss.tau": huge})
        with pytest.raises(ConfigError) as err:
            resolve_config(*args, env={})
        msg = str(err.value)
        assert "loss.tau: expected a finite float" in msg
        assert "0" * 20 not in msg

    def test_integer_past_the_digit_limit_reported(self, tmp_path):
        f = tmp_path / "huge.json"
        f.write_text('{"seed": ' + "1" * 5000 + "}")
        with pytest.raises(ConfigError, match="huge.json: invalid JSON"):
            resolve_config(f, {}, env={})


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


class TestRequireMemory:
    PAGES, PAGE = 1000, 4096

    def sysconf(self, name):
        return {"SC_PHYS_PAGES": self.PAGES, "SC_PAGE_SIZE": self.PAGE}[name]

    def test_refuses_only_above_physical_memory(self, monkeypatch):
        monkeypatch.setattr(errors.os, "sysconf", self.sysconf)
        errors.require_memory("a thing", self.PAGES * self.PAGE)
        with pytest.raises(ConfigError, match=r"^a thing needs about 4.1e\+06 bytes"):
            errors.require_memory("a thing", self.PAGES * self.PAGE + 1)

    def test_unreadable_memory_refuses_nothing(self, monkeypatch):
        def unreadable(name):
            raise ValueError(name)

        monkeypatch.setattr(errors.os, "sysconf", unreadable)
        errors.require_memory("a thing", 10**30)

    def test_settings_count_the_larger_stage(self, monkeypatch):
        # a micro model needs a few hundred KB of training state; the
        # fine-tuning classifier is its larger stage here
        meta = DatasetMeta(T=96, D=1, num_classes=3, name="m")
        overrides = {"patch.L": "16", "model.d_model": "32", "model.n_heads": "4",
                     "model.proj_dim": "4", "loss.mode": "contrastive_only"}
        cfg = resolve_config(None, overrides, env={})
        settings = settings_from_config(cfg, meta)
        pre = init_params(settings.model, settings.patch, meta, loss=settings.loss)
        tuned = init_params(settings.model, settings.patch, meta).total_params()
        assert tuned > pre.total_params()
        monkeypatch.setattr(errors.os, "sysconf", self.sysconf)
        monkeypatch.setattr(self, "PAGES", 16 * tuned // self.PAGE)
        message = f"training a model of {tuned} parameters"
        with pytest.raises(ConfigError, match=message):
            settings_from_config(cfg, meta)


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

    @pytest.mark.parametrize("case", CASES)
    def test_read_run_config_inverts_it(self, case):
        # a stored config carries the corpus shape, not the corpus's name
        _, settings, config = self.derived(self.CASES[case])
        shape = DatasetMeta(T=96, D=2, num_classes=3)
        assert read_run_config(config) == (settings, shape)

    def test_stored_config_missing_a_schema_key_takes_its_default(self):
        _, settings, config = self.derived({"loss.tau": "0.3"})
        del config["loss.tau"]
        read, _ = read_run_config(config)
        assert read.loss.tau == SCHEMA["loss.tau"][1] == 0.2
        assert read == dataclasses.replace(
            settings, loss=dataclasses.replace(settings.loss, tau=0.2)
        )

    def test_stored_null_init_seed_takes_the_run_seed(self):
        # an older checkpoint stored the unresolved null
        _, settings, config = self.derived({"seed": "11"})
        config["model.init_seed"] = None
        read, _ = read_run_config(config)
        assert read.model.init_seed == 11 and read == settings

    @pytest.mark.parametrize(
        "key, value",
        [
            ("model.d_model", 8.5),
            ("mask.keep_zeroed", 1),
            ("loss.mode", 3),
            ("data.T", None),
            ("data.D", 2.0),
            ("data.num_classes", "3"),
            ("data.T", True),
        ],
    )
    def test_stored_key_of_the_wrong_type_is_a_config_error(self, key, value):
        _, _, config = self.derived({})
        config[key] = value
        with pytest.raises(ConfigError, match=f"{key}: expected"):
            read_run_config(config)

    def test_stored_config_missing_the_corpus_shape_is_a_config_error(self):
        _, _, config = self.derived({})
        del config["data.T"]
        with pytest.raises(ConfigError, match="data.T: expected int, got nothing"):
            read_run_config(config)

    def test_differing_stage_seeds_rejected(self):
        # the stored config has one seed, so a run may not have two
        _, settings, _ = self.derived({"seed": "4"})
        with pytest.raises(ConfigError, match="train seed 4 and split seed 9"):
            dataclasses.replace(settings, split=SplitPlan(seed=9))

    def test_config_holds_what_ran(self):
        # the resolved init seed and a single-objective mode's forced
        # weight; every other key is the resolved configuration's
        cfg, _, config = self.derived(self.CASES["generative_only"])
        changed = {k for k in SCHEMA if config[k] != cfg[k]}
        assert changed == {"model.init_seed", "loss.lambda_c"}
        assert config["model.init_seed"] == cfg["seed"] == 0
        assert config["loss.lambda_c"] == 0.0


F32_MAX = float(np.finfo(np.float32).max)


def _around(bound: float) -> list[float]:
    below, above = np.nextafter(bound, -np.inf), np.nextafter(bound, np.inf)
    return [float(below), bound, float(above)]


# Every float setting is probed at each bound that any of them has, with its
# neighbours, then at the edges of the float range; 2**-150 is the largest
# float that rounds to 0 in float32. Every int setting is probed at the int
# bounds 0, 1 and 2 with their neighbours, and far out on both sides.
BOUNDS = (0.0, 2.0**-150, 1 / F32_MAX, 1.0, F32_MAX)
FLOAT_PROBES = [
    *(v for bound in BOUNDS for v in _around(bound)),
    -0.0, 1e39, -1e308, math.inf, -math.inf, math.nan,
]
INT_PROBES = [-(10**308), -1, 0, 1, 2, 3, 10**39]

# (class, field) -> its verdict at each probe, the other fields at their
# defaults (ModelConfig with n_heads 1, so only the n_heads row meets the
# d_model % n_heads rule): "a" accepted, "r" refused with a ConfigError that
# names the field. A float row groups its probes as
#     0   2**-150   1/F32_MAX   1   F32_MAX   -0.0 1e39 -1e308 inf -inf nan
# and an int row lists them as -10**308 -1 0 1 2 3 10**39.
VERDICTS = {
    (PatchConfig, "L"): "rrraaaa",
    (PatchConfig, "theta"): "raa aaa aaa arr rrr arrrrr",
    (AugmentConfig, "epsilon"): "raa aaa aaa aaa aar arrrrr",
    (AugmentConfig, "mask_fraction"): "raa aaa aaa arr rrr arrrrr",
    (ModelConfig, "d_model"): "rrraaaa",
    (ModelConfig, "n_blocks"): "rrraaaa",
    (ModelConfig, "n_heads"): "rrraarr",
    (ModelConfig, "mlp_ratio"): "rrraaaa",
    (ModelConfig, "proj_dim"): "rrrraaa",
    (ModelConfig, "classifier_hidden_ratio"): "rra aaa aaa aar rrr rrrrrr",
    (ModelConfig, "init_seed"): "rraaaaa",
    (LossConfig, "tau"): "rrr rrr raa aaa aar rrrrrr",
    (LossConfig, "lambda_c"): "raa aaa aaa aaa aar arrrrr",
    (LossConfig, "lambda_r"): "raa aaa aaa aaa aar arrrrr",
    (TrainConfig, "epochs_pretrain"): "rrraaaa",
    (TrainConfig, "epochs_finetune"): "rrraaaa",
    (TrainConfig, "batch_size"): "rrraaaa",
    (TrainConfig, "lr_pretrain"): "rrr rra aaa aaa aar rrrrrr",
    (TrainConfig, "lr_finetune"): "rrr rra aaa aaa aar rrrrrr",
    (TrainConfig, "beta1"): "raa aaa aaa arr rrr arrrrr",
    (TrainConfig, "beta2"): "raa aaa aaa arr rrr arrrrr",
    (TrainConfig, "adam_eps"): "rrr rra aaa aaa aar rrrrrr",
    (TrainConfig, "weight_decay"): "raa aaa aaa aaa aar arrrrr",
    (TrainConfig, "seed"): "rraaaaa",
    (TrainConfig, "eval_every"): "rrraaaa",
    (SplitPlan, "pretrain_fraction"): "rra aaa aaa aar rrr rrrrrr",
    (SplitPlan, "finetune_label_ratio"): "rra aaa aaa aar rrr rrrrrr",
    (SplitPlan, "seed"): "aaaaaaa",
    (DatasetMeta, "T"): "rrraaaa",
    (DatasetMeta, "D"): "rrraaaa",
    (DatasetMeta, "num_classes"): "rrrraaa",
}
BASE = {DatasetMeta: {"T": 96, "D": 1, "num_classes": 3}, ModelConfig: {"n_heads": 1}}


def _kind(cls, name: str) -> str:
    (field,) = (f for f in dataclasses.fields(cls) if f.name == name)
    return getattr(field.type, "__name__", field.type)


def _verdicts(make, name: str, probes) -> str:
    """"a" or "r" per probe, with every warning an error."""
    got = ""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for value in probes:
            try:
                make(value)
                got += "a"
            except ConfigError as e:
                assert name in str(e), (value, str(e))
                got += "r"
    return got


class TestVerdictTable:
    """Each numeric setting's accept/refuse verdict at its bounds, their
    neighbours and the edges of the float range. A NaN is refused, and no
    value ends in a warning."""

    def test_table_covers_every_numeric_field(self):
        classes = (*STAGES.values(), DatasetMeta)
        numeric = {
            (cls, f.name)
            for cls in classes
            for f in dataclasses.fields(cls)
            if _kind(cls, f.name) in ("int", "float")
        }
        assert set(VERDICTS) == numeric

    @pytest.mark.parametrize(
        "cls, name", VERDICTS, ids=[f"{c.__name__}.{n}" for c, n in VERDICTS]
    )
    def test_verdict_at_each_probe(self, cls, name):
        probes = FLOAT_PROBES if _kind(cls, name) == "float" else INT_PROBES
        base = BASE.get(cls, {})
        got = _verdicts(lambda v: cls(**{**base, name: v}), name, probes)
        assert got == VERDICTS[cls, name].replace(" ", "")

    def test_gen_synthetic_sigma(self, tmp_path):
        # a float32 value, and one whose noise stays finite
        meta = DatasetMeta(T=2, D=1, num_classes=2)
        got = _verdicts(
            lambda v: gen_synthetic(tmp_path, meta, per_class=1, sigma=v),
            "sigma",
            FLOAT_PROBES,
        )
        assert got == "raa aaa aaa aaa rrr arrrrr".replace(" ", "")

    def test_float32_max_is_numpys(self):
        assert errors.FLOAT32_MAX == F32_MAX

    def test_message_names_the_key_and_its_bounds(self):
        with pytest.raises(ConfigError) as err:
            TrainConfig(lr_pretrain=-1e308)
        assert str(err.value) == (
            "lr_pretrain must be in (7.0064923e-46, 3.4028235e+38], got -1e+308"
        )
