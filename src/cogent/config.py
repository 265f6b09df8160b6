"""Run configuration: the one module that maps a run's settings to flat keys
and back. The keys are the fields of the stage configs that `_SECTIONS`
lists; `settings_from_config` builds the stages from them, `run_config`
maps the settings that ran back for a checkpoint, and `read_run_config`
reads that back as it reads a config file. Precedence, lowest first:
built-in defaults, the COGENT_SEED environment variable (seed only), the
config file, command-line overrides. Validation collects every bad key
before failing.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, fields
from pathlib import Path

from .augment import AugmentConfig
from .data import DatasetMeta, SplitPlan
from .errors import ConfigError, require_memory, require_range
from .losses import LossConfig
from .model import ModelConfig, param_count
from .patchmask import PatchConfig


@dataclass
class TrainConfig:
    epochs_pretrain: int = 100
    epochs_finetune: int = 20
    batch_size: int = 16
    lr_pretrain: float = 1e-3
    lr_finetune: float = 5e-4
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    weight_decay: float = 0.01
    seed: int = 0
    eval_every: int = 1

    def __post_init__(self):
        for key in ("epochs_pretrain", "epochs_finetune", "batch_size", "eval_every"):
            require_range(key, getattr(self, key), 1, math.inf)
        # these scale float32 arrays, so each is bounded by FLOAT32_MAX; above
        # 2**-150 a rate or adam_eps also stays positive in float32
        for key in ("lr_pretrain", "lr_finetune"):
            require_range(key, getattr(self, key), 2.0**-150, open_lo=True)
        # above 1, eps outweighs sqrt(v_hat) for every gradient below 1: at
        # 3e38 every update rounded to 0 and a run saved its initialization
        require_range("adam_eps", self.adam_eps, 2.0**-150, 1.0, open_lo=True)
        require_range("weight_decay", self.weight_decay, 0.0)
        for key in ("beta1", "beta2"):
            require_range(key, getattr(self, key), 0.0, 1.0, open_hi=True)
        require_range("seed", self.seed, 0, math.inf)


@dataclass
class RunSettings:
    """The stage configs of one run, built from the flat keys by
    `settings_from_config` and mapped back by `run_config`. The data shape
    is not a setting: it comes from the corpus's `DatasetMeta`."""

    patch: PatchConfig
    model: ModelConfig
    loss: LossConfig
    augment: AugmentConfig
    train: TrainConfig
    split: SplitPlan
    keep_zeroed: bool = False

    def __post_init__(self):
        # a run has one seed: `run_config` stores it once, as `seed`
        if self.train.seed != self.split.seed:
            raise ConfigError(
                f"train seed {self.train.seed} and split seed {self.split.seed} "
                "differ; a run has one seed"
            )
        if self.keep_zeroed and self.loss.reconstruct_target == "masked":
            raise ConfigError(
                "mask.keep_zeroed only supports the visible reconstruction target"
            )


# The sections of the flat configuration: each stage config's fields are the
# keys "<section>.<field>" of its section, in this order, except a `seed`
# field, which takes the run-wide key `seed`.
_SECTIONS = (
    ("augment", AugmentConfig),
    ("patch", PatchConfig),
    ("model", ModelConfig),
    ("loss", LossConfig),
    ("train", TrainConfig),
    ("split", SplitPlan),
)

_BOOL_TRUE = {"true", "1", "yes", "on"}
_BOOL_FALSE = {"false", "0", "no", "off"}

# key -> (kind, default). Each stage-config field is the key
# "<section>.<field>" with its annotation and default, except a `seed` field,
# which takes the run-wide `seed`. Only `seed`, `mask.keep_zeroed` and
# `model.init_seed` are written here: "optional_int" admits null, and a null
# model.init_seed means the run seed. `mask.keep_zeroed` is
# `RunSettings.keep_zeroed`, under its old name so saved configs still load.
SCHEMA: dict[str, tuple[str, object]] = {
    "seed": ("int", 0),
    **{
        f"{section}.{f.name}": (getattr(f.type, "__name__", f.type), f.default)
        for section, cls in _SECTIONS
        for f in fields(cls)
        if f.name != "seed"
    },
    "mask.keep_zeroed": ("bool", False),
    "model.init_seed": ("optional_int", None),
}

# the corpus shape a stored configuration carries besides SCHEMA's keys
_DATA_FIELDS = ("T", "D", "num_classes")


def defaults() -> dict:
    return {k: v for k, (_, v) in SCHEMA.items()}


def _flatten(doc: dict, prefix: str = "") -> dict:
    flat = {}
    for key, value in doc.items():
        path = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(_flatten(value, f"{path}."))
        else:
            flat[path] = value
    return flat


def _parse(kind: str, text: str):
    """The value a stripped string spells as `kind`; ValueError if none."""
    if kind == "optional_int" and text.lower() in ("null", "none"):
        return None
    if kind in ("int", "optional_int"):
        return int(text)
    if kind == "float":
        return float(text)
    if kind == "bool":
        low = text.lower()
        if low in _BOOL_TRUE:
            return True
        if low in _BOOL_FALSE:
            return False
        raise ValueError(text)
    return text


def _coerce(key: str, value, errors: list[str]):
    """`value` as the kind of `key`: a string is parsed first, then every
    value gets the same type check. Appends a message and returns None for
    a bad value."""
    kind, _ = SCHEMA[key]
    if isinstance(value, str):
        try:
            value = _parse(kind, value.strip())
        except ValueError:
            errors.append(f"{key}: cannot parse {value!r} as {kind}")
            return None
    if value is None and kind == "optional_int":
        return None
    types = {"float": (int, float), "bool": bool, "str": str}.get(kind, int)
    # bool is an int subclass, so only a bool key takes one
    if isinstance(value, bool) != (kind == "bool") or not isinstance(value, types):
        name = {"optional_int": "int", "str": "string"}.get(kind, kind)
        errors.append(f"{key}: expected {name}, got {type(value).__name__}")
        return None
    if kind == "float":
        try:
            value = float(value)
        except OverflowError:
            errors.append(
                f"{key}: expected a finite float, got an integer beyond its range"
            )
            return None
        if not math.isfinite(value):
            errors.append(f"{key}: expected a finite float, got {value}")
            return None
    return value


def resolve_config(
    config_file=None,
    overrides: dict[str, object] | None = None,
    env: dict[str, str] | None = None,
) -> dict:
    """Merge defaults, environment seed, config file, and overrides."""
    env = os.environ if env is None else env
    cfg = defaults()
    errors: list[str] = []
    if "COGENT_SEED" in env:
        try:
            cfg["seed"] = int(env["COGENT_SEED"])
        except ValueError:
            errors.append(f"COGENT_SEED: cannot parse {env['COGENT_SEED']!r} as int")
    entries = list((overrides or {}).items())
    if config_file is not None:
        path = Path(config_file)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except UnicodeDecodeError as e:
            raise ConfigError(
                f"{path}: not UTF-8 text (byte {e.start}: {e.object[e.start]:#04x})"
            ) from None
        except ValueError as e:  # bad syntax, or an integer past int()'s digit limit
            raise ConfigError(f"{path}: invalid JSON ({e})") from None
        if not isinstance(doc, dict):
            raise ConfigError(f"{path}: top-level JSON value must be an object")
        entries = [*_flatten(doc).items(), *entries]
    for key, value in entries:
        if key not in SCHEMA:
            errors.append(f"unknown config key {key!r}")
            continue
        coerced = _coerce(key, value, errors)
        if coerced is not None or SCHEMA[key][0] == "optional_int":
            cfg[key] = coerced
    if errors:
        raise ConfigError("invalid configuration:\n  " + "\n  ".join(errors))
    return cfg


def settings_from_config(cfg: dict, meta: DatasetMeta) -> RunSettings:
    """Instantiate all stage configs; collects every constraint violation."""
    errors: list[str] = []
    built = {}
    seed = cfg["seed"]
    init_seed = cfg["model.init_seed"]
    values = {**cfg, "model.init_seed": seed if init_seed is None else init_seed}
    for section, cls in _SECTIONS:
        try:
            built[section] = cls(
                **{
                    f.name: seed if f.name == "seed" else values[f"{section}.{f.name}"]
                    for f in fields(cls)
                }
            )
        except ConfigError as e:
            errors.append(str(e))
    if not errors and built["patch"].L > meta.T:
        errors.append(f"patch.L {built['patch'].L} exceeds sequence length {meta.T}")
    if errors:
        raise ConfigError("invalid configuration:\n  " + "\n  ".join(errors))
    settings = RunSettings(**built, keep_zeroed=cfg["mask.keep_zeroed"])
    _require_model_memory(settings, meta)
    return settings


# a training stage holds each float32 parameter's value, its gradient and
# Adam's two moments
_TRAINING_BYTES_PER_PARAM = 4 * 4


def _require_model_memory(settings: RunSettings, meta: DatasetMeta) -> None:
    """Refuse a model whose training state exceeds the machine's memory,
    before anything is drawn or written; the larger stage counts."""
    model, patch = settings.model, settings.patch
    try:
        count = param_count(model, patch, meta, settings.keep_zeroed, settings.loss)
    except ConfigError:  # no visible patch, which pretraining itself refuses
        count = 0
    try:
        count = max(count, param_count(model, patch, meta))
    except OverflowError:  # a classifier width beyond the float range
        count = math.inf
    keys = ("d_model", "n_blocks", "mlp_ratio", "proj_dim", "classifier_hidden_ratio")
    named = ", ".join(f"model.{k}={getattr(model, k)}" for k in keys)
    require_memory(
        f"training a model of {count} parameters ({named}, patch.L={patch.L} "
        f"on T={meta.T}, D={meta.D})",
        count * _TRAINING_BYTES_PER_PARAM,
    )


def run_config(settings: RunSettings, meta: DatasetMeta) -> dict:
    """The flat configuration of the settings that ran, on a corpus of shape
    `meta`: what a checkpoint stores, and what `read_run_config` reads back.

    Its keys are `SCHEMA`'s plus `data.T`, `data.D` and `data.num_classes`.
    Each value is the one the run used, so `model.init_seed` holds the
    resolved seed and a single-objective loss its forced weights. `seed` is
    the run seed, which every stage shares.
    """
    config = {"seed": settings.train.seed}
    for section, _ in _SECTIONS:
        stage = getattr(settings, section)
        for f in fields(stage):
            if f.name != "seed":
                config[f"{section}.{f.name}"] = getattr(stage, f.name)
    config["mask.keep_zeroed"] = settings.keep_zeroed
    for name in _DATA_FIELDS:
        config[f"data.{name}"] = getattr(meta, name)
    return config


def read_run_config(config: dict) -> tuple[RunSettings, DatasetMeta]:
    """The settings and corpus shape a stored configuration records, through
    the path a config file takes: `run_config`'s inverse. A missing schema
    key takes its default, a null `model.init_seed` the run seed."""
    shape = {name: config.get(f"data.{name}") for name in _DATA_FIELDS}
    for name, value in shape.items():
        if isinstance(value, bool) or not isinstance(value, int):
            got = type(value).__name__ if f"data.{name}" in config else "nothing"
            raise ConfigError(f"stored key data.{name}: expected int, got {got}")
    data_keys = {f"data.{name}" for name in _DATA_FIELDS}
    stored = {k: v for k, v in config.items() if k not in data_keys}
    meta = DatasetMeta(**shape)
    return settings_from_config(resolve_config(None, stored, env={}), meta), meta


def write_resolved(cfg: dict, out_dir) -> None:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "resolved.json", "w", encoding="utf-8") as fh:
        json.dump(cfg, fh, indent=2, sort_keys=True)
        fh.write("\n")
