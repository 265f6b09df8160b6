"""Run configuration: documented defaults, file/override resolution, validation.

Keys are dotted paths. Precedence, lowest first: built-in defaults, the
COGENT_SEED environment variable (seed only), the config file, command-line
overrides. Validation collects every bad key before failing.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from .augment import AugmentConfig
from .data import DatasetMeta, SplitPlan
from .errors import ConfigError
from .losses import LossConfig
from .model import ModelConfig
from .patchmask import PatchConfig
from .trainer import RunSettings, TrainConfig

_BOOL_TRUE = {"true", "1", "yes", "on"}
_BOOL_FALSE = {"false", "0", "no", "off"}

# key -> (type, default); "optional_int" admits null (resolved elsewhere)
SCHEMA: dict[str, tuple[str, object]] = {
    "seed": ("int", 0),
    "augment.kind": ("str", "jitter"),
    "augment.epsilon": ("float", 0.1),
    "augment.mask_fraction": ("float", 0.5),
    "patch.L": ("int", 64),
    "patch.theta": ("float", 0.75),
    "mask.keep_zeroed": ("bool", False),
    "model.d_model": ("int", 512),
    "model.n_blocks": ("int", 2),
    "model.n_heads": ("int", 8),
    "model.mlp_ratio": ("int", 4),
    "model.proj_dim": ("int", 128),
    "model.classifier_hidden_ratio": ("float", 0.10),
    "model.init_seed": ("optional_int", None),
    "loss.tau": ("float", 0.2),
    "loss.mode": ("str", "cogent"),
    "loss.lambda_policy": ("str", "auto"),
    "loss.lambda_c": ("float", 1.0),
    "loss.lambda_r": ("float", 1.0),
    "loss.reconstruct_target": ("str", "visible"),
    "loss.recon_views": ("str", "both"),
    "loss.symmetric_ntxent": ("bool", False),
    "train.epochs_pretrain": ("int", 100),
    "train.epochs_finetune": ("int", 20),
    "train.batch_size": ("int", 16),
    "train.lr_pretrain": ("float", 1e-3),
    "train.lr_finetune": ("float", 5e-4),
    "train.beta1": ("float", 0.9),
    "train.beta2": ("float", 0.999),
    "train.adam_eps": ("float", 1e-8),
    "train.weight_decay": ("float", 0.01),
    "train.eval_every": ("int", 1),
    "split.pretrain_fraction": ("float", 0.9),
    "split.finetune_label_ratio": ("float", 0.3),
}


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


def _coerce(key: str, value, errors: list[str]):
    kind, _ = SCHEMA[key]
    if value is None and kind == "optional_int":
        return None
    if isinstance(value, str):
        text = value.strip()
        try:
            if kind in ("int", "optional_int"):
                if kind == "optional_int" and text.lower() in ("null", "none"):
                    return None
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
        except ValueError:
            errors.append(f"{key}: cannot parse {value!r} as {kind}")
            return None
    if kind in ("int", "optional_int"):
        if isinstance(value, bool) or not isinstance(value, int):
            errors.append(f"{key}: expected int, got {type(value).__name__}")
            return None
        return value
    if kind == "float":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            errors.append(f"{key}: expected float, got {type(value).__name__}")
            return None
        return float(value)
    if kind == "bool":
        if not isinstance(value, bool):
            errors.append(f"{key}: expected bool, got {type(value).__name__}")
            return None
        return value
    if not isinstance(value, str):
        errors.append(f"{key}: expected string, got {type(value).__name__}")
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
    if config_file is not None:
        path = Path(config_file)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except json.JSONDecodeError as e:
            raise ConfigError(f"{path}: invalid JSON ({e})") from None
        except UnicodeDecodeError as e:
            raise ConfigError(
                f"{path}: not UTF-8 text (byte {e.start}: {e.object[e.start]:#04x})"
            ) from None
        if not isinstance(doc, dict):
            raise ConfigError(f"{path}: top-level JSON value must be an object")
        for key, value in _flatten(doc).items():
            if key not in SCHEMA:
                errors.append(f"unknown config key {key!r}")
                continue
            coerced = _coerce(key, value, errors)
            if coerced is not None or SCHEMA[key][0] == "optional_int":
                cfg[key] = coerced
    for key, value in (overrides or {}).items():
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

    def build(name, fn):
        try:
            built[name] = fn()
        except ConfigError as e:
            errors.append(str(e))

    seed = cfg["seed"]
    init_seed = cfg["model.init_seed"]
    build("patch", lambda: PatchConfig(L=cfg["patch.L"], theta=cfg["patch.theta"]))
    build(
        "model",
        lambda: ModelConfig(
            d_model=cfg["model.d_model"],
            n_blocks=cfg["model.n_blocks"],
            n_heads=cfg["model.n_heads"],
            mlp_ratio=cfg["model.mlp_ratio"],
            proj_dim=cfg["model.proj_dim"],
            classifier_hidden_ratio=cfg["model.classifier_hidden_ratio"],
            init_seed=seed if init_seed is None else init_seed,
        ),
    )
    build(
        "loss",
        lambda: LossConfig(
            mode=cfg["loss.mode"],
            tau=cfg["loss.tau"],
            lambda_policy=cfg["loss.lambda_policy"],
            lambda_c=cfg["loss.lambda_c"],
            lambda_r=cfg["loss.lambda_r"],
            reconstruct_target=cfg["loss.reconstruct_target"],
            recon_views=cfg["loss.recon_views"],
            symmetric_ntxent=cfg["loss.symmetric_ntxent"],
        ),
    )
    build(
        "augment",
        lambda: AugmentConfig(
            kind=cfg["augment.kind"],
            epsilon=cfg["augment.epsilon"],
            mask_fraction=cfg["augment.mask_fraction"],
            seed=seed,
        ),
    )
    build(
        "train",
        lambda: TrainConfig(
            epochs_pretrain=cfg["train.epochs_pretrain"],
            epochs_finetune=cfg["train.epochs_finetune"],
            batch_size=cfg["train.batch_size"],
            lr_pretrain=cfg["train.lr_pretrain"],
            lr_finetune=cfg["train.lr_finetune"],
            beta1=cfg["train.beta1"],
            beta2=cfg["train.beta2"],
            adam_eps=cfg["train.adam_eps"],
            weight_decay=cfg["train.weight_decay"],
            seed=seed,
            eval_every=cfg["train.eval_every"],
        ),
    )
    build(
        "split",
        lambda: SplitPlan(
            pretrain_fraction=cfg["split.pretrain_fraction"],
            finetune_label_ratio=cfg["split.finetune_label_ratio"],
            seed=seed,
        ),
    )
    if not errors and built["patch"].L > meta.T:
        errors.append(f"patch.L {built['patch'].L} exceeds sequence length {meta.T}")
    if errors:
        raise ConfigError("invalid configuration:\n  " + "\n  ".join(errors))
    config_dict = dict(cfg)
    config_dict["data.T"] = meta.T
    config_dict["data.D"] = meta.D
    config_dict["data.num_classes"] = meta.num_classes
    return RunSettings(
        meta=meta,
        patch=built["patch"],
        model=built["model"],
        loss=built["loss"],
        augment=built["augment"],
        train=built["train"],
        split=built["split"],
        keep_zeroed=cfg["mask.keep_zeroed"],
        config_dict=config_dict,
    )


def write_resolved(cfg: dict, out_dir) -> None:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "resolved.json", "w", encoding="utf-8") as fh:
        json.dump(cfg, fh, indent=2, sort_keys=True)
        fh.write("\n")
