"""Run configuration: key schema, file/override resolution, validation.

Keys are the fields of the stage config dataclasses that one table,
`trainer._SECTIONS`, lists; `settings_from_config` builds the stage configs
from them and `trainer.run_config` maps them back. Precedence, lowest
first: built-in defaults, the COGENT_SEED environment variable (seed only),
the config file, command-line overrides. Validation collects every bad key
before failing.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import fields
from pathlib import Path

from .data import DatasetMeta
from .errors import ConfigError
from .trainer import _SECTIONS, RunSettings

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
        value = float(value)
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
        except json.JSONDecodeError as e:
            raise ConfigError(f"{path}: invalid JSON ({e})") from None
        except UnicodeDecodeError as e:
            raise ConfigError(
                f"{path}: not UTF-8 text (byte {e.start}: {e.object[e.start]:#04x})"
            ) from None
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
    return RunSettings(**built, keep_zeroed=cfg["mask.keep_zeroed"])


def write_resolved(cfg: dict, out_dir) -> None:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "resolved.json", "w", encoding="utf-8") as fh:
        json.dump(cfg, fh, indent=2, sort_keys=True)
        fh.write("\n")
