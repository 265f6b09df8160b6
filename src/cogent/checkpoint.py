"""Binary checkpoint format.

Layout: 8-byte magic ``COGENT02``, little-endian uint64 manifest length, the
UTF-8 JSON manifest (parameter names/shapes/offsets, config and its digest,
loss weights, epoch, normalization stats), then the little-endian float32
parameter payload in manifest order. No optimizer state is stored.

A checkpoint holds only the tensors of the stage that wrote it (pretraining:
the encoder plus the heads its loss trained; fine-tuning: the encoder plus
the classifier), so the stage is read off the tensor set (`finetuned`).

Saving writes a temp file beside the target and renames it over the target,
so a failed write leaves an existing checkpoint untouched. Save -> load ->
save is byte-identical. Loading raises ConfigError naming the file for an
older magic, a truncated or corrupt file, or a stored `config_digest` that is
not the digest of the stored config's architecture keys. It takes no digest
from the caller: the stored config is the settings that ran, and fine-tuning
compares its architecture keys with the current run's (`trainer.finetune`).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError

MAGIC = b"COGENT02"
OLD_MAGIC = b"COGENT01"

# keys that must agree for parameters to be transferable between runs
# (theta is excluded: masking ratio changes between pretraining and
# fine-tuning without affecting the transferred encoder)
ARCH_KEYS = (
    "data.T",
    "data.D",
    "data.num_classes",
    "patch.L",
    "model.d_model",
    "model.n_blocks",
    "model.n_heads",
    "model.mlp_ratio",
    "model.classifier_hidden_ratio",
)


def arch_digest(config: dict) -> str:
    subset = {k: config[k] for k in ARCH_KEYS if k in config}
    blob = json.dumps(subset, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass
class Checkpoint:
    config: dict
    params: dict[str, np.ndarray]  # insertion order defines the payload layout
    lambda_c: float = 1.0
    lambda_r: float = 1.0
    epoch: int = 0
    norm_mean: list[float] = field(default_factory=list)
    norm_std: list[float] = field(default_factory=list)

    @property
    def digest(self) -> str:
        return arch_digest(self.config)

    @property
    def finetuned(self) -> bool:
        """True for a fine-tuned checkpoint (it carries the classifier)."""
        return any(name.startswith("clf.") for name in self.params)


def _manifest_dict(ckpt: Checkpoint) -> dict:
    entries = []
    offset = 0
    for name, arr in ckpt.params.items():
        entries.append(
            {"name": name, "shape": list(arr.shape), "offset": offset}
        )
        offset += arr.size * 4
    return {
        "config": ckpt.config,
        "config_digest": ckpt.digest,
        "lambda_c": ckpt.lambda_c,
        "lambda_r": ckpt.lambda_r,
        "epoch": ckpt.epoch,
        "norm_mean": ckpt.norm_mean,
        "norm_std": ckpt.norm_std,
        "params": entries,
    }


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    """Write `ckpt` to `path`, replacing any file there only once complete.

    The bytes go to `<path>.tmp` in the same directory, which is then renamed
    over `path`. If writing fails, the temp file is removed and a checkpoint
    already at `path` is left as it was.
    """
    manifest = json.dumps(
        _manifest_dict(ckpt), sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<Q", len(manifest)))
            fh.write(manifest)
            for arr in ckpt.params.values():
                # through the array's buffer: no bytes copy
                fh.write(np.ascontiguousarray(arr, dtype="<f4").data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(path) -> Checkpoint:
    path = Path(path)
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(16)
        if head[:8] == OLD_MAGIC:
            raise ConfigError(
                f"{path}: checkpoint in the older COGENT01 format; "
                "re-create it with this version of cogent"
            )
        if head[:8] != MAGIC:
            raise ConfigError(f"{path}: not a checkpoint file (bad magic)")
        mlen = int.from_bytes(head[8:16], "little")
        if len(head) < 16 or 16 + mlen > size:
            raise ConfigError(f"{path}: truncated checkpoint (manifest cut short)")
        ckpt, entries = _parse_manifest(fh.read(mlen), path)
        body_len = size - 16 - mlen
        expected = 0
        for name, shape, offset in entries:
            if offset != expected or not all(
                isinstance(n, int) and n >= 0 for n in shape
            ):
                raise ConfigError(
                    f"{path}: invalid checkpoint manifest (entry {name!r})"
                )
            expected += math.prod(shape) * 4
        if body_len != expected:
            raise ConfigError(
                f"{path}: payload is {body_len} bytes, the manifest's shapes "
                f"need {expected} (truncated or corrupt file)"
            )
        # the payload is read once, into the buffer the arrays view
        payload = np.empty(expected // 4, dtype="<f4")
        if fh.readinto(payload) != expected:
            raise ConfigError(f"{path}: payload changed while it was read")
    for name, shape, offset in entries:
        start = offset // 4
        ckpt.params[name] = payload[start : start + math.prod(shape)].reshape(shape)
    return ckpt


def _parse_manifest(blob: bytes, path: Path):
    """The checkpoint (no arrays yet) and its (name, shape, offset) entries."""
    try:
        manifest = json.loads(blob.decode("utf-8"))
        if not isinstance(manifest["config"], dict):
            raise TypeError("config is not a JSON object")
        entries = [
            (e["name"], tuple(e["shape"]), e["offset"]) for e in manifest["params"]
        ]
        ckpt = Checkpoint(
            config=manifest["config"],
            params={},
            lambda_c=manifest["lambda_c"],
            lambda_r=manifest["lambda_r"],
            epoch=manifest["epoch"],
            norm_mean=manifest["norm_mean"],
            norm_std=manifest["norm_std"],
        )
        stored = manifest["config_digest"]
    except (ValueError, KeyError, TypeError) as e:
        raise ConfigError(f"{path}: invalid checkpoint manifest ({e!r})") from None
    if stored != ckpt.digest:
        raise ConfigError(
            f"{path}: the stored config_digest does not match the digest of "
            "the stored config (edited or corrupt manifest)"
        )
    return ckpt, entries
