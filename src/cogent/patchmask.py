"""Non-overlapping patching and exact-count patch masking: the one module
that knows the encoder's token layout.

A sample [T,D] becomes N = floor(T/L) patches of L consecutive time steps
over all D channels; trailing T mod L rows are discarded. `patchify` gives
every patch with its index, the theta = 0 layout that fine-tuning,
evaluation and export feed the encoder. `batch_patchify_mask` gives a
pretraining view: masks hide exactly round(theta * N) patches (not iid
Bernoulli) so every sample in a batch has the same visible count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


@dataclass
class PatchConfig:
    L: int = 64
    theta: float = 0.75

    def __post_init__(self):
        if self.L < 1:
            raise ConfigError(f"patch length must be >= 1, got {self.L}")
        if not 0.0 <= self.theta < 1.0:
            raise ConfigError(
                f"masking ratio theta must be in [0, 1), got {self.theta}"
            )

    def n_patches(self, T: int) -> int:
        if self.L > T:
            raise ConfigError(f"patch length {self.L} exceeds sequence length {T}")
        return T // self.L

    def n_visible(self, T: int) -> int:
        n = self.n_patches(T)
        v = n - round(self.theta * n)
        if v < 1:
            raise ConfigError(
                f"masking ratio {self.theta} leaves no visible patch (N={n})"
            )
        return v


def sample_mask(n: int, theta: float, rng: np.random.Generator) -> np.ndarray:
    """Binary mask with exactly round(theta * n) zeros at random positions."""
    if n < 1:
        raise ConfigError(f"need at least one patch, got N={n}")
    k_masked = round(theta * n)
    if n - k_masked < 1:
        raise ConfigError(f"masking ratio {theta} leaves no visible patch (N={n})")
    mask = np.ones(n, dtype=np.uint8)
    if k_masked > 0:
        hidden = rng.choice(n, size=k_masked, replace=False)
        mask[hidden] = 0
    return mask


def patchify(values: np.ndarray, cfg: PatchConfig) -> tuple[np.ndarray, np.ndarray]:
    """Every patch of a [B,T,D] batch: (patches [B,N,L*D] in the dtype of
    `values`, time-major, and token_idx [B,N], each row 0..N-1)."""
    B, T, D = values.shape
    n = cfg.n_patches(T)
    patches = values[:, : n * cfg.L, :].reshape(B, n, cfg.L * D)
    return patches, np.broadcast_to(np.arange(n, dtype=np.int64), (B, n)).copy()


def batch_patchify_mask(
    values: np.ndarray,
    cfg: PatchConfig,
    rng: np.random.Generator,
    keep_zeroed: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One masked view of a [B,T,D] batch, with per-sample masks.

    Returns (tokens [B,V,L*D], token_idx [B,V], masks [B,N], patches
    [B,N,L*D]), the arrays in the dtype of `values`. `patches` is
    `patchify`'s, the masked-target reconstruction target. With keep_zeroed
    the masked patches stay in the token sequence as zeros (V == N), the
    literal elementwise-masking form.
    """
    patches, idx = patchify(values, cfg)
    B, n, _ = patches.shape
    masks = np.stack([sample_mask(n, cfg.theta, rng) for _ in range(B)])
    if keep_zeroed:
        return patches * masks[:, :, None].astype(patches.dtype), idx, masks, patches
    v = n - round(cfg.theta * n)
    idx = np.nonzero(masks)[1].reshape(B, v).astype(np.int64)
    tokens = np.take_along_axis(patches, idx[:, :, None], axis=1)
    return tokens, idx, masks, patches
