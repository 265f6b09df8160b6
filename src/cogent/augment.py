"""Augmented-view construction for positive pairs.

Two augmentations are supported: Gaussian jittering and time-masking
(zeroing whole time steps across all channels). Views are built from
already-normalized samples so the positive pair shares one scale; the
functions never mutate their input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import require_choice, require_range

KINDS = ("jitter", "time_mask")


@dataclass
class AugmentConfig:
    kind: str = "jitter"
    epsilon: float = 0.1
    mask_fraction: float = 0.5

    def __post_init__(self):
        require_choice("augmentation kind", self.kind, KINDS)
        # epsilon scales float32 noise, so it must be a float32 value
        require_range("epsilon", self.epsilon, 0.0)
        require_range("mask_fraction", self.mask_fraction, 0.0, 1.0, open_hi=True)


def jitter(x: np.ndarray, epsilon: float, rng: np.random.Generator) -> np.ndarray:
    """x + epsilon * g with g ~ iid standard normal."""
    noise = rng.standard_normal(x.shape).astype(np.float32)
    return (x + epsilon * noise).astype(np.float32)


def time_mask(
    x: np.ndarray, mask_fraction: float, rng: np.random.Generator
) -> np.ndarray:
    """Zero exactly round(fraction * T) time steps across all channels."""
    T = x.shape[0]
    k = round(mask_fraction * T)
    out = x.copy()
    if k > 0:
        idx = rng.choice(T, size=k, replace=False)
        out[idx, :] = 0.0
    return out


def make_views_batch(
    values: np.ndarray, cfg: AugmentConfig, rng: np.random.Generator
) -> np.ndarray:
    """Augment a [B,T,D] batch with one rng stream, sample by sample.

    Jitter draws the whole batch's noise at once: one [B,T,D] draw takes the
    same normals off the stream, in the same order, as B per-sample draws,
    so the views carry the same bits. Time masks stay per sample, since one
    batched `rng.choice` would consume the stream differently.
    """
    if cfg.kind == "jitter":
        return jitter(values, cfg.epsilon, rng)
    return np.stack([time_mask(v, cfg.mask_fraction, rng) for v in values])
