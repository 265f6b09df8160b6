"""Objectives: patch reconstruction, temperature-scaled contrastive loss,
and their weighted combination.

The reconstruction loss averages per-patch squared L2 error over the patch
count only (not the element count), so the automatic loss balancing stays
comparable across patch sizes. The contrastive loss normalizes embeddings
internally (cosine similarity), excludes each anchor's self-similarity from
the denominator, and by default averages over original-view anchors only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    FLOAT32_MAX,
    ConfigError,
    ContractError,
    require_choice,
    require_range,
)
from .tensor import Tensor, concat, l2_normalize, logsumexp, matmul, tmean, tsum

MODES = ("cogent", "contrastive_only", "generative_only")
RECON_TARGETS = ("visible", "masked")
RECON_VIEWS = ("both", "orig")
LAMBDA_POLICIES = ("auto", "fixed")


@dataclass
class LossConfig:
    mode: str = "cogent"
    tau: float = 0.2
    lambda_policy: str = "auto"
    lambda_c: float = 1.0
    lambda_r: float = 1.0
    reconstruct_target: str = "visible"
    recon_views: str = "both"
    symmetric_ntxent: bool = False

    def __post_init__(self):
        require_choice("loss mode", self.mode, MODES)
        require_choice("lambda policy", self.lambda_policy, LAMBDA_POLICIES)
        require_choice("reconstruction target", self.reconstruct_target, RECON_TARGETS)
        require_choice("recon_views", self.recon_views, RECON_VIEWS)
        # the logits are float32 and scaled by 1/tau, so tau and 1/tau must
        # both be float32 values; a weight scales a float32 loss tensor
        require_range("temperature tau", self.tau, 1 / FLOAT32_MAX)
        for key in ("lambda_c", "lambda_r"):
            require_range(key, getattr(self, key), 0.0)
        # the inactive branch of a single-objective mode carries no weight
        if self.mode == "contrastive_only":
            self.lambda_r = 0.0
            if self.lambda_c == 0.0:
                self.lambda_c = 1.0
        elif self.mode == "generative_only":
            self.lambda_c = 0.0
            if self.lambda_r == 0.0:
                self.lambda_r = 1.0
        elif self.lambda_policy == "fixed" and (
            self.lambda_c <= 0 or self.lambda_r <= 0
        ):
            raise ConfigError("joint mode requires positive lambda_c and lambda_r")

    @property
    def needs_contrastive(self) -> bool:
        return self.mode in ("cogent", "contrastive_only")

    @property
    def needs_reconstruction(self) -> bool:
        return self.mode in ("cogent", "generative_only")

    @property
    def needs_aug_reconstruction(self) -> bool:
        return self.needs_reconstruction and self.recon_views == "both"

    @property
    def needs_aug_view(self) -> bool:
        return self.needs_contrastive or self.needs_aug_reconstruction


@dataclass
class LossReport:
    l_r_orig: float | None
    l_r_aug: float | None
    l_r: float | None
    l_c: float | None
    lambda_c: float
    lambda_r: float
    total: float


def patch_reconstruction_term(
    p_hat: Tensor, p: Tensor, weights: np.ndarray | None = None
) -> Tensor:
    """Mean over patches of the squared L2 distance ||p_hat - p||^2.

    With `weights` ([B, N], 1 for a scored patch and 0 otherwise), only the
    scored patches count, in the sum and in the patch count.
    """
    if p_hat.shape != p.shape:
        raise ContractError(
            f"reconstruction shapes disagree: {p_hat.shape} vs {p.shape}"
        )
    d = p_hat - p
    if weights is None:
        count = p.shape[0] * p.shape[1]
    else:
        d = d * Tensor(weights[:, :, None].astype(p_hat.data.dtype))
        count = int(np.count_nonzero(weights))
    return tsum(d * d) * (1.0 / count)


def contrastive_loss(
    h: Tensor, h_aug: Tensor, tau: float, symmetric: bool = False
) -> Tensor:
    """Temperature-scaled cross-entropy over cosine similarities.

    For anchor i the positive is its augmented view; the denominator runs
    over the other 2B-1 embeddings (self excluded). Embeddings are
    normalized internally, so any positive rescaling leaves the loss
    unchanged. With B=1 the denominator is the positive term alone and an
    identical pair gives exactly 0.
    """
    if tau <= 0:
        raise ConfigError(f"temperature must be positive, got {tau}")
    if h.shape != h_aug.shape:
        raise ContractError(f"embedding shapes disagree: {h.shape} vs {h_aug.shape}")
    b = h.shape[0]
    full = concat([l2_normalize(h, axis=-1), l2_normalize(h_aug, axis=-1)], axis=0)
    sims = matmul(full, full.transpose())
    logits = sims * (1.0 / tau)
    self_block = np.zeros((2 * b, 2 * b), dtype=h.data.dtype)
    np.fill_diagonal(self_block, -1e9)
    logits = logits + Tensor(self_block)
    if symmetric:
        anchors = logits
        pos_cols = np.concatenate([np.arange(b) + b, np.arange(b)])
    else:
        anchors = logits[:b, :]
        pos_cols = np.arange(b) + b
    onehot = np.zeros(anchors.shape, dtype=h.data.dtype)
    onehot[np.arange(len(pos_cols)), pos_cols] = 1.0
    pos = tsum(anchors * Tensor(onehot), axis=1)
    lse = logsumexp(anchors, axis=-1)
    return tmean(lse - pos)


def balance_lambdas(first_l_c: float, first_l_r: float) -> tuple[float, float]:
    """One-time weights making the two first-batch terms equal in scale."""
    if first_l_r <= 1e-12:
        raise ConfigError(
            f"cannot balance loss weights: degenerate reconstruction loss "
            f"{first_l_r}"
        )
    if first_l_c <= 0:
        raise ConfigError(
            f"cannot balance loss weights: non-positive contrastive loss "
            f"{first_l_c}"
        )
    return 1.0, first_l_c / first_l_r


def joint_loss(
    cfg: LossConfig,
    lambda_c: float,
    lambda_r: float,
    l_c: Tensor | None,
    l_r_orig: Tensor | None,
    l_r_aug: Tensor | None,
    l_r: Tensor | None,
) -> tuple[Tensor, LossReport]:
    """Combine the mode's active terms; inactive branches stay out of the graph."""
    if cfg.mode == "contrastive_only":
        total = l_c * lambda_c
    elif cfg.mode == "generative_only":
        total = l_r * lambda_r
    else:
        total = l_c * lambda_c + l_r * lambda_r
    report = LossReport(
        l_r_orig=None if l_r_orig is None else l_r_orig.item(),
        l_r_aug=None if l_r_aug is None else l_r_aug.item(),
        l_r=None if l_r is None else l_r.item(),
        l_c=None if l_c is None else l_c.item(),
        lambda_c=lambda_c,
        lambda_r=lambda_r,
        total=total.item(),
    )
    return total, report


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean softmax cross-entropy from raw logits and integer labels."""
    b, c = logits.shape
    onehot = np.zeros((b, c), dtype=logits.data.dtype)
    onehot[np.arange(b), labels] = 1.0
    pos = tsum(logits * Tensor(onehot), axis=1)
    lse = logsumexp(logits, axis=-1)
    return tmean(lse - pos)
