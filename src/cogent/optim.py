"""Adam with bias correction and decoupled weight decay.

Weight decay applies to affine weight matrices only (names ending ".w"),
never to layer-norm gains/biases, bias vectors, or the cls/mask tokens.

A step updates the parameter arrays and the moments in place. A caller that
keeps parameter values across steps must copy them, as checkpoint snapshots
do.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError
from .model import ModelParams


@dataclass
class AdamConfig:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0


@dataclass
class AdamState:
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    step: int = 0

    @classmethod
    def for_params(cls, params: ModelParams) -> "AdamState":
        state = cls()
        for name, t in params.items():
            state.m[name] = np.zeros_like(t.data)
            state.v[name] = np.zeros_like(t.data)
        return state


def decayed(name: str) -> bool:
    return name.endswith(".w")


def adam_step(params: ModelParams, state: AdamState, cfg: AdamConfig) -> None:
    """One optimizer step over accumulated gradients.

    Every parameter must carry a finite gradient: a stage builds only the
    tensors it trains, so a missing one means the loss never reached it.
    """
    state.step += 1
    t = state.step
    bc1 = 1.0 - cfg.beta1**t
    bc2 = 1.0 - cfg.beta2**t
    for name, tensor in params.items():
        g = tensor.grad
        if g is None:
            raise ContractError(f"no gradient reached parameter {name!r}")
        if not np.all(np.isfinite(g)):
            raise ContractError(f"non-finite gradient in parameter {name!r}")
        data = tensor.data
        m = state.m[name]
        v = state.v[name]
        buf = np.multiply(g, 1.0 - cfg.beta1)
        m *= cfg.beta1
        m += buf
        np.multiply(g, g, out=buf)
        buf *= 1.0 - cfg.beta2
        v *= cfg.beta2
        v += buf
        # update = lr * m_hat / (sqrt(v_hat) + eps) [+ (lr * wd) * data],
        # in exactly this operation order: it fixes the rounding of every
        # parameter bit
        np.divide(m, bc1, out=buf)
        buf *= cfg.lr
        den = np.divide(v, bc2)
        np.sqrt(den, out=den)
        den += cfg.eps
        buf /= den
        if cfg.weight_decay > 0.0 and decayed(name):
            np.multiply(data, cfg.lr * cfg.weight_decay, out=den)
            buf += den
        data -= buf
