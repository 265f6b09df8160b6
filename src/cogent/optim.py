"""Adam with bias correction and decoupled weight decay.

Weight decay applies to affine weight matrices only (names ending ".w"),
never to layer-norm gains/biases, bias vectors, or the cls/mask tokens.
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
        m = state.m[name]
        v = state.v[name]
        m *= cfg.beta1
        m += (1.0 - cfg.beta1) * g
        v *= cfg.beta2
        v += (1.0 - cfg.beta2) * (g * g)
        m_hat = m / bc1
        v_hat = v / bc2
        update = cfg.lr * m_hat / (np.sqrt(v_hat) + cfg.eps)
        if cfg.weight_decay > 0.0 and decayed(name):
            update = update + cfg.lr * cfg.weight_decay * tensor.data
        tensor.data = (tensor.data - update).astype(tensor.data.dtype)
