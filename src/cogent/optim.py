"""Adam with bias correction and decoupled weight decay.

Weight decay applies to affine weight matrices only (names ending ".w"),
never to layer-norm gains/biases, bias vectors, or the cls/mask tokens.

A step updates the parameter arrays and the moments in place, one
cache-sized block of each tensor at a time. A caller that keeps parameter
values across steps must copy them, as checkpoint snapshots do.
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


# Elements per update block. A block of the parameter, its gradient, both
# moments and the two scratch buffers stays in cache across the ~15 passes
# of one update; 64K elements measured fastest on paper-scale tensors.
_BLOCK = 1 << 16


def decayed(name: str) -> bool:
    return name.endswith(".w")


def adam_step(params: ModelParams, state: AdamState, cfg: AdamConfig) -> None:
    """One optimizer step over accumulated gradients.

    Every parameter must carry a finite gradient: a stage builds only the
    tensors it trains, so a missing one means the loss never reached it.
    All gradients are checked before any parameter, moment or the step
    counter changes, so a refused step leaves the state as it was.
    """
    for name, tensor in params.items():
        g = tensor.grad
        if g is None:
            raise ContractError(f"no gradient reached parameter {name!r}")
        if not np.all(np.isfinite(g)):
            raise ContractError(f"non-finite gradient in parameter {name!r}")
    state.step += 1
    t = state.step
    bc1 = 1.0 - cfg.beta1**t
    bc2 = 1.0 - cfg.beta2**t
    for name, tensor in params.items():
        decay = cfg.weight_decay > 0.0 and decayed(name)
        # flat views, never copies: every block writes through to the
        # stored parameter and moments
        arrays = (tensor.data, tensor.grad, state.m[name], state.v[name])
        flat = [x.reshape(-1, copy=False) for x in arrays]
        size = tensor.data.size
        scratch = np.empty((2, min(size, _BLOCK)), tensor.data.dtype)
        for lo in range(0, size, _BLOCK):
            data, g, m, v = (x[lo : lo + _BLOCK] for x in flat)
            buf, den = scratch[:, : data.size]
            np.multiply(g, 1.0 - cfg.beta1, out=buf)
            m *= cfg.beta1
            m += buf
            np.multiply(g, g, out=buf)
            buf *= 1.0 - cfg.beta2
            v *= cfg.beta2
            v += buf
            # update = lr * m_hat / (sqrt(v_hat) + eps) [+ (lr * wd) * data],
            # in exactly this operation order: it fixes the rounding of
            # every parameter bit
            np.divide(m, bc1, out=buf)
            buf *= cfg.lr
            np.divide(v, bc2, out=den)
            np.sqrt(den, out=den)
            den += cfg.eps
            buf /= den
            if decay:
                np.multiply(data, cfg.lr * cfg.weight_decay, out=den)
                buf += den
            data -= buf
