"""Adam with bias correction and decoupled weight decay.

Weight decay applies to affine weight matrices only (names ending ".w"),
never to layer-norm gains/biases, bias vectors, or the cls/mask tokens.

`AdamState.for_params` moves every parameter into one flat buffer per role
(values, gradients, first and second moments), decayed tensors first. Each
tensor's `.data` and `grad_slot`, and `state.m[name]`/`state.v[name]`, are
views into those buffers, so a step is one sweep over one buffer, a
cache-sized block at a time: one stretch with weight decay, one without.
Sweeps of at least `_POOL_SWEEP` elements, and finite checks of at least
`_POOL_CHECK`, also hand blocks to `parallel`'s worker threads; a block's
arithmetic is the same on any thread, so no bit depends on the core count.
A step updates the parameter values in place. A caller that keeps parameter
values across steps must copy them, as checkpoint snapshots do.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import parallel
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
    # rows: parameter values, gradients, m, v; the first n_decayed columns
    # hold the decayed tensors
    buffer: np.ndarray
    n_decayed: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    step: int = 0

    @classmethod
    def for_params(cls, params: ModelParams) -> "AdamState":
        """Zero moments, with every parameter moved into the flat buffer."""
        dtypes = {t.data.dtype for _, t in params.items()}
        if len(dtypes) != 1:
            kinds = sorted(map(str, dtypes))
            raise ContractError(f"one flat buffer holds one dtype, not {kinds}")
        offsets: dict[str, int] = {}
        total = n_decayed = 0
        for name, t in sorted(params.items(), key=lambda item: not decayed(item[0])):
            offsets[name] = total
            total += t.data.size
            if decayed(name):
                n_decayed = total
        state = cls(np.zeros((4, total), dtypes.pop()), n_decayed)
        for name, t in params.items():
            lo = offsets[name]
            values, t.grad_slot, state.m[name], state.v[name] = (
                row[lo : lo + t.data.size].reshape(t.shape) for row in state.buffer
            )
            values[...] = t.data
            t.data = values
        return state


# Elements per update block. A block of the parameter, its gradient, both
# moments and the two scratch buffers stays in cache across the ~15 passes
# of one update; 64K elements measured fastest on paper-scale tensors.
_BLOCK = 1 << 16
# Sweeps and finite checks of this many elements run their blocks on the
# pool too (see `parallel`): ~3 ms of update, ~2 ms of checking.
_POOL_SWEEP = 1 << 20
_POOL_CHECK = 1 << 24


def decayed(name: str) -> bool:
    return name.endswith(".w")


def adam_step(params: ModelParams, state: AdamState, cfg: AdamConfig) -> None:
    """One optimizer step over accumulated gradients.

    Every parameter must carry a finite gradient: a stage builds only the
    tensors it trains, so a missing one means the loss never reached it.
    A gradient assigned by hand rather than accumulated is copied into the
    buffer first. All gradients are checked before any parameter, moment or
    the step counter changes, so a refused step leaves the state as it was.
    The check reads the gradient row a block at a time through one small
    mask per thread, so it allocates nothing gradient-sized.
    """
    for name, tensor in params.items():
        if tensor.grad is None:
            raise ContractError(f"no gradient reached parameter {name!r}")
        if tensor.data.base is not state.buffer:
            raise ContractError(
                f"parameter {name!r} is not held by this optimizer state"
            )
        if tensor.grad is not tensor.grad_slot:
            tensor.grad_slot[...] = tensor.grad
    grads = state.buffer[1]
    mask = parallel.per_thread(lambda: np.empty(min(grads.size, _BLOCK), bool))
    bad: list[int] = []

    def check(i):
        if bad:
            return
        part = grads[i * _BLOCK : (i + 1) * _BLOCK]
        if not np.isfinite(part, out=mask()[: part.size]).all():
            bad.append(i)

    parallel.each(check, -(-grads.size // _BLOCK), pool=grads.size >= _POOL_CHECK)
    if bad:
        for name, tensor in params.items():
            if not np.isfinite(tensor.grad_slot).all():
                raise ContractError(f"non-finite gradient in parameter {name!r}")
    state.step += 1
    t = state.step
    bc1 = 1.0 - cfg.beta1**t
    bc2 = 1.0 - cfg.beta2**t
    split = state.n_decayed if cfg.weight_decay > 0.0 else 0
    _sweep(state.buffer[:, :split], cfg, bc1, bc2, decay=True)
    _sweep(state.buffer[:, split:], cfg, bc1, bc2, decay=False)


def _sweep(buffer: np.ndarray, cfg: AdamConfig, bc1: float, bc2: float, decay: bool):
    """Update the values and moments of `buffer`'s columns in place."""
    size = buffer.shape[1]
    scratch = parallel.per_thread(
        lambda: np.empty((2, min(size, _BLOCK)), buffer.dtype)
    )

    def block(i):
        data, g, m, v = buffer[:, i * _BLOCK : (i + 1) * _BLOCK]
        buf, den = scratch()[:, : data.size]
        np.multiply(g, 1.0 - cfg.beta1, out=buf)
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
        np.divide(v, bc2, out=den)
        np.sqrt(den, out=den)
        den += cfg.eps
        buf /= den
        if decay:
            np.multiply(data, cfg.lr * cfg.weight_decay, out=den)
            buf += den
        data -= buf

    parallel.each(block, -(-size // _BLOCK), pool=size >= _POOL_SWEEP)
