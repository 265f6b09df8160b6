"""Dense-tensor arithmetic with reverse-mode gradients.

Values are stored as 32-bit floats. Where sums accumulate:

- a product with a 2-D right operand (every affine layer, and the
  contrastive similarity matrix) is one GEMM in the storage dtype, for the
  forward pass and for each gradient; it sums over features;
- a batched-by-batched product (attention, the decoder's scatter) sums over
  tokens in float64 and rounds back, which keeps the encoder exactly
  equivariant to token permutations;
- reductions (`tsum`, `tmean`) accumulate in float64 and round back.

A float64 storage mode (pass float64 data in) is available for verification
harnesses that need finite differences below float32 noise; every product
and gradient then runs in float64.

`layer_norm`, `softmax`, `logsumexp` and `l2_normalize` are each a single
graph node. Their forward pass and backward closure replay the numpy
arithmetic of the primitive graph they replace (add/sub/mul/div,
tsum/tmean, exp/log/sqrt) in its order, so values and gradients are
bit-identical to it; `selfcheck` holds those graphs and checks this.

Gradient accumulation is additive: callers must zero gradients between
optimization steps. The first gradient of a pass is written as 0 + g, into
the tensor's `grad_slot` when the optimizer has set one.

Passes that only read values (the pretraining sanity loss, validation,
inference, the finite-difference loop) run inside `no_grad()`. Within that
scope every op returns a plain leaf: no parents, no backward closure, so no
graph is built or held. Values come from the same numpy calls in the same
order, so they are bit-identical to a graph-building pass. The scope is off
by default, costs one flag check per op when off, and restores the previous
state on exit, on an exception and when nested.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Callable, Iterator, Sequence

import numpy as np
from scipy.special import erf as _erf

__all__ = [
    "Tensor",
    "ShapeError",
    "matmul",
    "softmax",
    "layer_norm",
    "gelu",
    "relu",
    "exp",
    "log",
    "sqrt",
    "concat",
    "transpose",
    "reshape",
    "tsum",
    "tmean",
    "l2_normalize",
    "logsumexp",
    "finite_diff_check",
    "no_grad",
]

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible."""


def _as_array(x, dtype=np.float32):
    a = np.asarray(x)
    if a.dtype not in (np.float32, np.float64):
        a = a.astype(dtype)
    return a


class Tensor:
    """A dense array node in a reverse-mode differentiation graph.

    `grad_slot`, when set (the optimizer sets it), is a preallocated array of
    the data's shape that the first gradient of each pass is written into.
    """

    __slots__ = (
        "data", "requires_grad", "grad", "grad_slot", "_parents", "_backward"
    )

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_array(data)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self.grad_slot: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    # -- basic introspection ------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def numpy(self) -> np.ndarray:
        return self.data

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- gradient plumbing --------------------------------------------------

    def zero_grad(self) -> None:
        self.grad = None

    def _accumulate(self, g: np.ndarray) -> None:
        g = g.astype(self.data.dtype, copy=False)
        if self.grad is None:
            # one pass; 0 + g turns a -0.0 into +0.0, as a zero-filled
            # buffer would
            out = self.grad_slot
            if out is None:
                out = np.empty_like(self.data)
            self.grad = np.add(g, 0, out=out)
        else:
            self.grad += g

    def backward(self) -> None:
        """Reverse-mode sweep seeding d(self)/d(self) = 1 (self must be scalar)."""
        if self.data.size != 1:
            raise ShapeError(
                f"backward() requires a scalar output, got shape {self.shape}"
            )
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        grads: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        for node in reversed(order):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node.requires_grad:
                node._accumulate(g)
            if node._backward is not None:
                for parent, pg in node._backward(g):
                    if not _needs_grad(parent):
                        continue
                    key = id(parent)
                    if key in grads:
                        grads[key] = grads[key] + pg
                    else:
                        grads[key] = pg

    # -- operator sugar -----------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return tslice(self, key)

    def reshape(self, *shape):
        return reshape(self, *shape)

    def transpose(self, *axes):
        return transpose(self, *axes)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)


def _needs_grad(t: Tensor) -> bool:
    return t.requires_grad or t._parents != ()


def _coerce(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=np.float32))


_grad_enabled = True


@contextmanager
def no_grad() -> Iterator[None]:
    """Scope in which ops build no graph; the previous state returns on exit."""
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


def _result(data: np.ndarray, parents: Sequence[Tensor], backward) -> Tensor:
    out = Tensor(data)
    if not _grad_enabled:
        return out
    for p in parents:
        if p.requires_grad or p._parents:
            out._parents = tuple(parents)
            out._backward = backward
            break
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `g` down to `shape`, undoing numpy broadcasting."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# -- elementwise arithmetic ------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    data = a.data + b.data

    def backward(g):
        return (
            (a, _unbroadcast(g, a.shape)),
            (b, _unbroadcast(g, b.shape)),
        )

    return _result(data, (a, b), backward)


def sub(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    data = a.data - b.data

    def backward(g):
        return (
            (a, _unbroadcast(g, a.shape)),
            (b, _unbroadcast(-g, b.shape)),
        )

    return _result(data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    data = a.data * b.data

    def backward(g):
        return (
            (a, _unbroadcast(g * b.data, a.shape)),
            (b, _unbroadcast(g * a.data, b.shape)),
        )

    return _result(data, (a, b), backward)


def div(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    data = a.data / b.data

    def backward(g):
        return (
            (a, _unbroadcast(g / b.data, a.shape)),
            (b, _unbroadcast(-g * a.data / (b.data * b.data), b.shape)),
        )

    return _result(data, (a, b), backward)


def neg(a) -> Tensor:
    a = _coerce(a)
    return _result(-a.data, (a,), lambda g: ((a, -g),))


# -- structural ops ----------------------------------------------------------


def reshape(a, *shape) -> Tensor:
    a = _coerce(a)
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    data = a.data.reshape(shape)
    src_shape = a.data.shape

    def backward(g):
        return ((a, g.reshape(src_shape)),)

    return _result(data, (a,), backward)


def transpose(a, *axes) -> Tensor:
    a = _coerce(a)
    if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
        axes = tuple(axes[0])
    if not axes:
        axes = tuple(reversed(range(a.ndim)))
    inv = np.argsort(axes)
    data = np.transpose(a.data, axes)

    def backward(g):
        return ((a, np.transpose(g, inv)),)

    return _result(data, (a,), backward)


def tslice(a, key) -> Tensor:
    a = _coerce(a)
    data = a.data[key]

    def backward(g):
        full = np.zeros_like(a.data)
        full[key] = g
        return ((a, full),)

    return _result(data, (a,), backward)


def concat(parts: Sequence, axis: int = 0) -> Tensor:
    parts = [_coerce(p) for p in parts]
    data = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.data.shape[axis] for p in parts]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        pieces = np.split(g, splits, axis=axis)
        return tuple((p, piece) for p, piece in zip(parts, pieces))

    return _result(data, parts, backward)


# -- reductions (64-bit accumulation, rounded back) ---------------------------


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _coerce(a)
    data = a.data.sum(axis=axis, keepdims=keepdims, dtype=np.float64)
    data = data.astype(a.data.dtype)
    src_shape = a.data.shape

    def backward(g):
        if axis is None:
            return ((a, np.broadcast_to(g, src_shape).copy()),)
        axes = axis if isinstance(axis, tuple) else (axis,)
        if not keepdims:
            g = np.expand_dims(g, axes)
        return ((a, np.broadcast_to(g, src_shape).copy()),)

    return _result(data, (a,), backward)


def tmean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _coerce(a)
    if axis is None:
        count = a.data.size
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        count = int(np.prod([a.data.shape[i] for i in axes]))
    data = a.data.mean(axis=axis, keepdims=keepdims, dtype=np.float64)
    data = data.astype(a.data.dtype)
    src_shape = a.data.shape

    def backward(g):
        g = g / count
        if axis is None:
            return ((a, np.broadcast_to(g, src_shape).copy()),)
        axes = axis if isinstance(axis, tuple) else (axis,)
        if not keepdims:
            g = np.expand_dims(g, axes)
        return ((a, np.broadcast_to(g, src_shape).copy()),)

    return _result(data, (a,), backward)


# -- matmul ------------------------------------------------------------------


def matmul(a, b) -> Tensor:
    """Matrix product, rounded to the operands' dtype.

    With a 2-D right operand (affine layers, feature-axis similarities), the
    left operand's leading dimensions fold into rows: the product and both
    gradients are then one 2-D GEMM each, `(rows, K) @ (K, N)`, `g @ b.T`
    and `a.T @ g`, run in the storage dtype (float32 in training, float64
    under the gradient criterion). Otherwise leading dimensions broadcast as
    in `np.matmul` (attention's `q @ k^T` and `attn @ v`, the decoder's
    scatter), and the product and gradients accumulate in float64: these sum
    over tokens, and float64 sums keep token permutation equivariance exact.
    """
    a, b = _coerce(a), _coerce(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(
            f"matmul expects >=2-d operands, got {a.shape} and {b.shape}"
        )
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(
            f"matmul inner dimensions disagree: {a.shape} x {b.shape}"
        )
    out_dtype = np.result_type(a.data.dtype, b.data.dtype)
    if b.ndim == 2:
        n = b.shape[1]
        rows = math.prod(a.shape[:-1])
        a2 = a.data.reshape(rows, a.shape[-1])
        data = (a2 @ b.data).reshape(a.shape[:-1] + (n,))

        def backward(g):
            g2 = g.reshape(rows, n)
            ga = (g2 @ b.data.T).reshape(a.shape)
            gb = a2.T @ g2
            return (
                (a, ga.astype(a.data.dtype, copy=False)),
                (b, gb.astype(b.data.dtype, copy=False)),
            )

    else:
        data = np.matmul(_as64(a.data), _as64(b.data))

        def backward(g):
            g64 = _as64(g)
            ga = np.matmul(g64, np.swapaxes(_as64(b.data), -1, -2))
            gb = np.matmul(np.swapaxes(_as64(a.data), -1, -2), g64)
            return (
                (a, _unbroadcast(ga, a.shape).astype(a.data.dtype, copy=False)),
                (b, _unbroadcast(gb, b.shape).astype(b.data.dtype, copy=False)),
            )

    return _result(data.astype(out_dtype, copy=False), (a, b), backward)


def _as64(x: np.ndarray) -> np.ndarray:
    return x.astype(np.float64, copy=False)


# -- nonlinearities ----------------------------------------------------------


def relu(a) -> Tensor:
    a = _coerce(a)
    data = np.maximum(a.data, 0)

    def backward(g):
        return ((a, g * (a.data > 0)),)

    return _result(data, (a,), backward)


def gelu(a) -> Tensor:
    """Gaussian-CDF gelu: x * Phi(x), exact (no tanh approximation)."""
    a = _coerce(a)
    x = a.data
    phi_cdf = 0.5 * (1.0 + _erf(x * _INV_SQRT2))
    data = (x * phi_cdf).astype(x.dtype)

    def backward(g):
        pdf = np.exp(-0.5 * x * x) * _INV_SQRT2PI
        return ((a, g * (phi_cdf + x * pdf)),)

    return _result(data, (a,), backward)


def exp(a) -> Tensor:
    a = _coerce(a)
    data = np.exp(a.data)

    def backward(g):
        return ((a, g * data),)

    return _result(data, (a,), backward)


def log(a) -> Tensor:
    a = _coerce(a)
    data = np.log(a.data)

    def backward(g):
        return ((a, g / a.data),)

    return _result(data, (a,), backward)


def sqrt(a) -> Tensor:
    a = _coerce(a)
    data = np.sqrt(a.data)

    def backward(g):
        return ((a, g * (0.5 / data)),)

    return _result(data, (a,), backward)


# -- fused ops (one node each; see the module docstring) -----------------------
#
# Where pieces of gradient meet in an intermediate array, they are summed in
# the order the primitive graph's walk would deliver them. The pieces for an
# input are handed back separately, so `Tensor.backward` sums them with the
# input's other gradients in that order too.


def _sum_kept(a: np.ndarray, axis) -> np.ndarray:
    """`tsum(a, axis, keepdims=True)`'s values."""
    return a.sum(axis=axis, keepdims=True, dtype=np.float64).astype(a.dtype)


def softmax(a, axis: int = -1) -> Tensor:
    """Max-shifted softmax along `axis`; output sums to 1 along the axis."""
    a = _coerce(a)
    if not -a.ndim <= axis < a.ndim:
        raise ShapeError(f"softmax axis {axis} invalid for shape {a.shape}")
    e = np.exp(a.data - np.max(a.data, axis=axis, keepdims=True))
    total = _sum_kept(e, axis)
    data = e / total

    def backward(g):
        g_total = _unbroadcast(-g * e / (total * total), total.shape)
        g_e = g / total + np.broadcast_to(g_total, e.shape)
        return ((a, g_e * e),)

    return _result(data, (a,), backward)


def logsumexp(a, axis: int = -1, keepdims: bool = False) -> Tensor:
    """Stable log-sum-exp; the max shift is treated as a constant."""
    a = _coerce(a)
    shift = np.max(a.data, axis=axis, keepdims=True)
    e = np.exp(a.data - shift)
    total = _sum_kept(e, axis)
    data = np.log(total) + shift
    if not keepdims:
        data = np.squeeze(data, axis=axis)

    def backward(g):
        g_total = g.reshape(total.shape) / total
        return ((a, np.broadcast_to(g_total, e.shape) * e),)

    return _result(data, (a,), backward)


def layer_norm(x, gamma, beta, eps: float = 1e-5) -> Tensor:
    """Normalize the last dimension to mean 0 / variance 1, then affine."""
    x, gamma, beta = _coerce(x), _coerce(gamma), _coerce(beta)
    if gamma.shape != x.shape[-1:] or beta.shape != x.shape[-1:]:
        raise ShapeError(
            f"layer_norm affine params {gamma.shape}/{beta.shape} do not match "
            f"last dimension of {x.shape}"
        )
    n = x.shape[-1]
    mu = x.data.mean(axis=-1, keepdims=True, dtype=np.float64).astype(x.dtype)
    c = x.data - mu
    var = (c * c).mean(axis=-1, keepdims=True, dtype=np.float64).astype(c.dtype)
    # eps is a float32 constant, as `add` coerces it in the primitive graph
    sd = np.sqrt(var + np.float32(eps))
    inv = 1.0 / sd
    ci = c * inv
    data = ci * gamma.data + beta.data

    def backward(g):
        g_ci = g * gamma.data
        g_inv = _unbroadcast(g_ci * c, inv.shape)
        g_var = -g_inv / (sd * sd) * (0.5 / sd)
        g_sq = np.broadcast_to(g_var / n, c.shape) * c
        # the centred input's three pieces: through the scaling, then
        # through each factor of c * c
        g_c = g_ci * inv
        g_c += g_sq
        g_c += g_sq
        g_mu = _unbroadcast(-g_c, mu.shape) / n
        return (
            (x, g_c),
            (x, np.broadcast_to(g_mu, x.shape)),
            (gamma, _unbroadcast(g * ci, gamma.shape)),
            (beta, _unbroadcast(g, beta.shape)),
        )

    return _result(data, (x, gamma, beta), backward)


def l2_normalize(x, axis: int = -1, eps: float = 1e-12) -> Tensor:
    """Scale rows along `axis` to unit Euclidean norm."""
    x = _coerce(x)
    norm = np.sqrt(_sum_kept(x.data * x.data, axis) + np.float32(eps))
    data = x.data / norm

    def backward(g):
        g_norm = _unbroadcast(-g * x.data / (norm * norm), norm.shape)
        g_sq = np.broadcast_to(g_norm * (0.5 / norm), x.shape) * x.data
        # x's pieces: through the division, then once per factor of x * x
        return ((x, g / norm), (x, g_sq), (x, g_sq))

    return _result(data, (x,), backward)


# -- finite-difference oracle --------------------------------------------------


def finite_diff_check(f: Callable[[Tensor], Tensor], x: Tensor, h: float = 1e-3) -> float:
    """Max relative error between reverse-mode and central-difference gradients.

    `f` must return a scalar Tensor. Error per coordinate is
    |analytic - central| / (|central| + 1e-8); the max over coordinates is
    returned. The central differences only read `f`, so they build no graph.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    probe = Tensor(x.data.copy(), requires_grad=True)
    out = f(probe)
    if not isinstance(out, Tensor) or out.data.size != 1:
        raise ShapeError("finite_diff_check requires a scalar-valued f")
    out.backward()
    analytic = (
        probe.grad.copy() if probe.grad is not None else np.zeros_like(probe.data)
    )

    flat = x.data.reshape(-1)
    numeric = np.zeros(flat.shape, dtype=np.float64)
    with no_grad():
        for i in range(flat.size):
            orig = flat[i]
            bumped = x.data.copy().reshape(-1)
            bumped[i] = orig + h
            fp = f(Tensor(bumped.reshape(x.data.shape))).item()
            bumped[i] = orig - h
            fm = f(Tensor(bumped.reshape(x.data.shape))).item()
            numeric[i] = (fp - fm) / (2.0 * h)

    numeric = numeric.reshape(x.data.shape)
    err = np.abs(analytic.astype(np.float64) - numeric) / (np.abs(numeric) + 1e-8)
    return float(err.max())
