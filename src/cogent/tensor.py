"""Dense-tensor arithmetic with reverse-mode gradients.

Values are stored as 32-bit floats; dot products and reductions accumulate
in 64-bit and round back, so finite-difference checks stay meaningful at
desk scale. A product with a 2-D right operand (every affine layer) runs as
one 2-D float64 GEMM, for the forward pass and for each gradient. A float64
storage mode (pass float64 data in) is available for verification harnesses
that need finite differences below float32 noise.

Gradient accumulation is additive: callers must zero gradients between
optimization steps.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np
from scipy.special import erf as _erf

__all__ = [
    "Tensor",
    "ShapeError",
    "tensor",
    "matmul",
    "softmax",
    "log_softmax",
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
    """A dense array node in a reverse-mode differentiation graph."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_array(data)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
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
            self.grad = np.zeros_like(self.data)
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


def tensor(data, requires_grad: bool = False) -> Tensor:
    if isinstance(data, Tensor):
        return data
    return Tensor(data, requires_grad=requires_grad)


def _needs_grad(t: Tensor) -> bool:
    return t.requires_grad or t._parents != ()


def _coerce(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=np.float32))


def _result(data: np.ndarray, parents: Sequence[Tensor], backward) -> Tensor:
    out = Tensor(data)
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
    """Matrix product accumulated in float64, rounded to the operands' dtype.

    With a 2-D right operand, the left operand's leading dimensions fold
    into rows: the product and both gradients are then one 2-D GEMM each,
    `(rows, K) @ (K, N)`, `g @ b.T` and `a.T @ g`. Otherwise leading
    dimensions broadcast as in `np.matmul` (batched attention products).
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
        data = (_rows64(a.data, rows) @ _as64(b.data)).reshape(
            a.shape[:-1] + (n,)
        )

        def backward(g):
            g2 = _rows64(g, rows)
            ga = (g2 @ _as64(b.data).T).reshape(a.shape)
            gb = _rows64(a.data, rows).T @ g2
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


def _rows64(x: np.ndarray, rows: int) -> np.ndarray:
    """`x` as a float64 (rows, last-dim) matrix."""
    return _as64(x.reshape(rows, x.shape[-1]))


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


# -- composite ops -------------------------------------------------------------


def softmax(a, axis: int = -1) -> Tensor:
    """Max-shifted softmax along `axis`; output sums to 1 along the axis."""
    a = _coerce(a)
    if not -a.ndim <= axis < a.ndim:
        raise ShapeError(f"softmax axis {axis} invalid for shape {a.shape}")
    shift = np.max(a.data, axis=axis, keepdims=True)
    e = exp(sub(a, Tensor(shift)))
    total = tsum(e, axis=axis, keepdims=True)
    return div(e, total)


def log_softmax(a, axis: int = -1) -> Tensor:
    a = _coerce(a)
    return sub(a, logsumexp(a, axis=axis, keepdims=True))


def logsumexp(a, axis: int = -1, keepdims: bool = False) -> Tensor:
    """Stable log-sum-exp; the max shift is treated as a constant."""
    a = _coerce(a)
    shift = np.max(a.data, axis=axis, keepdims=True)
    e = exp(sub(a, Tensor(shift)))
    s = log(tsum(e, axis=axis, keepdims=True))
    out = add(s, Tensor(shift))
    if not keepdims:
        out = reshape(out, np.squeeze(out.data, axis=axis).shape)
    return out


def layer_norm(x, gamma, beta, eps: float = 1e-5) -> Tensor:
    """Normalize the last dimension to mean 0 / variance 1, then affine."""
    x, gamma, beta = _coerce(x), _coerce(gamma), _coerce(beta)
    if gamma.shape != x.shape[-1:] or beta.shape != x.shape[-1:]:
        raise ShapeError(
            f"layer_norm affine params {gamma.shape}/{beta.shape} do not match "
            f"last dimension of {x.shape}"
        )
    mu = tmean(x, axis=-1, keepdims=True)
    centered = sub(x, mu)
    var = tmean(mul(centered, centered), axis=-1, keepdims=True)
    inv = div(Tensor(np.asarray(1.0, dtype=x.data.dtype)), sqrt(add(var, eps)))
    return add(mul(mul(centered, inv), gamma), beta)


def l2_normalize(x, axis: int = -1, eps: float = 1e-12) -> Tensor:
    """Scale rows along `axis` to unit Euclidean norm."""
    x = _coerce(x)
    sq = tsum(mul(x, x), axis=axis, keepdims=True)
    return div(x, sqrt(add(sq, eps)))


# -- finite-difference oracle --------------------------------------------------


def finite_diff_check(f: Callable[[Tensor], Tensor], x: Tensor, h: float = 1e-3) -> float:
    """Max relative error between reverse-mode and central-difference gradients.

    `f` must return a scalar Tensor. Error per coordinate is
    |analytic - central| / (|central| + 1e-8); the max over coordinates is
    returned.
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
