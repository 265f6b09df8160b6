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

`gelu` is exact, x * Phi(x). Its erf is a numpy port of Cephes' erf/erfc
(ndtr.c, the code behind `scipy.special.erf`): evaluated in float64, then
rounded to the storage dtype, so in float32 it is bit-identical to scipy's
erf. The forward and backward passes run in blocks that keep their scratch
in cache.

Three kinds of work also run on `parallel`'s worker threads, beside the
caller, when the machine has a spare core: gelu's blocks, for calls of at
least `_POOL_GELU` elements; a 2-D product's two gradient GEMMs, side by
side, from `_POOL_MACS` multiply-adds each; and the two halves of a large
forward GEMM. From `_SPLIT_MACS` multiply-adds, a product with a 2-D right
operand is two GEMMs, each writing one fixed half of the output: half the
rows when there are at least `_SPLIT_ROWS`, else half the columns. The
split follows from the shape alone, spare core or not, so its bits do too;
on the OpenBLAS kernel the pinned digests were recorded on, each half has
the bits of the whole product (`tests/test_parallel.py` checks the paper
shapes). A block, half or GEMM makes the same numpy calls on whichever
thread runs it, so no bit depends on the core count or on which thread ran
what. Nor on BLAS's own thread count: `parallel` sets numpy's bundled
OpenBLAS to one thread when it is imported, so every GEMM runs on one
thread, under any `OPENBLAS_NUM_THREADS`. Where that pin cannot be set (no
bundled OpenBLAS), no GEMM is handed to the pool, and bits follow the
library's own threads.

`layer_norm` and `softmax` are each a single graph node, kept because they
are measurably faster than their graphs. Their forward pass and backward
closure replay the numpy arithmetic of the primitive graph they replace
(add/sub/mul/div, tsum/tmean, exp/sqrt) in its order, so values and
gradients are bit-identical to it; `selfcheck` holds those graphs and checks
this. `logsumexp` and `l2_normalize` are plain compositions of primitive
ops: fused, they gained nothing measurable.

Gradient accumulation is additive: callers must zero gradients between
optimization steps. A leaf adds each piece of its gradient as the backward
walk hands it over, so no parameter gradient waits in the walk's pending
sums. The first piece of a pass is written as 0 + g, into the tensor's
`grad_slot` when the optimizer has set one; a product with a 2-D weight
writes the weight's first piece straight into that slot, so no second copy
of it is made. The + 0 only turns a -0.0 into +0.0, so (g1 + 0) + g2 equals
a pending sum's (g1 + g2) + 0 bit for bit.

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

from . import parallel
from .errors import ContractError

__all__ = [
    "Tensor",
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
            raise ContractError(
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
                    if not parent._parents:
                        # a leaf sums its pieces as they arrive, in the order
                        # a pending sum would: (g1 + 0) + g2 == (g1 + g2) + 0
                        if parent.requires_grad:
                            parent._accumulate(pg)
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

    def __getitem__(self, key):
        return tslice(self, key)

    def transpose(self, *axes):
        return transpose(self, *axes)


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
    gradients are then 2-D GEMMs, `(rows, K) @ (K, N)` (two halves of it
    from `_SPLIT_MACS` multiply-adds), `g @ b.T` and `a.T @ g`, run in the
    storage dtype (float32 in training, float64
    under the gradient criterion). Otherwise leading dimensions broadcast as
    in `np.matmul` (attention's `q @ k^T` and `attn @ v`, the decoder's
    scatter), and the product and gradients accumulate in float64: these sum
    over tokens, and float64 sums keep token permutation equivariance exact.
    """
    a, b = _coerce(a), _coerce(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ContractError(
            f"matmul expects >=2-d operands, got {a.shape} and {b.shape}"
        )
    if a.shape[-1] != b.shape[-2]:
        raise ContractError(
            f"matmul inner dimensions disagree: {a.shape} x {b.shape}"
        )
    out_dtype = np.result_type(a.data.dtype, b.data.dtype)
    if b.ndim == 2:
        n = b.shape[1]
        rows = math.prod(a.shape[:-1])
        a2 = a.data.reshape(rows, a.shape[-1])
        data = _gemm(a2, b.data).reshape(a.shape[:-1] + (n,))

        def backward(g):
            g2 = g.reshape(rows, n)
            slot = b.grad_slot
            first = b.requires_grad and b.grad is None and slot is not None
            direct = first and slot.dtype == out_dtype
            grads = [None, None]

            def product(i):
                if i == 0:
                    ga = (g2 @ b.data.T).reshape(a.shape)
                    grads[0] = ga.astype(a.data.dtype, copy=False)
                elif direct:
                    # the weight's first gradient of this pass goes straight
                    # into its optimizer slot, as `_accumulate`'s 0 + g
                    grads[1] = np.add(np.matmul(a2.T, g2, out=slot), 0, out=slot)
                else:
                    grads[1] = a2.T @ g2

            parallel.each(product, 2, pool=_pools_gemm(rows * a2.shape[1] * n))
            ga, gb = grads
            if direct:
                b.grad = gb
                return ((a, ga),)
            return ((a, ga), (b, gb.astype(b.data.dtype, copy=False)))

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


# A 2-D product's two gradient GEMMs run side by side from this many
# multiply-adds each (~1.2 ms apiece on one AVX-512 Xeon core, at ~56 G/s),
# and only where BLAS is pinned to one thread: beside a two-thread GEMM, a
# second one made both slower.
_POOL_MACS = 1 << 26

# Unlike the pool thresholds, the split floor is part of the numerics: a
# half of a tiny product can take another OpenBLAS path (small-matrix
# kernels, gemv) and give other bits than the whole product.
_SPLIT_MACS = 1 << 26
_SPLIT_ROWS = 256


def _pools_gemm(macs: int) -> bool:
    return macs >= _POOL_MACS and parallel.blas_pinned


def _gemm(a2: np.ndarray, b2: np.ndarray) -> np.ndarray:
    """a2 @ b2 for 2-D operands: from `_SPLIT_MACS` multiply-adds, two GEMMs
    into fixed halves of the rows (from `_SPLIT_ROWS` rows) or of the
    columns of one output, side by side where `_pools_gemm` allows."""
    (rows, k), n = a2.shape, b2.shape[1]
    macs = rows * k * n
    if macs < _SPLIT_MACS:
        return a2 @ b2
    out = np.empty((rows, n), np.result_type(a2.dtype, b2.dtype))
    if rows >= _SPLIT_ROWS:
        h = rows // 2
        halves = ((np.s_[:h], np.s_[:]), (np.s_[h:], np.s_[:]))
    else:
        h = n // 2
        halves = ((np.s_[:], np.s_[:h]), (np.s_[:], np.s_[h:]))

    def half(i):
        r, c = halves[i]
        np.matmul(a2[r], b2[:, c], out=out[r, c])

    parallel.each(half, 2, pool=_pools_gemm(macs))
    return out


def _as64(x: np.ndarray) -> np.ndarray:
    return x.astype(np.float64, copy=False)


# -- erf: a numpy port of Cephes' erf/erfc (ndtr.c) -----------------------------
#
# The coefficients, the Horner order and the branch points are Cephes'. Every
# step is one IEEE float64 operation, none reordered, so rounded to float32
# the values equal scipy.special.erf's float32 erf bit for bit.

_ERF_T = (
    9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
    7.00332514112805075473e3, 5.55923013010394962768e4,
)
_ERF_U = (
    3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
    2.26290000613890934246e4, 4.92673942608635921086e4,
)
_ERFC_P = (
    2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
    4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
    9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2,
)
_ERFC_Q = (
    1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
    9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
    1.65666309194161350182e3, 5.57535340817727675546e2,
)
_ERFC_R = (
    5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
    6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0,
)
_ERFC_S = (
    2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
    1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0,
)
_MAXLOG = 7.09782712893383996843e2


def _polevl(x: np.ndarray, coef, out: np.ndarray) -> np.ndarray:
    """Cephes polevl: Horner's rule from the leading coefficient coef[0]."""
    np.multiply(x, coef[0], out=out)
    np.add(out, coef[1], out=out)
    for c in coef[2:]:
        np.multiply(out, x, out=out)
        np.add(out, c, out=out)
    return out


def _p1evl(x: np.ndarray, coef, out: np.ndarray) -> np.ndarray:
    """Cephes p1evl: polevl with an implied leading coefficient of 1."""
    np.add(x, coef[0], out=out)
    for c in coef[1:]:
        np.multiply(out, x, out=out)
        np.add(out, c, out=out)
    return out


def _erfc_tail(a: np.ndarray) -> np.ndarray:
    """Cephes erfc of a > 1 (float64): exp(-a^2) P(a)/Q(a) below 8, and from
    8 up R(a)/S(a), or 0 where -a^2 < -MAXLOG.

    P/Q runs over every element first, so it may overflow on those from 8 up
    before they are overwritten; the caller turns those warnings off.
    """
    z = -a * a
    y = np.exp(z) * _polevl(a, _ERFC_P, np.empty_like(a)) / _p1evl(
        a, _ERFC_Q, np.empty_like(a)
    )
    far = np.flatnonzero(a >= 8.0)
    if far.size:
        x, zf = a[far], z[far]
        yf = np.exp(zf) * _polevl(x, _ERFC_R, np.empty_like(x)) / _p1evl(
            x, _ERFC_S, np.empty_like(x)
        )
        y[far] = np.where(zf < -_MAXLOG, 0.0, yf)
    return y


@np.errstate(over="ignore", invalid="ignore")
def _erf_into(z: np.ndarray, out: np.ndarray, w: np.ndarray, q: np.ndarray):
    """Cephes erf of z, evaluated in float64 into out (w, q: float64 scratch).

    The |z| <= 1 form z T(z^2) / U(z^2) runs over every element, then
    sign(z) (1 - erfc|z|) overwrites those past 1; the first form may
    overflow on them, hence the errstate. NaN stays NaN in the first form.
    """
    np.copyto(w, z)
    np.multiply(w, w, out=w)
    tail = np.flatnonzero(w > 1.0)  # z^2 > 1 exactly when |z| > 1
    _polevl(w, _ERF_T, out)
    _p1evl(w, _ERF_U, q)
    np.copyto(w, z)
    np.multiply(w, out, out=out)
    np.divide(out, q, out=out)
    if tail.size:
        zt = w[tail]
        out[tail] = np.copysign(1.0 - _erfc_tail(np.abs(zt)), zt)
    return out


def _erf(x: np.ndarray) -> np.ndarray:
    """erf of x, evaluated in float64 and rounded to x's dtype."""
    z = x.reshape(-1)
    out, w, q = (np.empty(z.shape) for _ in range(3))
    return _erf_into(z, out, w, q).reshape(x.shape).astype(x.dtype, copy=False)


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
    data, phi_cdf = _gelu_forward(x)

    def backward(g):
        return ((a, _gelu_backward(g, x, phi_cdf)),)

    return _result(data, (a,), backward)


_GELU_BLOCK = 1 << 15  # elements; a block's float64 erf scratch stays in cache
# gelu calls of this many elements run their blocks on the pool too: ~6 ms
# of forward and ~1 ms of backward work
_POOL_GELU = 1 << 19


def _gelu_blocks(size: int) -> tuple[int, bool]:
    """(blocks, pool) of a gelu pass over `size` elements."""
    return -(-size // _GELU_BLOCK), size >= _POOL_GELU


def _gelu_forward(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x * Phi(x) and Phi(x) = 0.5 * (1 + erf(x / sqrt(2))), block by block.

    Within a block the storage-dtype steps are those of the whole-array
    expression, in its order, so the values do not depend on the blocking.
    A block's x / sqrt(2) waits in its slice of Phi until erf replaces it.
    """
    flat = x.reshape(-1)
    data = np.empty_like(flat)
    cdf = np.empty_like(flat)
    n = min(flat.size, _GELU_BLOCK)
    scratch = parallel.per_thread(lambda: [np.empty(n) for _ in range(3)])

    def block(i):
        xb, cb = (arr[i * _GELU_BLOCK : (i + 1) * _GELU_BLOCK] for arr in (flat, cdf))
        erf64, w, q = (arr[: xb.size] for arr in scratch())
        z = np.multiply(xb, _INV_SQRT2, out=cb)
        np.copyto(cb, _erf_into(z, erf64, w, q), casting="same_kind")
        np.add(cb, 1.0, out=cb)
        np.multiply(cb, 0.5, out=cb)
        np.multiply(xb, cb, out=data[i * _GELU_BLOCK : (i + 1) * _GELU_BLOCK])

    parallel.each(block, *_gelu_blocks(flat.size))
    return data.reshape(x.shape), cdf.reshape(x.shape)


def _gelu_backward(g: np.ndarray, x: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    """g * (Phi(x) + x * pdf) with pdf = exp((-0.5 * x) * x) / sqrt(2 pi),
    block by block, each step the whole-array expression's, in its order."""
    xf, cf, gf = x.reshape(-1), cdf.reshape(-1), g.reshape(-1)
    out = np.empty(xf.shape, np.result_type(g.dtype, x.dtype))
    scratch = parallel.per_thread(lambda: np.empty(min(xf.size, _GELU_BLOCK), x.dtype))

    def block(i):
        xb, cb, gb, ob = (
            arr[i * _GELU_BLOCK : (i + 1) * _GELU_BLOCK] for arr in (xf, cf, gf, out)
        )
        t = scratch()[: xb.size]
        np.multiply(xb, -0.5, out=t)
        np.multiply(t, xb, out=t)
        np.exp(t, out=t)
        np.multiply(t, _INV_SQRT2PI, out=t)
        np.multiply(xb, t, out=t)
        np.add(cb, t, out=t)
        np.multiply(gb, t, out=ob)

    parallel.each(block, *_gelu_blocks(xf.size))
    return out.reshape(x.shape)


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


# -- compositions of primitive ops ------------------------------------------


def logsumexp(a, axis: int = -1, keepdims: bool = False) -> Tensor:
    """Stable log-sum-exp; the max shift is treated as a constant."""
    a = _coerce(a)
    shift = Tensor(np.max(a.data, axis=axis, keepdims=True))
    out = log(tsum(exp(a - shift), axis=axis, keepdims=True)) + shift
    if not keepdims:
        out = reshape(out, np.squeeze(out.data, axis=axis).shape)
    return out


def l2_normalize(x, axis: int = -1, eps: float = 1e-12) -> Tensor:
    """Scale rows along `axis` to unit Euclidean norm."""
    x = _coerce(x)
    return x / sqrt(tsum(x * x, axis=axis, keepdims=True) + eps)


# -- fused ops (one node each; see the module docstring) -----------------------
#
# Where pieces of gradient meet in an intermediate array, they are summed in
# the order the primitive graph's walk would deliver them. The pieces for an
# input are handed back separately, so `Tensor.backward` sums them with the
# input's other gradients in that order too.


def softmax(a, axis: int = -1) -> Tensor:
    """Max-shifted softmax along `axis`; output sums to 1 along the axis."""
    a = _coerce(a)
    if not -a.ndim <= axis < a.ndim:
        raise ContractError(f"softmax axis {axis} invalid for shape {a.shape}")
    e = np.exp(a.data - np.max(a.data, axis=axis, keepdims=True))
    # tsum(e, axis, keepdims=True)'s values
    total = e.sum(axis=axis, keepdims=True, dtype=np.float64).astype(e.dtype)
    data = e / total

    def backward(g):
        g_total = _unbroadcast(-g * e / (total * total), total.shape)
        g_e = g / total + np.broadcast_to(g_total, e.shape)
        return ((a, g_e * e),)

    return _result(data, (a,), backward)


def layer_norm(x, gamma, beta, eps: float = 1e-5) -> Tensor:
    """Normalize the last dimension to mean 0 / variance 1, then affine."""
    x, gamma, beta = _coerce(x), _coerce(gamma), _coerce(beta)
    if gamma.shape != x.shape[-1:] or beta.shape != x.shape[-1:]:
        raise ContractError(
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


# -- finite-difference oracle --------------------------------------------------


def finite_diff_check(f: Callable[[Tensor], Tensor], x: Tensor, h: float = 1e-3) -> float:
    """Max relative error between reverse-mode and central-difference gradients.

    `f` must return a scalar Tensor. Error per coordinate is
    |analytic - central| / (|central| + 1e-8); the max over coordinates is
    returned. The central differences only read `f`, so they build no graph.
    """
    if h <= 0:
        raise ContractError("h must be positive")
    probe = Tensor(x.data.copy(), requires_grad=True)
    out = f(probe)
    if not isinstance(out, Tensor) or out.data.size != 1:
        raise ContractError("finite_diff_check requires a scalar-valued f")
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
