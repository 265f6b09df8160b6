"""Unit tests for the autodiff tensor core.

The scalar-loop and closed-form oracles (matmul, softmax, layer_norm, gelu)
live in `cogent.selfcheck`, which `tests/test_selfcheck.py` runs.
"""

import hashlib

import numpy as np
import pytest

from cogent.errors import ContractError
from cogent.tensor import (
    Tensor,
    concat,
    finite_diff_check,
    gelu,
    l2_normalize,
    layer_norm,
    logsumexp,
    matmul,
    no_grad,
    relu,
    reshape,
    softmax,
    tmean,
    tsum,
)


class TestMatmul:
    def test_identity(self):
        eye = Tensor(np.eye(2, dtype=np.float32))
        m = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32))
        out = matmul(eye, m)
        np.testing.assert_array_equal(out.data, m.data)

    def test_hand_dot_product(self):
        a = Tensor(np.array([[1.0, 2.0]], dtype=np.float32))
        b = Tensor(np.array([[3.0], [4.0]], dtype=np.float32))
        out = matmul(a, b)
        assert out.data.shape == (1, 1)
        assert out.item() == 11.0

    def test_shape_mismatch_names_both_shapes(self):
        a = Tensor(np.zeros((2, 3), dtype=np.float32))
        b = Tensor(np.zeros((2, 3), dtype=np.float32))
        with pytest.raises(ContractError, match=r"\(2, 3\).*\(2, 3\)"):
            matmul(a, b)

    def test_batched_broadcast(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(5, 2, 3)).astype(np.float32)
        b = rng.normal(size=(3, 4)).astype(np.float32)
        out = matmul(Tensor(a), Tensor(b)).data
        np.testing.assert_allclose(out, a @ b, rtol=1e-6)

    def test_gradients_both_operands(self):
        rng = np.random.default_rng(11)
        a = Tensor(rng.normal(size=(2, 3)).astype(np.float32), requires_grad=True)
        b = Tensor(rng.normal(size=(3, 2)).astype(np.float32), requires_grad=True)
        out = tsum(matmul(a, b))
        out.backward()
        np.testing.assert_allclose(a.grad, np.ones((2, 2)) @ b.data.T, rtol=1e-5)
        np.testing.assert_allclose(b.grad, a.data.T @ np.ones((2, 2)), rtol=1e-5)


def _batched_reference(a, b, g):
    """np.matmul's per-item products in float64, the weight gradient summed
    over the leading dimensions afterwards; rounded to the storage dtype."""
    a64, b64, g64 = (x.astype(np.float64) for x in (a, b, g))
    out = np.matmul(a64, b64)
    ga = np.matmul(g64, b64.T)
    gb = np.matmul(np.swapaxes(a64, -1, -2), g64)
    gb = gb.reshape((-1,) + b.shape).sum(axis=0)
    return tuple(x.astype(a.dtype) for x in (out, ga, gb))


def _matmul_run(a, b, g):
    ta, tb = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
    out = matmul(ta, tb)
    tsum(out * Tensor(g)).backward()
    return out.data, ta.grad, tb.grad


FOLD_SHAPES = [((6, 5), (5, 3)), ((5, 7, 3), (3, 4)), ((2, 3, 5, 4), (4, 6))]


class TestFoldedMatmul:
    """A 2-D right operand runs as one GEMM over folded rows, same bits."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("a_shape, b_shape", FOLD_SHAPES)
    def test_exact_sums_equal_batched_reference(self, dtype, a_shape, b_shape):
        # eighths in [-2, 2]: every product and partial sum is exact in
        # float64, so any summation order gives the same bits in either storage
        rng = np.random.default_rng(5)
        a, b = (rng.integers(-16, 17, size=s).astype(dtype) / 8 for s in (a_shape, b_shape))
        g = rng.integers(-16, 17, size=a_shape[:-1] + b_shape[-1:]).astype(dtype) / 8
        got = _matmul_run(a, b, g)
        for x, ref in zip(got, _batched_reference(a, b, g)):
            assert x.dtype == dtype and x.shape == ref.shape
            assert np.array_equal(x, ref)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "a_shape, b_shape", FOLD_SHAPES + [((16, 21, 64), (64, 32))]
    )
    def test_random_values(self, dtype, a_shape, b_shape):
        # The product and both gradients are exactly the storage-dtype GEMMs
        # of the folded operands. In float64 storage the weight gradient's
        # last bits can differ from the reference, which sums per-item
        # products afterwards. In float32 storage each dot product of length
        # K is within the standard bound gamma_K * sum|x_i * y_i| (gamma_K =
        # K*u / (1 - K*u), u = 2**-24) of the exact one, plus one rounding.
        rng = np.random.default_rng(9)
        a, b = (rng.normal(size=s).astype(dtype) for s in (a_shape, b_shape))
        g = rng.normal(size=a_shape[:-1] + b_shape[-1:]).astype(dtype)
        a2, g2 = a.reshape(-1, a.shape[-1]), g.reshape(-1, g.shape[-1])
        gemms = ((a2 @ b).reshape(g.shape), (g2 @ b.T).reshape(a.shape), a2.T @ g2)
        got = _matmul_run(a, b, g)
        for x, gemm in zip(got, gemms):
            assert x.dtype == dtype and np.array_equal(x, gemm)
        if dtype == np.float64:
            for x, ref in zip(got, _batched_reference(a, b, g)):
                np.testing.assert_allclose(x, ref, rtol=1e-12, atol=1e-12)
            return
        u = 2.0**-24
        a64, b64, g64 = (
            x.astype(np.float64).reshape(-1, x.shape[-1]) for x in (a, b, g)
        )
        exact = (a64 @ b64, g64 @ b64.T, a64.T @ g64)
        magnitude = (
            abs(a64) @ abs(b64), abs(g64) @ abs(b64.T), abs(a64.T) @ abs(g64)
        )
        lengths = (a.shape[-1], b.shape[-1], a2.shape[0])
        for x, ref, mag, k in zip(got, exact, magnitude, lengths):
            gamma = k * u / (1 - k * u)
            err = abs(x.reshape(ref.shape).astype(np.float64) - ref)
            assert np.all(err <= gamma * mag + u * abs(ref))


class TestBatchedMatmul:
    """Batched-by-batched products (attention, the decoder's scatter) sum in
    float64: they sum over tokens, and float64 sums keep the encoder's token
    permutation equivariance exact."""

    @pytest.mark.parametrize(
        "a_shape, b_shape",
        [((2, 3, 7, 64), (2, 3, 64, 7)), ((4, 7, 64), (4, 64, 16))],
    )
    def test_float64_product_rounded_to_float32(self, a_shape, b_shape):
        rng = np.random.default_rng(13)
        a, b = (rng.normal(size=s).astype(np.float32) for s in (a_shape, b_shape))
        g = rng.normal(size=a_shape[:-1] + b_shape[-1:]).astype(np.float32)
        got = _matmul_run(a, b, g)
        a64, b64, g64 = (x.astype(np.float64) for x in (a, b, g))
        refs = (
            a64 @ b64,
            g64 @ np.swapaxes(b64, -1, -2),
            np.swapaxes(a64, -1, -2) @ g64,
        )
        for x, ref in zip(got, refs):
            assert x.dtype == np.float32
            assert np.array_equal(x, ref.astype(np.float32))
        # the check has teeth: float32 accumulation gives other bits
        assert not np.array_equal(got[0], a @ b)


class TestSoftmax:
    def test_uniform_input(self):
        out = softmax(Tensor(np.zeros(3, dtype=np.float32)), axis=0)
        np.testing.assert_allclose(out.data, np.full(3, 1.0 / 3.0), atol=1e-7)

    def test_shift_invariance_no_overflow(self):
        out = softmax(Tensor(np.array([1000.0, 1000.0], dtype=np.float32)), axis=0)
        assert np.all(np.isfinite(out.data))
        np.testing.assert_allclose(out.data, [0.5, 0.5], atol=1e-7)

    def test_sums_to_one_property(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            x = rng.normal(scale=10.0, size=(4, 7)).astype(np.float32)
            s = softmax(Tensor(x), axis=-1).data.sum(axis=-1)
            np.testing.assert_allclose(s, 1.0, atol=1e-5)

    def test_invalid_axis(self):
        with pytest.raises(ContractError):
            softmax(Tensor(np.zeros((2, 2), dtype=np.float32)), axis=5)


class TestLayerNorm:
    def _gb(self, n, dtype=np.float32):
        return Tensor(np.ones(n, dtype=dtype)), Tensor(np.zeros(n, dtype=dtype))

    def test_constant_row_is_zero(self):
        g, b = self._gb(3)
        out = layer_norm(Tensor(np.array([5.0, 5.0, 5.0], dtype=np.float32)), g, b)
        np.testing.assert_array_equal(out.data, np.zeros(3, dtype=np.float32))

    def test_normalization_property(self):
        rng = np.random.default_rng(9)
        g, b = self._gb(16)
        for _ in range(10):
            x = rng.normal(scale=3.0, size=(4, 16)).astype(np.float32)
            out = layer_norm(Tensor(x), g, b, eps=1e-5).data.astype(np.float64)
            mu = out.mean(axis=-1)
            var = out.var(axis=-1)
            assert np.all(np.abs(mu) < 1e-6)
            assert np.all(np.abs(var - 1.0) < 1e-4)

    def test_affine_mismatch(self):
        g, b = self._gb(4)
        with pytest.raises(ContractError):
            layer_norm(Tensor(np.zeros((2, 3), dtype=np.float32)), g, b)


class TestGelu:
    def test_zero(self):
        assert gelu(Tensor(np.array(0.0, dtype=np.float32))).item() == 0.0

    def test_large_x_asymptote(self):
        out = gelu(Tensor(np.array(10.0, dtype=np.float32))).item()
        assert abs(out - 10.0) < 1e-6

    # Recorded with gelu on scipy.special.erf, whose float32 erf the numpy
    # port in `tensor` matches bit for bit.
    STRIDED_SHA256 = "81d77bfbd57e9a3c12123c2584da39d1d254bed33a4442f1f7ca5436cf11677c"
    EDGES = [0.0, -0.0, 1e-45, -1e-45, 1.1754942e-38, -1.1754942e-38,
             3.9, -3.9, 8.0, -8.0, 27.0, -27.0, np.inf]
    VALUES = [0.0, -0.0, 0.0, -0.0, 5.877472e-39, -5.877472e-39,
              3.8998125, -0.0001875937, 8.0, -0.0, 27.0, -0.0, np.inf]
    GRADS = [0.5, 0.5, 0.5, 0.5, 0.5, 0.5,
             1.0007267, -0.00072665507, 1.0, -4.041817e-14, 1.0, 0.0, np.nan]

    def test_float32_values_pinned_over_strided_bit_patterns(self):
        # every 257th float32 bit pattern that is finite: 16,646,655 values
        # of both signs, from subnormal to the largest
        step, chunk = 257, 257 << 20
        digest = hashlib.sha256()
        with no_grad():
            for start in range(0, 1 << 32, chunk):
                stop = min(start + chunk, 1 << 32)
                bits = np.arange(start, stop, step, dtype=np.uint64).astype(np.uint32)
                x = bits[(bits & 0x7F800000) != 0x7F800000].view(np.float32)
                digest.update(gelu(Tensor(x)).data.astype("<f4").tobytes())
        assert digest.hexdigest() == self.STRIDED_SHA256

    def test_edge_values_and_gradients_pinned(self):
        x = Tensor(np.array(self.EDGES, dtype=np.float32), requires_grad=True)
        out = gelu(x)
        with np.errstate(invalid="ignore"):  # the gradient at +inf is inf * 0
            tsum(out).backward()
        for got, pinned in ((out.data, self.VALUES), (x.grad, self.GRADS)):
            expect = np.array(pinned, dtype=np.float32)
            assert got.dtype == np.float32
            assert np.array_equal(got, expect, equal_nan=True)
            assert np.array_equal(np.signbit(got[:-1]), np.signbit(expect[:-1]))


class TestFiniteDiffCheck:
    def test_quadratic(self):
        x = Tensor(np.array([1.0, 2.0, 3.0], dtype=np.float32))
        err = finite_diff_check(lambda t: tsum(t * t), x, h=1e-3)
        assert err < 1e-4

    def test_rejects_non_scalar(self):
        x = Tensor(np.ones(3, dtype=np.float32))
        with pytest.raises(ContractError):
            finite_diff_check(lambda t: t * 2.0, x)

    @pytest.mark.parametrize("h", [0.0, -1e-3])
    def test_rejects_non_positive_step(self, h):
        x = Tensor(np.ones(3, dtype=np.float32))
        with pytest.raises(ContractError, match="h must be positive"):
            finite_diff_check(lambda t: tsum(t * t), x, h=h)

    def test_primitives_at_random_points(self):
        # Every differentiable primitive, 10 random points each, rel err < 1e-3.
        # Points whose true gradient has a near-zero coordinate are redrawn:
        # there the float32 central difference is pure rounding noise and the
        # relative error is meaningless (a broken backward formula still fails
        # at the kept points).
        alternating = np.array([1.0, -1.0, 1.0, -1.0])

        def check(make_f, seed, uniform_x=False, spread_w=False, thresh=0.05):
            rng = np.random.default_rng(seed)
            done = 0
            for _ in range(400):
                if done == 10:
                    break
                if uniform_x:
                    x = rng.uniform(-0.5, 0.5, size=(4,))
                else:
                    x = rng.uniform(0.5, 2.0, size=(4,)) * rng.choice(
                        [-1.0, 1.0], size=(4,)
                    )
                if spread_w:
                    w = rng.uniform(2.0, 3.0, size=(4,)) * alternating
                else:
                    w = rng.uniform(0.5, 1.5, size=(4,))
                x, w = x.astype(np.float32), w.astype(np.float32)
                f = make_f(w)
                probe = Tensor(x, requires_grad=True)
                out = f(probe)
                out.backward()
                scale = max(1.0, abs(out.item()))
                if probe.grad is None or np.min(np.abs(probe.grad)) < thresh * scale:
                    continue
                err = finite_diff_check(f, Tensor(x), h=1e-3)
                assert err < 1e-3, make_f
                done += 1
            assert done == 10

        check(lambda w: (lambda t: tsum(t * Tensor(w))), seed=1)
        check(lambda w: (lambda t: tsum(t + Tensor(w))), seed=2)
        check(lambda w: (lambda t: tsum(Tensor(w) / (t * t + 1.0))), seed=3)
        check(lambda w: (lambda t: tsum(gelu(t) * Tensor(w))), seed=4)
        # relu: points bounded away from the kink by construction
        check(lambda w: (lambda t: tsum(relu(t) * Tensor(w))), seed=5)
        check(
            lambda w: (
                lambda t: tsum(matmul(reshape(t, 2, 2), Tensor(w.reshape(2, 2))))
            ),
            seed=6,
        )
        # softmax/layer_norm: near-uniform inputs plus zero-mean spread weights
        # keep every gradient coordinate large relative to |f|
        check(
            lambda w: (lambda t: tsum(softmax(t, axis=0) * Tensor(w))),
            seed=7,
            uniform_x=True,
            spread_w=True,
            thresh=0.1,
        )
        check(
            lambda w: (
                lambda t: tsum(
                    layer_norm(
                        t,
                        Tensor(np.ones(4, np.float32)),
                        Tensor(np.zeros(4, np.float32)),
                    )
                    * Tensor(w)
                )
            ),
            seed=8,
            spread_w=True,
            thresh=0.1,
        )
        check(lambda w: (lambda t: tsum(l2_normalize(t, axis=0) * Tensor(w))), seed=9)
        check(
            lambda w: (lambda t: tsum(logsumexp(t, axis=0, keepdims=True))), seed=10
        )


class TestGraphMechanics:
    def test_gradient_accumulates_until_zeroed(self):
        x = Tensor(np.array([2.0], dtype=np.float32), requires_grad=True)
        tsum(x * x).backward()
        tsum(x * x).backward()
        np.testing.assert_allclose(x.grad, [8.0])
        x.zero_grad()
        tsum(x * x).backward()
        np.testing.assert_allclose(x.grad, [4.0])

    @pytest.mark.parametrize("slot", [False, True])
    def test_first_gradient_is_zero_plus_g(self, slot):
        # a -0.0 gradient lands as +0.0, with or without a preallocated slot
        x = Tensor(np.ones(3, np.float32), requires_grad=True)
        if slot:
            x.grad_slot = np.full(3, np.nan, np.float32)
        tsum(x * Tensor(np.array([-0.0, 2.0, -3.0], np.float32))).backward()
        assert x.grad.tolist() == [0.0, 2.0, -3.0]
        assert not np.signbit(x.grad[0])
        assert (x.grad is x.grad_slot) == slot

    def test_weight_used_thrice_same_bits_with_and_without_slot(self):
        # only a weight's first gradient of a pass may go straight into its
        # slot; the later pieces add to it in the order they arrive
        rng = np.random.default_rng(12)
        x1 = Tensor(rng.normal(size=(2, 5, 6)).astype(np.float32))
        x2 = Tensor(rng.normal(size=(3, 6)).astype(np.float32))
        scale = Tensor(rng.normal(size=(6, 4)).astype(np.float32))
        w0 = rng.normal(size=(6, 4)).astype(np.float32)
        grads = []
        for slot in (False, True):
            w = Tensor(w0.copy(), requires_grad=True)
            if slot:
                w.grad_slot = np.full_like(w0, np.nan)
            y = matmul(x2, w)
            loss = tsum(gelu(matmul(x1, w))) + tsum(y * y) + tsum(w * scale)
            loss.backward()
            assert (w.grad is w.grad_slot) == slot
            grads.append(w.grad.copy())
        assert grads[0].tobytes() == grads[1].tobytes()

    def test_diamond_graph(self):
        x = Tensor(np.array([3.0], dtype=np.float32), requires_grad=True)
        y = x * x
        z = tsum(y + y)
        z.backward()
        np.testing.assert_allclose(x.grad, [12.0])

    def test_determinism_bit_identical(self):
        rng = np.random.default_rng(42)
        a = rng.normal(size=(8, 8)).astype(np.float32)
        b = rng.normal(size=(8, 8)).astype(np.float32)

        def run():
            t = softmax(matmul(Tensor(a), Tensor(b)), axis=-1)
            return layer_norm(
                t, Tensor(np.ones(8, np.float32)), Tensor(np.zeros(8, np.float32))
            ).data

        first, second = run(), run()
        assert np.array_equal(first, second)

    def test_finite_outputs_on_finite_inputs(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.normal(scale=50.0, size=(6, 6)).astype(np.float32))
        for out in (
            softmax(x, axis=-1),
            gelu(x),
            relu(x),
            l2_normalize(x),
            logsumexp(x, axis=-1),
        ):
            assert np.all(np.isfinite(out.data))

    def test_concat_and_slice_gradients(self):
        a = Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
        b = Tensor(np.ones((1, 2), dtype=np.float32), requires_grad=True)
        joined = concat([a, b], axis=0)
        tsum(joined[1:, :]).backward()
        np.testing.assert_array_equal(a.grad, [[0.0, 0.0], [1.0, 1.0]])
        np.testing.assert_array_equal(b.grad, [[1.0, 1.0]])

    def test_mean_reduction(self):
        x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32), requires_grad=True)
        m = tmean(x)
        assert m.item() == 2.5
        m.backward()
        np.testing.assert_allclose(x.grad, np.full((2, 2), 0.25))


class TestNoGrad:
    """Inside `no_grad()` ops return plain leaves with the same values."""

    @staticmethod
    def _inputs():
        rng = np.random.default_rng(21)
        x, w = (
            Tensor(rng.normal(size=s).astype(np.float32), requires_grad=True)
            for s in ((3, 4), (4, 5))
        )
        gain = Tensor(np.ones(4, np.float32), requires_grad=True)
        bias = Tensor(np.zeros(4, np.float32), requires_grad=True)
        return x, w, gain, bias

    @staticmethod
    def _ops(x, w, gain, bias):
        return {
            "matmul": matmul(x, w),
            "layer_norm": layer_norm(x, gain, bias),
            "softmax": softmax(x, axis=-1),
            "gelu": gelu(x),
        }

    def _builds_graph(self) -> bool:
        return gelu(self._inputs()[0])._parents != ()

    def test_outputs_are_leaves_equal_to_the_graph_pass(self):
        inputs = self._inputs()
        graph = self._ops(*inputs)
        with no_grad():
            plain = self._ops(*inputs)
        for name, out in plain.items():
            assert graph[name]._parents != (), name
            assert out._parents == () and out._backward is None, name
            assert not out.requires_grad, name
            assert np.array_equal(out.data, graph[name].data), name

    def test_state_restored_after_normal_exit(self):
        with no_grad():
            assert not self._builds_graph()
        assert self._builds_graph()

    def test_state_restored_after_exception(self):
        with pytest.raises(RuntimeError):
            with no_grad():
                raise RuntimeError("inside the scope")
        assert self._builds_graph()

    def test_state_restored_after_nested_scopes(self):
        with no_grad():
            with no_grad():
                assert not self._builds_graph()
            assert not self._builds_graph()
        assert self._builds_graph()

    def test_finite_diff_loop_builds_no_graph(self):
        # `f` reads a trainable weight, as the gradient criterion's loss reads
        # the model: the reverse-mode pass builds a graph, the 2 * 2
        # central-difference evaluations do not
        w = Tensor(np.array([0.5, -1.5], dtype=np.float32), requires_grad=True)
        graphs = []

        def f(t):
            out = tsum(t * t * w)
            graphs.append(out._parents != ())
            return out

        finite_diff_check(f, Tensor(np.array([1.0, 2.0], dtype=np.float32)))
        assert graphs == [True, False, False, False, False]
        assert self._builds_graph()
