"""Unit and oracle tests for the autodiff tensor core."""

import math

import numpy as np
import pytest

from cogent.tensor import (
    ShapeError,
    Tensor,
    concat,
    finite_diff_check,
    gelu,
    l2_normalize,
    layer_norm,
    log_softmax,
    logsumexp,
    matmul,
    relu,
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

    def test_against_scalar_loop_oracle(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(3, 4)).astype(np.float32)
        b = rng.normal(size=(4, 2)).astype(np.float32)
        out = matmul(Tensor(a), Tensor(b)).data
        # independent scalar-loop oracle
        expect = np.zeros((3, 2), dtype=np.float64)
        for i in range(3):
            for j in range(2):
                acc = 0.0
                for k in range(4):
                    acc += float(a[i, k]) * float(b[k, j])
                expect[i, j] = acc
        np.testing.assert_allclose(out, expect.astype(np.float32), rtol=1e-6)

    def test_shape_mismatch_names_both_shapes(self):
        a = Tensor(np.zeros((2, 3), dtype=np.float32))
        b = Tensor(np.zeros((2, 3), dtype=np.float32))
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
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


def _folded_run(a, b, g):
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
        got = _folded_run(a, b, g)
        for x, ref in zip(got, _batched_reference(a, b, g)):
            assert x.dtype == dtype and x.shape == ref.shape
            assert np.array_equal(x, ref)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "a_shape, b_shape", FOLD_SHAPES + [((16, 21, 64), (64, 32))]
    )
    def test_random_values(self, dtype, a_shape, b_shape):
        # float32 storage (training) keeps its bits. In float64 storage the
        # weight gradient's last bits can differ: one GEMM sums all rows, the
        # reference sums per-item products afterwards.
        rng = np.random.default_rng(9)
        a, b = (rng.normal(size=s).astype(dtype) for s in (a_shape, b_shape))
        g = rng.normal(size=a_shape[:-1] + b_shape[-1:]).astype(dtype)
        for x, ref in zip(_folded_run(a, b, g), _batched_reference(a, b, g)):
            if dtype == np.float32:
                assert np.array_equal(x, ref)
            else:
                np.testing.assert_allclose(x, ref, rtol=1e-12, atol=1e-12)


class TestSoftmax:
    def test_uniform_input(self):
        out = softmax(Tensor(np.zeros(3, dtype=np.float32)), axis=0)
        np.testing.assert_allclose(out.data, np.full(3, 1.0 / 3.0), atol=1e-7)

    def test_shift_invariance_no_overflow(self):
        out = softmax(Tensor(np.array([1000.0, 1000.0], dtype=np.float32)), axis=0)
        assert np.all(np.isfinite(out.data))
        np.testing.assert_allclose(out.data, [0.5, 0.5], atol=1e-7)

    def test_closed_form_two_elements(self):
        # softmax([1,2]) = [1/(1+e), e/(1+e)]
        out = softmax(Tensor(np.array([1.0, 2.0], dtype=np.float32)), axis=0)
        e = math.e
        np.testing.assert_allclose(
            out.data, [1.0 / (1.0 + e), e / (1.0 + e)], atol=1e-6
        )

    def test_sums_to_one_property(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            x = rng.normal(scale=10.0, size=(4, 7)).astype(np.float32)
            s = softmax(Tensor(x), axis=-1).data.sum(axis=-1)
            np.testing.assert_allclose(s, 1.0, atol=1e-5)

    def test_invalid_axis(self):
        with pytest.raises(ShapeError):
            softmax(Tensor(np.zeros((2, 2), dtype=np.float32)), axis=5)


class TestLayerNorm:
    def _gb(self, n, dtype=np.float32):
        return Tensor(np.ones(n, dtype=dtype)), Tensor(np.zeros(n, dtype=dtype))

    def test_constant_row_is_zero(self):
        g, b = self._gb(3)
        out = layer_norm(Tensor(np.array([5.0, 5.0, 5.0], dtype=np.float32)), g, b)
        np.testing.assert_array_equal(out.data, np.zeros(3, dtype=np.float32))

    def test_two_point_row(self):
        # mean 2, population std 1 -> [-1, 1]
        g, b = self._gb(2)
        out = layer_norm(Tensor(np.array([1.0, 3.0], dtype=np.float32)), g, b, eps=0.0)
        np.testing.assert_allclose(out.data, [-1.0, 1.0], atol=1e-6)

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
        with pytest.raises(ShapeError):
            layer_norm(Tensor(np.zeros((2, 3), dtype=np.float32)), g, b)


class TestGelu:
    def test_zero(self):
        assert gelu(Tensor(np.array(0.0, dtype=np.float32))).item() == 0.0

    def test_large_x_asymptote(self):
        out = gelu(Tensor(np.array(10.0, dtype=np.float32))).item()
        assert abs(out - 10.0) < 1e-6

    def test_phi_at_one(self):
        # 1 * Phi(1), Phi(1) = 0.5*(1+erf(1/sqrt(2))) ~ 0.841345
        out = gelu(Tensor(np.array(1.0, dtype=np.float32))).item()
        expect = 0.5 * (1.0 + math.erf(1.0 / math.sqrt(2.0)))
        assert abs(out - expect) < 1e-6


class TestFiniteDiffCheck:
    def test_quadratic(self):
        x = Tensor(np.array([1.0, 2.0, 3.0], dtype=np.float32))
        err = finite_diff_check(lambda t: tsum(t * t), x, h=1e-3)
        assert err < 1e-4

    def test_rejects_non_scalar(self):
        x = Tensor(np.ones(3, dtype=np.float32))
        with pytest.raises(ShapeError):
            finite_diff_check(lambda t: t * 2.0, x)

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
                lambda t: tsum(matmul(t.reshape(2, 2), Tensor(w.reshape(2, 2))))
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
            log_softmax(x),
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
