import dataclasses
import tracemalloc

import numpy as np
import pytest

from cogent import optim
from cogent.data import DatasetMeta
from cogent.errors import ContractError
from cogent.losses import cross_entropy
from cogent.model import ModelConfig, classify, encode, init_params
from cogent.optim import AdamConfig, AdamState, adam_step, decayed
from cogent.patchmask import PatchConfig, patchify
from cogent.tensor import Tensor, tsum

# The closed-form first Adam step lives in cogent.selfcheck (run by
# tests/test_selfcheck.py).


def tiny_params():
    meta = DatasetMeta(T=8, D=1, num_classes=2, name="tiny")
    return init_params(
        ModelConfig(d_model=4, n_blocks=1, n_heads=2, mlp_ratio=2, proj_dim=2),
        PatchConfig(L=4, theta=0.5),
        meta,
    )


def fill_zero_grads(params):
    for _, t in params.items():
        t.grad = np.zeros_like(t.data)


class TestAdamStep:
    def test_zero_gradient_only_decay_moves_weights(self):
        params = tiny_params()
        state = AdamState.for_params(params)
        before = {k: v.data.copy() for k, v in params.items()}
        fill_zero_grads(params)
        adam_step(params, state, AdamConfig(lr=0.1, weight_decay=0.5))
        for name, t in params.items():
            if decayed(name):
                np.testing.assert_allclose(
                    t.data, before[name] * (1.0 - 0.1 * 0.5), rtol=1e-6
                )
            else:
                np.testing.assert_array_equal(t.data, before[name])

    def test_three_step_determinism(self):
        def run():
            params = tiny_params()
            state = AdamState.for_params(params)
            rng = np.random.default_rng(0)
            for _ in range(3):
                params.zero_grads()
                for _, t in params.items():
                    t.grad = rng.normal(size=t.data.shape).astype(np.float32)
                adam_step(params, state, AdamConfig(lr=1e-3, weight_decay=0.01))
            return {k: v.data.copy() for k, v in params.items()}

        a, b = run(), run()
        for k in a:
            assert np.array_equal(a[k], b[k])

    def test_non_finite_gradient_aborts_with_name(self):
        params = tiny_params()
        state = AdamState.for_params(params)
        fill_zero_grads(params)
        params.tensors["cls_token"].grad = np.full((1, 4), np.nan, np.float32)
        with pytest.raises(ContractError, match="cls_token"):
            adam_step(params, state, AdamConfig())

    def test_missing_gradient_raises_with_name(self):
        # a stage builds only what it trains, so a parameter the loss never
        # reached is an error, not a silent decay-only update
        params = tiny_params()
        state = AdamState.for_params(params)
        fill_zero_grads(params)
        params.tensors["enc.0.mlp.fc1.w"].zero_grad()
        with pytest.raises(ContractError, match="enc.0.mlp.fc1.w"):
            adam_step(params, state, AdamConfig(lr=0.1))

    @pytest.mark.parametrize("bad", ["missing", "nan", "inf"])
    def test_bad_gradient_refused_before_anything_moves(self, bad):
        # the last tensor's gradient is bad; the tensors before it, their
        # moments and the step counter must not have moved
        params = tiny_params()
        state = AdamState.for_params(params)
        rng = np.random.default_rng(2)
        for _, t in params.items():
            t.grad = rng.normal(size=t.shape).astype(np.float32)
        last = list(params.tensors)[-1]
        if bad == "missing":
            params.tensors[last].zero_grad()
        else:
            params.tensors[last].grad.flat[-1] = np.nan if bad == "nan" else np.inf
        before = params.state_arrays()
        with pytest.raises(ContractError, match=last):
            adam_step(params, state, AdamConfig(lr=0.1, weight_decay=0.5))
        assert state.step == 0
        for name, t in params.items():
            assert np.array_equal(t.data, before[name]), name
            assert not state.m[name].any() and not state.v[name].any(), name

    def test_finite_check_allocates_nothing_gradient_sized(self):
        # "big.w" spans 32 update blocks; a mask of the whole gradient row
        # would take one byte per element
        rows = 32 * optim._BLOCK // 1024
        big = Tensor(np.ones((rows, 1024), np.float32), requires_grad=True)
        params = dataclasses.replace(tiny_params(), tensors={"big.w": big})
        state = AdamState.for_params(params)
        big.grad_slot[...] = 1e-3
        big.grad_slot[-1, -1] = np.inf  # in the last block
        big.grad = big.grad_slot
        before = state.buffer.copy()
        with pytest.raises(ContractError, match="big.w"):
            adam_step(params, state, AdamConfig(lr=0.1, weight_decay=0.5))
        assert state.step == 0
        assert np.array_equal(state.buffer, before)
        big.grad_slot[-1, -1] = 1e-3
        tracemalloc.start()
        try:
            adam_step(params, state, AdamConfig(lr=0.1, weight_decay=0.5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert state.step == 1
        assert peak < big.data.size, peak

    def test_decay_never_touches_norms_biases_tokens(self):
        assert decayed("enc.0.attn.wq.w")
        assert not decayed("enc.0.ln1.g")
        assert not decayed("enc.0.ln1.b")
        assert not decayed("patch_proj.b")
        assert not decayed("cls_token")
        assert not decayed("mask_token")


def reference_adam(data, m, v, g, t, cfg, decay):
    """Adam written out of place; the in-place step must match it bit for bit."""
    m = m * cfg.beta1
    m += (1.0 - cfg.beta1) * g
    v = v * cfg.beta2
    v += (1.0 - cfg.beta2) * (g * g)
    m_hat = m / (1.0 - cfg.beta1**t)
    v_hat = v / (1.0 - cfg.beta2**t)
    update = cfg.lr * m_hat / (np.sqrt(v_hat) + cfg.eps)
    if decay:
        update = update + cfg.lr * cfg.weight_decay * data
    return (data - update).astype(data.dtype), m, v


def check_against_reference(params, weight_decay, dtype):
    """Four steps of `adam_step` equal `reference_adam`, bit for bit."""
    state = AdamState.for_params(params)
    cfg = AdamConfig(lr=3e-3, weight_decay=weight_decay)
    ref = {
        k: (t.data.copy(), np.zeros_like(t.data), np.zeros_like(t.data))
        for k, t in params.items()
    }
    rng = np.random.default_rng(4)
    for step in range(1, 5):
        for name, t in params.items():
            t.grad = rng.normal(size=t.shape).astype(dtype)
            data, m, v = ref[name]
            ref[name] = reference_adam(
                data, m, v, t.grad, step, cfg,
                weight_decay > 0.0 and decayed(name),
            )
        adam_step(params, state, cfg)
        for name, t in params.items():
            data, m, v = ref[name]
            assert t.data.dtype == dtype
            assert np.array_equal(t.data, data), name
            assert np.array_equal(state.m[name], m), name
            assert np.array_equal(state.v[name], v), name


class TestInPlaceUpdate:
    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_bit_identical_to_out_of_place_formula(self, weight_decay):
        check_against_reference(tiny_params(), weight_decay, np.float32)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_multi_block_tensors_bit_identical(self, weight_decay, dtype):
        # "big.w" spans three whole update blocks and a 256-element
        # remainder; the two small tensors fit in one partial block each
        rows = 3 * optim._BLOCK // 256 + 1
        rng = np.random.default_rng(8)
        shapes = {"big.w": (rows, 256), "big.b": (256,), "tok": (1, 3)}
        tensors = {
            name: Tensor(rng.normal(size=shape).astype(dtype), requires_grad=True)
            for name, shape in shapes.items()
        }
        assert tensors["big.w"].data.size > 3 * optim._BLOCK
        assert tensors["big.w"].data.size % optim._BLOCK
        params = dataclasses.replace(tiny_params(), tensors=tensors)
        check_against_reference(params, weight_decay, dtype)

    def test_arrays_taken_before_a_step_keep_their_values(self):
        params = tiny_params()
        state = AdamState.for_params(params)
        fill_zero_grads(params)
        params.tensors["patch_proj.b"].grad = np.ones(4, np.float32)
        kept = params.state_arrays()
        before = {k: a.copy() for k, a in kept.items()}
        live = params["patch_proj.b"].data
        adam_step(params, state, AdamConfig(lr=0.1, weight_decay=0.5))
        assert params["patch_proj.b"].data is live  # updated in place
        assert not np.array_equal(live, before["patch_proj.b"])
        for name, arr in kept.items():
            assert np.array_equal(arr, before[name]), name


class TestFlatBuffer:
    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_block_spanning_a_tensor_boundary_bit_identical(self, weight_decay):
        # decayed tensors come first: the first update block holds all of
        # "a.w" and the first 100 elements of "b.w"
        rng = np.random.default_rng(9)
        shapes = {"c.b": (50,), "a.w": (optim._BLOCK - 100,), "b.w": (3, 100)}
        tensors = {
            name: Tensor(rng.normal(size=shape).astype(np.float32), requires_grad=True)
            for name, shape in shapes.items()
        }
        params = dataclasses.replace(tiny_params(), tensors=tensors)
        state = AdamState.for_params(params)
        assert state.n_decayed == optim._BLOCK + 200
        assert np.shares_memory(tensors["b.w"].data, state.buffer[0, : optim._BLOCK])
        assert np.shares_memory(tensors["b.w"].data, state.buffer[0, optim._BLOCK :])
        check_against_reference(params, weight_decay, np.float32)

    def test_hand_assigned_gradient_steps_like_an_accumulated_one(self):
        initial = tiny_params().state_arrays()
        rng = np.random.default_rng(3)
        grads = {
            name: rng.normal(size=a.shape).astype(np.float32)
            for name, a in initial.items()
        }
        stepped = []
        for by_hand in (True, False):
            params = tiny_params()
            state = AdamState.for_params(params)
            for name, t in params.items():
                if by_hand:
                    t.grad = grads[name].copy()
                else:
                    tsum(t * Tensor(grads[name])).backward()
                    assert t.grad is t.grad_slot
            adam_step(params, state, AdamConfig(lr=0.1, weight_decay=0.5))
            stepped.append((params.state_arrays(), state))
        (hand, hand_state), (acc, acc_state) = stepped
        for name in grads:
            assert not np.array_equal(hand[name], initial[name]), name
            assert np.array_equal(hand[name], acc[name]), name
            assert np.array_equal(hand_state.m[name], acc_state.m[name]), name
            assert np.array_equal(hand_state.v[name], acc_state.v[name]), name

    def test_views_stay_live_across_a_step(self):
        params = tiny_params()
        state = AdamState.for_params(params)
        m, v = dict(state.m), dict(state.v)
        data = {name: t.data for name, t in params.items()}
        rng = np.random.default_rng(5)
        for _, t in params.items():
            t.grad = rng.normal(size=t.shape).astype(np.float32)
        adam_step(params, state, AdamConfig(lr=0.1, weight_decay=0.5))
        for name, t in params.items():
            assert t.data is data[name] and t.data.base is state.buffer, name
            assert state.m[name] is m[name] and m[name].base is state.buffer, name
            assert state.v[name] is v[name] and v[name].base is state.buffer, name
            assert m[name].all() and v[name].all(), name  # moved by the step

    def test_parameter_rebound_after_for_params_refused(self):
        params = tiny_params()
        state = AdamState.for_params(params)
        fill_zero_grads(params)
        params.tensors["enc.0.ln1.g"].data = params["enc.0.ln1.g"].data.copy()
        with pytest.raises(ContractError, match="enc.0.ln1.g"):
            adam_step(params, state, AdamConfig())
        assert state.step == 0

    def test_mixed_dtypes_refused(self):
        params = tiny_params()
        params.tensors["cls_token"].data = params["cls_token"].data.astype(np.float64)
        with pytest.raises(ContractError, match="one dtype"):
            AdamState.for_params(params)


class TestGradientSlots:
    def test_backward_writes_the_largest_weight_gradient_into_its_slot(self):
        # the classifier's first weight holds most of this model's values;
        # backward writes its gradient into the optimizer's slot and makes no
        # second copy of it
        meta = DatasetMeta(T=1024, D=1, num_classes=2, name="wide")
        patch_cfg = PatchConfig(L=16, theta=0.0)
        cfg = ModelConfig(d_model=32, n_blocks=1, n_heads=2, mlp_ratio=2, proj_dim=2)
        params = init_params(cfg, patch_cfg, meta)
        AdamState.for_params(params)
        w = params["clf.fc1.w"]
        assert w.data.size > params.total_params() / 2
        values = np.random.default_rng(0).normal(size=(2, 1024, 1)).astype(np.float32)
        logits = classify(encode(*patchify(values, patch_cfg), params), params)[0]
        loss = cross_entropy(logits, np.array([0, 1]))
        tracemalloc.start()
        try:
            loss.backward()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert w.grad is w.grad_slot
        assert np.any(w.grad)
        assert peak < w.data.nbytes, (peak, w.data.nbytes)
