import numpy as np
import pytest

from cogent.data import DatasetMeta
from cogent.errors import ContractError
from cogent.model import ModelConfig, init_params
from cogent.optim import AdamConfig, AdamState, adam_step, decayed
from cogent.patchmask import PatchConfig


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

    def test_first_step_closed_form(self):
        # w=0, g=1, lr=0.1: bias-corrected first step moves w to ~-0.1
        params = tiny_params()
        state = AdamState.for_params(params)
        name = "patch_proj.b"
        fill_zero_grads(params)
        params.tensors[name].data[:] = 0.0
        params.tensors[name].grad = np.ones_like(params[name].data)
        adam_step(params, state, AdamConfig(lr=0.1, weight_decay=0.0))
        np.testing.assert_allclose(params[name].data, -0.1, rtol=1e-6)

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

    def test_decay_never_touches_norms_biases_tokens(self):
        assert decayed("enc.0.attn.wq.w")
        assert not decayed("enc.0.ln1.g")
        assert not decayed("enc.0.ln1.b")
        assert not decayed("patch_proj.b")
        assert not decayed("cls_token")
        assert not decayed("mask_token")
