import numpy as np
import pytest

from cogent import model
from cogent.data import DatasetMeta
from cogent.errors import ConfigError, ContractError
from cogent.losses import LossConfig, patch_reconstruction_term
from cogent.model import (
    ModelConfig,
    _trunc_normal,
    classifier_hidden_width,
    classify,
    decode,
    encode,
    init_params,
    project_head,
    sinusoid_table,
)
from cogent.patchmask import PatchConfig
from cogent.selfcheck import _whole_array_trunc_normal
from cogent.tensor import Tensor


def micro_setup(theta=0.5, num_classes=2, d_model=8, init_seed=0, loss=None):
    meta = DatasetMeta(T=16, D=1, num_classes=num_classes, name="micro")
    patch_cfg = PatchConfig(L=4, theta=theta)
    model_cfg = ModelConfig(
        d_model=d_model,
        n_blocks=2,
        n_heads=2,
        mlp_ratio=4,
        proj_dim=8,
        init_seed=init_seed,
    )
    params = init_params(model_cfg, patch_cfg, meta, loss=loss)
    return meta, patch_cfg, model_cfg, params


PRETRAIN = LossConfig()  # joint loss, visible target: decoder + projection head
# fine-tuning plus every pretraining layout; together they hold every tensor
LAYOUTS = (
    None,
    PRETRAIN,
    LossConfig(reconstruct_target="masked"),
    LossConfig(mode="generative_only"),
    LossConfig(mode="contrastive_only"),
)


class TestInitParams:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_truncated_normal_matches_whole_array_redraw(self, dtype):
        # seed 0 at this size needs four redraw rounds
        shape = (300, 200)
        ref_rng, rng = np.random.default_rng(0), np.random.default_rng(0)
        expect, rounds = _whole_array_trunc_normal(ref_rng, shape, 0.02, dtype)
        assert rounds >= 3
        got = _trunc_normal(rng, shape, 0.02, dtype)
        assert got.dtype == dtype and np.array_equal(got, expect)
        assert rng.normal() == ref_rng.normal()  # same draws consumed

    def test_same_seed_bit_identical(self):
        _, _, _, a = micro_setup(init_seed=5)
        _, _, _, b = micro_setup(init_seed=5)
        for (ka, ta), (kb, tb) in zip(a.items(), b.items()):
            assert ka == kb
            assert np.array_equal(ta.data, tb.data)

    def test_different_seed_differs(self):
        _, _, _, a = micro_setup(init_seed=5)
        _, _, _, b = micro_setup(init_seed=6)
        assert not np.array_equal(a["patch_proj.w"].data, b["patch_proj.w"].data)

    def test_stages_share_tensors_bit_identically(self):
        # every layout draws all modules in one order and drops the unused,
        # so a tensor two stages both build starts with the same values
        layouts = [micro_setup(loss=loss)[3] for loss in LAYOUTS]
        full = {}
        for params in layouts:
            for name, t in params.items():
                full.setdefault(name, t.data)
                np.testing.assert_array_equal(t.data, full[name])
        assert {n.split(".")[0] for n in full} == {
            "patch_proj", "cls_token", "mask_token", "enc", "dec", "dec_head",
            "proj", "clf",
        }

    def test_pretraining_draws_no_classifier(self, monkeypatch):
        # the classifier is drawn last, so pretraining stops before it
        shapes = []

        def recording(rng, shape, *args, **kwargs):
            shapes.append(shape)
            return _trunc_normal(rng, shape, *args, **kwargs)

        monkeypatch.setattr(model, "_trunc_normal", recording)
        tuned = micro_setup()[3]
        clf = {tuned[f"clf.{n}.w"].shape for n in ("fc1", "fc2")}
        assert clf <= set(shapes)
        for loss in LAYOUTS[1:]:
            shapes.clear()
            micro_setup(loss=loss)
            assert shapes and not clf & set(shapes), loss

    def test_layer_norm_gains_exactly_one(self):
        for loss in LAYOUTS:
            _, _, _, params = micro_setup(loss=loss)
            for name, t in params.items():
                if name.endswith(".g"):
                    assert np.all(t.data == 1.0), name

    def test_biases_zero_weights_truncated(self):
        for loss in LAYOUTS:
            _, _, _, params = micro_setup(loss=loss)
            for name, t in params.items():
                if name.endswith(".b"):
                    assert np.all(t.data == 0.0), name
                if name.endswith(".w"):
                    assert np.all(np.abs(t.data) <= 2.0 * 0.02 + 1e-7), name

    def test_reference_parameter_count_matches_shape_products(self):
        meta = DatasetMeta(T=1280, D=1, num_classes=3, name="bench1280")
        patch_cfg = PatchConfig(L=64, theta=0.75)
        model_cfg = ModelConfig()  # d=512, 2 blocks, heads=8, mlp_ratio=4
        dm, ld = 512, 64
        n, v = 20, 5
        hidden = round(0.10 * n * dm)  # 1024
        block = (
            4 * dm * dm + 3 * dm  # q, k, v, o projections; k has no bias
            + 2 * 2 * dm  # two layer norms
            + (dm * 4 * dm + 4 * dm)  # mlp in
            + (4 * dm * dm + dm)  # mlp out
        )
        encoder = (ld * dm + dm) + dm + 2 * block  # patch projection, cls, blocks
        decoder = 2 * block + (dm * ld + ld)  # blocks and head
        proj = (v * dm * dm + dm) + (dm * 128 + 128)
        clf = (n * dm * hidden + hidden) + (hidden * 3 + 3)
        counts = [
            (None, encoder + clf),
            (PRETRAIN, encoder + decoder + proj),
            (LossConfig(reconstruct_target="masked"), encoder + dm + decoder + proj),
            (LossConfig(mode="generative_only"), encoder + decoder),
            (LossConfig(mode="contrastive_only"), encoder + proj),
        ]
        for loss, expect in counts:
            params = init_params(model_cfg, patch_cfg, meta, loss=loss)
            assert params.total_params() == expect, loss
            assert model.param_count(model_cfg, patch_cfg, meta, loss=loss) == expect
            if loss is None:
                assert params["clf.fc1.w"].shape[1] == 1024

    @pytest.mark.parametrize("proj_tokens", [None, 4])
    @pytest.mark.parametrize("loss", LAYOUTS)
    def test_param_count_counts_what_init_params_stores(self, loss, proj_tokens):
        meta = DatasetMeta(T=40, D=2, num_classes=3, name="count")
        patch_cfg = PatchConfig(L=8, theta=0.5)
        model_cfg = ModelConfig(
            d_model=8, n_blocks=3, n_heads=2, mlp_ratio=3, proj_dim=5
        )
        params = init_params(
            model_cfg, patch_cfg, meta, proj_tokens=proj_tokens, loss=loss
        )
        count = model.param_count(model_cfg, patch_cfg, meta, proj_tokens, loss)
        assert count == params.total_params()

    def test_classifier_hidden_width_reference_shape(self):
        assert classifier_hidden_width(ModelConfig(), 20) == 1024


class TestSinusoidTable:
    def test_shape_and_range(self):
        table = sinusoid_table(21, 512)
        assert table.shape == (21, 512)
        assert np.all(np.abs(table) <= 1.0 + 1e-6)

    def test_rows_distinct(self):
        table = sinusoid_table(8, 16)
        for i in range(7):
            assert not np.allclose(table[i], table[i + 1])


class TestEncode:
    def test_six_tokens_for_reference_setup(self):
        meta = DatasetMeta(T=1280, D=1, num_classes=3, name="bench1280")
        patch_cfg = PatchConfig(L=64, theta=0.75)
        params = init_params(ModelConfig(), patch_cfg, meta)
        rng = np.random.default_rng(0)
        tokens = rng.normal(size=(2, 5, 64)).astype(np.float32)
        idx = np.stack([np.sort(rng.choice(20, 5, replace=False)) for _ in range(2)])
        z = encode(tokens, idx, params)
        assert z.shape == (2, 6, 512)

    def test_output_shape_micro(self):
        _, _, _, params = micro_setup(theta=0.5)
        tokens = np.zeros((3, 2, 4), np.float32)
        idx = np.tile(np.array([0, 2]), (3, 1))
        z = encode(tokens, idx, params)
        assert z.shape == (3, 3, 8)

    # permutation equivariance is the selfcheck check of that name

    def test_index_out_of_range(self):
        _, _, _, params = micro_setup(theta=0.5)
        tokens = np.zeros((1, 2, 4), np.float32)
        with pytest.raises(ContractError, match="positional-table range"):
            encode(tokens, np.array([[0, 4]]), params)

    def test_forward_deterministic(self):
        _, _, _, params = micro_setup()
        rng = np.random.default_rng(2)
        tokens = rng.normal(size=(2, 2, 4)).astype(np.float32)
        idx = np.tile(np.array([1, 3]), (2, 1))
        a = encode(tokens, idx, params).data
        b = encode(tokens, idx, params).data
        assert np.array_equal(a, b)


class TestProjectHead:
    def test_output_shape_and_unit_norm(self):
        _, _, _, params = micro_setup(theta=0.5, loss=PRETRAIN)
        rng = np.random.default_rng(3)
        tokens = rng.normal(size=(4, 2, 4)).astype(np.float32)
        idx = np.tile(np.array([0, 2]), (4, 1))
        h = project_head(encode(tokens, idx, params), params)
        assert h.shape == (4, 8)
        norms = np.linalg.norm(h.data, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-5)

    def test_identical_inputs_identical_embeddings(self):
        _, _, _, params = micro_setup(theta=0.5, loss=PRETRAIN)
        tokens = np.tile(
            np.random.default_rng(4).normal(size=(1, 2, 4)).astype(np.float32),
            (2, 1, 1),
        )
        idx = np.tile(np.array([1, 2]), (2, 1))
        h = project_head(encode(tokens, idx, params), params).data
        np.testing.assert_array_equal(h[0], h[1])

    def test_wrong_visible_count(self):
        _, _, _, params = micro_setup(theta=0.5, loss=PRETRAIN)  # head sized for V=2
        tokens = np.zeros((1, 3, 4), np.float32)
        idx = np.array([[0, 1, 2]])
        z = encode(tokens, idx, params)
        with pytest.raises(ContractError):
            project_head(z, params)


class TestDecode:
    def test_output_shape(self):
        _, _, _, params = micro_setup(theta=0.5, loss=PRETRAIN)
        tokens = np.zeros((2, 2, 4), np.float32)
        idx = np.tile(np.array([0, 3]), (2, 1))
        z = encode(tokens, idx, params)
        out = decode(z, idx, params)
        assert out.shape == (2, 2, 4)  # cls token yields no reconstructed patch

    def test_masked_fill_shape(self):
        _, _, _, params = micro_setup(
            theta=0.5, loss=LossConfig(reconstruct_target="masked")
        )
        tokens = np.zeros((2, 2, 4), np.float32)
        idx = np.tile(np.array([0, 3]), (2, 1))
        masks = np.zeros((2, 4), np.uint8)
        masks[np.arange(2)[:, None], idx] = 1
        z = encode(tokens, idx, params)
        out = decode(z, idx, params, masks=masks)
        assert out.shape == (2, 4, 4)

    def test_reconstruction_gradient_reaches_patch_projection(self):
        _, _, _, params = micro_setup(theta=0.5, loss=PRETRAIN)
        rng = np.random.default_rng(5)
        tokens = rng.normal(size=(2, 2, 4)).astype(np.float32)
        idx = np.tile(np.array([1, 2]), (2, 1))
        z = encode(tokens, idx, params)
        p_hat = decode(z, idx, params)
        loss = patch_reconstruction_term(p_hat, Tensor(tokens))
        params.zero_grads()
        loss.backward()
        grad = params["patch_proj.w"].grad
        assert grad is not None and np.any(grad != 0.0)


class TestClassify:
    def test_logit_shape(self):
        meta, patch_cfg, _, params = micro_setup(theta=0.0, num_classes=3)
        tokens = np.zeros((2, 4, 4), np.float32)
        idx = np.tile(np.arange(4), (2, 1))
        logits, _ = classify(encode(tokens, idx, params), params)
        assert logits.shape == (2, 3)

    def test_argmax_shift_invariant(self):
        _, _, _, params = micro_setup(theta=0.0, num_classes=3)
        rng = np.random.default_rng(6)
        tokens = rng.normal(size=(2, 4, 4)).astype(np.float32)
        idx = np.tile(np.arange(4), (2, 1))
        logits = classify(encode(tokens, idx, params), params)[0].data
        shifted = logits + 3.7
        np.testing.assert_array_equal(
            np.argmax(logits, axis=1), np.argmax(shifted, axis=1)
        )

    def test_wrong_patch_count(self):
        _, _, _, params = micro_setup(theta=0.5)
        tokens = np.zeros((1, 2, 4), np.float32)
        idx = np.array([[0, 1]])
        z = encode(tokens, idx, params)
        with pytest.raises(ContractError):
            classify(z, params)

    def test_hidden_layer_exposed_for_export(self):
        _, _, _, params = micro_setup(theta=0.0)
        tokens = np.zeros((2, 4, 4), np.float32)
        idx = np.tile(np.arange(4), (2, 1))
        logits, hidden = classify(encode(tokens, idx, params), params)
        assert hidden.shape == (2, params["clf.fc1.w"].shape[1])


class TestModelConfigValidation:
    def test_heads_divide_width(self):
        with pytest.raises(ConfigError):
            ModelConfig(d_model=10, n_heads=4)

    def test_proj_dim_minimum(self):
        with pytest.raises(ConfigError):
            ModelConfig(proj_dim=1)
