import math
import re
import weakref
from dataclasses import replace

import numpy as np
import pytest

from cogent import trainer
from cogent.augment import AugmentConfig
from cogent.checkpoint import load_checkpoint, save_checkpoint
from cogent.config import RunSettings, TrainConfig
from cogent.data import (
    Corpus,
    DatasetMeta,
    Samples,
    SplitPlan,
    gen_synthetic,
    split_pretrain,
)
from cogent.errors import ConfigError
from cogent.losses import LossConfig, joint_loss
from cogent.model import ModelConfig, classify, encode, init_params
from cogent.patchmask import PatchConfig
from cogent.trainer import (
    _loss_parts,
    evaluate,
    export_embeddings,
    finetune,
    params_from_checkpoint,
    pretrain,
    run_ablation,
)

META = DatasetMeta(T=96, D=1, num_classes=3, name="synth")


def make_settings(seed=0, mode="cogent", epochs_pretrain=10, epochs_finetune=10,
                  label_ratio=0.3, d_model=32, **loss_kwargs):
    return RunSettings(
        patch=PatchConfig(L=16, theta=0.75),
        model=ModelConfig(
            d_model=d_model, n_blocks=2, n_heads=4, mlp_ratio=2, proj_dim=16,
            init_seed=seed,
        ),
        loss=LossConfig(mode=mode, **loss_kwargs),
        augment=AugmentConfig(kind="jitter", epsilon=0.1),
        train=TrainConfig(
            epochs_pretrain=epochs_pretrain,
            epochs_finetune=epochs_finetune,
            batch_size=16,
            seed=seed,
        ),
        split=SplitPlan(seed=seed, finetune_label_ratio=label_ratio),
    )


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    return gen_synthetic(
        tmp_path_factory.mktemp("corpus"), META, per_class=40, seed=3, sigma=0.1
    )


@pytest.fixture(scope="module")
def cogent_ckpt(corpus):
    ckpt, log = pretrain(corpus, make_settings(seed=0, epochs_pretrain=15))
    return ckpt, log


class TestPretrain:
    def test_loss_halves_on_synthetic_corpus(self, corpus):
        # regression fixture: 3 classes, T=96, L=16, d_model=64, B=16, 30 epochs
        settings = RunSettings(
            patch=PatchConfig(L=16, theta=0.75),
            model=ModelConfig(
                d_model=64, n_blocks=2, n_heads=4, mlp_ratio=4, proj_dim=32,
                init_seed=0,
            ),
            loss=LossConfig(mode="cogent"),
            augment=AugmentConfig(kind="jitter", epsilon=0.1),
            train=TrainConfig(
                epochs_pretrain=30, epochs_finetune=5, batch_size=16, seed=0
            ),
            split=SplitPlan(seed=0),
        )
        _, log = pretrain(corpus, settings)
        assert log[-1]["total"] < 0.5 * log[0]["total"]

    def test_lambdas_frozen_and_recorded(self, cogent_ckpt):
        ckpt, log = cogent_ckpt
        assert ckpt.lambda_c == 1.0
        assert ckpt.lambda_r > 0.0
        assert all(e["lambda_r"] == log[0]["lambda_r"] for e in log)

    def test_generative_only_never_computes_contrastive(self, corpus):
        settings = make_settings(seed=1, mode="generative_only", epochs_pretrain=6)
        ckpt, log = pretrain(corpus, settings)
        assert all(e["l_c"] is None for e in log)
        assert log[-1]["l_r"] < log[0]["l_r"]  # decoder loss decreases

    def test_contrastive_only_never_reconstructs(self, corpus):
        settings = make_settings(seed=1, mode="contrastive_only", epochs_pretrain=3)
        _, log = pretrain(corpus, settings)
        assert all(e["l_r"] is None for e in log)
        assert all(e["l_c"] is not None for e in log)

    def test_rerun_epoch0_loss_bit_identical(self, corpus):
        a = pretrain(corpus, make_settings(seed=2, epochs_pretrain=1))[1]
        b = pretrain(corpus, make_settings(seed=2, epochs_pretrain=1))[1]
        assert a[0]["total"] == b[0]["total"]
        assert a[0]["sanity_total"] == b[0]["sanity_total"]

    def test_sanity_pass_scores_each_batch_once(self, corpus, monkeypatch):
        # the batches share one forward, but each gets its own joint_loss
        # call, which is where the benchmark times the pass batch by batch
        settings = make_settings(seed=0)
        settings.train.batch_size = 4
        _, sanity = split_pretrain(corpus.train, settings.split)
        params = init_params(
            settings.model, settings.patch, META, loss=settings.loss
        )
        calls = []
        score = trainer.joint_loss

        def counted(*args):
            calls.append(args)
            return score(*args)

        built = trainer._sanity_set(sanity, settings)
        monkeypatch.setattr(trainer, "joint_loss", counted)
        trainer._sanity_loss(built, params, settings, (1.0, 1.0))
        assert len(built) == len(sanity)
        assert len(sanity) // 4 >= 2
        assert len(calls) == len(sanity) // 4

    def test_sanity_views_built_once_per_run(self, corpus, monkeypatch):
        # each epoch masks its training batches; the sanity batches are
        # masked once, before the first epoch
        settings = make_settings(seed=0, epochs_pretrain=3)
        settings.split.pretrain_fraction = 0.5
        pre, sanity = split_pretrain(corpus.train, settings.split)
        train_batches = len(pre) // settings.train.batch_size
        sanity_batches = len(sanity) // settings.train.batch_size
        assert train_batches >= 2 and sanity_batches >= 2
        calls = []
        mask = trainer.batch_patchify_mask

        def counted(*args):
            calls.append(args)
            return mask(*args)

        monkeypatch.setattr(trainer, "batch_patchify_mask", counted)
        pretrain(corpus, settings)
        # each batch has an original and an augmented view
        assert len(calls) == (3 * train_batches + sanity_batches) * 2

    def test_built_sanity_arrays_are_read_only(self, corpus):
        # every view holds (tokens, token_idx, masks, patches) under either
        # reconstruction target
        for target in ("masked", "visible"):
            settings = make_settings(seed=0, reconstruct_target=target)
            _, sanity = split_pretrain(corpus.train, settings.split)
            built = trainer._sanity_set(sanity, settings)
            arrays = [arr for views in built.batches for view in views for arr in view]
            assert len(arrays) == len(built.batches) * 2 * 4
            for arr in arrays:
                with pytest.raises(ValueError, match="read-only"):
                    arr[...] = 0

    def test_split_below_two_samples_has_no_sanity_loss(self, corpus):
        settings = make_settings(seed=0)
        params = init_params(
            settings.model, settings.patch, META, loss=settings.loss
        )
        built = trainer._sanity_set(corpus.train[:1], settings)
        assert len(built) == 1 and built.batches == ()
        assert trainer._sanity_loss(built, params, settings, (1.0, 1.0)) is None

    def test_batch_size_one_rejected(self, corpus):
        settings = make_settings(seed=0, epochs_pretrain=1)
        settings.train.batch_size = 1
        with pytest.raises(ConfigError):
            pretrain(corpus, settings)

    def test_checkpoints_bit_identical_across_runs(self, corpus, tmp_path):
        for i, out in enumerate((tmp_path / "r1", tmp_path / "r2")):
            pretrain(corpus, make_settings(seed=4, epochs_pretrain=3), out_dir=out)
        a = (tmp_path / "r1" / "best.ckpt").read_bytes()
        b = (tmp_path / "r2" / "best.ckpt").read_bytes()
        assert a == b

    def test_outputs_written(self, corpus, tmp_path):
        pretrain(corpus, make_settings(seed=5, epochs_pretrain=2), out_dir=tmp_path)
        assert (tmp_path / "best.ckpt").is_file()
        assert (tmp_path / "last.ckpt").is_file()
        log_text = (tmp_path / "loss_log.csv").read_text()
        assert log_text.startswith("epoch,")
        assert len(log_text.strip().splitlines()) == 3  # header + 2 epochs


class TestLossParts:
    """The reconstruction term of a step, as `_loss_parts` combines it."""

    @staticmethod
    def parts(recon_views):
        settings = make_settings(mode="generative_only", recon_views=recon_views)
        params = init_params(
            settings.model, settings.patch, META, loss=settings.loss
        )
        values = np.random.default_rng(0).normal(size=(4, 96, 1)).astype(np.float32)
        rngs = tuple(np.random.default_rng(k) for k in (1, 2, 3))
        return _loss_parts(values, params, settings, rngs)

    def test_two_view_mean(self):
        l_c, l_orig, l_aug, l_r = self.parts("both")
        assert l_c is None
        assert l_orig.item() != l_aug.item()
        expect = 0.5 * (l_orig.item() + l_aug.item())
        assert l_r.item() == pytest.approx(expect, rel=1e-6)

    def test_orig_view_only_has_no_aug_term(self):
        _, l_orig, l_aug, l_r = self.parts("orig")
        assert l_aug is None
        assert l_r is l_orig


def record_graphs(monkeypatch, scope: str, op: str) -> list[tuple[bool, bool]]:
    """Wrap `trainer.<op>` to record (called inside `trainer.<scope>`, its
    result has parents) per call."""
    inside: list[bool] = []
    seen: list[tuple[bool, bool]] = []
    scope_fn, op_fn = getattr(trainer, scope), getattr(trainer, op)

    def scoped(*args, **kwargs):
        inside.append(True)
        try:
            return scope_fn(*args, **kwargs)
        finally:
            inside.pop()

    def recorded(*args, **kwargs):
        out = op_fn(*args, **kwargs)
        tensor = out[0] if isinstance(out, tuple) else out
        seen.append((bool(inside), tensor._parents != ()))
        return out

    monkeypatch.setattr(trainer, scope, scoped)
    monkeypatch.setattr(trainer, op, recorded)
    return seen


class TestForwardOnlyPasses:
    """The sanity pass and validation build no graph; training steps do."""

    @staticmethod
    def check(seen):
        forward_only = [graph for inside, graph in seen if inside]
        training = [graph for inside, graph in seen if not inside]
        assert forward_only and not any(forward_only)
        assert training and all(training)

    def test_sanity_pass_builds_no_graph(self, corpus, monkeypatch):
        seen = record_graphs(monkeypatch, "_sanity_loss", "joint_loss")
        pretrain(corpus, make_settings(seed=0, epochs_pretrain=2))
        self.check(seen)

    def test_validation_builds_no_graph(self, corpus, monkeypatch):
        seen = record_graphs(monkeypatch, "_forward_logits", "classify")
        finetune(None, corpus, make_settings(seed=0, epochs_finetune=2))
        self.check(seen)

    def test_step_after_sanity_pass_gets_every_gradient(self, corpus):
        settings = make_settings(seed=0)
        pre, sanity = split_pretrain(corpus.train, settings.split)
        params = init_params(
            settings.model, settings.patch, META, loss=settings.loss
        )
        lambdas = (1.0, 1.0)
        built = trainer._sanity_set(sanity, settings)
        assert trainer._sanity_loss(built, params, settings, lambdas) is not None
        values = pre.values[:16]
        rngs = tuple(np.random.default_rng(k) for k in (1, 2, 3))
        total, _ = joint_loss(
            settings.loss, *lambdas, *_loss_parts(values, params, settings, rngs)
        )
        params.zero_grads()
        total.backward()
        missing = [name for name, t in params.items() if t.grad is None]
        assert missing == []


class TestOneGraphAtATime:
    @pytest.mark.parametrize("stage", ["pretraining", "fine-tuning"])
    def test_a_steps_graph_is_freed_before_the_next_forward(
        self, stage, corpus, cogent_ckpt, monkeypatch
    ):
        graphs = []

        def recording_encode(*args):
            assert all(ref() is None for ref in graphs), "a step's graph is alive"
            z = encode(*args)
            if z._parents:  # a training step's; its slices view z.data
                graphs.append(weakref.ref(z.data))
            return z

        monkeypatch.setattr(trainer, "encode", recording_encode)
        settings = make_settings(seed=0, epochs_pretrain=2, epochs_finetune=2)
        if stage == "pretraining":
            pretrain(corpus, settings)
        else:
            finetune(cogent_ckpt[0], corpus, settings)
        assert len(graphs) > 2


class TestFinetune:
    def test_pretrained_reaches_f1_on_separable_corpus(self, corpus, cogent_ckpt):
        ckpt, _ = cogent_ckpt
        settings = make_settings(seed=0, epochs_finetune=20)
        tuned, report = finetune(ckpt, corpus, settings)
        assert report.f1 >= 0.95

    def test_from_scratch_mode_invariance(self, corpus):
        # without pretraining the self-supervised objective is unused, so
        # joint-mode and reconstruction-only runs are identical
        a, rep_a = finetune(None, corpus, make_settings(seed=6, mode="cogent",
                                                        epochs_finetune=3))
        b, rep_b = finetune(None, corpus, make_settings(seed=6, mode="generative_only",
                                                        epochs_finetune=3))
        for name in a.params:
            np.testing.assert_array_equal(a.params[name], b.params[name])
        assert rep_a.as_row() == rep_b.as_row()

    def test_digest_mismatch_refused(self, corpus, cogent_ckpt):
        ckpt, _ = cogent_ckpt
        settings = make_settings(seed=0, d_model=64)
        with pytest.raises(ConfigError, match="digest") as err:
            finetune(ckpt, corpus, settings)
        assert "model.d_model 32 vs 64" in str(err.value)

    def test_class_count_mismatch_names_the_key(self, cogent_ckpt, tmp_path):
        # pretrained on 3 classes, fine-tuned on 4: the refusal says which
        # architecture key differs, with both values
        ckpt, _ = cogent_ckpt
        four = gen_synthetic(
            tmp_path, DatasetMeta(T=96, D=1, num_classes=4, name="four"),
            per_class=8, seed=3, sigma=0.1,
        )
        with pytest.raises(ConfigError, match="digest") as err:
            finetune(ckpt, four, make_settings(seed=0))
        assert str(err.value).endswith("configuration: data.num_classes 3 vs 4")

    def test_hand_built_settings_run_every_stage(self, corpus):
        # settings built without a configuration: each checkpoint stores
        # the flat keys of the settings that ran, so every later stage reads
        # what it needs from it
        settings = make_settings(seed=4, epochs_pretrain=1, epochs_finetune=1)
        pre, _ = pretrain(corpus, settings)
        assert pre.config == trainer.run_config(settings, META)
        tuned, _ = finetune(pre, corpus, settings)
        assert tuned.config == pre.config
        report = evaluate(tuned, corpus.test)
        assert 0.0 <= report.f1 <= 1.0

    def test_checkpoints_hold_only_their_stage_tensors(self, corpus):
        # pretraining stores no classifier; fine-tuning stores no decoder,
        # projection head or mask token, whatever the pretraining loss
        heads = {
            "cogent": {"dec", "dec_head", "proj"},
            "generative_only": {"dec", "dec_head"},
            "contrastive_only": {"proj"},
        }
        encoder = {"patch_proj", "cls_token", "enc"}
        for mode, expect in heads.items():
            settings = make_settings(
                seed=9, mode=mode, epochs_pretrain=1, epochs_finetune=1
            )
            pre, _ = pretrain(corpus, settings)
            assert {n.split(".")[0] for n in pre.params} == encoder | expect, mode
            tuned, _ = finetune(pre, corpus, settings)
            assert {n.split(".")[0] for n in tuned.params} == encoder | {"clf"}, mode
            for name in encoder & set(pre.params):
                assert pre.params[name].shape == tuned.params[name].shape

    def test_masked_target_adds_only_the_mask_token(self, corpus):
        settings = make_settings(
            seed=9, mode="generative_only", epochs_pretrain=1,
            reconstruct_target="masked",
        )
        pre, _ = pretrain(corpus, settings)
        assert "mask_token" in pre.params
        assert not any(n.startswith(("proj.", "clf.")) for n in pre.params)

    def test_finetuned_checkpoint_refused_as_input(self, corpus, cogent_ckpt):
        ckpt, _ = cogent_ckpt
        settings = make_settings(seed=0, epochs_finetune=1)
        tuned, _ = finetune(ckpt, corpus, settings)
        with pytest.raises(ConfigError, match="already fine-tuned"):
            finetune(tuned, corpus, settings)

    def test_test_rows_never_read_before_evaluate(self, corpus, cogent_ckpt):
        ckpt, _ = cogent_ckpt

        reads = []

        class CountingSamples(Samples):
            def __getattribute__(self, name):
                if name in ("values", "labels"):
                    reads.append(name)
                return super().__getattribute__(name)

        guard = CountingSamples(corpus.test.values, corpus.test.labels)
        reads.clear()  # the constructor's own checks
        guarded = Corpus(meta=corpus.meta, train=corpus.train, val=corpus.val,
                         test=guard)
        settings = make_settings(seed=7, epochs_finetune=2)
        tuned, _ = finetune(ckpt, guarded, settings)
        assert reads == []
        evaluate(tuned, guarded.test)
        assert reads


class TestEvaluateAndExport:
    def test_evaluate_deterministic_and_bounded(self, corpus, cogent_ckpt):
        ckpt, _ = cogent_ckpt
        tuned, _ = finetune(ckpt, corpus, make_settings(seed=0, epochs_finetune=5))
        a = evaluate(tuned, corpus.test)
        b = evaluate(tuned, corpus.test)
        assert a.as_row() == b.as_row()
        for v in a.as_row().values():
            assert 0.0 <= v <= 1.0

    def test_metrics_survive_checkpoint_round_trip(self, corpus, cogent_ckpt,
                                                   tmp_path):
        ckpt, _ = cogent_ckpt
        tuned, _ = finetune(ckpt, corpus, make_settings(seed=0, epochs_finetune=3))
        before = evaluate(tuned, corpus.test)
        save_checkpoint(tuned, tmp_path / "t.ckpt")
        after = evaluate(load_checkpoint(tmp_path / "t.ckpt"), corpus.test)
        assert before.as_row() == after.as_row()

    def test_pretraining_checkpoint_refused(self, corpus, cogent_ckpt):
        ckpt, _ = cogent_ckpt
        with pytest.raises(ConfigError, match="no trained classifier"):
            evaluate(ckpt, corpus.test)
        with pytest.raises(ConfigError, match="no trained classifier"):
            export_embeddings(ckpt, corpus.test)

    def test_inference_builds_no_graph(self, corpus, cogent_ckpt):
        ckpt, _ = cogent_ckpt
        tuned, _ = finetune(ckpt, corpus, make_settings(seed=0, epochs_finetune=1))
        params, patch_cfg = params_from_checkpoint(tuned)
        n = patch_cfg.n_patches(96)
        tokens = np.zeros((2, n, 16), dtype=np.float32)
        idx = np.tile(np.arange(n), (2, 1))
        logits, hidden = classify(encode(tokens, idx, params), params)
        assert logits._parents == () and hidden._parents == ()
        assert not any(t.requires_grad for _, t in params.items())

    def test_empty_split_rejected(self, corpus, cogent_ckpt):
        ckpt, _ = cogent_ckpt
        tuned, _ = finetune(ckpt, corpus, make_settings(seed=0, epochs_finetune=2))
        with pytest.raises(ConfigError):
            evaluate(tuned, corpus.test[:0])

    def test_export_embeddings(self, corpus, cogent_ckpt, tmp_path):
        ckpt, _ = cogent_ckpt
        tuned, _ = finetune(ckpt, corpus, make_settings(seed=0, epochs_finetune=5))
        hidden, labels, score = export_embeddings(
            tuned,
            corpus.test,
            out_csv=tmp_path / "emb.csv",
            out_silhouette=tmp_path / "sil.txt",
        )
        assert hidden.shape[0] == len(corpus.test)
        assert -1.0 <= score <= 1.0
        header = (tmp_path / "emb.csv").read_text().splitlines()[0]
        assert header.startswith("label,dim0,")
        assert float((tmp_path / "sil.txt").read_text()) == pytest.approx(score)

    @pytest.fixture(scope="class")
    def tiny_tuned(self, tmp_path_factory):
        # T=32, L=8, D=1, 3 classes: the classifier reads exactly 4 patches
        meta = DatasetMeta(T=32, D=1, num_classes=3, name="tiny")
        tiny = gen_synthetic(tmp_path_factory.mktemp("tiny"), meta, per_class=8)
        settings = RunSettings(
            patch=PatchConfig(L=8),
            model=ModelConfig(d_model=8, n_heads=2, mlp_ratio=2, proj_dim=4),
            loss=LossConfig(),
            augment=AugmentConfig(),
            train=TrainConfig(epochs_finetune=1, batch_size=4),
            split=SplitPlan(),
        )
        tuned, _ = finetune(None, tiny, settings)
        return tuned

    @pytest.mark.parametrize(
        "shape, label",
        [((40, 1), 0), ((32, 2), 0), ((24, 1), 0), ((32, 1), 5)],
        ids=["longer", "wider", "shorter", "unknown-label"],
    )
    def test_samples_that_do_not_fit_the_checkpoint_refused(
        self, tiny_tuned, shape, label
    ):
        # a user error naming the split's shape or the first sample with an
        # unknown label, before any forward pass
        samples = Samples(np.zeros((2, *shape), np.float32), np.array([0, label]))
        if label:
            message = f"sample 1 (label {label}) does not fit the checkpoint"
        else:
            message = f"samples of shape {shape} do not fit the checkpoint"
        for run in (evaluate, export_embeddings):
            with pytest.raises(ConfigError, match=re.escape(message)):
                run(tiny_tuned, samples)


class TestAblation:
    def test_three_rows_and_joint_equals_direct_run(self, corpus, tmp_path):
        settings = make_settings(seed=0, epochs_pretrain=4, epochs_finetune=4)
        rows = run_ablation(corpus, settings, out_csv=tmp_path / "ablation.csv")
        assert len(rows) == 3
        labels = [label for label, _ in rows]
        assert labels == [
            "recon_orig",
            "recon_orig+recon_aug",
            "recon_orig+recon_aug+contrastive",
        ]
        # the full-joint row reproduces a direct joint run with the same seed
        direct_settings = make_settings(seed=0, epochs_pretrain=4, epochs_finetune=4)
        ckpt, _ = pretrain(corpus, direct_settings)
        tuned, _ = finetune(ckpt, corpus, direct_settings)
        direct = evaluate(tuned, corpus.test, batch_size=16)
        assert rows[2][1].as_row() == direct.as_row()
        text = (tmp_path / "ablation.csv").read_text().splitlines()
        assert text[0] == "mode,pretrained,accuracy,precision,recall,f1,auroc,auprc"
        assert len(text) == 4


class TestKeepZeroedForm:
    def test_zeroed_tokens_pipeline_runs(self, corpus):
        # the literal elementwise-masking form: masked patches stay in the
        # token sequence as zeros and the loss still scores visible rows only
        settings = replace(
            make_settings(seed=8, epochs_pretrain=3), keep_zeroed=True
        )
        ckpt, log = pretrain(corpus, settings)
        assert math.isfinite(log[-1]["total"])
        assert log[-1]["l_r"] < log[0]["l_r"]

    def test_keep_zeroed_rejects_masked_target(self):
        with pytest.raises(ConfigError):
            replace(
                make_settings(seed=0),
                keep_zeroed=True,
                loss=LossConfig(mode="generative_only", reconstruct_target="masked"),
            )
