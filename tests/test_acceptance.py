"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines
in a passing run. The training-based criteria share module-scoped fixtures;
every run here is deterministic, so the asserted margins are frozen, not
statistical.
"""

import math
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from cogent.augment import AugmentConfig
from cogent.checkpoint import load_checkpoint, save_checkpoint
from cogent.data import DatasetMeta, SplitPlan, gen_synthetic
from cogent.gradcheck import joint_loss_gradient_errors
from cogent.losses import LossConfig, contrastive_loss
from cogent.metrics import (
    auprc_binary,
    auroc_binary,
    macro_prf,
    silhouette_score,
)
from cogent.model import ModelConfig, encode, init_params
from cogent.patchmask import PatchConfig, sample_mask
from cogent.tensor import Tensor
from cogent.trainer import (
    RunSettings,
    TrainConfig,
    evaluate,
    finetune,
    pretrain,
    run_ablation,
)

SEEDS = (0, 1, 2)


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({name}): FAIL")
        raise
    print(f"[acceptance] criterion {number} ({name}): PASS")


def synth_meta():
    return DatasetMeta(T=96, D=1, num_classes=3, name="synth")


def make_settings(seed, label_ratio=0.3, epochs_finetune=10, lr_finetune=5e-4,
                  mode="cogent"):
    return RunSettings(
        meta=synth_meta(),
        patch=PatchConfig(L=16, theta=0.75),
        model=ModelConfig(
            d_model=64, n_blocks=2, n_heads=4, mlp_ratio=4, proj_dim=32,
            init_seed=seed,
        ),
        loss=LossConfig(mode=mode),
        augment=AugmentConfig(kind="jitter", epsilon=0.1),
        train=TrainConfig(
            epochs_pretrain=20,
            epochs_finetune=epochs_finetune,
            batch_size=16,
            seed=seed,
            lr_finetune=lr_finetune,
        ),
        split=SplitPlan(seed=seed, finetune_label_ratio=label_ratio),
        config_dict={
            "data.T": 96,
            "data.D": 1,
            "data.num_classes": 3,
            "patch.L": 16,
            "model.d_model": 64,
            "model.n_blocks": 2,
            "model.n_heads": 4,
            "model.mlp_ratio": 4,
            "model.classifier_hidden_ratio": 0.1,
        },
    )


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    # the pinned synthetic corpus: 3 classes, T=96, 100 per class, sigma 0.1
    return gen_synthetic(
        tmp_path_factory.mktemp("acorpus"), synth_meta(), per_class=100,
        seed=0, sigma=0.1,
    )


def test_criterion_1_gradient_integrity():
    with criterion(1, "gradient integrity on the micro configuration"):
        start = time.time()
        errors = joint_loss_gradient_errors(seed=0, h=1e-3)
        elapsed = time.time() - start
        worst = max(errors.values())
        assert worst < 1e-3, f"worst per-tensor gradient error {worst}"
        assert len(errors) == 74  # every pretraining parameter tensor was checked
        assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s"


def test_criterion_2_loss_oracles():
    with criterion(2, "contrastive-loss oracles"):
        rng = np.random.default_rng(123)
        for _ in range(20):
            b = int(rng.integers(1, 5))
            d = int(rng.integers(2, 9))
            tau = float(rng.uniform(0.1, 1.0))
            h = rng.normal(size=(b, d)).astype(np.float32)
            h2 = rng.normal(size=(b, d)).astype(np.float32)
            unit = [
                r / np.linalg.norm(r)
                for r in np.concatenate([h, h2]).astype(np.float64)
            ]
            expect = 0.0
            for i in range(b):
                pos = math.exp(float(np.dot(unit[i], unit[b + i])) / tau)
                denom = sum(
                    math.exp(float(np.dot(unit[i], unit[k])) / tau)
                    for k in range(2 * b)
                    if k != i
                )
                expect += -math.log(pos / denom)
            expect /= b
            got = contrastive_loss(Tensor(h), Tensor(h2), tau=tau).item()
            assert abs(got - expect) < 1e-5 * max(1.0, abs(expect))
        for b in (2, 3, 4):
            row = np.full((b, 8), 0.4, np.float32)
            got = contrastive_loss(Tensor(row), Tensor(row.copy()), tau=0.2).item()
            assert abs(got - math.log(2 * b - 1)) < 1e-5
        h = Tensor(np.array([[3.0, -4.0]], np.float32))
        assert contrastive_loss(h, Tensor(h.data.copy()), tau=0.2).item() == 0.0


def test_criterion_3_masking_arithmetic():
    with criterion(3, "patching and masking arithmetic"):
        cfg = PatchConfig(L=64, theta=0.75)
        assert cfg.n_patches(1280) == 20
        assert cfg.n_visible(1280) == 5
        meta = DatasetMeta(T=1280, D=1, num_classes=3, name="bench1280")
        params = init_params(ModelConfig(), cfg, meta)
        tokens = np.zeros((1, 5, 64), np.float32)
        idx = np.arange(5, dtype=np.int64)[None, :]
        assert encode(tokens, idx, params).shape == (1, 6, 512)
        rng = np.random.default_rng(7)
        for _ in range(1000):
            assert int(sample_mask(20, 0.75, rng).sum()) == 5


@pytest.fixture(scope="module")
def ablation_runs(corpus):
    runs = {}
    for seed in SEEDS:
        settings = make_settings(seed)
        start = time.time()
        runs[seed] = (run_ablation(corpus, settings), time.time() - start)
    return runs


def test_criterion_4_ablation_machinery(corpus, ablation_runs):
    with criterion(4, "ablation machinery and non-inferiority"):
        for seed in SEEDS:
            rows, elapsed = ablation_runs[seed]
            assert elapsed < 600.0, f"ablate took {elapsed:.0f}s for one seed set"
            assert len(rows) == 3
            assert [r[0] for r in rows] == [
                "recon_orig",
                "recon_orig+recon_aug",
                "recon_orig+recon_aug+contrastive",
            ]
        joint_f1 = np.mean([ablation_runs[s][0][2][1].f1 for s in SEEDS])
        recon_f1 = np.mean([ablation_runs[s][0][0][1].f1 for s in SEEDS])
        assert joint_f1 >= 0.90, f"full-joint mean F1 {joint_f1:.4f}"
        assert joint_f1 >= recon_f1 - 0.02, (
            f"joint {joint_f1:.4f} inferior to reconstruction-only {recon_f1:.4f}"
        )


def test_criterion_5_pretraining_benefit(corpus):
    with criterion(5, "pretraining benefit at label ratio 0.1"):
        pretrained_f1, scratch_f1 = [], []
        for seed in SEEDS:
            settings = make_settings(
                seed, label_ratio=0.1, epochs_finetune=8, lr_finetune=2e-4
            )
            ckpt, _ = pretrain(corpus, settings)
            tuned, _ = finetune(ckpt, corpus, settings)
            pretrained_f1.append(evaluate(tuned, corpus.test).f1)
            scratch, _ = finetune(None, corpus, settings)
            scratch_f1.append(evaluate(scratch, corpus.test).f1)
        gain = float(np.mean(pretrained_f1) - np.mean(scratch_f1))
        assert gain >= 0.02, (
            f"pretraining gain {gain:+.4f} (pretrained {pretrained_f1}, "
            f"from-scratch {scratch_f1})"
        )


def test_criterion_6_determinism_and_persistence(corpus, tmp_path):
    with criterion(6, "determinism and checkpoint persistence"):
        settings = make_settings(0)
        fast = replace(settings, train=replace(settings.train, epochs_pretrain=3))
        for out in (tmp_path / "a", tmp_path / "b"):
            pretrain(corpus, fast, out_dir=out)
        assert (tmp_path / "a" / "best.ckpt").read_bytes() == (
            tmp_path / "b" / "best.ckpt"
        ).read_bytes()

        ckpt = load_checkpoint(tmp_path / "a" / "best.ckpt")
        tuned, _ = finetune(
            ckpt, corpus, replace(fast, train=replace(fast.train, epochs_finetune=3))
        )
        before = evaluate(tuned, corpus.test)
        save_checkpoint(tuned, tmp_path / "tuned.ckpt")
        after = evaluate(load_checkpoint(tmp_path / "tuned.ckpt"), corpus.test)
        assert before.as_row() == after.as_row()

        # independent process: load the file, re-save it, byte-compare
        script = (
            "import sys\n"
            "from cogent.checkpoint import load_checkpoint, save_checkpoint\n"
            "ckpt = load_checkpoint(sys.argv[1])\n"
            "save_checkpoint(ckpt, sys.argv[2])\n"
        )
        out_path = tmp_path / "tuned_resaved.ckpt"
        subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "tuned.ckpt"), str(out_path)],
            check=True,
        )
        assert out_path.read_bytes() == (tmp_path / "tuned.ckpt").read_bytes()


def test_criterion_7_metric_correctness():
    with criterion(7, "metric correctness against brute force"):
        rng = np.random.default_rng(17)
        for _ in range(50):
            n = int(rng.integers(2, 51))
            c = int(rng.integers(2, 5))
            labels = rng.integers(0, c, size=n)
            preds = rng.integers(0, c, size=n)
            scores = np.round(rng.uniform(0, 1, size=(n, c)), 1)
            _, _, f1 = macro_prf(labels, preds, c)
            for cls in range(c):
                tp = int(np.sum((preds == cls) & (labels == cls)))
                fp = int(np.sum((preds == cls) & (labels != cls)))
                fn = int(np.sum((preds != cls) & (labels == cls)))
                expect = (
                    0.0
                    if 2 * tp + fp + fn == 0
                    else float(Fraction(2 * tp, 2 * tp + fp + fn))
                )
                assert f1[cls] == expect  # exact rational agreement
                is_pos = labels == cls
                got_roc = auroc_binary(is_pos, scores[:, cls])
                got_pr = auprc_binary(is_pos, scores[:, cls])
                assert abs(got_roc - _sweep_auroc(is_pos, scores[:, cls])) < 1e-9
                assert abs(got_pr - _sweep_auprc(is_pos, scores[:, cls])) < 1e-9
        # pinned hand examples
        labels = np.array([1, 0, 0])
        preds = np.array([1, 1, 0])
        _, _, f1 = macro_prf(labels, preds, 2)
        assert float(np.mean(f1)) == pytest.approx(2 / 3)
        assert auroc_binary(np.array([0, 1, 1]) == 1, np.full(3, 0.2)) == 0.5


def _sweep_auroc(is_pos, scores):
    n_pos, n_neg = int(is_pos.sum()), int((~is_pos).sum())
    if n_pos == 0 or n_neg == 0:
        return 0.5
    pts = [(0.0, 0.0)]
    for t in np.unique(scores)[::-1]:
        sel = scores >= t
        pts.append(
            (
                float(np.sum(sel & ~is_pos)) / n_neg,
                float(np.sum(sel & is_pos)) / n_pos,
            )
        )
    return sum(
        (x1 - x0) * 0.5 * (y0 + y1) for (x0, y0), (x1, y1) in zip(pts, pts[1:])
    )


def _sweep_auprc(is_pos, scores):
    n_pos = int(is_pos.sum())
    if n_pos == 0:
        return 0.0
    area, prev = 0.0, 0.0
    for t in np.unique(scores)[::-1]:
        sel = scores >= t
        tp = float(np.sum(sel & is_pos))
        area += (tp / n_pos - prev) * (tp / float(sel.sum()))
        prev = tp / n_pos
    return area


def test_criterion_8_baseline_equivalence(corpus):
    with criterion(8, "baseline equivalence without pretraining"):
        short = dict(epochs_finetune=4)
        a, rep_a = finetune(None, corpus, make_settings(7, mode="cogent", **short))
        b, rep_b = finetune(
            None, corpus, make_settings(7, mode="generative_only", **short)
        )
        assert list(a.params) == list(b.params)
        for name in a.params:
            assert np.array_equal(a.params[name], b.params[name]), name
        assert rep_a.as_row() == rep_b.as_row()


def test_criterion_9_silhouette_oracle():
    with criterion(9, "silhouette oracles"):
        # hand distance computation: a = 1, b = (10 + sqrt(101)) / 2,
        # every point scores (b - a) / b
        x = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 0.0], [10.0, 1.0]])
        labels = np.array([0, 0, 1, 1])
        b = (10.0 + math.sqrt(101.0)) / 2.0
        expect = (b - 1.0) / b  # = 0.900249...
        got = silhouette_score(x, labels)
        assert abs(got - expect) < 1e-4
        assert silhouette_score(np.full((6, 2), 3.0), np.array([0, 0, 0, 1, 1, 1])) == 0.0
