"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines
in a passing run. Criterion 1's line, which gives its elapsed seconds next to
the 60 s bound, shows in every run, `-s` or not. Criteria 2, 3, 7 and 9 run their oracle from the
`cogent.selfcheck` table (`cogent selfcheck` runs the same code), so each
oracle exists once. The training-based criteria share module-scoped
fixtures; every run here is deterministic, so the asserted margins are
frozen, not statistical.
"""

import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from cogent.augment import AugmentConfig
from cogent.checkpoint import load_checkpoint, save_checkpoint
from cogent.data import DatasetMeta, SplitPlan, gen_synthetic
from cogent.gradcheck import joint_loss_gradient_errors
from cogent.losses import LossConfig
from cogent.model import ModelConfig
from cogent.patchmask import PatchConfig
from cogent.selfcheck import CHECKS
from cogent.trainer import (
    RunSettings,
    TrainConfig,
    evaluate,
    finetune,
    pretrain,
    run_ablation,
)

SEEDS = (0, 1, 2)
ORACLES = dict(CHECKS)


@contextmanager
def criterion(number: int, name: str, capsys=None):
    """Print the criterion's PASS/FAIL line, with any notes the body adds.

    Given pytest's `capsys`, the line bypasses output capture, so every
    test log shows it, passing runs included.
    """
    notes: list[str] = []
    status = "FAIL"
    try:
        yield notes
        status = "PASS"
    finally:
        line = f"[acceptance] criterion {number} ({name}): {status}"
        line += "".join(f" ({note})" for note in notes)
        if capsys is None:
            print(line)
        else:
            with capsys.disabled():
                print(f"\n{line}")


def synth_meta():
    return DatasetMeta(T=96, D=1, num_classes=3, name="synth")


def make_settings(seed, label_ratio=0.3, epochs_finetune=10, lr_finetune=5e-4,
                  mode="cogent"):
    return RunSettings(
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
    )


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    # the pinned synthetic corpus: 3 classes, T=96, 100 per class, sigma 0.1
    return gen_synthetic(
        tmp_path_factory.mktemp("acorpus"), synth_meta(), per_class=100,
        seed=0, sigma=0.1,
    )


def test_criterion_1_gradient_integrity(capsys):
    with criterion(1, "gradient integrity on the micro configuration", capsys) as notes:
        start = time.time()
        errors = joint_loss_gradient_errors(seed=0, h=1e-3)
        elapsed = time.time() - start
        notes.append(f"{elapsed:.1f} s of the 60 s bound")
        worst = max(errors.values())
        assert worst < 1e-3, f"worst per-tensor gradient error {worst}"
        assert len(errors) == 74  # every pretraining parameter tensor was checked
        assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s"


def test_criterion_2_loss_oracles():
    with criterion(2, "contrastive-loss oracles"):
        ORACLES["nt-xent closed forms and brute force"]()


def test_criterion_3_masking_arithmetic():
    with criterion(3, "patching and masking arithmetic"):
        ORACLES["patch/mask arithmetic (1280/64/0.75)"]()


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
        ORACLES["metric oracles (f1/auroc/auprc)"]()


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
        ORACLES["silhouette hand example"]()
