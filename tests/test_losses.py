import math

import numpy as np
import pytest

from cogent.errors import ConfigError
from cogent.losses import (
    LossConfig,
    balance_lambdas,
    contrastive_loss,
    cross_entropy,
    joint_loss,
    patch_reconstruction_term,
)
from cogent.tensor import Tensor, finite_diff_check

# The NT-Xent brute force, its closed forms, the reconstruction hand
# arithmetic and the balancing ratio live in cogent.selfcheck (run by
# tests/test_selfcheck.py).


class TestReconstructionLoss:
    def test_perfect_reconstruction(self):
        p = Tensor(np.ones((2, 3, 4), np.float32))
        assert patch_reconstruction_term(p, p).item() == 0.0

    def test_unit_offset_64_wide_patch(self):
        rng = np.random.default_rng(0)
        p = Tensor(rng.normal(size=(3, 5, 64)).astype(np.float32))
        p_hat = Tensor(p.data + 1.0)
        assert abs(patch_reconstruction_term(p_hat, p).item() - 64.0) < 1e-4

    def test_patch_permutation_invariance(self):
        rng = np.random.default_rng(1)
        p = rng.normal(size=(2, 6, 8)).astype(np.float32)
        p_hat = rng.normal(size=(2, 6, 8)).astype(np.float32)
        perm = rng.permutation(6)
        a = patch_reconstruction_term(Tensor(p_hat), Tensor(p)).item()
        b = patch_reconstruction_term(Tensor(p_hat[:, perm]), Tensor(p[:, perm])).item()
        assert abs(a - b) < 1e-6

    def test_gradient_check(self):
        # float64 storage: float32 central differences sit at the rounding
        # noise floor (~3e-5 * |loss| per coordinate) for composite graphs
        rng = np.random.default_rng(2)
        p = Tensor(rng.normal(size=(2, 3, 4)))
        target = Tensor(rng.normal(size=(2, 3, 4)))
        err = finite_diff_check(
            lambda t: patch_reconstruction_term(t, target), p, h=1e-3
        )
        assert err < 1e-3


class TestContrastiveLoss:
    def test_nonnegative(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            h = rng.normal(size=(4, 6)).astype(np.float32)
            h2 = rng.normal(size=(4, 6)).astype(np.float32)
            assert contrastive_loss(Tensor(h), Tensor(h2), tau=0.5).item() >= 0.0

    def test_orthogonal_rotation_invariance(self):
        rng = np.random.default_rng(6)
        h = rng.normal(size=(4, 8)).astype(np.float32)
        h2 = rng.normal(size=(4, 8)).astype(np.float32)
        q, _ = np.linalg.qr(rng.normal(size=(8, 8)))
        q = q.astype(np.float32)
        a = contrastive_loss(Tensor(h), Tensor(h2), tau=0.2).item()
        b = contrastive_loss(Tensor(h @ q), Tensor(h2 @ q), tau=0.2).item()
        assert abs(a - b) < 1e-5

    def test_scale_invariance(self):
        rng = np.random.default_rng(7)
        h = rng.normal(size=(3, 5)).astype(np.float32)
        h2 = rng.normal(size=(3, 5)).astype(np.float32)
        a = contrastive_loss(Tensor(h), Tensor(h2), tau=0.2).item()
        b = contrastive_loss(Tensor(h * 7.5), Tensor(h2 * 7.5), tau=0.2).item()
        assert abs(a - b) < 1e-5

    def test_symmetric_variant_averages_both_directions(self):
        rng = np.random.default_rng(8)
        h = rng.normal(size=(3, 6)).astype(np.float32)
        h2 = rng.normal(size=(3, 6)).astype(np.float32)
        sym = contrastive_loss(Tensor(h), Tensor(h2), tau=0.2, symmetric=True).item()
        fwd = contrastive_loss(Tensor(h), Tensor(h2), tau=0.2).item()
        bwd = contrastive_loss(Tensor(h2), Tensor(h), tau=0.2).item()
        assert abs(sym - 0.5 * (fwd + bwd)) < 1e-5

    def test_bad_temperature(self):
        h = Tensor(np.ones((2, 2), np.float32))
        with pytest.raises(ConfigError):
            contrastive_loss(h, h, tau=0.0)

    def test_gradient_check(self):
        # float64 storage, same rationale as the reconstruction check
        rng = np.random.default_rng(9)
        h = Tensor(rng.normal(size=(3, 8)))
        h2 = Tensor(rng.normal(size=(3, 8)))
        err = finite_diff_check(
            lambda t: contrastive_loss(t, h2, tau=0.2), h, h=1e-3
        )
        assert err < 1e-3


class TestJointLoss:
    def test_weighted_sum(self):
        total, report = joint_loss(
            LossConfig(mode="cogent", lambda_policy="fixed"),
            1.0,
            1.0,
            l_c=Tensor(np.float32(2.0)),
            l_r_orig=Tensor(np.float32(3.0)),
            l_r_aug=Tensor(np.float32(3.0)),
            l_r=Tensor(np.float32(3.0)),
        )
        assert total.item() == 5.0
        assert report.total == 5.0

    def test_generative_only_reports_absent_contrastive(self):
        cfg = LossConfig(mode="generative_only")
        total, report = joint_loss(
            cfg,
            cfg.lambda_c,
            cfg.lambda_r,
            l_c=None,
            l_r_orig=Tensor(np.float32(1.5)),
            l_r_aug=Tensor(np.float32(0.5)),
            l_r=Tensor(np.float32(1.0)),
        )
        assert report.l_c is None
        assert total.item() == 1.0

    def test_mode_lambda_gating(self):
        assert LossConfig(mode="contrastive_only").lambda_r == 0.0
        assert LossConfig(mode="generative_only").lambda_c == 0.0


class TestBalanceLambdas:
    def test_already_balanced(self):
        assert balance_lambdas(2.5, 2.5) == (1.0, 1.0)

    def test_degenerate_reconstruction(self):
        with pytest.raises(ConfigError):
            balance_lambdas(1.0, 0.0)


class TestCrossEntropy:
    def test_uniform_logits(self):
        logits = Tensor(np.zeros((2, 4), np.float32))
        loss = cross_entropy(logits, np.array([0, 3]))
        assert abs(loss.item() - math.log(4.0)) < 1e-6

    def test_confident_correct_is_small(self):
        logits = np.full((1, 3), -20.0, np.float32)
        logits[0, 1] = 20.0
        loss = cross_entropy(Tensor(logits), np.array([1]))
        assert loss.item() < 1e-5

    def test_gradient_check(self):
        # float64 storage, same rationale as the reconstruction check
        rng = np.random.default_rng(10)
        logits = Tensor(rng.normal(size=(3, 4)))
        labels = np.array([0, 2, 1])
        err = finite_diff_check(lambda t: cross_entropy(t, labels), logits, h=1e-3)
        assert err < 1e-3


class TestLossConfigValidation:
    def test_unknown_mode(self):
        with pytest.raises(ConfigError):
            LossConfig(mode="hybrid")

    def test_bad_tau(self):
        with pytest.raises(ConfigError):
            LossConfig(tau=-0.1)

    def test_fixed_policy_needs_positive_weights(self):
        with pytest.raises(ConfigError):
            LossConfig(mode="cogent", lambda_policy="fixed", lambda_c=0.0)
