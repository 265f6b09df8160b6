import tracemalloc

import numpy as np
import pytest

from cogent.errors import ContractError
from cogent.metrics import (
    auprc_binary,
    auroc_binary,
    compute_metrics,
    macro_prf,
    silhouette_score,
)

# The threshold-sweep, rational-F1, silhouette hand-example and silhouette
# loop oracles live in cogent.selfcheck (run by tests/test_selfcheck.py).


class TestMacroPRF:
    def test_perfect_predictions(self):
        labels = np.array([0, 1, 2, 0])
        report = compute_metrics(labels, labels, np.eye(3)[labels], 3)
        assert report.accuracy == 1.0
        assert report.precision == 1.0
        assert report.recall == 1.0
        assert report.f1 == 1.0
        assert report.auroc == 1.0
        assert report.auprc == 1.0

    def test_macro_f1_is_mean_of_per_class_not_harmonic_of_macros(self):
        labels = np.array([1, 0, 0])
        preds = np.array([1, 1, 0])
        report = compute_metrics(labels, preds, np.eye(2)[preds].astype(float), 2)
        # per-class F1 are harmonic means; the macro is their plain mean
        assert report.f1 == pytest.approx(2 / 3)
        assert report.precision == pytest.approx(0.75)
        assert report.recall == pytest.approx(0.75)
        harmonic = 2 * 0.75 * 0.75 / 1.5
        assert report.f1 != pytest.approx(harmonic)

    def test_empty_split_rejected(self):
        with pytest.raises(ContractError):
            compute_metrics(np.array([]), np.array([]), np.zeros((0, 2)), 2)


class TestAuroc:
    def test_uniform_scores_give_half(self):
        labels = np.array([0, 0, 1, 1, 1])
        scores = np.full(5, 0.7)
        assert auroc_binary(labels == 1, scores) == 0.5

    def test_perfect_separation(self):
        is_pos = np.array([False, False, True, True])
        scores = np.array([0.1, 0.2, 0.8, 0.9])
        assert auroc_binary(is_pos, scores) == 1.0

    def test_degenerate_class_returns_half(self):
        assert auroc_binary(np.array([True, True]), np.array([0.1, 0.2])) == 0.5


class TestAuprc:
    def test_uniform_scores_give_prevalence(self):
        is_pos = np.array([True, False, False, True])
        scores = np.full(4, 0.3)
        assert auprc_binary(is_pos, scores) == pytest.approx(0.5)


class TestExactBitsOnTies:
    # recorded from the loop implementation that grouped ties one sample at a
    # time; class 2's AUPRC differs in its last bit under a pairwise np.sum
    PRF = (
        [0.06666666666666667, 0.47058823529411764, 0.2, 0.5],
        [0.14285714285714285, 0.5, 0.15384615384615385, 0.25],
        [
            0.09090909090909091,
            0.48484848484848486,
            0.17391304347826086,
            0.3333333333333333,
        ],
    )
    AUROC = [
        0.47909407665505227, 0.4462890625, 0.44285714285714284, 0.6157407407407407
    ]
    AUPRC = [
        0.1612592753721786, 0.3254455085976825, 0.2442409965600011, 0.33172888507682
    ]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_scores_rounded_to_tenths(self, dtype):
        rng = np.random.default_rng(19)
        labels = rng.integers(0, 4, size=48)
        scores = np.round(rng.uniform(0, 1, size=(48, 4)), 1).astype(dtype)
        assert macro_prf(labels, np.argmax(scores, axis=1), 4) == self.PRF
        assert [auroc_binary(labels == c, scores[:, c]) for c in range(4)] == self.AUROC
        assert [auprc_binary(labels == c, scores[:, c]) for c in range(4)] == self.AUPRC


class TestSilhouette:
    def test_two_tight_separated_clusters(self):
        rng = np.random.default_rng(3)
        a = rng.normal(0, 0.05, size=(20, 2))
        b = rng.normal(0, 0.05, size=(20, 2)) + 50.0
        x = np.concatenate([a, b])
        labels = np.array([0] * 20 + [1] * 20)
        assert silhouette_score(x, labels) > 0.9

    def test_all_points_identical(self):
        x = np.ones((6, 3))
        labels = np.array([0, 0, 0, 1, 1, 1])
        assert silhouette_score(x, labels) == 0.0

    def test_singleton_cluster_scores_zero(self):
        x = np.array([[0.0], [1.0], [2.0]])
        labels = np.array([0, 0, 1])  # cluster 1 has a single member
        # point 0: a = 1, b = 2, scores 1/2; point 1: a = b = 1, scores 0;
        # point 2 is alone in its cluster and scores 0
        assert silhouette_score(x, labels) == pytest.approx(1.0 / 6.0)

    def test_single_cluster_is_zero(self):
        x = np.random.default_rng(5).normal(size=(10, 2))
        assert silhouette_score(x, np.zeros(10, dtype=int)) == 0.0

    def test_memory_grows_with_rows_times_width(self):
        # an n x n x d difference array would take 300 times the input's
        # float64 bytes here
        rng = np.random.default_rng(6)
        x = rng.normal(size=(300, 64)).astype(np.float32)
        labels = np.arange(300) % 3
        tracemalloc.start()
        try:
            silhouette_score(x, labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * x.size * 8, peak
