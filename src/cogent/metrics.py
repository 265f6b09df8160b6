"""Classification metrics and the silhouette score.

All aggregates are macro averages: the metric is computed per class and the
unweighted mean is reported; a MetricReport holds only those means, the
columns of the metrics CSVs. AUROC uses the rank statistic with ties counted
as one half; AUPRC integrates the precision-recall curve stepwise over
distinct score thresholds.

Ties are grouped by `np.unique`: equal scores form one group, and groups are
sorted by score. A group that ends at 1-based sorted position `end` with
`count` members shares the average rank `end - (count - 1) / 2`, a half
integer and so exact in float64. AUPRC takes one step per group of `-scores`
(highest score first), from the running positive and sample counts.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import ContractError


@dataclass
class MetricReport:
    accuracy: float
    precision: float
    recall: float
    f1: float
    auroc: float
    auprc: float

    def as_row(self) -> dict[str, float]:
        return asdict(self)


def macro_prf(
    labels: np.ndarray, preds: np.ndarray, num_classes: int
) -> tuple[list[float], list[float], list[float]]:
    """Per-class precision/recall/F1 with the zero-denominator-is-zero rule.

    F1's denominator 2tp + fp + fn is the predicted plus the actual count.
    """
    tp = np.bincount(labels[preds == labels], minlength=num_classes)[:num_classes]
    predicted = np.bincount(preds, minlength=num_classes)[:num_classes]
    actual = np.bincount(labels, minlength=num_classes)[:num_classes]

    def ratio(num: np.ndarray, den: np.ndarray) -> list[float]:
        return np.divide(num, den, out=np.zeros(num_classes), where=den > 0).tolist()

    return ratio(tp, predicted), ratio(tp, actual), ratio(2 * tp, predicted + actual)


def auroc_binary(is_pos: np.ndarray, scores: np.ndarray) -> float:
    """Mann-Whitney rank statistic; ties count one half; degenerate -> 0.5."""
    n_pos = int(is_pos.sum())
    n_neg = len(is_pos) - n_pos
    if n_pos == 0 or n_neg == 0:
        return 0.5
    _, group, count = np.unique(scores, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(count) - (count - 1) / 2)[group]
    pos_rank_sum = float(ranks[is_pos].sum())
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def auprc_binary(is_pos: np.ndarray, scores: np.ndarray) -> float:
    """Stepwise integral of precision over recall at distinct thresholds."""
    n_pos = int(is_pos.sum())
    if n_pos == 0:
        return 0.0
    _, group, count = np.unique(-scores, return_inverse=True, return_counts=True)
    tp = np.cumsum(np.bincount(group, weights=is_pos))
    recall = tp / n_pos
    precision = tp / np.cumsum(count)
    # cumsum adds left to right; a pairwise np.sum would round differently
    return float(np.cumsum(np.diff(recall, prepend=0.0) * precision)[-1])


def compute_metrics(
    labels: np.ndarray, preds: np.ndarray, scores: np.ndarray, num_classes: int
) -> MetricReport:
    """Macro metrics from labels, hard predictions, and [n, C] class scores."""
    if len(labels) == 0:
        raise ContractError("cannot compute metrics on an empty split")
    precision, recall, f1 = macro_prf(labels, preds, num_classes)
    auroc = [
        auroc_binary(labels == c, scores[:, c]) for c in range(num_classes)
    ]
    auprc = [
        auprc_binary(labels == c, scores[:, c]) for c in range(num_classes)
    ]
    return MetricReport(
        accuracy=float(np.mean(preds == labels)),
        precision=float(np.mean(precision)),
        recall=float(np.mean(recall)),
        f1=float(np.mean(f1)),
        auroc=float(np.mean(auroc)),
        auprc=float(np.mean(auprc)),
    )


def silhouette_score(embeddings: np.ndarray, labels: np.ndarray) -> float:
    """Mean over samples of (b - a) / max(a, b) with Euclidean distances.

    a is the mean distance to the sample's own cluster (self excluded), b the
    smallest mean distance to another cluster. Samples whose cluster has
    fewer than 2 members score 0, as does the 0/0 case (all points
    coincident). A single cluster scores 0 overall.
    """
    x = embeddings.astype(np.float64)
    labels = np.asarray(labels)
    classes = np.unique(labels)
    if len(classes) < 2:
        return 0.0
    scores = np.zeros(len(x), dtype=np.float64)
    for i in range(len(x)):
        own = labels == labels[i]
        n_own = int(own.sum())
        if n_own < 2:
            scores[i] = 0.0
            continue
        # one row of distances at a time: memory grows with n * d, not n^2 * d
        diff = x[i] - x
        dist = np.sqrt(np.sum(diff * diff, axis=-1))
        a = dist[own].sum() / (n_own - 1)  # self contributes 0
        b = min(float(dist[labels == c].mean()) for c in classes if c != labels[i])
        denom = max(a, b)
        scores[i] = (b - a) / denom if denom > 0 else 0.0
    return float(scores.mean())
