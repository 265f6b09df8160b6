"""Classification metrics and the silhouette score.

All aggregates are macro averages: the metric is computed per class and the
unweighted mean is reported; a MetricReport holds only those means, the
columns of the metrics CSVs. AUROC uses the rank statistic with ties counted
as one half; AUPRC integrates the precision-recall curve stepwise over
distinct score thresholds.
"""

from __future__ import annotations

from dataclasses import dataclass

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
        return {
            "accuracy": self.accuracy,
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "auroc": self.auroc,
            "auprc": self.auprc,
        }


def confusion_counts(
    labels: np.ndarray, preds: np.ndarray, num_classes: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    tp = np.zeros(num_classes, dtype=np.int64)
    fp = np.zeros(num_classes, dtype=np.int64)
    fn = np.zeros(num_classes, dtype=np.int64)
    for c in range(num_classes):
        tp[c] = int(np.sum((preds == c) & (labels == c)))
        fp[c] = int(np.sum((preds == c) & (labels != c)))
        fn[c] = int(np.sum((preds != c) & (labels == c)))
    return tp, fp, fn


def _safe_div(num: int, den: int) -> float:
    return float(num) / float(den) if den else 0.0


def macro_prf(
    labels: np.ndarray, preds: np.ndarray, num_classes: int
) -> tuple[list[float], list[float], list[float]]:
    """Per-class precision/recall/F1 with the zero-denominator-is-zero rule."""
    tp, fp, fn = confusion_counts(labels, preds, num_classes)
    precision = [_safe_div(tp[c], tp[c] + fp[c]) for c in range(num_classes)]
    recall = [_safe_div(tp[c], tp[c] + fn[c]) for c in range(num_classes)]
    f1 = [_safe_div(2 * tp[c], 2 * tp[c] + fp[c] + fn[c]) for c in range(num_classes)]
    return precision, recall, f1


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the average of their rank range."""
    order = np.argsort(x, kind="stable")
    ranks = np.empty(len(x), dtype=np.float64)
    i = 0
    while i < len(x):
        j = i
        while j + 1 < len(x) and x[order[j + 1]] == x[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def auroc_binary(is_pos: np.ndarray, scores: np.ndarray) -> float:
    """Mann-Whitney rank statistic; ties count one half; degenerate -> 0.5."""
    n_pos = int(is_pos.sum())
    n_neg = len(is_pos) - n_pos
    if n_pos == 0 or n_neg == 0:
        return 0.5
    ranks = _average_ranks(scores.astype(np.float64))
    pos_rank_sum = float(ranks[is_pos].sum())
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def auprc_binary(is_pos: np.ndarray, scores: np.ndarray) -> float:
    """Stepwise integral of precision over recall at distinct thresholds."""
    n_pos = int(is_pos.sum())
    if n_pos == 0:
        return 0.0
    order = np.argsort(-scores.astype(np.float64), kind="stable")
    sorted_scores = scores[order].astype(np.float64)
    sorted_pos = is_pos[order].astype(np.int64)
    area = 0.0
    prev_recall = 0.0
    tp = 0
    seen = 0
    i = 0
    n = len(scores)
    while i < n:
        j = i
        while j + 1 < n and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        tp += int(sorted_pos[i : j + 1].sum())
        seen += j - i + 1
        recall = tp / n_pos
        precision = tp / seen
        area += (recall - prev_recall) * precision
        prev_recall = recall
        i = j + 1
    return area


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
    diff = x[:, None, :] - x[None, :, :]
    dist = np.sqrt(np.sum(diff * diff, axis=-1))
    scores = np.zeros(len(x), dtype=np.float64)
    for i in range(len(x)):
        own = labels == labels[i]
        n_own = int(own.sum())
        if n_own < 2:
            scores[i] = 0.0
            continue
        a = dist[i, own].sum() / (n_own - 1)  # self contributes 0
        b = min(
            float(dist[i, labels == c].mean()) for c in classes if c != labels[i]
        )
        denom = max(a, b)
        scores[i] = (b - a) / denom if denom > 0 else 0.0
    return float(scores.mean())
