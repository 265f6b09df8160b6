"""Corpus loading, splits, normalization, batching, and a synthetic generator.

Corpus layout on disk: a directory with `meta.json` plus `train.csv`,
`val.csv`, `test.csv`. Each CSV row is one sample: column 0 is the integer
label, columns 1..T*D are values in time-major order (t0c0, t0c1, ...,
t1c0, ...), no header.

In memory a split is one `Samples`: a float32 [n, T, D] value array and an
integer [n] label vector. Splits, subsets and batches index both arrays at
once, and normalization is one array expression.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    ConfigError,
    ContractError,
    ParseError,
    require_memory,
    require_range,
)

SPLIT_FILES = ("train.csv", "val.csv", "test.csv")


@dataclass
class DatasetMeta:
    T: int
    D: int
    num_classes: int
    name: str = "unnamed"
    sampling_note: str = ""

    def __post_init__(self):
        require_range("T", self.T, 1, math.inf)
        require_range("D", self.D, 1, math.inf)
        require_range("num_classes", self.num_classes, 2, math.inf)


@dataclass(frozen=True)
class Samples:
    """A split: `values` [n, T, D] float32 and `labels` [n] integers.
    Indexing with an index array or a slice selects rows of both."""

    values: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        v, y = self.values, self.labels
        values_ok = isinstance(v, np.ndarray) and v.ndim == 3 and v.dtype == np.float32
        labels_ok = isinstance(y, np.ndarray) and y.ndim == 1 and y.dtype.kind in "iu"
        if not (values_ok and labels_ok and len(y) == len(v)):
            raise ContractError(
                "samples need float32 values [n, T, D] and integer labels [n], got "
                f"values {np.shape(v)} {np.asarray(v).dtype} and "
                f"labels {np.shape(y)} {np.asarray(y).dtype}"
            )

    def __len__(self) -> int:
        return len(self.labels)

    def __getitem__(self, index) -> Samples:
        return Samples(self.values[index], self.labels[index])


@dataclass
class SplitPlan:
    pretrain_fraction: float = 0.9
    finetune_label_ratio: float = 0.3
    seed: int = 0

    def __post_init__(self):
        for key in ("pretrain_fraction", "finetune_label_ratio"):
            require_range(key, getattr(self, key), 0.0, 1.0, open_lo=True)


@dataclass
class Corpus:
    meta: DatasetMeta
    train: Samples
    val: Samples
    test: Samples


def _parse_csv(path: Path, meta: DatasetMeta) -> Samples:
    if not path.is_file():
        raise ParseError(f"missing corpus file: {path}")
    expected = 1 + meta.T * meta.D
    rows, labels = [], []
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("ascii").strip()
            except UnicodeDecodeError as e:
                raise ParseError(
                    f"{path}:{lineno}: non-ASCII byte 0x{raw[e.start]:02x} "
                    f"at column {e.start + 1}"
                ) from None
            if not line:
                continue
            cells = line.split(",")
            if len(cells) != expected:
                raise ParseError(
                    f"{path}:{lineno}: expected {expected} columns "
                    f"(label + T*D = 1 + {meta.T}*{meta.D}), got {len(cells)}"
                )
            try:
                label = int(cells[0])
            except ValueError:
                raise ParseError(
                    f"{path}:{lineno}: label column is not an integer: {cells[0]!r}"
                ) from None
            if not 0 <= label < meta.num_classes:
                raise ParseError(
                    f"{path}:{lineno}: label {label} out of range "
                    f"[0, {meta.num_classes})"
                )
            try:
                flat = np.array([float(c) for c in cells[1:]], dtype=np.float32)
            except ValueError as e:
                raise ParseError(f"{path}:{lineno}: bad float value ({e})") from None
            if not np.all(np.isfinite(flat)):
                raise ParseError(f"{path}:{lineno}: non-finite value in row")
            rows.append(flat)
            labels.append(label)
    values = np.array(rows, dtype=np.float32).reshape(-1, meta.T, meta.D)
    return Samples(values, np.array(labels, dtype=np.int64))


def load_corpus(corpus_dir) -> Corpus:
    corpus_dir = Path(corpus_dir)
    meta_path = corpus_dir / "meta.json"
    if not meta_path.is_file():
        raise ParseError(f"missing manifest: {meta_path}")
    try:
        with open(meta_path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ParseError(f"{meta_path}: not a valid JSON manifest ({e})") from None
    if not isinstance(raw, dict):
        raise ParseError(f"{meta_path}: manifest must be a JSON object")

    def integer(key: str) -> int:
        if key not in raw:
            raise ParseError(f"{meta_path}: missing manifest key {key!r}")
        value = raw[key]
        if isinstance(value, int) and not isinstance(value, bool):
            return value
        raise ParseError(
            f"{meta_path}: manifest key {key!r} must be an integer, got {value!r}"
        )

    meta = DatasetMeta(
        T=integer("T"),
        D=integer("D"),
        num_classes=integer("num_classes"),
        name=str(raw.get("name", corpus_dir.name)),
        sampling_note=str(raw.get("sampling_note", "")),
    )
    return Corpus(meta, *(_parse_csv(corpus_dir / f, meta) for f in SPLIT_FILES))


def split_pretrain(train: Samples, plan: SplitPlan) -> tuple[Samples, Samples]:
    """Shuffle the training pool and carve off the sanity-check tail.

    The pretrain part gets floor(fraction * n) samples, the sanity part the
    remainder, so the two are disjoint and exhaustive (2232 -> 2008 + 224).
    """
    n = len(train)
    if n < 2:
        raise ConfigError(
            f"the train split has {n} row(s); pretraining needs at least 2"
        )
    idx = np.random.default_rng(plan.seed).permutation(n)
    n_pre = int(math.floor(plan.pretrain_fraction * n))
    n_pre = min(max(n_pre, 1), n - 1)
    return train[idx[:n_pre]], train[idx[n_pre:]]


def sample_finetune_subset(train: Samples, plan: SplitPlan) -> Samples:
    """Stratified subset: round(ratio * count_c) per class (at least 1), in
    the split's row order."""
    if not train:
        raise ConfigError("the train split is empty; fine-tuning needs labelled rows")
    rng = np.random.default_rng([plan.seed, 0x5EED])
    chosen = []
    for c in np.unique(train.labels):
        pool = np.flatnonzero(train.labels == c)
        k = max(1, round(plan.finetune_label_ratio * len(pool)))
        chosen.append(pool[rng.permutation(len(pool))[:k]])
    return train[np.sort(np.concatenate(chosen))]


def require_all_classes(samples: Samples, meta: DatasetMeta) -> None:
    absent = np.setdiff1d(np.arange(meta.num_classes), samples.labels)
    if absent.size:
        raise ConfigError(
            f"class {absent[0]} is absent from the train split "
            f"({meta.num_classes} classes expected)"
        )


def normalize(samples: Samples) -> tuple[Samples, np.ndarray, np.ndarray]:
    """Z-score per channel with population std (floored at 1e-8), over every
    time step of every sample, accumulated in float64.

    Statistics must come from the training portion of the current stage only;
    reuse them verbatim on val/test via apply_normalization.
    """
    stacked = samples.values.reshape(-1, samples.values.shape[2]).astype(np.float64)
    mean = stacked.mean(axis=0)
    std = stacked.std(axis=0)  # population std
    std = np.maximum(std, 1e-8)
    mean32 = mean.astype(np.float32)
    std32 = std.astype(np.float32)
    return apply_normalization(samples, mean32, std32), mean32, std32


def apply_normalization(samples: Samples, mean: np.ndarray, std: np.ndarray) -> Samples:
    values = samples.values - mean
    values /= std
    return Samples(values, samples.labels)


def make_batches(
    samples: Samples,
    batch_size: int,
    seed: int = 0,
    epoch: int = 0,
    drop_last: bool = True,
    shuffle: bool = True,
):
    """Yield (values[B,T,D], labels[B]) batches, each `samples[order[lo:hi]]`:
    fresh C-contiguous copies of the selected rows.

    Shuffling is keyed by (seed, epoch). Pretraining drops the final short
    batch (drop_last=True, the contrastive loss needs a negative sample);
    evaluation keeps it.
    """
    if batch_size < 1:
        raise ConfigError(f"batch_size must be positive, got {batch_size}")
    if drop_last and batch_size < 2:
        raise ConfigError(
            f"batch_size must be >= 2 during pretraining, got {batch_size}"
        )
    n = len(samples)
    if shuffle:
        order = np.random.default_rng([seed, epoch]).permutation(n)
    else:
        order = np.arange(n)
    stop = (n // batch_size) * batch_size if drop_last else n
    for start in range(0, stop, batch_size):
        batch = samples[order[start : start + batch_size]]
        yield batch.values, batch.labels


def gen_synthetic(
    out_dir,
    meta: DatasetMeta,
    per_class: int,
    seed: int = 0,
    sigma: float = 0.1,
) -> Corpus:
    """Write a class-separable synthetic corpus and return it.

    Class c is a sinusoid with c+1 cycles over the window and a class-specific
    base phase; each sample draws a small phase jitter plus Gaussian noise of
    amplitude sigma. At sigma=0.1 a nearest-centroid classifier separates the
    classes almost perfectly. The train split holds `per_class` samples of
    each class, the val and test splits half as many (at least one).
    """
    if meta.num_classes > 8:
        raise ConfigError(
            f"synthetic generator supports at most 8 classes, got {meta.num_classes}"
        )
    require_range("per_class", per_class, 1, math.inf)
    # sigma scales float32 noise, so it must be a float32 value
    require_range("sigma", sigma, 0.0)
    # round(per_class / 2), half to even, in ints: no float overflows
    n_eval = max(1, per_class // 2 + (per_class % 4 == 3))
    rows = meta.num_classes * (per_class + 2 * n_eval)
    require_memory(  # float32 values and int64 labels of the three splits
        f"a corpus of per_class={per_class}, T={meta.T}, D={meta.D}, "
        f"num_classes={meta.num_classes}",
        rows * (4 * meta.T * meta.D + 8),
    )
    rng = np.random.default_rng(seed)
    t = np.arange(meta.T, dtype=np.float64) / meta.T

    def make_samples(count_per_class):
        # rows are drawn class by class, each row's jitter before its noise
        labels = np.repeat(np.arange(meta.num_classes), count_per_class)
        values = np.empty((len(labels), meta.T, meta.D), dtype=np.float32)
        for i in range(len(labels)):
            c = i // count_per_class
            base_phase = 2.0 * math.pi * c / meta.num_classes
            jitter = rng.uniform(-0.25, 0.25)
            for d in range(meta.D):
                values[i, :, d] = np.sin(
                    2.0 * math.pi * (c + 1) * t + base_phase + jitter + 0.5 * d
                )
            if sigma > 0:
                noise = rng.standard_normal((meta.T, meta.D)).astype(np.float32)
                values[i] += sigma * noise
        return Samples(values, labels)

    try:
        with np.errstate(over="raise"):
            corpus = Corpus(
                meta=meta,
                train=make_samples(per_class),
                val=make_samples(n_eval),
                test=make_samples(n_eval),
            )
    except FloatingPointError:
        raise ConfigError(
            f"sigma {sigma} overflows the float32 noise; use a smaller sigma"
        ) from None
    save_corpus(out_dir, corpus)
    return corpus


def save_corpus(out_dir, corpus: Corpus) -> None:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    meta = corpus.meta
    with open(out_dir / "meta.json", "w", encoding="utf-8") as fh:
        json.dump(
            {
                "name": meta.name,
                "T": meta.T,
                "D": meta.D,
                "num_classes": meta.num_classes,
                "sampling_note": meta.sampling_note,
            },
            fh,
            indent=2,
        )
        fh.write("\n")
    for fname, samples in zip(SPLIT_FILES, (corpus.train, corpus.val, corpus.test)):
        rows = samples.values.reshape(len(samples), meta.T * meta.D).tolist()
        with open(out_dir / fname, "w", encoding="ascii") as fh:
            for label, row in zip(samples.labels.tolist(), rows):
                fh.write(f"{label},{','.join(map(repr, row))}\n")
