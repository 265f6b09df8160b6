"""Corpus loading, splits, normalization, batching, and a synthetic generator.

Corpus layout on disk: a directory with `meta.json` plus `train.csv`,
`val.csv`, `test.csv`. Each CSV row is one sample: column 0 is the integer
label, columns 1..T*D are values in time-major order (t0c0, t0c1, ...,
t1c0, ...), no header.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, ParseError

SPLIT_FILES = ("train.csv", "val.csv", "test.csv")


@dataclass
class DatasetMeta:
    T: int
    D: int
    num_classes: int
    name: str = "unnamed"
    sampling_note: str = ""

    def __post_init__(self):
        if self.T < 1 or self.D < 1:
            raise ConfigError(f"T and D must be >= 1, got T={self.T}, D={self.D}")
        if self.num_classes < 2:
            raise ConfigError(f"num_classes must be >= 2, got {self.num_classes}")


@dataclass
class TimeSeriesSample:
    values: np.ndarray  # [T, D] float32
    label: int


@dataclass
class SplitPlan:
    pretrain_fraction: float = 0.9
    finetune_label_ratio: float = 0.3
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.pretrain_fraction <= 1.0:
            raise ConfigError(
                f"pretrain_fraction must be in (0, 1], got {self.pretrain_fraction}"
            )
        if not 0.0 < self.finetune_label_ratio <= 1.0:
            raise ConfigError(
                f"finetune_label_ratio must be in (0, 1], got {self.finetune_label_ratio}"
            )


@dataclass
class Corpus:
    meta: DatasetMeta
    train: list[TimeSeriesSample] = field(default_factory=list)
    val: list[TimeSeriesSample] = field(default_factory=list)
    test: list[TimeSeriesSample] = field(default_factory=list)


def _parse_csv(path: Path, meta: DatasetMeta) -> list[TimeSeriesSample]:
    expected = 1 + meta.T * meta.D
    samples = []
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
            samples.append(
                TimeSeriesSample(values=flat.reshape(meta.T, meta.D), label=label)
            )
    return samples


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
    splits = []
    for fname in SPLIT_FILES:
        fpath = corpus_dir / fname
        if not fpath.is_file():
            raise ParseError(f"missing corpus file: {fpath}")
        splits.append(_parse_csv(fpath, meta))
    return Corpus(meta=meta, train=splits[0], val=splits[1], test=splits[2])


def split_pretrain(
    train: list[TimeSeriesSample], plan: SplitPlan
) -> tuple[list[TimeSeriesSample], list[TimeSeriesSample]]:
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
    pre = [train[i] for i in idx[:n_pre]]
    sanity = [train[i] for i in idx[n_pre:]]
    return pre, sanity


def sample_finetune_subset(
    train: list[TimeSeriesSample], plan: SplitPlan
) -> list[TimeSeriesSample]:
    """Stratified subset: round(ratio * count_c) per class (at least 1)."""
    if not train:
        raise ConfigError("the train split is empty; fine-tuning needs labelled rows")
    by_class: dict[int, list[int]] = {}
    for i, s in enumerate(train):
        by_class.setdefault(s.label, []).append(i)
    labels_present = sorted(by_class)
    rng = np.random.default_rng([plan.seed, 0x5EED])
    chosen: list[int] = []
    for c in labels_present:
        pool = by_class[c]
        k = max(1, round(plan.finetune_label_ratio * len(pool)))
        order = rng.permutation(len(pool))[:k]
        chosen.extend(pool[j] for j in order)
    chosen.sort()
    return [train[i] for i in chosen]


def require_all_classes(
    samples: list[TimeSeriesSample], meta: DatasetMeta
) -> None:
    present = {s.label for s in samples}
    for c in range(meta.num_classes):
        if c not in present:
            raise ConfigError(
                f"class {c} is absent from the train split "
                f"({meta.num_classes} classes expected)"
            )


def normalize(
    samples: list[TimeSeriesSample],
) -> tuple[list[TimeSeriesSample], np.ndarray, np.ndarray]:
    """Z-score per channel with population std (floored at 1e-8).

    Statistics must come from the training portion of the current stage only;
    reuse them verbatim on val/test via apply_normalization.
    """
    stacked = np.concatenate([s.values for s in samples], axis=0).astype(np.float64)
    mean = stacked.mean(axis=0)
    std = stacked.std(axis=0)  # population std
    std = np.maximum(std, 1e-8)
    mean32 = mean.astype(np.float32)
    std32 = std.astype(np.float32)
    return apply_normalization(samples, mean32, std32), mean32, std32


def apply_normalization(
    samples: list[TimeSeriesSample], mean: np.ndarray, std: np.ndarray
) -> list[TimeSeriesSample]:
    return [
        TimeSeriesSample(
            values=((s.values - mean) / std).astype(np.float32), label=s.label
        )
        for s in samples
    ]


def make_batches(
    samples: list[TimeSeriesSample],
    batch_size: int,
    seed: int = 0,
    epoch: int = 0,
    drop_last: bool = True,
    shuffle: bool = True,
):
    """Yield (values[B,T,D], labels[B]) batches.

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
        sel = order[start : start + batch_size]
        values = np.stack([samples[i].values for i in sel]).astype(np.float32)
        labels = np.array([samples[i].label for i in sel], dtype=np.int64)
        yield values, labels


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
    if per_class < 1:
        raise ConfigError(f"per_class must be >= 1, got {per_class}")
    # sigma scales float32 noise, so it must be a float32 value
    top = float(np.finfo(np.float32).max)
    if not 0 <= sigma <= top:
        raise ConfigError(
            f"sigma must be in [0, {top:.8g}] (the float32 range), got {sigma}"
        )
    rng = np.random.default_rng(seed)
    t = np.arange(meta.T, dtype=np.float64) / meta.T

    def make_samples(count_per_class):
        samples = []
        for c in range(meta.num_classes):
            freq = c + 1
            base_phase = 2.0 * math.pi * c / meta.num_classes
            for _ in range(count_per_class):
                jitter = rng.uniform(-0.25, 0.25)
                values = np.empty((meta.T, meta.D), dtype=np.float32)
                for d in range(meta.D):
                    wave = np.sin(
                        2.0 * math.pi * freq * t + base_phase + jitter + 0.5 * d
                    )
                    values[:, d] = wave.astype(np.float32)
                if sigma > 0:
                    values = values + sigma * rng.standard_normal(
                        (meta.T, meta.D)
                    ).astype(np.float32)
                samples.append(
                    TimeSeriesSample(values=values.astype(np.float32), label=c)
                )
        return samples

    n_eval = max(1, round(per_class * 0.5))
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
        with open(out_dir / fname, "w", encoding="ascii") as fh:
            for s in samples:
                flat = s.values.reshape(-1)
                fh.write(str(s.label))
                fh.write(",")
                fh.write(",".join(repr(float(v)) for v in flat))
                fh.write("\n")
