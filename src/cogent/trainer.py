"""Pretraining and fine-tuning loops, evaluation, embedding export, ablation.

Every source of randomness is a numpy Generator derived from (seed, stage
tag, epoch, batch) integers, so a (seed, config, corpus) triple maps to a
bit-exact run. Sanity-split losses reuse fixed masks/views across epochs so
the model-selection signal is comparable between epochs.

Pretraining masks the original and the augmented view from separate rng
streams, then runs both through the encoder, projection head and decoder as
one stacked batch of 2B samples and splits the results per view. The
forward-only sanity pass stacks further: every view of every sanity batch
goes through the model at once, up to a fixed budget of token rows, and the
results are split per batch and per view. Those stages act per sample, so
each view's loss terms carry the bits of a per-view, per-batch pass; the
parameter gradients of a step sum both views' rows in one reduction.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, fields, replace
from itertools import accumulate
from pathlib import Path

import numpy as np

from .augment import AugmentConfig, make_views_batch
from .checkpoint import ARCH_KEYS, Checkpoint, save_checkpoint
from .data import (
    Corpus,
    DatasetMeta,
    SplitPlan,
    apply_normalization,
    make_batches,
    normalize,
    require_all_classes,
    sample_finetune_subset,
    split_pretrain,
)
from .errors import ConfigError, ContractError
from .losses import (
    LossConfig,
    LossReport,
    balance_lambdas,
    contrastive_loss,
    cross_entropy,
    joint_loss,
    patch_reconstruction_term,
)
from .metrics import MetricReport, compute_metrics, silhouette_score
from .model import (
    ModelConfig,
    ModelParams,
    classify,
    decode,
    encode,
    init_params,
    project_head,
    sinusoid_table,
)
from .optim import AdamConfig, AdamState, adam_step
from .patchmask import PatchConfig, batch_patchify_mask
from .tensor import Tensor, no_grad, tsum

# rng stream tags (never reuse across purposes)
_AUG, _MASK_ORIG, _MASK_AUG = 11, 12, 13
_SAN_AUG, _SAN_MASK_ORIG, _SAN_MASK_AUG = 21, 22, 23

METRIC_CSV_HEADER = (
    "mode",
    "pretrained",
    "accuracy",
    "precision",
    "recall",
    "f1",
    "auroc",
    "auprc",
)


@dataclass
class TrainConfig:
    epochs_pretrain: int = 100
    epochs_finetune: int = 20
    batch_size: int = 16
    lr_pretrain: float = 1e-3
    lr_finetune: float = 5e-4
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    weight_decay: float = 0.01
    seed: int = 0
    eval_every: int = 1

    def __post_init__(self):
        positive = {
            "epochs_pretrain": self.epochs_pretrain,
            "epochs_finetune": self.epochs_finetune,
            "batch_size": self.batch_size,
            "lr_pretrain": self.lr_pretrain,
            "lr_finetune": self.lr_finetune,
            "adam_eps": self.adam_eps,
            "eval_every": self.eval_every,
        }
        for key, value in positive.items():
            # the floats scale float32 arrays, so a float that rounds to 0
            # there is not positive (min() keeps a large value's cast finite)
            if not np.float32(min(value, 1.0)) > 0:
                raise ConfigError(f"{key} must be positive, got {value}")
        for key, value in {"beta1": self.beta1, "beta2": self.beta2}.items():
            if not 0.0 <= value < 1.0:
                raise ConfigError(f"{key} must be in [0, 1), got {value}")
        if self.weight_decay < 0:
            raise ConfigError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass
class RunSettings:
    """The stage configs of one run, built from the flat keys by
    `config.settings_from_config` and mapped back by `run_config`. The data
    shape is not a setting: it comes from the corpus's `DatasetMeta`."""

    patch: PatchConfig
    model: ModelConfig
    loss: LossConfig
    augment: AugmentConfig
    train: TrainConfig
    split: SplitPlan
    keep_zeroed: bool = False

    def __post_init__(self):
        if self.keep_zeroed and self.loss.reconstruct_target == "masked":
            raise ConfigError(
                "mask.keep_zeroed only supports the visible reconstruction target"
            )


# The sections of the flat configuration: each stage config's fields are the
# keys "<section>.<field>" of its section, in this order, except a `seed`
# field, which takes the run-wide key `seed`. `config.SCHEMA`,
# `config.settings_from_config` and `run_config` all read this one table.
_SECTIONS = (
    ("augment", AugmentConfig),
    ("patch", PatchConfig),
    ("model", ModelConfig),
    ("loss", LossConfig),
    ("train", TrainConfig),
    ("split", SplitPlan),
)


def run_config(settings: RunSettings, meta: DatasetMeta) -> dict:
    """The flat configuration of the settings that ran, on a corpus of shape
    `meta`: what a checkpoint stores.

    Its keys are `config.SCHEMA`'s plus `data.T`, `data.D` and
    `data.num_classes`. Each value is the one the run used, so
    `model.init_seed` holds the resolved seed and a single-objective loss
    its forced weights. `seed` is the training seed; settings built from a
    configuration give every stage that seed.
    """
    config = {"seed": settings.train.seed}
    for section, _ in _SECTIONS:
        stage = getattr(settings, section)
        for f in fields(stage):
            if f.name != "seed":
                config[f"{section}.{f.name}"] = getattr(stage, f.name)
    config["mask.keep_zeroed"] = settings.keep_zeroed
    config["data.T"] = meta.T
    config["data.D"] = meta.D
    config["data.num_classes"] = meta.num_classes
    return config


def _rng(*keys: int) -> np.random.Generator:
    return np.random.default_rng(list(keys))


def _full_tokens(values: np.ndarray, patch_cfg: PatchConfig):
    """All-patches token view of a batch (theta = 0 pathway)."""
    b, t, d = values.shape
    n = patch_cfg.n_patches(t)
    tokens = values[:, : n * patch_cfg.L, :].reshape(b, n, patch_cfg.L * d)
    idx = np.broadcast_to(np.arange(n, dtype=np.int64), (b, n)).copy()
    return tokens.astype(np.float32), idx


def _masked_recon_term(
    p_hat: Tensor, target: np.ndarray, weights: np.ndarray, count_per_sample: int
) -> Tensor:
    """Squared-error term over the rows selected by `weights` (0/1 per patch)."""
    b = target.shape[0]
    d = (p_hat - Tensor(target)) * Tensor(
        weights[:, :, None].astype(p_hat.data.dtype)
    )
    return tsum(d * d) * (1.0 / (b * count_per_sample))


def _patchify_view(values, settings: RunSettings, rng_mask):
    """(tokens, token_idx, masks, full) of one view; `full` is the
    all-patches target, built only for the masked target."""
    tokens, idx, masks = batch_patchify_mask(
        values, settings.patch, rng_mask, settings.keep_zeroed
    )
    full = None
    if settings.loss.reconstruct_target == "masked":
        full, _ = _full_tokens(values, settings.patch)
    return tokens, idx, masks, full


def _stacked_terms(batches, params, cfg: LossConfig, keep_zeroed: bool = False):
    """Loss terms of one or more batches, run through the model as one stack.

    Each batch holds one `_patchify_view` tuple per view, original first; a
    training step passes one batch, the sanity pass up to `_STACK_ROWS`
    token rows of them. Every view of every batch is stacked along the batch
    axis, all originals first, and `encode`, `project_head` and `decode`
    each run once on the stack. They act per sample, so every forward value
    equals that of a per-view, per-batch pass. Returns, per batch, the loss
    Tensors (l_c, l_r_orig, l_r_aug, l_r): l_c is None unless the mode is
    contrastive, the l_r terms None unless it reconstructs, and l_r_aug None
    unless it scores the augmented view; l_r is the mean of the scored views.
    """
    n_batches, n_views = len(batches), len(batches[0])
    views = [batch[k] for k in range(n_views) for batch in batches]
    bounds = [0, *accumulate(view[0].shape[0] for view in views)]
    tokens, idx, masks = (
        np.concatenate([view[k] for view in views]) for k in range(3)
    )
    z = encode(tokens, idx, params)
    l_cs = [None] * n_batches
    if cfg.needs_contrastive:
        h = project_head(z, params)
        l_cs = [
            contrastive_loss(
                h[bounds[i] : bounds[i + 1]],
                h[bounds[n_batches + i] : bounds[n_batches + i + 1]],
                cfg.tau,
                symmetric=cfg.symmetric_ntxent,
            )
            for i in range(n_batches)
        ]
    if not cfg.needs_reconstruction:
        return [(l_c, None, None, None) for l_c in l_cs]
    if not cfg.needs_aug_reconstruction and n_views > 1:
        end = bounds[n_batches]
        views, z, idx, masks = views[:n_batches], z[:end], idx[:end], masks[:end]
    masked = cfg.reconstruct_target == "masked"
    p_hat = decode(z, idx, params, masks=masks if masked else None)
    n = masks.shape[1]
    visible = int(masks[0].sum())  # exact-count masks: the same in every row
    terms = []
    for i, (view_tokens, _, view_masks, full) in enumerate(views):
        part = p_hat if len(views) == 1 else p_hat[bounds[i] : bounds[i + 1]]
        if masked:
            # standard masked-autoencoder target: the decoder filled the
            # holes with the mask token; score only the hidden patches
            term = _masked_recon_term(part, full, 1 - view_masks, n - visible)
        elif keep_zeroed:
            term = _masked_recon_term(part, view_tokens, view_masks, visible)
        else:
            term = patch_reconstruction_term(part, Tensor(view_tokens))
        terms.append(term)
    parts = []
    for i, l_c in enumerate(l_cs):
        l_r_orig, *aug = terms[i::n_batches]
        l_r_aug = aug[0] if aug else None
        l_r = l_r_orig if l_r_aug is None else (l_r_orig + l_r_aug) * 0.5
        parts.append((l_c, l_r_orig, l_r_aug, l_r))
    return parts


def _views(values, settings: RunSettings, rngs):
    """The `_patchify_view` tuples of the views the mode needs of one batch;
    each view is masked from its own rng stream."""
    rng_aug, rng_mask_o, rng_mask_a = rngs
    views = [_patchify_view(values, settings, rng_mask_o)]
    if settings.loss.needs_aug_view:
        augmented = make_views_batch(values, settings.augment, rng_aug)
        views.append(_patchify_view(augmented, settings, rng_mask_a))
    return views


def _loss_parts(values, params, settings: RunSettings, rngs):
    """Forward the views the mode needs as one stacked batch; return loss
    Tensors. Each view is masked from its own rng stream."""
    (parts,) = _stacked_terms(
        [_views(values, settings, rngs)], params, settings.loss, settings.keep_zeroed
    )
    return parts


def _snapshot(
    params: ModelParams,
    settings: RunSettings,
    lambdas: tuple[float, float],
    epoch: int,
    norm_mean: np.ndarray,
    norm_std: np.ndarray,
) -> Checkpoint:
    return Checkpoint(
        config=run_config(settings, params.meta),
        params=params.state_arrays(),
        lambda_c=lambdas[0],
        lambda_r=lambdas[1],
        epoch=epoch,
        norm_mean=[float(x) for x in norm_mean],
        norm_std=[float(x) for x in norm_std],
    )


# Token rows per stacked sanity forward, counted at N + 1 per sample: the
# most any stage of the stack runs (the masked-target decoder). A larger
# sanity split runs as several stacks, so its activations stay bounded; the
# benchmarked splits (9 quickstart batches: 2,016 rows; 4 paper-scale
# batches: 2,688) each run as one stack.
_STACK_ROWS = 1 << 12


def _sanity_loss(
    sanity, params, settings: RunSettings, lambdas
) -> float | None:
    """Mean joint loss over the sanity split's full batches.

    Each batch is augmented and masked from its own (seed, tag, batch)
    streams, the same in every epoch. The batches run through the model in
    stacks of up to `_STACK_ROWS` token rows; `joint_loss` then scores each
    batch in batch order.
    """
    if len(sanity) < 2:
        return None
    seed = settings.train.seed
    bs = min(settings.train.batch_size, len(sanity))
    tags = (_SAN_AUG, _SAN_MASK_ORIG, _SAN_MASK_AUG)
    batches = [
        _views(values, settings, tuple(_rng(seed, tag, bi) for tag in tags))
        for bi, (values, _) in enumerate(
            make_batches(sanity, bs, seed=seed, epoch=0, drop_last=True, shuffle=False)
        )
    ]
    n_patches = batches[0][0][2].shape[1]  # the masks of the first view
    per_stack = max(1, _STACK_ROWS // (len(batches[0]) * bs * (n_patches + 1)))
    total = 0.0
    with no_grad():
        for lo in range(0, len(batches), per_stack):
            stack = batches[lo : lo + per_stack]
            for parts in _stacked_terms(
                stack, params, settings.loss, settings.keep_zeroed
            ):
                loss, _ = joint_loss(settings.loss, *lambdas, *parts)
                total += loss.item()
    return total / len(batches)


def pretrain(
    corpus: Corpus, settings: RunSettings, out_dir=None
) -> tuple[Checkpoint, list[dict]]:
    """Self-supervised stage; returns the best-sanity checkpoint and the log."""
    tc = settings.train
    if tc.batch_size < 2:
        raise ConfigError("pretraining requires batch_size >= 2")
    pre, sanity = split_pretrain(corpus.train, settings.split)
    pre, norm_mean, norm_std = normalize(pre)
    sanity = apply_normalization(sanity, norm_mean, norm_std)
    proj_tokens = (
        settings.patch.n_patches(corpus.meta.T) if settings.keep_zeroed else None
    )
    params = init_params(
        settings.model,
        settings.patch,
        corpus.meta,
        proj_tokens=proj_tokens,
        loss=settings.loss,
    )
    adam_state = AdamState.for_params(params)
    adam_cfg = AdamConfig(
        lr=tc.lr_pretrain,
        beta1=tc.beta1,
        beta2=tc.beta2,
        eps=tc.adam_eps,
        weight_decay=tc.weight_decay,
    )
    lambdas: tuple[float, float] | None = None
    if settings.loss.mode != "cogent" or settings.loss.lambda_policy == "fixed":
        lambdas = (settings.loss.lambda_c, settings.loss.lambda_r)

    log: list[dict] = []
    best_ckpt: Checkpoint | None = None
    best_sanity = math.inf
    for epoch in range(tc.epochs_pretrain):
        epoch_reports: list[LossReport] = []
        for bi, (values, _) in enumerate(
            make_batches(pre, tc.batch_size, seed=tc.seed, epoch=epoch)
        ):
            rngs = (
                _rng(tc.seed, _AUG, epoch, bi),
                _rng(tc.seed, _MASK_ORIG, epoch, bi),
                _rng(tc.seed, _MASK_AUG, epoch, bi),
            )
            l_c, l_r_orig, l_r_aug, l_r = _loss_parts(
                values, params, settings, rngs
            )
            if lambdas is None:
                lambdas = balance_lambdas(l_c.item(), l_r.item())
            total, report = joint_loss(
                settings.loss, lambdas[0], lambdas[1], l_c, l_r_orig, l_r_aug, l_r
            )
            if not math.isfinite(report.total):
                raise ContractError(
                    f"non-finite pretraining loss at epoch {epoch} batch {bi}"
                )
            params.zero_grads()
            total.backward()
            adam_step(params, adam_state, adam_cfg)
            epoch_reports.append(report)
        if not epoch_reports:
            raise ConfigError(
                "no pretraining batches: batch_size exceeds the pretrain split"
            )
        entry = _mean_report(epoch_reports)
        entry["epoch"] = epoch
        sanity_total = _sanity_loss(sanity, params, settings, lambdas)
        entry["sanity_total"] = sanity_total
        log.append(entry)
        selection = sanity_total if sanity_total is not None else entry["total"]
        if selection < best_sanity:
            best_sanity = selection
            best_ckpt = _snapshot(params, settings, lambdas, epoch, norm_mean, norm_std)
    assert best_ckpt is not None
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        save_checkpoint(best_ckpt, out_dir / "best.ckpt")
        last = _snapshot(
            params, settings, lambdas, tc.epochs_pretrain - 1, norm_mean, norm_std
        )
        save_checkpoint(last, out_dir / "last.ckpt")
        _write_loss_log(out_dir / "loss_log.csv", log)
    return best_ckpt, log


def _mean_report(reports: list[LossReport]) -> dict:
    def mean_of(key):
        vals = [getattr(r, key) for r in reports]
        if any(v is None for v in vals):
            return None
        return float(np.mean(vals))

    return {
        "l_r_orig": mean_of("l_r_orig"),
        "l_r_aug": mean_of("l_r_aug"),
        "l_r": mean_of("l_r"),
        "l_c": mean_of("l_c"),
        "lambda_c": reports[0].lambda_c,
        "lambda_r": reports[0].lambda_r,
        "total": mean_of("total"),
    }


def _write_loss_log(path, log: list[dict]) -> None:
    fields = [
        "epoch",
        "l_r_orig",
        "l_r_aug",
        "l_r",
        "l_c",
        "lambda_c",
        "lambda_r",
        "total",
        "sanity_total",
    ]
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for entry in log:
            writer.writerow({k: ("" if entry.get(k) is None else entry[k]) for k in fields})


def params_from_checkpoint(ckpt: Checkpoint) -> tuple[ModelParams, PatchConfig]:
    """Rebuild the fine-tuned model a checkpoint stores, for inference."""
    if not ckpt.finetuned:
        raise ConfigError(
            "checkpoint has no trained classifier (a pretraining checkpoint); "
            "fine-tune it first"
        )
    cfg = ckpt.config
    dm = int(cfg["model.d_model"])
    L = int(cfg["patch.L"])
    meta = DatasetMeta(
        T=int(cfg["data.T"]),
        D=int(cfg["data.D"]),
        num_classes=int(cfg["data.num_classes"]),
    )
    n_patches = meta.T // L
    # inference only reads the parameters, so they share the checkpoint's
    # arrays; its forward passes run under no_grad and build no graph
    tensors = {name: Tensor(arr) for name, arr in ckpt.params.items()}
    params = ModelParams(
        tensors=tensors,
        pos=sinusoid_table(n_patches + 1, dm),
        d_model=dm,
        n_heads=int(cfg["model.n_heads"]),
        n_blocks=int(cfg["model.n_blocks"]),
        in_dim=L * meta.D,
        n_patches=n_patches,
        meta=meta,
    )
    return params, PatchConfig(L=L, theta=0.0)


def finetune(
    ckpt: Checkpoint | None,
    corpus: Corpus,
    settings: RunSettings,
    out_dir=None,
) -> tuple[Checkpoint, MetricReport]:
    """Supervised stage on the stratified label subset; no masking, no views.

    With a pretraining checkpoint, its encoder tensors (patch projection,
    cls token, encoder blocks) replace the fresh ones by name; without one
    this is the train-from-scratch baseline. The model is the encoder plus
    the classifier, all of it trained. Selection keeps the best validation F1.
    """
    tc = settings.train
    meta = corpus.meta
    require_all_classes(corpus.train, meta)
    if not corpus.val:
        raise ConfigError("the val split is empty; fine-tuning selects on it")
    subset = sample_finetune_subset(corpus.train, settings.split)
    subset, norm_mean, norm_std = normalize(subset)
    val = apply_normalization(corpus.val, norm_mean, norm_std)
    ft_patch = replace(settings.patch, theta=0.0)
    params = init_params(settings.model, ft_patch, meta)
    if ckpt is not None:
        if ckpt.finetuned:
            raise ConfigError(
                "checkpoint is already fine-tuned (it carries a classifier); "
                "fine-tune from a pretraining checkpoint"
            )
        config = run_config(settings, meta)
        differ = [k for k in ARCH_KEYS if ckpt.config.get(k) != config[k]]
        if differ:
            raise ConfigError(
                "checkpoint architecture digest does not match the current "
                "configuration: "
                + ", ".join(f"{k} {ckpt.config.get(k)} vs {config[k]}" for k in differ)
            )
        encoder = [name for name in params.tensors if not name.startswith("clf.")]
        missing = [name for name in encoder if name not in ckpt.params]
        if missing:
            raise ConfigError(
                f"checkpoint lacks encoder tensors: {', '.join(missing[:3])}"
            )
        for name in encoder:
            params.tensors[name].data = ckpt.params[name].astype(np.float32)
    adam_state = AdamState.for_params(params)
    adam_cfg = AdamConfig(
        lr=tc.lr_finetune,
        beta1=tc.beta1,
        beta2=tc.beta2,
        eps=tc.adam_eps,
        weight_decay=tc.weight_decay,
    )
    lambdas = (0.0, 0.0)  # self-supervised weights are not part of this stage
    best: tuple[float, Checkpoint, MetricReport] | None = None
    for epoch in range(tc.epochs_finetune):
        for values, labels in make_batches(
            subset, tc.batch_size, seed=tc.seed, epoch=epoch, drop_last=False
        ):
            tokens, idx = _full_tokens(values, ft_patch)
            logits = classify(encode(tokens, idx, params), params)
            loss = cross_entropy(logits, labels)
            if not math.isfinite(loss.item()):
                raise ContractError(f"non-finite fine-tune loss at epoch {epoch}")
            params.zero_grads()
            loss.backward()
            adam_step(params, adam_state, adam_cfg)
        if (epoch + 1) % tc.eval_every == 0 or epoch == tc.epochs_finetune - 1:
            report = _evaluate_params(params, ft_patch, val, tc.batch_size)
            if best is None or report.f1 > best[0]:
                snap = _snapshot(params, settings, lambdas, epoch, norm_mean, norm_std)
                best = (report.f1, snap, report)
    assert best is not None
    _, best_ckpt, best_report = best
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        save_checkpoint(best_ckpt, out_dir / "finetuned.ckpt")
        write_metrics_csv(
            out_dir / "metrics_val.csv",
            [(settings.loss.mode, ckpt is not None, best_report)],
        )
    return best_ckpt, best_report


def _forward_logits(params, patch_cfg, samples, batch_size, return_hidden=False):
    logits_rows, hidden_rows, label_rows = [], [], []
    with no_grad():
        for values, labels in make_batches(
            samples, batch_size, drop_last=False, shuffle=False
        ):
            tokens, idx = _full_tokens(values, patch_cfg)
            z = encode(tokens, idx, params)
            if return_hidden:
                logits, hidden = classify(z, params, return_hidden=True)
                hidden_rows.append(hidden.data)
            else:
                logits = classify(z, params)
            logits_rows.append(logits.data)
            label_rows.append(labels)
    logits = np.concatenate(logits_rows)
    labels = np.concatenate(label_rows)
    hidden = np.concatenate(hidden_rows) if return_hidden else None
    return logits, labels, hidden


def _scores_from_logits(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted.astype(np.float64))
    return e / e.sum(axis=1, keepdims=True)


def _evaluate_params(params, patch_cfg, samples, batch_size) -> MetricReport:
    logits, labels, _ = _forward_logits(params, patch_cfg, samples, batch_size)
    scores = _scores_from_logits(logits)
    preds = np.argmax(logits, axis=1)
    return compute_metrics(labels, preds, scores, params.meta.num_classes)


def evaluate(ckpt: Checkpoint, samples, batch_size: int = 64) -> MetricReport:
    """Metrics of a fine-tuned checkpoint on a raw (unnormalized) split."""
    if not samples:
        raise ConfigError("cannot evaluate an empty split")
    params, patch_cfg = params_from_checkpoint(ckpt)
    normed = apply_normalization(
        samples,
        np.array(ckpt.norm_mean, dtype=np.float32),
        np.array(ckpt.norm_std, dtype=np.float32),
    )
    return _evaluate_params(params, patch_cfg, normed, batch_size)


def export_embeddings(
    ckpt: Checkpoint,
    samples,
    out_csv=None,
    out_silhouette=None,
    batch_size: int = 64,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Classifier hidden-layer activations per sample, plus their silhouette."""
    if not samples:
        raise ConfigError("cannot export embeddings for an empty split")
    params, patch_cfg = params_from_checkpoint(ckpt)
    normed = apply_normalization(
        samples,
        np.array(ckpt.norm_mean, dtype=np.float32),
        np.array(ckpt.norm_std, dtype=np.float32),
    )
    _, labels, hidden = _forward_logits(
        params, patch_cfg, normed, batch_size, return_hidden=True
    )
    score = silhouette_score(hidden, labels)
    if out_csv is not None:
        with open(out_csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["label"] + [f"dim{i}" for i in range(hidden.shape[1])])
            for lbl, row in zip(labels, hidden):
                writer.writerow([int(lbl)] + [repr(float(v)) for v in row])
    if out_silhouette is not None:
        with open(out_silhouette, "w") as fh:
            fh.write(f"{score!r}\n")
    return hidden, labels, score


ABLATION_VARIANTS = (
    ("recon_orig", "generative_only", "orig"),
    ("recon_orig+recon_aug", "generative_only", "both"),
    ("recon_orig+recon_aug+contrastive", "cogent", "both"),
)


def run_ablation(
    corpus: Corpus, settings: RunSettings, out_csv=None
) -> list[tuple[str, MetricReport]]:
    """Pretrain+finetune+test for the three loss configurations."""
    rows: list[tuple[str, MetricReport]] = []
    for label, mode, views in ABLATION_VARIANTS:
        loss_cfg = replace(
            settings.loss, mode=mode, recon_views=views, lambda_c=1.0, lambda_r=1.0
        )
        variant = replace(settings, loss=loss_cfg)
        ckpt, _ = pretrain(corpus, variant)
        tuned, _ = finetune(ckpt, corpus, variant)
        report = evaluate(tuned, corpus.test, batch_size=settings.train.batch_size)
        rows.append((label, report))
    if out_csv is not None:
        write_metrics_csv(out_csv, [(label, True, rep) for label, rep in rows])
    return rows


def write_metrics_csv(path, rows: list[tuple[str, bool, MetricReport]]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(METRIC_CSV_HEADER)
        for mode, pretrained, report in rows:
            r = report.as_row()
            writer.writerow(
                [mode, str(bool(pretrained)).lower()]
                + [repr(r[k]) for k in METRIC_CSV_HEADER[2:]]
            )
