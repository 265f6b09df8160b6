"""Pretraining and fine-tuning loops, evaluation, embedding export, ablation.

Every source of randomness is a numpy Generator derived from (seed, stage
tag, epoch, batch) integers, so a (seed, config, corpus) triple maps to a
bit-exact run. `pretrain` builds the sanity split's views and masks once,
before its first epoch, and every epoch's sanity loss scores those same
frozen inputs, so the model-selection signal is comparable between epochs.

Pretraining masks the original and the augmented view from separate rng
streams, then runs both through the encoder, projection head and decoder as
one stacked batch of 2B samples and splits the results per view. The
forward-only sanity pass stacks further: every view of every sanity batch
goes through the model at once, up to a fixed budget of token rows, and the
results are split per batch and per view. Those stages act per sample, so
each view's loss terms carry the bits of a per-view, per-batch pass; the
parameter gradients of a step sum both views' rows in one reduction.

`patchmask` owns the token layout: each view is one `batch_patchify_mask`
tuple (tokens, token_idx, masks, patches); fine-tuning and inference feed
the encoder `patchify`'s all-patches layout. Both stages take one optimizer
step, which, like the sanity pass, runs with numpy's overflow, invalid and
divide-by-zero results raised, so accepted settings that leave the float
range end in a ConfigError naming the stage, epoch, batch and step settings.
Each stage drops a step's graph before its next forward pass starts, so one
step's graph is alive at a time. `evaluate` and `export_embeddings` rebuild
the model from the settings `config.read_run_config` reads off the
checkpoint and refuse samples that do not fit it. Every stage normalizes
its splits with the same results raised, and `evaluate` and
`export_embeddings` run their forward pass that way too, so a split that
leaves the float range ends in a ConfigError naming the split or the step.
"""

from __future__ import annotations

import csv
import math
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from itertools import accumulate
from pathlib import Path

import numpy as np

# perfbench times a run by replacing these module globals by name: adam_step,
# make_batches, joint_loss, _sanity_loss (called with its 4 arguments),
# save_checkpoint and cross_entropy. Keep those names and that signature, and
# call each through its global name here, so a replacement takes effect.
from .augment import make_views_batch
from .checkpoint import ARCH_KEYS, Checkpoint, save_checkpoint
from .config import RunSettings, TrainConfig, read_run_config, run_config
from .data import (
    Corpus,
    Samples,
    apply_normalization,
    make_batches,
    normalize,
    require_all_classes,
    sample_finetune_subset,
    split_pretrain,
)
from .errors import ConfigError
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
    ModelParams,
    build_params,
    classify,
    decode,
    encode,
    init_params,
    project_head,
)
from .optim import AdamConfig, AdamState, adam_step
from .patchmask import PatchConfig, batch_patchify_mask, patchify
from .tensor import Tensor, no_grad

# rng stream tags (never reuse across purposes)
_AUG, _MASK_ORIG, _MASK_AUG = 11, 12, 13
_SAN_AUG, _SAN_MASK_ORIG, _SAN_MASK_AUG = 21, 22, 23

METRIC_CSV_HEADER = ("mode", "pretrained", *(f.name for f in fields(MetricReport)))


def _rng(*keys: int) -> np.random.Generator:
    return np.random.default_rng(list(keys))


def _stacked_terms(batches, params, cfg: LossConfig, keep_zeroed: bool = False):
    """Loss terms of one or more batches, run through the model as one stack.

    Each batch holds one `batch_patchify_mask` tuple per view, original first; a
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
    terms = []
    for i, (view_tokens, _, view_masks, patches) in enumerate(views):
        part = p_hat if len(views) == 1 else p_hat[bounds[i] : bounds[i + 1]]
        if masked:
            # standard masked-autoencoder target: the decoder filled the
            # holes with the mask token; score only the hidden patches
            term = patch_reconstruction_term(part, Tensor(patches), 1 - view_masks)
        else:
            weights = view_masks if keep_zeroed else None
            term = patch_reconstruction_term(part, Tensor(view_tokens), weights)
        terms.append(term)
    parts = []
    for i, l_c in enumerate(l_cs):
        l_r_orig, *aug = terms[i::n_batches]
        l_r_aug = aug[0] if aug else None
        l_r = l_r_orig if l_r_aug is None else (l_r_orig + l_r_aug) * 0.5
        parts.append((l_c, l_r_orig, l_r_aug, l_r))
    return parts


def _views(values, settings: RunSettings, rngs):
    """The `batch_patchify_mask` views the mode needs of one batch; each view
    is masked from its own rng stream."""
    rng_aug, rng_mask_o, rng_mask_a = rngs
    cfg, keep_zeroed = settings.patch, settings.keep_zeroed
    views = [batch_patchify_mask(values, cfg, rng_mask_o, keep_zeroed)]
    if settings.loss.needs_aug_view:
        augmented = make_views_batch(values, settings.augment, rng_aug)
        views.append(batch_patchify_mask(augmented, cfg, rng_mask_a, keep_zeroed))
    return views


def _loss_parts(values, params, settings: RunSettings, rngs):
    """Forward the views the mode needs as one stacked batch; return loss
    Tensors. Each view is masked from its own rng stream."""
    (parts,) = _stacked_terms(
        [_views(values, settings, rngs)], params, settings.loss, settings.keep_zeroed
    )
    return parts


@contextmanager
def _finite(stage: str, where: str, settings: RunSettings | None = None):
    """Raise numpy's overflow, invalid and divide-by-zero results, and report
    one as a ConfigError naming the stage and `where` ("at epoch 3 batch 1").
    A training stage passes its `settings` (accepted settings left the float
    range), and the message also names those that scale a step."""
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            yield
    except FloatingPointError as e:
        message = f"{stage} turned non-finite {where} ({e})"
        if settings is not None:
            lr = "lr_pretrain" if stage == "pretraining" else "lr_finetune"
            names = [("train", lr), ("train", "weight_decay")]
            if stage == "pretraining":
                names += [("loss", "tau"), ("loss", "lambda_c"), ("loss", "lambda_r")]
                names.append(("augment", "epsilon"))
            scale = (f"{s}.{k}={getattr(getattr(settings, s), k)}" for s, k in names)
            message += f"; the settings that scale a step: {', '.join(scale)}"
        raise ConfigError(message) from None


def _adam(params: ModelParams, tc: TrainConfig, lr: float):
    """Fresh Adam state for `params`, and a stage's step at learning rate `lr`."""
    cfg = AdamConfig(lr, tc.beta1, tc.beta2, tc.adam_eps, tc.weight_decay)
    return AdamState.for_params(params), cfg


def _step(loss: Tensor, params: ModelParams, adam_state, adam_cfg) -> None:
    """One optimizer step on `loss`, the step both stages take, under `_finite`."""
    if not math.isfinite(loss.item()):
        raise FloatingPointError(f"loss {loss.item()}")
    params.zero_grads()
    loss.backward()
    adam_step(params, adam_state, adam_cfg)


def _snapshot(
    params: ModelParams,
    settings: RunSettings,
    epoch: int,
    norm_mean: np.ndarray,
    norm_std: np.ndarray,
) -> Checkpoint:
    return Checkpoint(
        config=run_config(settings, params.meta),
        params=params.state_arrays(),
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


@dataclass(frozen=True)
class _SanitySet:
    """The sanity split as `_sanity_loss` scores it: its sample count and,
    per full batch, one `batch_patchify_mask` tuple per view, original
    first. Its arrays are read-only. Its length is the number of samples.

    No package code reads `n_samples` or the length, but perfbench calls
    `len()` on `_sanity_loss`'s first argument to count the samples behind
    `eval_samples_per_s`; a bare tuple of batches would count batches."""

    n_samples: int
    batches: tuple

    def __len__(self) -> int:
        return self.n_samples


def _sanity_set(samples: Samples, settings: RunSettings) -> _SanitySet:
    """Build the sanity split's views once per run.

    The full, unshuffled batches are augmented and masked from their own
    (seed, tag, batch) streams; a split of fewer than 2 samples has none.
    """
    batches = ()
    if len(samples) >= 2:
        seed = settings.train.seed
        bs = min(settings.train.batch_size, len(samples))
        tags = (_SAN_AUG, _SAN_MASK_ORIG, _SAN_MASK_AUG)
        batches = tuple(
            tuple(_views(values, settings, tuple(_rng(seed, tag, bi) for tag in tags)))
            for bi, (values, _) in enumerate(
                make_batches(
                    samples, bs, seed=seed, epoch=0, drop_last=True, shuffle=False
                )
            )
        )
    for arr in (arr for views in batches for view in views for arr in view):
        arr.flags.writeable = False
    return _SanitySet(len(samples), batches)


def _sanity_loss(
    sanity: _SanitySet, params, settings: RunSettings, lambdas
) -> float | None:
    """Mean joint loss over the sanity split's full batches, or None for a
    split without one.

    `sanity` holds each batch's views and masks, built once by
    `_sanity_set`. The batches run through the model in stacks of up to
    `_STACK_ROWS` token rows; `joint_loss` then scores each batch in batch
    order.
    """
    batches = sanity.batches
    if not batches:
        return None
    bs, n_patches = batches[0][0][2].shape  # the masks of the first view
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
    theta, n_patches = settings.patch.theta, settings.patch.n_patches(corpus.meta.T)
    loss = settings.loss
    if loss.needs_reconstruction and loss.reconstruct_target == "masked":
        if round(theta * n_patches) == 0:
            raise ConfigError(
                f"patch.theta {theta} hides none of the N={n_patches} patches, "
                "and loss.reconstruct_target masked scores only hidden patches"
            )
    pre, sanity = split_pretrain(corpus.train, settings.split)
    with _finite("pretraining", "while normalizing the pretraining split"):
        pre, norm_mean, norm_std = normalize(pre)
    with _finite("pretraining", "while normalizing the sanity split"):
        sanity = apply_normalization(sanity, norm_mean, norm_std)
    with _finite("pretraining", "building the sanity split's views", settings):
        sanity = _sanity_set(sanity, settings)
    params = init_params(
        settings.model,
        settings.patch,
        corpus.meta,
        keep_zeroed=settings.keep_zeroed,
        loss=settings.loss,
    )
    adam_state, adam_cfg = _adam(params, tc, tc.lr_pretrain)
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
            with _finite("pretraining", f"at epoch {epoch} batch {bi}", settings):
                parts = _loss_parts(values, params, settings, rngs)
                if lambdas is None:
                    lambdas = balance_lambdas(parts[0].item(), parts[3].item())
                total, report = joint_loss(settings.loss, *lambdas, *parts)
                _step(total, params, adam_state, adam_cfg)
                del parts, total  # the step's graph, before the next forward
            epoch_reports.append(report)
        if not epoch_reports:
            raise ConfigError(
                "no pretraining batches: batch_size exceeds the pretrain split"
            )
        entry = _mean_report(epoch_reports)
        entry["epoch"] = epoch
        with _finite("pretraining", f"at epoch {epoch}'s sanity pass", settings):
            sanity_total = _sanity_loss(sanity, params, settings, lambdas)
        entry["sanity_total"] = sanity_total
        log.append(entry)
        selection = sanity_total if sanity_total is not None else entry["total"]
        if selection < best_sanity:
            best_sanity = selection
            best_ckpt = _snapshot(params, settings, epoch, norm_mean, norm_std)
    assert best_ckpt is not None
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        save_checkpoint(best_ckpt, out_dir / "best.ckpt")
        last = _snapshot(params, settings, tc.epochs_pretrain - 1, norm_mean, norm_std)
        save_checkpoint(last, out_dir / "last.ckpt")
        _write_loss_log(out_dir / "loss_log.csv", log)
    return best_ckpt, log


# an epoch's log entry: its number, the mean of each `LossReport` field, and
# the sanity loss; these are the columns of loss_log.csv
_REPORT_KEYS = tuple(f.name for f in fields(LossReport))
_LOG_KEYS = ("epoch", *_REPORT_KEYS, "sanity_total")


def _mean_report(reports: list[LossReport]) -> dict:
    """Each field's mean over an epoch's reports; None where a term is off.
    The weights are those of the first report: a mean of equal floats need
    not equal them."""
    entry = {}
    for key in _REPORT_KEYS:
        vals = [getattr(r, key) for r in reports]
        if key.startswith("lambda_"):
            entry[key] = vals[0]
        else:
            entry[key] = None if None in vals else float(np.mean(vals))
    return entry


def _write_loss_log(path, log: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=_LOG_KEYS)
        writer.writeheader()
        for entry in log:
            writer.writerow({k: "" if v is None else v for k, v in entry.items()})


def params_from_checkpoint(ckpt: Checkpoint) -> tuple[ModelParams, PatchConfig]:
    """Rebuild the fine-tuned model a checkpoint stores, for inference, from
    the settings and corpus shape its config records, and the all-patches
    (theta = 0) layout the model reads."""
    if not ckpt.finetuned:
        raise ConfigError(
            "checkpoint has no trained classifier (a pretraining checkpoint); "
            "fine-tune it first"
        )
    settings, meta = read_run_config(ckpt.config)
    patch_cfg = replace(settings.patch, theta=0.0)
    # inference only reads the parameters, so they share the checkpoint's
    # arrays; its forward passes run under no_grad and build no graph
    tensors = {name: Tensor(arr) for name, arr in ckpt.params.items()}
    return build_params(tensors, settings.model, patch_cfg, meta), patch_cfg


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
    with _finite("fine-tuning", "while normalizing the label subset"):
        subset, norm_mean, norm_std = normalize(subset)
    with _finite("fine-tuning", "while normalizing the val split"):
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
    adam_state, adam_cfg = _adam(params, tc, tc.lr_finetune)
    best: tuple[float, Checkpoint, MetricReport] | None = None
    for epoch in range(tc.epochs_finetune):
        for bi, (values, labels) in enumerate(
            make_batches(
                subset, tc.batch_size, seed=tc.seed, epoch=epoch, drop_last=False
            )
        ):
            with _finite("fine-tuning", f"at epoch {epoch} batch {bi}", settings):
                tokens = patchify(values, ft_patch)
                logits = classify(encode(*tokens, params), params)[0]
                _step(cross_entropy(logits, labels), params, adam_state, adam_cfg)
                del logits  # the step's graph, before the next forward
        if (epoch + 1) % tc.eval_every == 0 or epoch == tc.epochs_finetune - 1:
            report = _evaluate_params(params, ft_patch, val, tc.batch_size)
            if best is None or report.f1 > best[0]:
                snap = _snapshot(params, settings, epoch, norm_mean, norm_std)
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


def _forward_logits(params, patch_cfg, samples, batch_size):
    """(logits, classifier hidden activations) of a normalized split, one row
    per sample, forward only, in batches of `batch_size`."""
    rows = []
    with no_grad():
        for bi, (values, _) in enumerate(
            make_batches(samples, batch_size, drop_last=False, shuffle=False)
        ):
            with _finite("the forward pass", f"at batch {bi}"):
                z = encode(*patchify(values, patch_cfg), params)
                logits, hidden = classify(z, params)
            rows.append((logits.data, hidden.data))
    return tuple(np.concatenate(col) for col in zip(*rows))


def _scores_from_logits(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted.astype(np.float64))
    return e / e.sum(axis=1, keepdims=True)


def _evaluate_params(params, patch_cfg, samples, batch_size) -> MetricReport:
    logits, _ = _forward_logits(params, patch_cfg, samples, batch_size)
    scores = _scores_from_logits(logits)
    preds = np.argmax(logits, axis=1)
    return compute_metrics(samples.labels, preds, scores, params.meta.num_classes)


def _inference_inputs(ckpt: Checkpoint, samples: Samples):
    """The model a fine-tuned checkpoint stores, its patch layout, and a raw
    split normalized with the checkpoint's statistics. The split must have the
    stored corpus shape and only its classes; the first bad label is named."""
    if not samples:
        raise ConfigError("cannot run a checkpoint on an empty split")
    params, patch_cfg = params_from_checkpoint(ckpt)
    meta = params.meta
    fits = f"the checkpoint: shape ({meta.T}, {meta.D}), {meta.num_classes} classes"
    shape = samples.values.shape[1:]
    if shape != (meta.T, meta.D):
        raise ConfigError(f"samples of shape {shape} do not fit {fits}")
    labels = samples.labels
    bad = np.flatnonzero((labels < 0) | (labels >= meta.num_classes))
    if bad.size:
        i = bad[0]
        raise ConfigError(f"sample {i} (label {labels[i]}) does not fit {fits}")
    with _finite("the split", "under the checkpoint's normalization"):
        normed = apply_normalization(
            samples,
            np.array(ckpt.norm_mean, dtype=np.float32),
            np.array(ckpt.norm_std, dtype=np.float32),
        )
    return params, patch_cfg, normed


def evaluate(ckpt: Checkpoint, samples: Samples, batch_size: int = 64) -> MetricReport:
    """Metrics of a fine-tuned checkpoint on a raw (unnormalized) split."""
    return _evaluate_params(*_inference_inputs(ckpt, samples), batch_size)


def export_embeddings(
    ckpt: Checkpoint, samples: Samples, out_csv=None, out_silhouette=None
) -> tuple[np.ndarray, np.ndarray, float]:
    """Classifier hidden-layer activations per sample, plus their silhouette."""
    _, hidden = _forward_logits(*_inference_inputs(ckpt, samples), batch_size=64)
    labels = samples.labels
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
            values = map(repr, report.as_row().values())
            writer.writerow([mode, str(bool(pretrained)).lower(), *values])
