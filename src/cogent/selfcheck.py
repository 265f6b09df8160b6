"""Built-in verification suite behind the `selfcheck` subcommand.

Each check re-derives an expected value through an independent route (scalar
loops, closed forms, hand arithmetic, finite differences, graphs of primitive
ops) and compares the library against it. This module is the only home of
these oracles: the test suite runs every entry of CHECKS, and `cogent
selfcheck` runs the same table. The slow checks (full-model gradient check, a
short convergence run) can be skipped with fast=True.
"""

from __future__ import annotations

import math
import tempfile
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import losses, trainer
from .augment import AugmentConfig, jitter, time_mask
from .config import RunSettings, TrainConfig
from .data import DatasetMeta, Samples, SplitPlan, gen_synthetic
from .losses import (
    LossConfig,
    balance_lambdas,
    contrastive_loss,
    joint_loss,
    patch_reconstruction_term,
)
from .metrics import auprc_binary, auroc_binary, macro_prf, silhouette_score
from .model import (
    _INIT_BLOCK,
    ModelConfig,
    _trunc_normal,
    decode,
    encode,
    init_params,
    project_head,
)
from .optim import AdamConfig, AdamState, adam_step
from .patchmask import PatchConfig, batch_patchify_mask, patchify, sample_mask
from .tensor import (
    Tensor,
    _erf,
    exp,
    finite_diff_check,
    gelu,
    layer_norm,
    matmul,
    no_grad,
    softmax,
    sqrt,
    tmean,
    tsum,
)
from .trainer import _loss_parts, _stacked_terms, pretrain


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


def _check(name: str, fn) -> CheckResult:
    try:
        fn()
        return CheckResult(name, True)
    except AssertionError as e:
        return CheckResult(name, False, str(e))
    except Exception as e:  # surface unexpected failures as check failures
        return CheckResult(name, False, f"{type(e).__name__}: {e}")


def _matmul_oracle():
    for seed in (0, 7):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(3, 4)).astype(np.float32)
        b = rng.normal(size=(4, 2)).astype(np.float32)
        got = matmul(Tensor(a), Tensor(b)).data
        expect = np.zeros((3, 2))
        for i in range(3):
            for j in range(2):
                for k in range(4):
                    expect[i, j] += float(a[i, k]) * float(b[k, j])
        assert np.allclose(got, expect.astype(np.float32), rtol=1e-6, atol=0.0), (
            f"matmul disagrees with scalar loops (seed {seed})"
        )


def _softmax_oracle():
    out = softmax(Tensor(np.array([1.0, 2.0], np.float32)), axis=0).data
    e = math.e
    assert abs(out[0] - 1 / (1 + e)) < 1e-6 and abs(out[1] - e / (1 + e)) < 1e-6
    big = softmax(Tensor(np.array([1000.0, 1000.0], np.float32)), axis=0).data
    assert np.allclose(big, 0.5, atol=1e-6), "softmax shift invariance failed"


def _layer_norm_oracle():
    g = Tensor(np.ones(2, np.float32))
    b = Tensor(np.zeros(2, np.float32))
    out = layer_norm(Tensor(np.array([1.0, 3.0], np.float32)), g, b, eps=0.0).data
    assert np.allclose(out, [-1.0, 1.0], atol=1e-6), f"layer_norm [1,3] -> {out}"


def _gelu_oracle():
    got = gelu(Tensor(np.array(1.0, np.float32))).item()
    expect = 0.5 * (1.0 + math.erf(1.0 / math.sqrt(2.0)))
    assert abs(got - expect) < 1e-6, f"gelu(1) = {got}, expected {expect}"


def _erf_oracle():
    """gelu's erf against math.erf on 400,001 points over [-6, 6] and the edges.

    In float32 it must equal math.erf rounded to float32; in float64 it must
    stay within 4 ulp of it.
    """
    grid = np.linspace(-6.0, 6.0, 400_001)
    for dtype, max_ulps in ((np.float32, 0), (np.float64, 4)):
        name = np.dtype(dtype).name
        edges = [0.0, -0.0, np.finfo(dtype).smallest_subnormal, 1.0, -1.0, 8.0,
                 -8.0, 27.0, -27.0, np.inf, -np.inf, np.nan]
        x = np.concatenate([grid, edges]).astype(dtype)
        got = _erf(x)
        expect = np.array([math.erf(v) for v in x.tolist()]).astype(dtype)
        nan = np.isnan(expect)
        assert np.array_equal(np.isnan(got), nan), f"{name} erf: NaN mismatch"
        x, got, expect = x[~nan], got[~nan], expect[~nan]
        assert np.array_equal(np.signbit(got), np.signbit(expect)), f"{name} erf: sign"
        ulps = np.abs(got.astype(np.float64) - expect) / np.spacing(np.abs(expect))
        worst = int(np.argmax(ulps))
        assert ulps[worst] <= max_ulps, (
            f"{name} erf({x[worst]!r}) = {got[worst]!r} is {ulps[worst]} ulp from "
            f"math.erf's {expect[worst]!r} (bound {max_ulps})"
        )


# The primitive graphs that the fused ops in `tensor` replace. Each fused op
# must give these values and gradients bit for bit.


def _primitive_softmax(a: Tensor, axis: int) -> Tensor:
    e = exp(a - Tensor(np.max(a.data, axis=axis, keepdims=True)))
    return e / tsum(e, axis=axis, keepdims=True)


def _primitive_layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    mu = tmean(x, axis=-1, keepdims=True)
    centered = x - mu
    var = tmean(centered * centered, axis=-1, keepdims=True)
    inv = Tensor(np.asarray(1.0, dtype=x.dtype)) / sqrt(var + 1e-5)
    return centered * inv * gamma + beta


def _fusion_oracle():
    # Each op's input also feeds a residual add and a later product, so its
    # gradient sums pieces from three consumers in graph-walk order.
    cases = (
        (layer_norm, _primitive_layer_norm, {}),
        (softmax, _primitive_softmax, {"axis": -1}),
        (softmax, _primitive_softmax, {"axis": 1}),
    )
    labels = ("values", "x gradient", "gamma gradient", "beta gradient")
    for dtype in (np.float32, np.float64):
        rng = np.random.default_rng(12)
        x, w, w2 = (rng.normal(size=(3, 4, 6)).astype(dtype) for _ in range(3))
        gamma = (1.0 + 0.2 * rng.normal(size=6)).astype(dtype)
        beta = rng.normal(size=6).astype(dtype)
        for fused_op, primitive_op, kwargs in cases:
            arrays = (x, gamma, beta) if fused_op is layer_norm else (x,)
            results = []
            for op in (fused_op, primitive_op):
                leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
                out = op(*leaves, **kwargs)
                residual = tsum((leaves[0] + out) * Tensor(w))
                (residual + tsum(leaves[0] * Tensor(w2))).backward()
                results.append([out.data] + [t.grad for t in leaves])
            case = f"{fused_op.__name__}{kwargs} ({np.dtype(dtype).name})"
            for label, fused, primitive in zip(labels, *results):
                assert (
                    fused is not None
                    and primitive is not None
                    and fused.dtype == primitive.dtype
                    and np.array_equal(fused, primitive)
                ), f"fused {case}: {label} differs"


def _quadratic_gradcheck():
    x = Tensor(np.array([1.0, 2.0, 3.0], np.float32))
    err = finite_diff_check(lambda t: tsum(t * t), x, h=1e-3)
    assert err < 1e-4, f"quadratic gradient error {err}"


def _ntxent_brute_force(h: np.ndarray, h_aug: np.ndarray, tau: float) -> float:
    """Scalar-loop NT-Xent: cosine pairs, self excluded, mean over anchors."""
    b = h.shape[0]
    rows = np.concatenate([h, h_aug]).astype(np.float64)
    unit = [r / np.linalg.norm(r) for r in rows]
    total = 0.0
    for i in range(b):
        pos = math.exp(float(np.dot(unit[i], unit[b + i])) / tau)
        denom = sum(
            math.exp(float(np.dot(unit[i], unit[k])) / tau)
            for k in range(2 * b)
            if k != i
        )
        total += -math.log(pos / denom)
    return total / b


def _ntxent_oracles():
    # identity pairs, the equal-similarity closed form, and brute force
    for row in ([0.6, -0.8], [3.0, -4.0], [0.3, -0.4, 0.5]):
        h = np.array([row], np.float32)
        got = contrastive_loss(Tensor(h), Tensor(h.copy()), tau=0.2).item()
        assert got == 0.0, f"identical pair {row} gave {got}"
    for fill in (0.25, 0.3, 0.4):
        for b in (2, 3, 4):
            row = np.full((b, 8), fill, np.float32)
            got = contrastive_loss(Tensor(row), Tensor(row.copy()), tau=0.2).item()
            assert abs(got - math.log(2 * b - 1)) < 1e-5, (
                f"closed form failed at B={b}, fill {fill}"
            )
    rng = np.random.default_rng(3)
    h = rng.normal(size=(3, 8)).astype(np.float32)
    h2 = rng.normal(size=(3, 8)).astype(np.float32)
    got = contrastive_loss(Tensor(h), Tensor(h2), tau=0.2).item()
    assert abs(got - _ntxent_brute_force(h, h2, 0.2)) < 1e-5, "seed-3 instance"
    for seed in (1, 123, 4):
        rng = np.random.default_rng(seed)
        for _ in range(20):
            b = int(rng.integers(1, 5))
            d = int(rng.integers(2, 9))
            tau = float(rng.uniform(0.1, 1.0))
            h = rng.normal(size=(b, d)).astype(np.float32)
            h2 = rng.normal(size=(b, d)).astype(np.float32)
            expect = _ntxent_brute_force(h, h2, tau)
            got = contrastive_loss(Tensor(h), Tensor(h2), tau=tau).item()
            assert abs(got - expect) < 1e-5 * max(1.0, abs(expect)), (
                f"brute force mismatch (seed {seed}): {got} vs {expect}"
            )
    rng = np.random.default_rng(8)
    h = rng.normal(size=(3, 6)).astype(np.float32)
    h2 = rng.normal(size=(3, 6)).astype(np.float32)
    sym = contrastive_loss(Tensor(h), Tensor(h2), tau=0.2, symmetric=True).item()
    expect = 0.5 * (_ntxent_brute_force(h, h2, 0.2) + _ntxent_brute_force(h2, h, 0.2))
    assert abs(sym - expect) < 1e-5, f"symmetric variant: {sym} vs {expect}"


def _recon_oracle():
    p = Tensor(np.array([[[1.0, 2.0]]], np.float32))
    p_hat = Tensor(np.zeros((1, 1, 2), np.float32))
    aug = Tensor(np.array([[[3.0, 4.0]]], np.float32))
    assert patch_reconstruction_term(p_hat, p).item() == 5.0  # 1 + 4
    assert patch_reconstruction_term(aug, aug).item() == 0.0
    # two samples of two patches, one scored in each: (1 + 4 + 49 + 64) / 2,
    # and the gradient is p_hat - p on the scored patches, 0 elsewhere
    p = Tensor(np.arange(1.0, 9.0, dtype=np.float32).reshape(2, 2, 2))
    p_hat = Tensor(np.zeros((2, 2, 2), np.float32), requires_grad=True)
    term = patch_reconstruction_term(p_hat, p, np.array([[1, 0], [0, 1]]))
    assert term.item() == 59.0, f"weighted term {term.item()}, expected 59"
    term.backward()
    expect = [[[-1.0, -2.0], [0.0, 0.0]], [[0.0, 0.0], [-7.0, -8.0]]]
    assert np.array_equal(p_hat.grad, expect), f"weighted gradient {p_hat.grad}"


def _lambda_oracle():
    lc, lr = balance_lambdas(1.1, 64.0)
    assert lc == 1.0 and lr == 1.1 / 64.0 and abs(lr - 0.0171875) < 1e-12


def _adam_oracle():
    meta = DatasetMeta(T=8, D=1, num_classes=2, name="tiny")
    params = init_params(
        ModelConfig(d_model=4, n_blocks=1, n_heads=2, mlp_ratio=2, proj_dim=2),
        PatchConfig(L=4, theta=0.5),
        meta,
    )
    state = AdamState.for_params(params)
    for _, t in params.items():
        t.grad = np.zeros_like(t.data)
    params.tensors["patch_proj.b"].data[:] = 0.0
    params.tensors["patch_proj.b"].grad = np.ones(4, np.float32)
    adam_step(params, state, AdamConfig(lr=0.1, weight_decay=0.0))
    got = params["patch_proj.b"].data
    assert np.allclose(got, -0.1, rtol=1e-6), f"first Adam step gave {got}"


def _mask_arithmetic():
    cfg = PatchConfig(L=64, theta=0.75)
    assert cfg.n_patches(1280) == 20 and cfg.n_visible(1280) == 5
    for seed in (2, 7, 1):
        rng = np.random.default_rng(seed)
        for _ in range(1000):
            count = int(sample_mask(20, 0.75, rng).sum())
            assert count == 5, f"mask kept {count} of 20 patches (seed {seed})"
    meta = DatasetMeta(T=1280, D=1, num_classes=3, name="bench1280")
    params = init_params(ModelConfig(), cfg, meta)
    tokens = np.zeros((1, 5, 64), np.float32)
    idx = np.arange(5, dtype=np.int64)[None, :]
    z = encode(tokens, idx, params)
    assert z.shape == (1, 6, 512), f"encoder token count {z.shape}"


def _sweep_auroc(is_pos: np.ndarray, scores: np.ndarray) -> float:
    """ROC trapezoid over every distinct threshold; 0.5 without both classes."""
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
    return sum((x1 - x0) * 0.5 * (y0 + y1) for (x0, y0), (x1, y1) in zip(pts, pts[1:]))


def _sweep_auprc(is_pos: np.ndarray, scores: np.ndarray) -> float:
    """Step-wise precision-recall area over every distinct threshold."""
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


def _check_sweeps(is_pos: np.ndarray, scores: np.ndarray) -> None:
    got, expect = auroc_binary(is_pos, scores), _sweep_auroc(is_pos, scores)
    assert abs(got - expect) < 1e-9, f"auroc {got} vs sweep {expect}"
    got, expect = auprc_binary(is_pos, scores), _sweep_auprc(is_pos, scores)
    assert abs(got - expect) < 1e-9, f"auprc {got} vs sweep {expect}"


def _metric_oracles():
    # hand confusion matrix: both per-class F1 are 2/3
    _, _, f1 = macro_prf(np.array([1, 0, 0]), np.array([1, 1, 0]), 2)
    for value in (*f1, np.mean(f1)):
        assert abs(value - 2.0 / 3.0) < 1e-12, "hand confusion-matrix F1 failed"
    for score in (0.5, 0.2):
        got = auroc_binary(np.array([0, 1, 1]) == 1, np.full(3, score))
        assert got == 0.5, f"auroc of tied scores {got}, expected 0.5"
    # binary threshold sweeps on quantized (tied) scores
    for seed in (3, 1, 2):
        rng = np.random.default_rng(seed)
        for _ in range(50):
            n = int(rng.integers(3, 51))
            is_pos = rng.integers(0, 2, size=n).astype(bool)
            _check_sweeps(is_pos, np.round(rng.uniform(0, 1, size=n), 1))
    # multiclass: exact rational per-class F1, one-vs-rest sweeps (seed 17)
    for seed, with_scores in ((17, True), (0, False)):
        rng = np.random.default_rng(seed)
        for _ in range(50):
            n = int(rng.integers(2, 51))
            c = int(rng.integers(2, 5))
            labels = rng.integers(0, c, size=n)
            preds = rng.integers(0, c, size=n)
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
                assert f1[cls] == expect, f"F1 of class {cls}: {f1[cls]} vs {expect}"
            if with_scores:
                scores = np.round(rng.uniform(0, 1, size=(n, c)), 1)
                for cls in range(c):
                    _check_sweeps(labels == cls, scores[:, cls])


def _silhouette_loops(x: np.ndarray, labels: np.ndarray) -> float:
    """Mean silhouette from its definition, one distance at a time."""
    scores = []
    for i in range(len(x)):
        own = [j for j in range(len(x)) if labels[j] == labels[i] and j != i]
        if not own:
            scores.append(0.0)
            continue
        a = float(np.mean([np.linalg.norm(x[i] - x[j]) for j in own]))
        bs = []
        for c in set(labels.tolist()) - {labels[i]}:
            other = [j for j in range(len(x)) if labels[j] == c]
            bs.append(float(np.mean([np.linalg.norm(x[i] - x[j]) for j in other])))
        if not bs:
            scores.append(0.0)
            continue
        b = min(bs)
        m = max(a, b)
        scores.append((b - a) / m if m > 0 else 0.0)
    return float(np.mean(scores))


def _silhouette_oracle():
    # clusters {(0,0),(0,1)} and {(10,0),(10,1)}: a = 1,
    # b = (10 + sqrt(101)) / 2, and every point scores (b - a) / b
    x = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 0.0], [10.0, 1.0]])
    labels = np.array([0, 0, 1, 1])
    b = (10.0 + math.sqrt(101.0)) / 2.0
    expect = (b - 1.0) / b  # = 0.900249...
    got = silhouette_score(x, labels)
    assert abs(got - expect) < 1e-9, f"silhouette {got} vs hand value {expect}"
    assert abs(got - 0.900249) < 1e-4
    assert silhouette_score(np.ones((4, 2)), np.array([0, 0, 1, 1])) == 0.0
    assert silhouette_score(np.full((6, 2), 3.0), np.array([0, 0, 0, 1, 1, 1])) == 0.0
    rng = np.random.default_rng(4)
    x = rng.normal(size=(30, 4))
    labels = rng.integers(0, 3, size=30)
    got, loops = silhouette_score(x, labels), _silhouette_loops(x, labels)
    assert abs(got - loops) <= 1e-12, f"silhouette {got} vs loop oracle {loops}"


def _augment_oracles():
    # mean |x' - x| for eps * N(0, 1) noise is eps * sqrt(2 / pi)
    expect = 0.1 * math.sqrt(2.0 / math.pi)
    for seed in (1, 4):
        rng = np.random.default_rng(seed)
        out = jitter(np.zeros((1000, 10), np.float32), 0.1, rng)
        observed = np.abs(out).mean()
        assert abs(observed - expect) / expect < 0.05, f"half-normal mean, seed {seed}"
    masked = time_mask(np.ones((1280, 1), np.float32), 0.5, rng)
    assert int(np.sum(np.all(masked == 0.0, axis=1))) == 640


def _whole_array_trunc_normal(rng, shape, std: float, dtype):
    """Truncated normal drawn as one float64 array whose every entry is
    re-tested each round, then rounded; also returns the redraw rounds."""
    out = rng.normal(0.0, std, size=shape)
    bad = np.abs(out) > 2.0 * std
    rounds = 0
    while bad.any():
        out[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(out) > 2.0 * std
        rounds += 1
    return out.astype(dtype), rounds


def _init_oracle():
    # The blocked draw against the whole-array reference, tensor after tensor
    # on one stream: the values, and the generator state after each tensor.
    # At seed 0 the first shape needs four redraw rounds; the second, not
    # kept, stands for a module the stage drops; both span several blocks.
    shapes = (
        ((300, 200), True), ((700, 100), False), ((8,), True), ((999, 41), True)
    )
    assert max(math.prod(shape) for shape, _ in shapes) > _INIT_BLOCK
    for dtype in (np.float32, np.float64):
        rng, ref = np.random.default_rng(0), np.random.default_rng(0)
        for i, (shape, keep) in enumerate(shapes):
            got = _trunc_normal(rng, shape, 0.02, dtype, keep=keep)
            expect, rounds = _whole_array_trunc_normal(ref, shape, 0.02, dtype)
            case = f"{shape} ({np.dtype(dtype).name})"
            assert i > 0 or rounds >= 3, f"{case} needs only {rounds} redraw rounds"
            if keep:
                assert got.dtype == dtype and np.array_equal(got, expect), (
                    f"{case}: blocked init values differ from the whole-array draw"
                )
            else:
                assert got is None, f"{case}: a dropped tensor was stored"
            assert rng.bit_generator.state == ref.bit_generator.state, (
                f"{case}: blocked init consumed the stream differently"
            )
    meta = DatasetMeta(T=1280, D=1, num_classes=3, name="bench1280")
    a = init_params(ModelConfig(init_seed=5), PatchConfig(L=64, theta=0.75), meta)
    b = init_params(ModelConfig(init_seed=5), PatchConfig(L=64, theta=0.75), meta)
    assert a.total_params() == b.total_params()
    for (ka, ta), (_, tb) in zip(a.items(), b.items()):
        assert np.array_equal(ta.data, tb.data), f"init not deterministic at {ka}"


def _permutation_oracle():
    # permuting visible patches together with their indices permutes the
    # output rows and changes no values
    meta = DatasetMeta(T=16, D=1, num_classes=2, name="micro")
    params = init_params(
        ModelConfig(d_model=8, n_blocks=2, n_heads=2, mlp_ratio=4, proj_dim=8),
        PatchConfig(L=4, theta=0.25),
        meta,
    )
    idx = np.array([[0, 1, 3]])
    perm = [2, 0, 1]
    for seed in (5, 1):
        tokens = np.random.default_rng(seed).normal(size=(1, 3, 4)).astype(np.float32)
        z = encode(tokens, idx, params).data
        z_perm = encode(tokens[:, perm], idx[:, perm], params).data
        assert np.array_equal(z_perm[:, 0], z[:, 0]), f"cls row moved (seed {seed})"
        assert np.array_equal(z_perm[:, 1:], z[:, 1:][:, perm]), (
            f"patch rows not permuted (seed {seed})"
        )


def _per_view_loss_parts(values, params, settings: RunSettings, rngs):
    """`trainer._loss_parts` as two graphs: each view is augmented sample by
    sample, then encoded, projected and decoded on its own."""
    cfg = settings.loss
    rng_aug, rng_mask_o, rng_mask_a = rngs

    def forward(batch, rng_mask):
        tokens, idx, masks, _ = batch_patchify_mask(
            batch, settings.patch, rng_mask, settings.keep_zeroed
        )
        return batch, tokens, idx, masks, encode(tokens, idx, params)

    def reconstruction(batch, tokens, idx, masks, z):
        if cfg.reconstruct_target == "masked":
            patches, _ = patchify(batch, settings.patch)
            p_hat = decode(z, idx, params, masks=masks)
            return patch_reconstruction_term(p_hat, Tensor(patches), 1 - masks)
        p_hat = decode(z, idx, params)
        weights = masks if settings.keep_zeroed else None
        return patch_reconstruction_term(p_hat, Tensor(tokens), weights)

    orig = forward(values, rng_mask_o)
    aug = None
    if cfg.needs_aug_view:
        aug_cfg = settings.augment
        augmented = np.stack(
            [
                jitter(v, aug_cfg.epsilon, rng_aug)
                if aug_cfg.kind == "jitter"
                else time_mask(v, aug_cfg.mask_fraction, rng_aug)
                for v in values
            ]
        )
        aug = forward(augmented, rng_mask_a)
    l_c = l_r_orig = l_r_aug = l_r = None
    if cfg.needs_contrastive:
        # the library's loss, looked up as `_loss_parts` looks it up: this
        # check compares the two compositions, the nt-xent check the loss
        l_c = losses.contrastive_loss(
            project_head(orig[4], params),
            project_head(aug[4], params),
            cfg.tau,
            symmetric=cfg.symmetric_ntxent,
        )
    if cfg.needs_reconstruction:
        l_r_orig = l_r = reconstruction(*orig)
        if cfg.needs_aug_reconstruction:
            l_r_aug = reconstruction(*aug)
            l_r = (l_r_orig + l_r_aug) * 0.5
    return l_c, l_r_orig, l_r_aug, l_r


def _per_batch_sanity_loss(sanity, params, settings: RunSettings, lambdas):
    """The sanity loss as one per-view pass per batch: the mean joint loss of
    the full, unshuffled batches, each on its own (seed, tag, batch) streams."""
    seed, bs = settings.train.seed, settings.train.batch_size
    tags = (trainer._SAN_AUG, trainer._SAN_MASK_ORIG, trainer._SAN_MASK_AUG)
    totals = []
    with no_grad():
        for bi in range(len(sanity) // bs):
            values = sanity.values[bi * bs : (bi + 1) * bs]
            rngs = tuple(np.random.default_rng([seed, tag, bi]) for tag in tags)
            parts = _per_view_loss_parts(values, params, settings, rngs)
            total, _ = joint_loss(settings.loss, *lambdas, *parts)
            totals.append(total.item())
    return sum(totals) / len(totals)


def _sanity_stacks(sanity, params, settings: RunSettings, lambdas, budget: int):
    """`trainer._sanity_loss` under a token-row budget; also returns how many
    batches each stacked forward held."""
    stacked_terms, saved = trainer._stacked_terms, trainer._STACK_ROWS
    sizes = []

    def counted(batches, *args):
        sizes.append(len(batches))
        return stacked_terms(batches, *args)

    trainer._stacked_terms, trainer._STACK_ROWS = counted, budget
    try:
        return trainer._sanity_loss(sanity, params, settings, lambdas), sizes
    finally:
        trainer._stacked_terms, trainer._STACK_ROWS = stacked_terms, saved


def _stacked_views_oracle():
    """The stacked pass gives the per-view loss values bit for bit.

    Its gradients sum both views' rows in one reduction instead of adding
    two, so they agree to rtol 1e-5 of each tensor's largest entry, not in
    every bit. The sanity pass, which stacks every view of several batches,
    must give the mean of per-batch, per-view joint losses bit for bit: in
    one stack, and split into stacks by a small row budget, both from one
    set of views built beforehand; the per-batch reference rebuilds its
    views from the streams.

    The loss values are compared as exact float bits, which relies on the
    BLAS giving each GEMM row the same bits whatever the row count; a
    sanity stack runs GEMMs of up to `trainer._STACK_ROWS` token rows. This
    held with numpy 2.4.6 on its bundled OpenBLAS 0.3.31 (DYNAMIC_ARCH) on
    an x86_64 Xeon with AVX-512, with 1 and 2 BLAS threads. OpenBLAS picks
    its kernels for the CPU it runs on, so another CPU or BLAS build may
    sum in another order; a mismatch there is a reason to look at the host,
    not by itself a regression.
    """
    meta = DatasetMeta(T=32, D=1, num_classes=3, name="tiny")
    patch = PatchConfig(L=8, theta=0.5)
    cases = (
        ({"mode": "cogent"}, False, "jitter"),
        ({"mode": "cogent", "recon_views": "orig"}, False, "jitter"),
        ({"mode": "contrastive_only"}, False, "jitter"),
        ({"mode": "generative_only"}, False, "jitter"),
        ({"mode": "generative_only", "recon_views": "orig"}, False, "jitter"),
        ({"mode": "cogent", "reconstruct_target": "masked"}, False, "jitter"),
        ({"mode": "cogent"}, True, "jitter"),
        ({"mode": "cogent", "symmetric_ntxent": True}, False, "time_mask"),
    )
    values = np.random.default_rng(31).normal(size=(4, 32, 1)).astype(np.float32)
    # three full batches of 4, and 2 samples the pass drops
    split = np.random.default_rng(32).normal(size=(14, 32, 1)).astype(np.float32)
    sanity = Samples(split, np.zeros(len(split), np.int64))
    for loss_kwargs, keep_zeroed, kind in cases:
        settings = RunSettings(
            patch=patch,
            model=ModelConfig(
                d_model=16, n_blocks=2, n_heads=2, mlp_ratio=2, proj_dim=8
            ),
            loss=LossConfig(**loss_kwargs),
            augment=AugmentConfig(kind=kind, epsilon=0.1, mask_fraction=0.25),
            train=TrainConfig(batch_size=4, seed=3),
            split=SplitPlan(seed=3),
            keep_zeroed=keep_zeroed,
        )
        params = init_params(
            settings.model,
            patch,
            meta,
            proj_tokens=patch.n_patches(meta.T) if keep_zeroed else None,
            loss=settings.loss,
        )
        results = []
        for parts_of in (_per_view_loss_parts, _loss_parts):
            rngs = tuple(np.random.default_rng(k) for k in (41, 42, 43))
            parts = parts_of(values, params, settings, rngs)
            total, _ = joint_loss(settings.loss, 1.0, 1.0, *parts)
            params.zero_grads()
            total.backward()
            grads = {
                name: None if t.grad is None else t.grad.copy()
                for name, t in params.items()
            }
            results.append(([None if p is None else p.data for p in parts], grads))
        (expect, expect_grads), (got, got_grads) = results
        case = f"{loss_kwargs}, keep_zeroed={keep_zeroed}, {kind}"
        for label, a, b in zip(("l_c", "l_r_orig", "l_r_aug", "l_r"), got, expect):
            assert (a is None) == (b is None), f"{case}: {label} in one pass only"
            assert a is None or np.array_equal(a, b), (
                f"{case}: stacked {label} {a} differs from per-view {b}"
            )
        for name, g in expect_grads.items():
            assert (g is None) == (got_grads[name] is None), (
                f"{case}: {name} has a gradient in one pass only"
            )
            if g is None:
                continue
            scale = float(np.abs(g).max())
            assert np.allclose(got_grads[name], g, rtol=1e-5, atol=1e-5 * scale), (
                f"{case}: gradient of {name} differs beyond rtol 1e-5"
            )
        lambdas = (1.0, 0.5)
        expect = _per_batch_sanity_loss(sanity, params, settings, lambdas)
        built = trainer._sanity_set(sanity, settings)  # scored under both budgets
        views = 2 if settings.loss.needs_aug_view else 1
        batch_rows = views * 4 * (patch.n_patches(meta.T) + 1)
        for budget, sizes in ((trainer._STACK_ROWS, [3]), (2 * batch_rows, [2, 1])):
            got, got_sizes = _sanity_stacks(built, params, settings, lambdas, budget)
            assert got_sizes == sizes, (
                f"{case}: {budget}-row budget stacked {got_sizes} batches, not {sizes}"
            )
            assert got == expect, (
                f"{case}: sanity loss {got!r} in stacks of {sizes} batches differs "
                f"from the per-batch mean {expect!r}"
            )


# unit weights, both views reconstructed, the visible target
_MICRO_LOSS = LossConfig(mode="cogent", tau=0.2)


def build_micro_instance(seed: int = 0, dtype=np.float64):
    """The smallest end-to-end instance (T=16, D=1, L=4, d_model=8, two
    heads): a deterministic micro model plus one fixed two-sample batch, as
    two `batch_patchify_mask` views (original, jittered), one batch in
    `trainer._stacked_terms` form.

    Parameters are redrawn at generic scales (weights sigma 0.25, norm gains
    near 1) instead of the training init: at the 0.02-std init the relu
    preactivations sit within h of their kink and the projection embeddings
    have near-zero norm, so a central difference no longer measures the
    one-sided derivative reverse mode computes.
    """
    meta = DatasetMeta(T=16, D=1, num_classes=2, name="micro")
    patch_cfg = PatchConfig(L=4, theta=0.75)  # N=4, one visible patch
    model_cfg = ModelConfig(
        d_model=8, n_blocks=2, n_heads=2, mlp_ratio=4, proj_dim=8, init_seed=seed
    )
    params = init_params(model_cfg, patch_cfg, meta, dtype=dtype, loss=_MICRO_LOSS)
    redraw = np.random.default_rng(seed + 50)
    for name, t in params.items():
        if name.endswith(".g"):
            t.data = (1.0 + 0.2 * redraw.standard_normal(t.shape)).astype(dtype)
        else:
            t.data = (0.25 * redraw.standard_normal(t.shape)).astype(dtype)
    rng = np.random.default_rng(seed + 100)
    values = rng.normal(size=(2, 16, 1))
    augmented = values + 0.1 * rng.standard_normal((2, 16, 1))
    return params, [
        batch_patchify_mask(batch.astype(dtype), patch_cfg, np.random.default_rng(s))
        for batch, s in ((values, seed + 200), (augmented, seed + 300))
    ]


def micro_joint_loss(params, views) -> Tensor:
    """Contrastive + both-view reconstruction with unit weights, on the
    stacked views, through the helper that pretraining runs."""
    ((l_c, _, _, l_r),) = _stacked_terms([views], params, _MICRO_LOSS)
    return l_c + l_r


def joint_loss_gradient_errors(seed: int = 0, h: float = 1e-3) -> dict[str, float]:
    """Max relative error per parameter tensor between the micro joint
    loss's reverse-mode gradient and central finite differences. Storage is
    float64: float32 rounding noise through a central difference is ~3e-5 *
    |loss| per coordinate, which would swamp the 1e-3 relative criterion
    for legitimately small gradients."""
    params, views = build_micro_instance(seed=seed)
    errors: dict[str, float] = {}
    for name in list(params.tensors):
        original = params.tensors[name]

        def f(probe: Tensor) -> Tensor:
            params.tensors[name] = probe
            try:
                return micro_joint_loss(params, views)
            finally:
                params.tensors[name] = original

        errors[name] = finite_diff_check(f, Tensor(original.data.copy()), h=h)
    return errors


def _full_gradcheck():
    errors = joint_loss_gradient_errors()
    worst = max(errors.values())
    assert worst < 1e-3, f"worst parameter gradient error {worst}"


def nearest_centroid_accuracy(train: Samples, test: Samples) -> float:
    """Share of test rows nearest the centroid of their own class's train rows."""
    classes = np.unique(train.labels)
    rows = train.values.reshape(len(train), -1)
    centroids = np.stack([rows[train.labels == c].mean(axis=0) for c in classes])
    offsets = test.values.reshape(len(test), 1, -1) - centroids
    nearest = classes[np.argmin(np.linalg.norm(offsets, axis=2), axis=1)]
    return float(np.mean(nearest == test.labels))


def _convergence_run():
    meta = DatasetMeta(T=96, D=1, num_classes=3, name="synth")
    with tempfile.TemporaryDirectory() as tmp:
        corpus = gen_synthetic(tmp, meta, per_class=50, seed=0, sigma=0.1)
    settings = RunSettings(
        patch=PatchConfig(L=16, theta=0.75),
        model=ModelConfig(
            d_model=64, n_blocks=2, n_heads=4, mlp_ratio=4, proj_dim=32, init_seed=0
        ),
        loss=LossConfig(mode="cogent"),
        augment=AugmentConfig(kind="jitter", epsilon=0.1),
        train=TrainConfig(epochs_pretrain=15, epochs_finetune=5, batch_size=16, seed=0),
        split=SplitPlan(seed=0),
    )
    _, log = pretrain(corpus, settings)
    assert log[-1]["total"] < 0.5 * log[0]["total"], (
        f"pretraining did not converge: {log[0]['total']} -> {log[-1]['total']}"
    )
    accuracy = nearest_centroid_accuracy(corpus.train, corpus.test)
    assert accuracy >= 0.95, "synthetic corpus is not separable"


CHECKS = (
    ("matmul scalar-loop oracle", _matmul_oracle),
    ("softmax closed forms", _softmax_oracle),
    ("layer_norm two-point row", _layer_norm_oracle),
    ("gelu gaussian cdf at 1", _gelu_oracle),
    ("erf against math.erf (float32 exact, float64 4 ulp)", _erf_oracle),
    ("fused ops equal their primitive compositions", _fusion_oracle),
    ("finite-difference quadratic", _quadratic_gradcheck),
    ("nt-xent closed forms and brute force", _ntxent_oracles),
    ("reconstruction hand arithmetic", _recon_oracle),
    ("loss-weight balancing ratio", _lambda_oracle),
    ("adam first-step closed form", _adam_oracle),
    ("patch/mask arithmetic (1280/64/0.75)", _mask_arithmetic),
    ("metric oracles (f1/auroc/auprc)", _metric_oracles),
    ("silhouette hand example", _silhouette_oracle),
    ("augmentation statistics", _augment_oracles),
    ("parameter init determinism", _init_oracle),
    ("positional permutation equivariance", _permutation_oracle),
    ("stacked views equal separate views", _stacked_views_oracle),
    ("full joint-loss gradient check", _full_gradcheck),
    ("synthetic convergence run", _convergence_run),
)
SLOW = frozenset({"full joint-loss gradient check", "synthetic convergence run"})


def run_selfcheck(fast: bool = False) -> list[CheckResult]:
    return [
        _check(name, fn) for name, fn in CHECKS if not (fast and name in SLOW)
    ]
