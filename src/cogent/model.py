"""Network definition: patch projection, positional encoding, classification
token, pre-norm transformer encoder/decoder, contrastive projection head, and
the fine-tuning classifier.

Architecture notes pinned here rather than in config:
  * pre-norm blocks (norm before attention/MLP) for stable 2-block training;
  * fixed sinusoidal positional table, row 0 reserved for the cls token;
  * the projection head and the classifier both consume the concatenation of
    patch embeddings (the cls token aggregates via attention only);
  * the decoder runs at full width and mirrors the encoder block stack;
  * the key projection has no bias: it would add the same q.b to every score
    of a row, which softmax cancels, so it could neither change an output
    nor receive more than a rounding-noise gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import DatasetMeta
from .errors import ConfigError, ContractError, require_range
from .losses import LossConfig
from .patchmask import PatchConfig
from .tensor import (
    Tensor,
    concat,
    gelu,
    l2_normalize,
    layer_norm,
    matmul,
    relu,
    reshape,
    softmax,
    transpose,
)


@dataclass
class ModelConfig:
    d_model: int = 512
    n_blocks: int = 2
    n_heads: int = 8
    mlp_ratio: int = 4
    proj_dim: int = 128
    classifier_hidden_ratio: float = 0.10
    init_seed: int = 0

    def __post_init__(self):
        for key in ("d_model", "n_blocks", "n_heads", "mlp_ratio"):
            require_range(key, getattr(self, key), 1, math.inf)
        require_range("proj_dim", self.proj_dim, 2, math.inf)
        require_range("init_seed", self.init_seed, 0, math.inf)
        ratio = self.classifier_hidden_ratio
        require_range("classifier_hidden_ratio", ratio, 0.0, 1.0, open_lo=True)
        if self.d_model % self.n_heads != 0:
            raise ConfigError(
                f"d_model {self.d_model} not divisible by n_heads {self.n_heads}"
            )


@dataclass
class ModelParams:
    tensors: dict[str, Tensor]
    pos: np.ndarray  # [n_patches + 1, d_model], fixed sinusoidal
    cfg: ModelConfig
    in_dim: int  # L * D
    n_patches: int
    meta: DatasetMeta  # the data shape the parameters are built for

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]

    def items(self):
        return self.tensors.items()

    def zero_grads(self) -> None:
        for t in self.tensors.values():
            t.zero_grad()

    def total_params(self) -> int:
        return sum(t.data.size for t in self.tensors.values())

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Copies of the parameter values (an optimizer step updates in place)."""
        return {k: v.data.copy() for k, v in self.tensors.items()}


def sinusoid_table(n_pos: int, d_model: int, dtype=np.float32) -> np.ndarray:
    """Fixed sin/cos positional table of shape [n_pos, d_model]."""
    table = np.zeros((n_pos, d_model), dtype=np.float64)
    position = np.arange(n_pos, dtype=np.float64)[:, None]
    div = np.exp(
        np.arange(0, d_model, 2, dtype=np.float64) * (-math.log(10000.0) / d_model)
    )
    table[:, 0::2] = np.sin(position * div)
    table[:, 1::2] = np.cos(position * div[: table[:, 1::2].shape[1]])
    return table.astype(dtype)


# Values per init draw block: a block's float64 draw and its range test stay
# in cache, and each block is rounded straight to the storage dtype.
_INIT_BLOCK = 1 << 15


def _trunc_normal(
    rng: np.random.Generator, shape, std: float, dtype, keep: bool = True
) -> np.ndarray | None:
    """N(0, std^2) truncated at +-2 std via resampling.

    The values are drawn in blocks of `_INIT_BLOCK`, each rounded straight to
    `dtype`, and tested against the range in float64. Each round then
    redraws the out-of-range entries in ascending order and re-tests only
    those, so it consumes the stream as a loop that draws the whole array in
    float64 and re-tests all of it would. With keep=False nothing is stored
    and None is returned: only the out-of-range count is kept, which
    advances the stream exactly as a kept draw would.
    """
    size = math.prod(shape)
    limit = 2.0 * std
    out = np.empty(size, dtype) if keep else None
    block = np.empty(min(size, _INIT_BLOCK))
    over = np.empty(block.size, bool)
    bad = []
    for lo in range(0, size, _INIT_BLOCK):
        part = block[: size - lo]
        rng.standard_normal(out=part)
        part *= std
        part += 0.0  # rng.normal's loc + scale * z, down to the sign of zero
        if keep:
            out[lo : lo + part.size] = part
        hits = np.greater(np.abs(part, out=part), limit, out=over[: part.size])
        bad.append(np.flatnonzero(hits) + lo if keep else np.count_nonzero(hits))
    if not keep:
        count = int(sum(bad))
        while count:
            redraw = rng.normal(0.0, std, size=count)
            count = int(np.count_nonzero(np.abs(redraw) > limit))
        return None
    bad = np.concatenate(bad)
    while bad.size:
        redraw = rng.normal(0.0, std, size=bad.size)
        out[bad] = redraw
        bad = bad[np.abs(redraw) > limit]
    return out.reshape(shape)


def classifier_hidden_width(cfg: ModelConfig, n_patches: int) -> int:
    return max(1, round(cfg.classifier_hidden_ratio * n_patches * cfg.d_model))


def init_params(
    cfg: ModelConfig,
    patch_cfg: PatchConfig,
    meta: DatasetMeta,
    dtype=np.float32,
    proj_tokens: int | None = None,
    loss: LossConfig | None = None,
) -> ModelParams:
    """Build the encoder plus the heads one stage trains, under cfg.init_seed.

    With `loss` (pretraining): the decoder and its head when the loss
    reconstructs, the mask token for the masked target, the projection head
    when it is contrastive. Without (fine-tuning): the classifier. Every
    module is drawn from one stream in a fixed order and the unused ones are
    not stored, so a kept tensor starts the same whichever stage builds it.
    The classifier is drawn last, so pretraining does not draw it at all.

    Affine weights are truncated-normal (std 0.02), biases zero (the
    attention key projection has none), layer-norm gain 1 / bias 0, cls and
    mask tokens normal (std 0.02). `proj_tokens` overrides how many patch
    embeddings the projection head consumes (the zeroed-token form feeds it
    all N patches instead of the visible count).
    """
    n_patches = patch_cfg.n_patches(meta.T)
    n_visible = patch_cfg.n_visible(meta.T) if proj_tokens is None else proj_tokens
    in_dim = patch_cfg.L * meta.D
    dm = cfg.d_model
    hidden = classifier_hidden_width(cfg, n_patches)
    modules = {"patch_proj", "cls_token", "enc"}
    if loss is None:
        modules.add("clf")
    else:
        if loss.needs_reconstruction:
            modules |= {"dec", "dec_head"}
            if loss.reconstruct_target == "masked":
                modules.add("mask_token")
        if loss.needs_contrastive:
            modules.add("proj")
    rng = np.random.default_rng(cfg.init_seed)
    tensors: dict[str, Tensor] = {}

    def kept(name: str) -> bool:
        return name.split(".", 1)[0] in modules

    def keep(name: str, data: np.ndarray) -> None:
        if kept(name):
            tensors[name] = Tensor(data, requires_grad=True)

    def weight(name: str, n_in: int, n_out: int) -> None:
        w = _trunc_normal(rng, (n_in, n_out), 0.02, dtype, keep=kept(name))
        keep(f"{name}.w", w)

    def affine(name: str, n_in: int, n_out: int) -> None:
        weight(name, n_in, n_out)
        keep(f"{name}.b", np.zeros(n_out, dtype=dtype))

    def norm(name: str) -> None:
        keep(f"{name}.g", np.ones(dm, dtype=dtype))
        keep(f"{name}.b", np.zeros(dm, dtype=dtype))

    def block(prefix: str) -> None:
        norm(f"{prefix}.ln1")
        affine(f"{prefix}.attn.wq", dm, dm)
        weight(f"{prefix}.attn.wk", dm, dm)
        affine(f"{prefix}.attn.wv", dm, dm)
        affine(f"{prefix}.attn.wo", dm, dm)
        norm(f"{prefix}.ln2")
        affine(f"{prefix}.mlp.fc1", dm, cfg.mlp_ratio * dm)
        affine(f"{prefix}.mlp.fc2", cfg.mlp_ratio * dm, dm)

    affine("patch_proj", in_dim, dm)
    keep("cls_token", rng.normal(0.0, 0.02, size=(1, dm)).astype(dtype))
    keep("mask_token", rng.normal(0.0, 0.02, size=(1, dm)).astype(dtype))
    for i in range(cfg.n_blocks):
        block(f"enc.{i}")
    for i in range(cfg.n_blocks):
        block(f"dec.{i}")
    affine("dec_head", dm, in_dim)
    affine("proj.fc1", n_visible * dm, dm)
    affine("proj.fc2", dm, cfg.proj_dim)
    if "clf" in modules:  # the last draws: pretraining stops before them
        affine("clf.fc1", n_patches * dm, hidden)
        affine("clf.fc2", hidden, meta.num_classes)

    return build_params(tensors, cfg, patch_cfg, meta, dtype)


def param_count(
    cfg: ModelConfig,
    patch_cfg: PatchConfig,
    meta: DatasetMeta,
    proj_tokens: int | None = None,
    loss: LossConfig | None = None,
) -> int:
    """How many values `init_params` stores for the same arguments, worked
    out from the shapes alone, so a size can be refused before any draw."""
    n_patches = patch_cfg.n_patches(meta.T)
    in_dim = patch_cfg.L * meta.D
    dm, wide = cfg.d_model, cfg.mlp_ratio * cfg.d_model
    # two norms, q/k/v/o (no key bias), fc1 and fc2
    block = 4 * dm + (4 * dm + 3) * dm + (2 * dm + 1) * wide + dm
    count = (in_dim + 2) * dm + cfg.n_blocks * block  # patch_proj, cls, encoder
    if loss is None:
        hidden, classes = classifier_hidden_width(cfg, n_patches), meta.num_classes
        return count + (n_patches * dm + 1 + classes) * hidden + classes
    if loss.needs_reconstruction:
        count += cfg.n_blocks * block + (dm + 1) * in_dim
        if loss.reconstruct_target == "masked":
            count += dm
    if loss.needs_contrastive:
        if proj_tokens is None:
            proj_tokens = patch_cfg.n_visible(meta.T)
        count += (proj_tokens * dm + 1) * dm + (dm + 1) * cfg.proj_dim
    return count


def build_params(
    tensors: dict[str, Tensor],
    cfg: ModelConfig,
    patch_cfg: PatchConfig,
    meta: DatasetMeta,
    dtype=np.float32,
) -> ModelParams:
    """The one place a ModelParams is made: `tensors` (fresh from
    `init_params`, or a checkpoint's) as the model `cfg` over `patch_cfg`'s
    patches of a `meta`-shaped corpus, positional table in `dtype`."""
    n_patches = patch_cfg.n_patches(meta.T)
    return ModelParams(
        tensors=tensors,
        pos=sinusoid_table(n_patches + 1, cfg.d_model, dtype),
        cfg=cfg,
        in_dim=patch_cfg.L * meta.D,
        n_patches=n_patches,
        meta=meta,
    )


def _affine(x: Tensor, params: ModelParams, name: str) -> Tensor:
    return matmul(x, params[f"{name}.w"]) + params[f"{name}.b"]


def _attention(x: Tensor, params: ModelParams, prefix: str) -> Tensor:
    b, s, dm = x.shape
    h = params.cfg.n_heads
    hd = dm // h
    q = _affine(x, params, f"{prefix}.wq")
    k = matmul(x, params[f"{prefix}.wk.w"])
    v = _affine(x, params, f"{prefix}.wv")
    q = transpose(reshape(q, (b, s, h, hd)), (0, 2, 1, 3))
    k = transpose(reshape(k, (b, s, h, hd)), (0, 2, 1, 3))
    v = transpose(reshape(v, (b, s, h, hd)), (0, 2, 1, 3))
    scores = matmul(q, transpose(k, (0, 1, 3, 2))) * (1.0 / math.sqrt(hd))
    attn = softmax(scores, axis=-1)
    ctx = matmul(attn, v)
    ctx = reshape(transpose(ctx, (0, 2, 1, 3)), (b, s, dm))
    return _affine(ctx, params, f"{prefix}.wo")


def _transformer_block(x: Tensor, params: ModelParams, prefix: str) -> Tensor:
    h = layer_norm(x, params[f"{prefix}.ln1.g"], params[f"{prefix}.ln1.b"])
    x = x + _attention(h, params, f"{prefix}.attn")
    h = layer_norm(x, params[f"{prefix}.ln2.g"], params[f"{prefix}.ln2.b"])
    h = _affine(gelu(_affine(h, params, f"{prefix}.mlp.fc1")), params, f"{prefix}.mlp.fc2")
    return x + h


def encode(tokens, token_idx: np.ndarray, params: ModelParams) -> Tensor:
    """Map visible patches [B,V,L*D] to embeddings [B,V+1,d_model].

    token_idx carries each patch's original index (per sample); positional
    entries follow the original index with a +1 offset, row 0 being the cls
    position. Row 0 of the output is the cls embedding.
    """
    tokens = tokens if isinstance(tokens, Tensor) else Tensor(tokens)
    b, v, in_dim = tokens.shape
    if in_dim != params.in_dim:
        raise ContractError(
            f"token width {in_dim} does not match patch projection "
            f"input {params.in_dim}"
        )
    if token_idx.shape != (b, v):
        raise ContractError(
            f"token_idx shape {token_idx.shape} does not match tokens ({b}, {v})"
        )
    if token_idx.min() < 0 or token_idx.max() >= params.n_patches:
        raise ContractError(
            f"patch index out of positional-table range [0, {params.n_patches})"
        )
    x = relu(_affine(tokens, params, "patch_proj"))
    x = x + Tensor(params.pos[token_idx + 1])
    dtype = params["cls_token"].data.dtype
    cls = reshape(params["cls_token"], (1, 1, params.cfg.d_model)) + Tensor(
        np.broadcast_to(params.pos[0], (b, 1, params.cfg.d_model)).astype(dtype).copy()
    )
    x = concat([cls, x], axis=1)
    for i in range(params.cfg.n_blocks):
        x = _transformer_block(x, params, f"enc.{i}")
    return x


def project_head(z: Tensor, params: ModelParams) -> Tensor:
    """Concatenate patch embeddings, apply the 2-layer head, L2-normalize."""
    b, tokens, dm = z.shape
    v = tokens - 1
    expect = params.tensors["proj.fc1.w"].shape[0] // dm
    if v != expect:
        raise ContractError(
            f"projection head expects {expect} patch embeddings, got {v}"
        )
    flat = reshape(z[:, 1:, :], (b, v * dm))
    h = relu(_affine(flat, params, "proj.fc1"))
    h = _affine(h, params, "proj.fc2")
    return l2_normalize(h, axis=-1)


def decode(
    z: Tensor,
    token_idx: np.ndarray,
    params: ModelParams,
    masks: np.ndarray | None = None,
) -> Tensor:
    """Reconstruct patch content from embeddings.

    Default: run the decoder over the V+1 encoder tokens and apply the linear
    head to the patch tokens, yielding [B,V,L*D] aligned with token_idx.

    With `masks` given ([B,N], 1 = visible), the decoder instead rebuilds the
    full N-token sequence, filling masked positions with the learnable mask
    token plus their positional entry, and returns [B,N,L*D] (standard
    masked-autoencoder form; the caller selects the masked rows).
    """
    b, tokens, dm = z.shape
    if masks is not None:
        n = masks.shape[1]
        v = tokens - 1
        dtype = z.data.dtype
        scatter = np.zeros((b, n, v), dtype=dtype)
        scatter[np.arange(b)[:, None], token_idx, np.arange(v)] = 1.0
        placed = matmul(Tensor(scatter), z[:, 1:, :])
        hole = Tensor((1.0 - masks[:, :, None]).astype(dtype))
        fill = hole * reshape(params["mask_token"], (1, 1, dm))
        pos_fill = Tensor(
            (params.pos[1 : n + 1][None] * (1.0 - masks[:, :, None])).astype(dtype)
        )
        x = concat([z[:, 0:1, :], placed + fill + pos_fill], axis=1)
    else:
        x = z
    for i in range(params.cfg.n_blocks):
        x = _transformer_block(x, params, f"dec.{i}")
    return _affine(x[:, 1:, :], params, "dec_head")


def classify(z: Tensor, params: ModelParams) -> tuple[Tensor, Tensor]:
    """(logits, hidden) from the concatenated patch embeddings (theta=0: all
    N visible); `hidden` is the classifier's hidden layer, which embedding
    export reads."""
    b, tokens, dm = z.shape
    if tokens - 1 != params.n_patches:
        raise ContractError(
            f"classifier expects all {params.n_patches} patches visible, "
            f"got {tokens - 1}"
        )
    flat = reshape(z[:, 1:, :], (b, params.n_patches * dm))
    hidden = relu(_affine(flat, params, "clf.fc1"))
    return _affine(hidden, params, "clf.fc2"), hidden
