"""Self-supervised pretraining toolkit for multivariate time-series
classification: joint contrastive + masked-reconstruction pretraining over a
shared transformer encoder, the single-objective baselines, fine-tuning, and
a full evaluation suite."""

from .augment import AugmentConfig, jitter, time_mask
from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .config import RunSettings, TrainConfig, resolve_config, settings_from_config
from .data import (
    Corpus,
    DatasetMeta,
    Samples,
    SplitPlan,
    gen_synthetic,
    load_corpus,
    make_batches,
    normalize,
    sample_finetune_subset,
    split_pretrain,
)
from .errors import CogentError, ConfigError, ContractError, ParseError
from .losses import (
    LossConfig,
    LossReport,
    balance_lambdas,
    contrastive_loss,
    joint_loss,
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
)
from .optim import AdamConfig, AdamState, adam_step
from .patchmask import PatchConfig, sample_mask
from .tensor import Tensor, finite_diff_check, gelu, layer_norm, matmul, softmax
from .trainer import evaluate, export_embeddings, finetune, pretrain, run_ablation

__version__ = "0.1.0"
