"""Pinned numerics: a tiny pretrain + fine-tune + evaluate must reproduce
committed digests of its loss logs, test metrics and fine-tuned parameters.

Three digests cover what a run reports: the pretraining loss log, every
fine-tuning step's loss and the test metrics. The tiny fine-tune stays at
chance (losses near ln 3, test accuracy 1/3), so those three do not see what
pretraining hands to the classifier. The fourth digest does: the sha256 of
the fine-tuned checkpoint's parameter bytes, tensor by tensor in name order
(each name, then its bytes). Any drift in the numbers breaks a digest.
Change an expected digest only with a stated reason for the numerics to
move.

The digests are exact float bits. They were recorded with numpy 2.4.6 on
its bundled OpenBLAS 0.3.31 (DYNAMIC_ARCH) on an x86_64 Xeon with AVX-512,
with 1 and 2 BLAS threads. OpenBLAS picks its kernels for the CPU it runs
on, and another kernel may sum in another order, so the same code can give
other bits on another CPU or BLAS build. A mismatch there is a reason to
re-record the digests (at the parent commit too, and stating the host), not
by itself a regression.

The pretraining-log digests of `cogent` and `contrastive_only` were
re-recorded when affine products and the contrastive similarity matrix
moved from float64 to float32 GEMMs (`tensor.matmul`): their loss values
changed in the last bits. The fine-tuning and test-metric digests did not
move in any mode. The parameter digests were recorded later, on the same
host, from code that gives the same bits for the other three.

Five digests were re-recorded when pretraining began to run the original
and augmented views through the model as one stacked batch: the
pretraining-log digests of `cogent` and `contrastive_only`, and the
parameter digest of all three cases. Every forward value kept its bits
(selfcheck "stacked views equal separate views"), but each parameter
gradient is now one reduction over both views' rows instead of the sum of
two, so the weights after each step move in the last bits. No fine-tuning
loss or test-metric digest moved.

Four digests were re-recorded when the attention key projection lost its
bias `attn.wk.b`: the pretraining-log digest of `cogent` and the parameter
digest of all three cases. Softmax cancels that bias, so the model computes
the same function and every initial value kept its bits. But Adam had
stepped the bias by normalised rounding-noise gradients to values up to
~1e-6, which moved the scores in the last bits; without it `cogent`'s
pretraining losses moved by at most 6.7e-8 relative, and the fine-tuned
checkpoints hold two tensors fewer. No fine-tuning loss or test-metric digest
moved.
"""

import hashlib
import json

import pytest

from cogent import trainer
from cogent.config import resolve_config, settings_from_config
from cogent.data import DatasetMeta, gen_synthetic

TINY = {
    "seed": "0",
    "patch.L": "8",
    "model.d_model": "16",
    "model.n_heads": "2",
    "model.mlp_ratio": "2",
    "model.proj_dim": "8",
    "train.batch_size": "4",
    "train.epochs_pretrain": "2",
    "train.epochs_finetune": "2",
}

# loss overrides -> (pretrain log, fine-tune losses, test metrics,
# fine-tuned parameters) sha256
PINNED = {
    "cogent": (
        {"loss.mode": "cogent"},
        (
            "53f5793443eeeada38b2b20a06079a0cc679893fd0699935cc8d965b9b320b2c",
            "f6d86ece04ee127be20ca7b72d0e356bbf30ab16d53a6a04e0cd4cb479c0ff7a",
            "ff94f869c4853804cf05a5c0f4418f250b4108e766c544bf688620562cef9df2",
            "867087c1f6cab48e982c482fc20e3dbe3330346d867654c6e42943bfaa3cee9a",
        ),
    ),
    "generative_only-masked": (
        {"loss.mode": "generative_only", "loss.reconstruct_target": "masked"},
        (
            "39b59a19ea8c0c31b86da4fd77c40e04a76d3c441275be0c0f3fff890aa478bd",
            "abcccca085cad27756d7c261a46128b95375ff221d80b6c22553b3a253e9ab85",
            "df2676142df20fbb968264fb9c5fe38559d27ea83f919f772d3770048d84fc11",
            "349be77a7f998f245bd6a681b32219b41e2143e5956b45e21d0dc01a664de738",
        ),
    ),
    "contrastive_only": (
        {"loss.mode": "contrastive_only"},
        (
            "6e200e13296f98808f175f1208f6fa6c9b6adc6fca959a35ed3fa64a675e44e0",
            "e1b32f19d480cc9b9e9381bfa0d0d5e21072c275c91c872479d03e4fc8f5ff11",
            "ca02997743d322eda9822587d9b4f41a4da9f8e8d925f7e5b3e5fc31d03efe88",
            "8d71ee3e0fdb3ee65ba3eb024e11f73298871504049f47607277cb57d54f163d",
        ),
    ),
}


def _sha(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _param_sha(ckpt) -> str:
    h = hashlib.sha256()
    for name in sorted(ckpt.params):
        h.update(name.encode("utf-8"))
        h.update(ckpt.params[name].tobytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    meta = DatasetMeta(T=32, D=1, num_classes=3, name="pinned")
    return gen_synthetic(
        tmp_path_factory.mktemp("pinned"), meta, per_class=12, seed=0, sigma=0.1
    )


@pytest.mark.parametrize("case", sorted(PINNED))
def test_run_matches_pinned_digests(case, corpus, monkeypatch):
    overrides, expected = PINNED[case]
    cfg = resolve_config(None, {**TINY, **overrides}, env={})
    settings = settings_from_config(cfg, corpus.meta)
    pre_ckpt, pre_log = trainer.pretrain(corpus, settings)

    losses = []
    cross_entropy = trainer.cross_entropy

    def recording(logits, labels):
        loss = cross_entropy(logits, labels)
        losses.append(loss.item())
        return loss

    monkeypatch.setattr(trainer, "cross_entropy", recording)
    tuned, _ = trainer.finetune(pre_ckpt, corpus, settings)
    monkeypatch.undo()
    metrics = trainer.evaluate(tuned, corpus.test).as_row()

    got = (_sha(pre_log), _sha(losses), _sha(metrics), _param_sha(tuned))
    assert got == expected
