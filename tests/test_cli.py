import json
import os
import sys
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from cogent import selfcheck
from cogent.checkpoint import load_checkpoint, save_checkpoint
from cogent.cli import main
from cogent.config import SCHEMA
from cogent.data import load_corpus
from cogent.tensor import Tensor

SMALL = [
    "--patch.L", "16",
    "--model.d_model", "32",
    "--model.n_heads", "4",
    "--model.mlp_ratio", "2",
    "--model.proj_dim", "16",
    "--train.epochs_pretrain", "2",
    "--train.epochs_finetune", "2",
    "--train.batch_size", "8",
]


def copy_corpus(corpus_dir, dest):
    dest.mkdir()
    for f in corpus_dir.iterdir():
        (dest / f.name).write_bytes(f.read_bytes())
    return dest


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("clicorpus")
    rc = main(
        [
            "gen-synthetic",
            "--out", str(d),
            "--T", "96",
            "--classes", "3",
            "--per-class", "20",
            "--seed", "1",
        ]
    )
    assert rc == 0
    return d


@pytest.fixture(scope="module")
def micro_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("micro")
    assert main(["gen-synthetic", "--out", str(d), "--T", "32", "--per-class", "8"]) == 0
    return d


@pytest.fixture(scope="module")
def pretrain_dir(tmp_path_factory, corpus_dir):
    out = tmp_path_factory.mktemp("run")
    rc = main(
        ["pretrain", "--data", str(corpus_dir), "--out", str(out)] + SMALL
    )
    assert rc == 0
    return out


class TestGenSynthetic:
    def test_writes_loadable_corpus(self, corpus_dir):
        corpus = load_corpus(corpus_dir)
        assert len(corpus.train) == 60
        assert corpus.meta.num_classes == 3

    @pytest.mark.parametrize(
        "flag, value",
        [("--per-class", "0")]
        + [("--sigma", v) for v in ("-0.5", "inf", "nan", "1e39", "2e38")],
    )
    def test_bad_generator_setting_exits_1(self, flag, value, tmp_path, capsys):
        rc = main(["gen-synthetic", "--out", str(tmp_path / "c"), flag, value])
        assert rc == 1
        assert flag[2:].replace("-", "_") in capsys.readouterr().err
        assert not (tmp_path / "c").exists()

    @pytest.mark.parametrize("flag", ["--per-class", "--T"])
    def test_corpus_larger_than_memory_exits_1_before_writing(
        self, flag, tmp_path, capsys
    ):
        out = tmp_path / "c"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = main(["gen-synthetic", "--out", str(out), flag, "1000000000000"])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"{flag[2:].replace('-', '_')}=1000000000000" in err, err
        assert "bytes" in err and "Traceback" not in err
        assert not out.exists()


# a micro model for a T=32 corpus: L=8 gives N=4 patches
MICRO = [
    "--patch.L", "8", "--model.d_model", "8", "--model.n_heads", "2",
    "--model.mlp_ratio", "2", "--model.proj_dim", "4",
    "--train.epochs_pretrain", "2", "--train.epochs_finetune", "2",
    "--train.batch_size", "4",
]

# in-range settings whose products overflow a micro training step
OVERFLOWING_STEPS = (
    [("pretrain", ["--loss.tau", "1e-38"])]
    + [
        ("pretrain", ["--loss.lambda_policy", "fixed", f"--loss.{key}", "1e30"])
        for key in ("lambda_c", "lambda_r")
    ]
    + [
        (command, [f"--{key}", "1e30"])
        for command, keys in (
            ("pretrain", ("train.lr_pretrain", "train.weight_decay")),
            ("pretrain", ("augment.epsilon",)),
            ("finetune", ("train.lr_finetune", "train.weight_decay")),
        )
        for key in keys
    ]
)


class TestPretrainCommand:
    def test_outputs(self, pretrain_dir):
        assert (pretrain_dir / "best.ckpt").is_file()
        assert (pretrain_dir / "loss_log.csv").is_file()
        resolved = json.loads((pretrain_dir / "resolved.json").read_text())
        assert resolved["patch.L"] == 16
        assert resolved["patch.theta"] == 0.75  # untouched default

    def test_rerun_from_resolved_bit_exact(self, corpus_dir, pretrain_dir, tmp_path):
        rc = main(
            [
                "pretrain",
                "--config", str(pretrain_dir / "resolved.json"),
                "--data", str(corpus_dir),
                "--out", str(tmp_path),
            ]
        )
        assert rc == 0
        assert (tmp_path / "best.ckpt").read_bytes() == (
            pretrain_dir / "best.ckpt"
        ).read_bytes()

    def test_unknown_override_exits_1(self, corpus_dir, tmp_path):
        rc = main(
            ["pretrain", "--data", str(corpus_dir), "--out", str(tmp_path)]
            + ["--patch.size", "4"]
        )
        assert rc == 1

    def test_plain_unknown_override_exits_1(self, corpus_dir, tmp_path, capsys):
        rc = main(
            ["pretrain", "--data", str(corpus_dir), "--out", str(tmp_path)]
            + ["--sed", "3"]
        )
        assert rc == 1
        assert "unknown config key 'sed'" in capsys.readouterr().err

    def test_seed_override_equals_environment_seed(
        self, corpus_dir, pretrain_dir, tmp_path, monkeypatch
    ):
        monkeypatch.delenv("COGENT_SEED", raising=False)
        run = ["pretrain", "--data", str(corpus_dir)] + SMALL
        assert main(run + ["--out", str(tmp_path / "flag"), "--seed", "3"]) == 0
        monkeypatch.setenv("COGENT_SEED", "3")
        assert main(run + ["--out", str(tmp_path / "env")]) == 0
        resolved = json.loads((tmp_path / "flag" / "resolved.json").read_text())
        assert resolved["seed"] == 3
        flag_bytes = (tmp_path / "flag" / "best.ckpt").read_bytes()
        assert flag_bytes == (tmp_path / "env" / "best.ckpt").read_bytes()
        assert flag_bytes != (pretrain_dir / "best.ckpt").read_bytes()

    def test_non_utf8_config_file_exits_1(self, corpus_dir, tmp_path, capsys):
        config = tmp_path / "bad.json"
        config.write_bytes(b'{"seed": "\xff"}')
        rc = main(
            ["pretrain", "--data", str(corpus_dir), "--out", str(tmp_path / "o")]
            + ["--config", str(config)]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert str(config) in err and "UTF-8" in err and "0xff" in err

    def test_constraint_violation_exits_1(self, corpus_dir, tmp_path):
        rc = main(
            ["pretrain", "--data", str(corpus_dir), "--out", str(tmp_path)]
            + SMALL
            + ["--patch.theta", "1.0"]
        )
        assert rc == 1

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--train.beta1", "1.0"),
            ("--train.beta1", "-0.5"),
            ("--train.beta2", "1.0"),
            ("--train.adam_eps", "0"),
            ("--train.lr_pretrain", "inf"),
            ("--loss.tau", "nan"),
        ],
    )
    def test_bad_optimizer_or_loss_value_exits_1(
        self, corpus_dir, tmp_path, capsys, flag, value
    ):
        rc = main(
            ["pretrain", "--data", str(corpus_dir), "--out", str(tmp_path)]
            + SMALL
            + [flag, value]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid configuration")
        assert flag.split(".")[1] in err
        assert not (tmp_path / "best.ckpt").exists()

    @pytest.mark.parametrize(
        "key, message",
        [
            ("lambda_policy", "unknown lambda policy 'x'; use ('auto', 'fixed')"),
            (
                "reconstruct_target",
                "unknown reconstruction target 'x'; use ('visible', 'masked')",
            ),
            ("recon_views", "unknown recon_views 'x'; use ('both', 'orig')"),
        ],
    )
    def test_unknown_loss_choice_exits_1(
        self, micro_dir, tmp_path, capsys, key, message
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = main(
                ["pretrain", "--data", str(micro_dir), "--out", str(tmp_path)]
                + MICRO
                + [f"--loss.{key}", "x"]
            )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid configuration") and message in err
        assert "Traceback" not in err
        assert not (tmp_path / "best.ckpt").exists()

    def test_batch_larger_than_the_pretraining_split_exits_1(
        self, micro_dir, tmp_path, capsys
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = main(
                ["pretrain", "--data", str(micro_dir), "--out", str(tmp_path)]
                + MICRO
                + ["--train.batch_size", "1000"]
            )
        assert rc == 1
        err = capsys.readouterr().err
        assert "no pretraining batches: batch_size exceeds the pretrain split" in err
        assert "Traceback" not in err
        assert not (tmp_path / "best.ckpt").exists()


    @pytest.mark.parametrize(
        "args, key",
        [
            (["--model.init_seed", "-1"], "init_seed"),
            (["--loss.lambda_policy", "fixed", "--loss.lambda_c", "1e308"], "lambda_c"),
            # positive, but 0 once rounded to float32
            (["--loss.tau", "1e-320"], "tau"),
            (["--train.lr_pretrain", "1e-320"], "lr_pretrain"),
            (["--train.lr_finetune", "1e-320"], "lr_finetune"),
            (["--train.adam_eps", "1e-320"], "adam_eps"),
            # beyond the float32 range below 0: refused without a cast warning
            (["--train.lr_pretrain", "-1e308"], "lr_pretrain"),
            (["--train.lr_finetune", "-1e308"], "lr_finetune"),
            (["--train.adam_eps", "-1e308"], "adam_eps"),
        ],
    )
    def test_value_outside_the_model_range_exits_1(
        self, corpus_dir, tmp_path, capsys, args, key
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = main(
                ["pretrain", "--data", str(corpus_dir), "--out", str(tmp_path)]
                + SMALL
                + args
            )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid configuration") and key in err
        assert "Traceback" not in err
        assert not (tmp_path / "best.ckpt").exists()

    @pytest.mark.parametrize(
        "key", ["model.d_model", "model.mlp_ratio", "model.proj_dim", "model.n_blocks"]
    )
    def test_model_larger_than_memory_exits_1_before_writing(
        self, micro_dir, tmp_path, capsys, key
    ):
        # refused from the parameter count, before a draw or a run directory
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = main(
                ["pretrain", "--data", str(micro_dir), "--out", str(out)]
                + MICRO
                + [f"--{key}", "3000000000"]
            )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: training a model of ") and "bytes" in err
        assert f"{key}=3000000000" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value",
        [
            (key, value)
            for key, (kind, _) in SCHEMA.items()
            if kind == "float"
            for value in ("1e39", "1e308")
        ]
        # 1/tau would overflow float32
        + [("loss.tau", "1e-39")],
    )
    def test_float_outside_the_float32_range_exits_1(
        self, corpus_dir, tmp_path, capsys, key, value
    ):
        # every float key, from the schema, so a key added later is covered
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = main(
                ["pretrain", "--data", str(corpus_dir), "--out", str(tmp_path)]
                + SMALL
                + [f"--{key}", value]
            )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid configuration")
        assert key.split(".")[1] in err and "Traceback" not in err
        assert not (tmp_path / "best.ckpt").exists()

    @pytest.mark.parametrize(
        "command, args",
        OVERFLOWING_STEPS,
        ids=[f"{command}-{args[-2][2:]}" for command, args in OVERFLOWING_STEPS],
    )
    def test_step_that_leaves_the_float_range_exits_1(
        self, micro_dir, tmp_path, capsys, command, args
    ):
        # in-range settings whose product overflows a training step: a user
        # error naming the stage, the epoch and the settings, not a crash
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = main([command, "--data", str(micro_dir), "--out", str(out)]
                      + MICRO + args)
        assert rc == 1
        err = capsys.readouterr().err
        stage = {"pretrain": "pretraining", "finetune": "fine-tuning"}[command]
        assert err.startswith(f"error: {stage} turned non-finite at epoch ")
        assert f"{args[-2][2:]}={float(args[-1])!r}" in err
        assert "Traceback" not in err
        assert not list(out.glob("*.ckpt"))

    @pytest.mark.parametrize("theta", ["0", "0.1"])  # round(0.1 * 4) = 0
    def test_masked_target_with_no_hidden_patch_exits_1(
        self, micro_dir, tmp_path, capsys, theta
    ):
        # the masked target scores only hidden patches, so masks hiding none
        # leave it nothing to average
        out = tmp_path / "out"
        args = ["--patch.theta", theta, "--loss.reconstruct_target", "masked"]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = main(["pretrain", "--data", str(micro_dir), "--out", str(out)]
                      + MICRO + args)
        assert rc == 1
        err = capsys.readouterr().err
        assert f"patch.theta {float(theta)}" in err and "N=4" in err
        assert "loss.reconstruct_target" in err and "Traceback" not in err
        assert not list(out.glob("*.ckpt"))

    @pytest.mark.parametrize(
        "content, message",
        [
            ('{"loss": {"tau": 1%s}}' % ("0" * 400), "loss.tau: expected a finite float"),
            ('{"seed": %s}' % ("1" * 5000), "invalid JSON"),
        ],
        ids=["float-range", "int-digit-limit"],
    )
    def test_huge_integer_in_config_file_exits_1(
        self, corpus_dir, tmp_path, capsys, content, message
    ):
        config = tmp_path / "big.json"
        config.write_text(content)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = main(
                ["pretrain", "--data", str(corpus_dir), "--out", str(tmp_path / "o")]
                + ["--config", str(config)]
            )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err and "0" * 20 not in err
        assert not (tmp_path / "o" / "best.ckpt").exists()

    @pytest.mark.parametrize(
        "name, content",
        [
            ("train.csv", b"0,1.0\xe9\n"),
            ("meta.json", b'{"T": 96,'),
            ("meta.json", b'{"T": "x", "D": 1, "num_classes": 3}'),
        ],
    )
    def test_malformed_corpus_exits_1(
        self, corpus_dir, tmp_path, capsys, name, content
    ):
        bad = copy_corpus(corpus_dir, tmp_path / "badcorpus")
        (bad / name).write_bytes(content)
        rc = main(["pretrain", "--data", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert f"error: {bad / name}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "cell, value, message",
        [
            (0, "1.5", "label column is not an integer: '1.5'"),
            (5, "0x1p3", "bad float value (could not convert string to float"),
            (5, "inf", "non-finite value in row"),
            (5, "nan", "non-finite value in row"),
        ],
        ids=["label-not-integer", "bad-float", "inf", "nan"],
    )
    def test_malformed_row_exits_1_naming_its_line(
        self, micro_dir, tmp_path, capsys, cell, value, message
    ):
        bad = copy_corpus(micro_dir, tmp_path / "badcorpus")
        rows = (bad / "train.csv").read_text().splitlines(keepends=True)
        cells = rows[2].rstrip("\n").split(",")
        cells[cell] = value
        rows[2] = ",".join(cells) + "\n"
        (bad / "train.csv").write_text("".join(rows))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = main(["pretrain", "--data", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad / 'train.csv'}:3: {message}")
        assert "Traceback" not in err


@pytest.fixture(scope="module")
def finetune_dir(tmp_path_factory, corpus_dir, pretrain_dir):
    out = tmp_path_factory.mktemp("ft")
    rc = main(
        [
            "finetune",
            "--data", str(corpus_dir),
            "--out", str(out),
            "--from", str(pretrain_dir / "best.ckpt"),
            "--label-ratio", "0.3",
        ]
        + SMALL
    )
    assert rc == 0
    return out


class TestFinetuneEvaluateExport:
    def test_finetune_outputs(self, finetune_dir):
        assert (finetune_dir / "finetuned.ckpt").is_file()
        lines = (finetune_dir / "metrics_val.csv").read_text().splitlines()
        assert lines[0] == "mode,pretrained,accuracy,precision,recall,f1,auroc,auprc"
        assert lines[1].split(",")[1] == "true"

    def test_scratch_finetune_runs(self, corpus_dir, tmp_path):
        rc = main(
            ["finetune", "--data", str(corpus_dir), "--out", str(tmp_path)] + SMALL
        )
        assert rc == 0

    def test_evaluate_writes_csv(self, corpus_dir, finetune_dir, tmp_path, capsys):
        rc = main(
            [
                "evaluate",
                "--from", str(finetune_dir / "finetuned.ckpt"),
                "--data", str(corpus_dir),
                "--split", "test",
                "--out", str(tmp_path),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "f1=" in out
        assert (tmp_path / "metrics_test.csv").is_file()

    def test_export_embeddings(self, corpus_dir, finetune_dir, tmp_path):
        rc = main(
            [
                "export-embeddings",
                "--from", str(finetune_dir / "finetuned.ckpt"),
                "--data", str(corpus_dir),
                "--out", str(tmp_path),
            ]
        )
        assert rc == 0
        header = (tmp_path / "embeddings.csv").read_text().splitlines()[0]
        assert header.startswith("label,dim0")
        float((tmp_path / "silhouette.txt").read_text())  # parses

    def test_missing_checkpoint_exits_1(self, corpus_dir, tmp_path):
        rc = main(
            [
                "evaluate",
                "--from", str(tmp_path / "nope.ckpt"),
                "--data", str(corpus_dir),
            ]
        )
        assert rc in (1, 2)

    @pytest.mark.parametrize("command", ["evaluate", "export-embeddings"])
    def test_pretraining_checkpoint_exits_1(
        self, command, corpus_dir, pretrain_dir, tmp_path, capsys
    ):
        rc = main(
            [
                command,
                "--from", str(pretrain_dir / "best.ckpt"),
                "--data", str(corpus_dir),
                "--out", str(tmp_path),
            ]
        )
        assert rc == 1
        assert "no trained classifier" in capsys.readouterr().err

    def test_finetune_from_finetuned_exits_1(
        self, corpus_dir, finetune_dir, tmp_path, capsys
    ):
        rc = main(
            [
                "finetune",
                "--data", str(corpus_dir),
                "--out", str(tmp_path),
                "--from", str(finetune_dir / "finetuned.ckpt"),
            ]
            + SMALL
        )
        assert rc == 1
        assert "already fine-tuned" in capsys.readouterr().err

    def test_checkpoint_lacking_encoder_tensors_exits_1(
        self, corpus_dir, pretrain_dir, tmp_path, capsys
    ):
        ckpt = load_checkpoint(pretrain_dir / "best.ckpt")
        del ckpt.params["enc.0.attn.wq.w"]
        save_checkpoint(ckpt, tmp_path / "partial.ckpt")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = main(
                [
                    "finetune",
                    "--data", str(corpus_dir),
                    "--out", str(tmp_path / "out"),
                    "--from", str(tmp_path / "partial.ckpt"),
                ]
                + SMALL
            )
        assert rc == 1
        err = capsys.readouterr().err
        assert "checkpoint lacks encoder tensors: enc.0.attn.wq.w" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out" / "finetuned.ckpt").exists()

    def test_checkpoints_with_a_key_bias_still_work(
        self, corpus_dir, pretrain_dir, finetune_dir, tmp_path
    ):
        # checkpoints written while attention had a key bias `attn.wk.b`
        # carry it; softmax cancels it, so every stage ignores it
        rng = np.random.default_rng(0)

        def with_key_bias(path):
            ckpt = load_checkpoint(path)
            for i in range(2):  # the default n_blocks
                shape = ckpt.params[f"enc.{i}.attn.wq.b"].shape
                ckpt.params[f"enc.{i}.attn.wk.b"] = rng.normal(size=shape).astype(
                    np.float32
                )
            old = tmp_path / f"old-{path.name}"
            save_checkpoint(ckpt, old)
            return old

        old_pre = with_key_bias(pretrain_dir / "best.ckpt")
        old_tuned = with_key_bias(finetune_dir / "finetuned.ckpt")
        rc = main(
            [
                "finetune",
                "--data", str(corpus_dir),
                "--out", str(tmp_path / "ft"),
                "--from", str(old_pre),
                "--label-ratio", "0.3",
            ]
            + SMALL
        )
        assert rc == 0
        tuned = load_checkpoint(tmp_path / "ft" / "finetuned.ckpt").params
        expect = load_checkpoint(finetune_dir / "finetuned.ckpt").params
        assert tuned.keys() == expect.keys()  # no wk.b
        for name in expect:
            np.testing.assert_array_equal(tuned[name], expect[name])
        outputs = []
        for ckpt in (finetune_dir / "finetuned.ckpt", old_tuned):
            out = tmp_path / ckpt.stem
            for command in ("evaluate", "export-embeddings"):
                args = [command, "--from", str(ckpt), "--data", str(corpus_dir)]
                assert main(args + ["--split", "test", "--out", str(out)]) == 0
            outputs.append(
                [(out / f).read_text() for f in ("metrics_test.csv", "embeddings.csv")]
            )
        assert outputs[0] == outputs[1]

    def test_truncated_checkpoint_exits_1(
        self, corpus_dir, finetune_dir, tmp_path, capsys
    ):
        bad = tmp_path / "cut.ckpt"
        bad.write_bytes((finetune_dir / "finetuned.ckpt").read_bytes()[:-100])
        rc = main(["evaluate", "--from", str(bad), "--data", str(corpus_dir)])
        assert rc == 1
        assert f"{bad}: payload is" in capsys.readouterr().err

    def test_checkpoint_cut_while_read_exits_1(
        self, corpus_dir, finetune_dir, tmp_path, capsys, monkeypatch
    ):
        # 4 payload bytes go after the loader took the file's size
        raw = (finetune_dir / "finetuned.ckpt").read_bytes()
        bad = tmp_path / "shrunk.ckpt"
        bad.write_bytes(raw[:-4])
        real_fstat, inode = os.fstat, bad.stat().st_ino

        def fstat(fd):
            st = real_fstat(fd)
            return SimpleNamespace(st_size=len(raw)) if st.st_ino == inode else st

        monkeypatch.setattr(os, "fstat", fstat)
        rc = main(["evaluate", "--from", str(bad), "--data", str(corpus_dir)])
        assert rc == 1
        assert f"{bad}: payload changed while it was read" in capsys.readouterr().err

    def test_corpus_shape_mismatch_exits_1(self, finetune_dir, tmp_path, capsys):
        other = tmp_path / "othercorpus"
        rc = main(
            [
                "gen-synthetic", "--out", str(other),
                "--T", "64", "--classes", "2", "--per-class", "4",
            ]
        )
        assert rc == 0
        rc = main(
            [
                "evaluate",
                "--from", str(finetune_dir / "finetuned.ckpt"),
                "--data", str(other),
            ]
        )
        assert rc == 1
        assert "does not match the checkpoint" in capsys.readouterr().err


def huge_even_rows(value: str):
    """A row edit: even rows alternate +-value, finite in float32. 3e38
    overflows the normalization, 1e30 the forward pass (layer norm squares
    it)."""

    def edit(rows):
        out = []
        for i, row in enumerate(rows):
            if i % 2 == 0:
                label, *values = row.rstrip("\n").split(",")
                signs = ("" if k % 2 == 0 else "-" for k in range(len(values)))
                row = ",".join([label, *(s + value for s in signs)]) + "\n"
            out.append(row)
        return out

    return edit


class TestUnusableCorpus:
    """Corpus contents a stage cannot use end in exit 1, not exit 2; the
    suite turns any RuntimeWarning on the way into an error."""

    @pytest.mark.parametrize(
        "command, name, keep, message",
        [
            pytest.param(
                "evaluate", "test.csv", lambda rows: [],
                "the test split ({bad}/test.csv) is empty",
                id="evaluate-empty-test",
            ),
            pytest.param(
                "export-embeddings", "test.csv", lambda rows: [],
                "the test split ({bad}/test.csv) is empty",
                id="export-empty-test",
            ),
            *(
                pytest.param(
                    command, "test.csv", huge_even_rows(value), message,
                    id=f"{command}-test-near-{value}",
                )
                for command in ("evaluate", "export-embeddings")
                for value, message in (
                    ("3e38", "the split turned non-finite under the checkpoint's"),
                    ("1e30", "the forward pass turned non-finite at batch 0"),
                )
            ),
            pytest.param(
                "finetune",
                "train.csv",
                lambda rows: [r for r in rows if not r.startswith("2,")],
                "class 2 is absent from the train split",
                id="finetune-train-lacks-class",
            ),
            pytest.param(
                "finetune", "val.csv", lambda rows: [], "val split is empty",
                id="finetune-empty-val",
            ),
            pytest.param(
                "finetune", "val.csv", huge_even_rows("3e38"),
                "fine-tuning turned non-finite while normalizing the val split",
                id="finetune-val-near-3e38",
            ),
            pytest.param(
                "pretrain", "train.csv", lambda rows: rows[:1],
                "train split has 1 row", id="pretrain-one-train-row",
            ),
        ],
    )
    def test_exits_1(
        self, command, name, keep, message, corpus_dir, finetune_dir, tmp_path, capsys
    ):
        bad = copy_corpus(corpus_dir, tmp_path / "badcorpus")
        rows = (bad / name).read_text().splitlines(keepends=True)
        (bad / name).write_text("".join(keep(rows)))
        out = str(tmp_path / "out")
        ckpt = str(finetune_dir / "finetuned.ckpt")
        args = {
            "evaluate": ["--from", ckpt],
            "export-embeddings": ["--from", ckpt, "--out", out],
            "finetune": ["--out", out] + SMALL,
            "pretrain": ["--out", out] + SMALL,
        }[command]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = main([command, "--data", str(bad)] + args)
        assert rc == 1
        err = capsys.readouterr().err
        assert message.format(bad=bad) in err and "Traceback" not in err


class TestAblateCommand:
    def test_three_row_table(self, corpus_dir, tmp_path):
        rc = main(
            ["ablate", "--data", str(corpus_dir), "--out", str(tmp_path)] + SMALL
        )
        assert rc == 0
        lines = (tmp_path / "ablation.csv").read_text().splitlines()
        assert lines[0] == "mode,pretrained,accuracy,precision,recall,f1,auroc,auprc"
        assert len(lines) == 4
        modes = [line.split(",")[0] for line in lines[1:]]
        assert modes == [
            "recon_orig",
            "recon_orig+recon_aug",
            "recon_orig+recon_aug+contrastive",
        ]


class TestDispatch:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_no_args_prints_usage(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().err

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

    def test_selfcheck_fast(self, capsys):
        assert main(["selfcheck", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out and "[FAIL]" not in out

    @pytest.mark.parametrize(
        "target, wrong, check",
        [
            (
                "contrastive_loss",
                lambda h, h_aug, tau, symmetric=False: Tensor(np.float32(0.5)),
                "nt-xent closed forms and brute force",
            ),
            (
                "auroc_binary",
                lambda is_pos, scores: 0.25,
                "metric oracles (f1/auroc/auprc)",
            ),
        ],
        ids=["contrastive_loss", "auroc_binary"],
    )
    def test_selfcheck_reports_a_wrong_library(
        self, target, wrong, check, monkeypatch, capsys
    ):
        # a wrong library: the function is wrong where it is defined and in
        # every module that imported it
        right = getattr(selfcheck, target)
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] != "cogent":
                continue
            if getattr(module, target, None) is right:
                monkeypatch.setattr(module, target, wrong)
        assert main(["selfcheck", "--fast"]) == 2
        failed = [
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("[FAIL]")
        ]
        assert len(failed) == 1 and failed[0].startswith(f"[FAIL] {check}")
