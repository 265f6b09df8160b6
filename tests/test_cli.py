import json
import sys
import warnings

import numpy as np
import pytest

from cogent import selfcheck
from cogent.cli import main
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
        "flag, value", [("--per-class", "0"), ("--sigma", "-0.5")]
    )
    def test_bad_generator_setting_exits_1(self, flag, value, tmp_path, capsys):
        rc = main(["gen-synthetic", "--out", str(tmp_path / "c"), flag, value])
        assert rc == 1
        assert flag[2:].replace("-", "_") in capsys.readouterr().err
        assert not (tmp_path / "c").exists()


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
        "args, key",
        [
            (["--model.init_seed", "-1"], "init_seed"),
            (["--loss.lambda_policy", "fixed", "--loss.lambda_c", "1e308"], "lambda_c"),
            # positive, but 0 once rounded to float32
            (["--loss.tau", "1e-320"], "tau"),
            (["--train.lr_pretrain", "1e-320"], "lr_pretrain"),
            (["--train.lr_finetune", "1e-320"], "lr_finetune"),
            (["--train.adam_eps", "1e-320"], "adam_eps"),
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

    def test_truncated_checkpoint_exits_1(
        self, corpus_dir, finetune_dir, tmp_path, capsys
    ):
        bad = tmp_path / "cut.ckpt"
        bad.write_bytes((finetune_dir / "finetuned.ckpt").read_bytes()[:-100])
        rc = main(["evaluate", "--from", str(bad), "--data", str(corpus_dir)])
        assert rc == 1
        assert f"{bad}: payload is" in capsys.readouterr().err

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


class TestUnusableCorpus:
    """Corpus contents a stage cannot use end in exit 1, not exit 2."""

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
        rc = main([command, "--data", str(bad)] + args)
        assert rc == 1
        assert message.format(bad=bad) in capsys.readouterr().err


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
