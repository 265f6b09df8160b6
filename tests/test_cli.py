import json

import pytest

from cogent.cli import main
from cogent.data import load_corpus

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

    def test_constraint_violation_exits_1(self, corpus_dir, tmp_path):
        rc = main(
            ["pretrain", "--data", str(corpus_dir), "--out", str(tmp_path)]
            + SMALL
            + ["--patch.theta", "1.0"]
        )
        assert rc == 1


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
        bad = tmp_path / "badcorpus"
        bad.mkdir()
        for f in corpus_dir.iterdir():
            (bad / f.name).write_bytes(f.read_bytes())
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
