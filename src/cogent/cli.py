"""Command-line entry point.

Subcommands: gen-synthetic, pretrain, finetune, evaluate, export-embeddings,
ablate, selfcheck. Configuration comes from an optional JSON file plus
dotted-path overrides (`--patch.theta 0.5`); every run directory receives
the fully resolved configuration as resolved.json.

Exit codes: 0 success, 1 user/configuration error, 2 internal failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import selfcheck as selfcheck_mod
from .checkpoint import load_checkpoint
from .config import (
    read_run_config,
    resolve_config,
    settings_from_config,
    write_resolved,
)
from .data import DatasetMeta, gen_synthetic, load_corpus
from .errors import CogentError, ConfigError, ParseError
from .trainer import (
    evaluate,
    export_embeddings,
    finetune,
    pretrain,
    run_ablation,
    write_metrics_csv,
)

USAGE = """\
usage: cogent <subcommand> [options] [--<config.key> <value> ...]

subcommands:
  gen-synthetic      write a synthetic corpus (--out, --T, --D, --classes,
                     --per-class, --sigma, --seed, --name)
  pretrain           self-supervised pretraining (--config, --data, --out)
  finetune           supervised fine-tuning (--config, --data, --out,
                     [--from ckpt], [--label-ratio r])
  evaluate           metrics of a checkpoint on a split (--from, --data,
                     [--split test], [--out dir])
  export-embeddings  classifier hidden activations + silhouette (--from,
                     --data, [--split test], --out dir)
  ablate             three-loss-configuration study (--config, --data, --out)
  selfcheck          run the built-in oracle suite ([--fast])
"""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _split_overrides(rest: list[str]) -> dict[str, str]:
    """Interpret leftover `--key value` pairs as config overrides; the
    config layer reports keys it does not know."""
    overrides = {}
    i = 0
    while i < len(rest):
        flag = rest[i]
        if not flag.startswith("--"):
            raise ConfigError(f"unknown argument {flag!r}")
        if i + 1 >= len(rest):
            raise ConfigError(f"override {flag!r} is missing a value")
        overrides[flag[2:]] = rest[i + 1]
        i += 2
    return overrides


def _common(parser: _Parser):
    parser.add_argument("--config", default=None)
    parser.add_argument("--data", required=True)
    parser.add_argument("--out", required=True)


def _load_settings(args, overrides):
    cfg = resolve_config(args.config, overrides)
    corpus = load_corpus(args.data)
    settings = settings_from_config(cfg, corpus.meta)
    return cfg, corpus, settings


def _ckpt_and_split(command: str, argv: list[str], need_out: bool):
    """(args, checkpoint, its settings, the split's samples) of `evaluate` or
    `export-embeddings`, once the corpus has the checkpoint's shape."""
    parser = _Parser(prog=f"cogent {command}")
    parser.add_argument("--from", dest="from_ckpt", required=True)
    parser.add_argument("--data", required=True)
    parser.add_argument("--split", default="test", choices=("train", "val", "test"))
    parser.add_argument("--out", required=need_out, default=None)
    args = parser.parse_args(argv)
    corpus = load_corpus(args.data)
    ckpt = load_checkpoint(args.from_ckpt)
    settings, stored = read_run_config(ckpt.config)
    meta = corpus.meta
    if (stored.T, stored.D, stored.num_classes) != (meta.T, meta.D, meta.num_classes):
        raise ConfigError(
            f"corpus shape (T={meta.T}, D={meta.D}, classes={meta.num_classes}) "
            f"does not match the checkpoint (T={stored.T}, D={stored.D}, "
            f"classes={stored.num_classes})"
        )
    samples = getattr(corpus, args.split)
    if not samples:
        path = Path(args.data) / f"{args.split}.csv"
        raise ConfigError(f"the {args.split} split ({path}) is empty")
    return args, ckpt, settings, samples


def _cmd_gen_synthetic(argv: list[str]) -> int:
    parser = _Parser(prog="cogent gen-synthetic")
    parser.add_argument("--out", required=True)
    parser.add_argument("--T", type=int, default=96)
    parser.add_argument("--D", type=int, default=1)
    parser.add_argument("--classes", type=int, default=3)
    parser.add_argument("--per-class", type=int, default=100)
    parser.add_argument("--sigma", type=float, default=0.1)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--name", default="synthetic")
    args = parser.parse_args(argv)
    meta = DatasetMeta(
        T=args.T,
        D=args.D,
        num_classes=args.classes,
        name=args.name,
        sampling_note="synthetic sinusoid corpus",
    )
    corpus = gen_synthetic(
        args.out, meta, per_class=args.per_class, seed=args.seed, sigma=args.sigma
    )
    print(
        f"wrote corpus to {args.out}: {len(corpus.train)} train / "
        f"{len(corpus.val)} val / {len(corpus.test)} test samples"
    )
    return 0


def _cmd_pretrain(argv: list[str]) -> int:
    parser = _Parser(prog="cogent pretrain")
    _common(parser)
    args, rest = parser.parse_known_args(argv)
    cfg, corpus, settings = _load_settings(args, _split_overrides(rest))
    write_resolved(cfg, args.out)
    ckpt, log = pretrain(corpus, settings, out_dir=args.out)
    print(
        f"pretrained {settings.train.epochs_pretrain} epochs "
        f"(mode={settings.loss.mode}); best sanity loss at epoch {ckpt.epoch}; "
        f"checkpoint: {Path(args.out) / 'best.ckpt'}"
    )
    print(f"final epoch total loss: {log[-1]['total']:.6f}")
    return 0


def _cmd_finetune(argv: list[str]) -> int:
    parser = _Parser(prog="cogent finetune")
    _common(parser)
    parser.add_argument("--from", dest="from_ckpt", default=None)
    parser.add_argument("--label-ratio", dest="label_ratio", default=None)
    args, rest = parser.parse_known_args(argv)
    overrides = _split_overrides(rest)
    if args.label_ratio is not None:
        overrides["split.finetune_label_ratio"] = args.label_ratio
    cfg, corpus, settings = _load_settings(args, overrides)
    write_resolved(cfg, args.out)
    ckpt = None
    if args.from_ckpt is not None:
        ckpt = load_checkpoint(args.from_ckpt)
    tuned, report = finetune(ckpt, corpus, settings, out_dir=args.out)
    print(
        f"fine-tuned (pretrained={ckpt is not None}); "
        f"best validation F1 {report.f1:.4f} at epoch {tuned.epoch}; "
        f"checkpoint: {Path(args.out) / 'finetuned.ckpt'}"
    )
    return 0


def _cmd_evaluate(argv: list[str]) -> int:
    args, ckpt, settings, samples = _ckpt_and_split("evaluate", argv, need_out=False)
    report = evaluate(ckpt, samples)
    row = report.as_row()
    print(",".join(f"{k}={row[k]:.4f}" for k in row))
    if args.out is not None:
        Path(args.out).mkdir(parents=True, exist_ok=True)
        write_metrics_csv(
            Path(args.out) / f"metrics_{args.split}.csv",
            [(settings.loss.mode, True, report)],
        )
    return 0


def _cmd_export_embeddings(argv: list[str]) -> int:
    args, ckpt, _, samples = _ckpt_and_split("export-embeddings", argv, need_out=True)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _, _, score = export_embeddings(
        ckpt,
        samples,
        out_csv=out / "embeddings.csv",
        out_silhouette=out / "silhouette.txt",
    )
    print(f"silhouette score: {score:.4f}; embeddings: {out / 'embeddings.csv'}")
    return 0


def _cmd_ablate(argv: list[str]) -> int:
    parser = _Parser(prog="cogent ablate")
    _common(parser)
    args, rest = parser.parse_known_args(argv)
    cfg, corpus, settings = _load_settings(args, _split_overrides(rest))
    out = Path(args.out)
    write_resolved(cfg, out)
    rows = run_ablation(corpus, settings, out_csv=out / "ablation.csv")
    for label, report in rows:
        print(f"{label}: f1={report.f1:.4f} accuracy={report.accuracy:.4f}")
    print(f"table: {out / 'ablation.csv'}")
    return 0


def _cmd_selfcheck(argv: list[str]) -> int:
    parser = _Parser(prog="cogent selfcheck")
    parser.add_argument("--fast", action="store_true")
    args = parser.parse_args(argv)
    results = selfcheck_mod.run_selfcheck(fast=args.fast)
    failed = 0
    for r in results:
        status = "PASS" if r.ok else "FAIL"
        suffix = f": {r.detail}" if r.detail else ""
        print(f"[{status}] {r.name}{suffix}")
        failed += 0 if r.ok else 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 2


_COMMANDS = {
    "gen-synthetic": _cmd_gen_synthetic,
    "pretrain": _cmd_pretrain,
    "finetune": _cmd_finetune,
    "evaluate": _cmd_evaluate,
    "export-embeddings": _cmd_export_embeddings,
    "ablate": _cmd_ablate,
    "selfcheck": _cmd_selfcheck,
}


def main(argv: list[str]) -> int:
    if not argv or argv[0] in ("-h", "--help", "help"):
        print(USAGE, file=sys.stderr)
        return 0 if argv and argv[0] in ("-h", "--help", "help") else 1
    command = argv[0]
    handler = _COMMANDS.get(command)
    if handler is None:
        print(f"unknown subcommand {command!r}\n{USAGE}", file=sys.stderr)
        return 1
    try:
        return handler(argv[1:])
    except (ConfigError, ParseError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except CogentError as e:  # ContractError: a broken internal precondition
        print(f"internal error: {e}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    console_main()
