"""Command-line interface.

Each subcommand accepts exactly the flags it reads:

    train        --config --seed --out
    eval         --checkpoint --split --mode --seed
    check-ctc    --instances --seed
    grad-check   --seed
    bound-check  --instances --seed --out
    dump         --checkpoint --example-id --what --seed --out
    gen-data     --config --seed --out

``--seed`` overrides the run config's seed; a suite draws its instances
from it, 0 by default.  Exit codes: 0 success; 1 suite or run failure, or
a checkpoint whose run header describes another model than its model
header; 2 configuration error, a key that the run's task never reads
included (also in a checkpoint's run header).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict
from pathlib import Path

from .config import RunConfig, config_from_mapping, load_config
from .diagnostics import dump_alignment, dump_attention
from .errors import CheckpointFormatError, ConfigError, ContractError, TrainingAbort
from .harness import (
    OUT_ROOT_ENV,
    bound_check_suite,
    check_ctc_suite,
    evaluate,
    generate_dataset,
    grad_check_suite,
    train_run,
)
from .models import count_params, load_checkpoint
from .tasks import export_dataset, split_examples


def _nonnegative_int(text: str) -> int:
    if not text.isdigit():
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return int(text)


# --seed of train, eval, dump and gen-data, and of the three suites
SEED_OVERRIDE = {"type": _nonnegative_int, "help": "override the run config's seed"}
SUITE_SEED = {"type": _nonnegative_int, "default": 0, "help": "seed of the random instances"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oracle-distill",
        description="Oracle-guided self-distillation for sequence models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        return p

    p_train = command("train", cmd_train, "train a model and emit metrics/checkpoints")
    p_train.add_argument("--config", type=Path, help="run configuration file")
    p_train.add_argument("--seed", **SEED_OVERRIDE)
    p_train.add_argument("--out", type=Path, help="output directory")

    p_eval = command("eval", cmd_eval, "evaluate a checkpoint")
    p_eval.add_argument("--checkpoint", type=Path, required=True)
    p_eval.add_argument("--split", choices=("train", "dev", "test"), default="test")
    p_eval.add_argument("--mode", choices=("student", "teacher"), default="student")
    p_eval.add_argument("--seed", **SEED_OVERRIDE)

    p_check = command("check-ctc", cmd_check_ctc, "loss/posterior vs exhaustive enumeration")
    p_check.add_argument("--instances", type=int, default=100)
    p_check.add_argument("--seed", **SUITE_SEED)

    p_grad = command("grad-check", cmd_grad_check, "gradients vs central finite differences")
    p_grad.add_argument("--seed", **SUITE_SEED)

    p_bound = command("bound-check", cmd_bound_check, "likelihood lower-bound verification")
    p_bound.add_argument("--instances", type=int, default=200)
    p_bound.add_argument("--seed", **SUITE_SEED)
    p_bound.add_argument("--out", type=Path, help="output directory")

    p_dump = command("dump", cmd_dump, "posterior or attention CSV for one example")
    p_dump.add_argument("--checkpoint", type=Path, required=True)
    p_dump.add_argument("--example-id", type=int, required=True)
    p_dump.add_argument("--what", choices=("alignment", "attention"), required=True)
    p_dump.add_argument("--seed", **SEED_OVERRIDE)
    p_dump.add_argument("--out", type=Path, help="output directory")

    p_gen = command("gen-data", cmd_gen_data, "export the synthetic dataset as text")
    p_gen.add_argument("--config", type=Path, help="run configuration file")
    p_gen.add_argument("--seed", **SEED_OVERRIDE)
    p_gen.add_argument("--out", type=Path, help="output directory")

    return parser


def _run_config(cfg: RunConfig, seed: int | None) -> RunConfig:
    """``cfg`` with the command line's seed, if one was given, resolved."""
    if seed is not None:
        cfg.seed = seed
    return cfg.resolved()


def _checkpoint_run_config(model, run_kv: dict, seed: int | None) -> RunConfig:
    """A checkpoint's run header as ``_run_config`` resolves it, once it is
    known to describe the checkpoint's model: the data it builds is what
    that model reads."""
    cfg = _run_config(config_from_mapping(run_kv), seed)
    built, saved = asdict(cfg.model_config()), asdict(model.cfg)
    for name, value in built.items():
        if value != saved[name]:
            raise CheckpointFormatError(
                f"the checkpoint's run header gives {name} = {value!r}, its model header {saved[name]!r}"
            )
    return cfg


def _out_dir(args, cfg: RunConfig | None, default_name: str) -> Path:
    if args.out is not None:
        return Path(args.out)
    if cfg is not None and cfg.out_dir:
        return Path(cfg.out_dir)
    root = os.environ.get(OUT_ROOT_ENV, ".")
    return Path(root) / default_name


def _print_report(report, *notes: str) -> int:
    for line in (*report.lines(), *notes):
        print(line)
    return 0 if report.passed else 1


def cmd_train(args) -> int:
    cfg = _run_config(load_config(args.config) if args.config else RunConfig(), args.seed)
    out = _out_dir(args, cfg, f"run-{cfg.task}-seed{cfg.seed}")
    result = train_run(cfg, out, quiet=False)
    model = result.model
    counts = count_params(model)
    print(f"run directory: {result.out_dir}")
    print(
        f"parameters: student {counts['student']}, auxiliary {counts['aux']}, "
        f"total {counts['total']}"
    )
    final = result.records[-1]
    print(f"final step {final.step}: l_total {final.l_total:.4f}")
    if final.ter_student is not None:
        print(f"final dev token error rate (student): {final.ter_student:.4f}")
    return 0


def cmd_eval(args) -> int:
    model, run_kv = load_checkpoint(args.checkpoint)
    cfg = _checkpoint_run_config(model, run_kv, args.seed)
    dataset = generate_dataset(cfg)
    examples = split_examples(dataset, args.split)
    report = evaluate(model, examples, args.mode, cfg.train_config(), mask_seed=cfg.seed)
    print(f"checkpoint: {args.checkpoint}")
    print(f"split: {args.split} ({len(examples)} examples), mode: {args.mode}")
    print(f"token error rate: {report['ter']:.4f}")
    print(f"exact match rate: {report['exact_match']:.4f}")
    print(f"repetition ratio: {report['rep_ratio']:.4f}")
    print(f"aux parameter reads during predict: {report['aux_param_reads_during_predict']}")
    print(f"target token reads during predict: {report['target_reads_during_predict']}")
    return 0


def cmd_check_ctc(args) -> int:
    return _print_report(check_ctc_suite(n_instances=args.instances, seed=args.seed))


def cmd_grad_check(args) -> int:
    return _print_report(grad_check_suite(seed=args.seed))


def cmd_bound_check(args) -> int:
    csv_path = _out_dir(args, None, "bound-check") / "bound_report.csv"
    report = bound_check_suite(n_instances=args.instances, seed=args.seed, csv_path=csv_path)
    return _print_report(report, f"report: {csv_path}")


def cmd_dump(args) -> int:
    model, run_kv = load_checkpoint(args.checkpoint)
    if args.what == "alignment" and model.cfg.task != "ctc":
        raise ContractError("alignment dumps need a ctc checkpoint")
    cfg = _checkpoint_run_config(model, run_kv, args.seed)
    dataset = generate_dataset(cfg)
    examples = split_examples(dataset, "dev")
    if not 0 <= args.example_id < len(examples):
        raise ContractError(
            f"example id {args.example_id} outside the dev split (size {len(examples)})"
        )
    ex = examples[args.example_id]
    out = _out_dir(args, cfg, "dump")
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{args.what}_{args.example_id}.csv"
    if args.what == "alignment":
        dump_alignment(model, ex.x, ex.y, path)
    else:
        dump_attention(model, ex.x, ex.y, path)
    print(f"wrote {path}")
    return 0


def cmd_gen_data(args) -> int:
    cfg = _run_config(load_config(args.config) if args.config else RunConfig(), args.seed)
    dataset = generate_dataset(cfg)
    out = _out_dir(args, cfg, "data")
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"dataset-{cfg.task}-seed{cfg.data_seed}.txt"
    export_dataset(dataset, path)
    counts = {s: len(split_examples(dataset, s)) for s in ("train", "dev", "test")}
    print(f"wrote {path} ({counts})")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (TrainingAbort, CheckpointFormatError, ContractError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
