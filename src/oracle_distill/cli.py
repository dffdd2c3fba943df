"""Command-line interface.

Subcommands: train, eval, check-ctc, grad-check, bound-check, dump,
gen-data.  Exit codes: 0 success, 1 suite or run failure, 2 configuration
error.
"""

from __future__ import annotations

import argparse
import os
import sys
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


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, help="run configuration file")
    parser.add_argument("--seed", type=_nonnegative_int, help="override the config seed")
    parser.add_argument("--out", type=Path, help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oracle-distill",
        description="Oracle-guided self-distillation for sequence models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model and emit metrics/checkpoints")
    _add_common(p_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint")
    _add_common(p_eval)
    p_eval.add_argument("--checkpoint", type=Path, required=True)
    p_eval.add_argument("--split", choices=("train", "dev", "test"), default="test")
    p_eval.add_argument("--mode", choices=("student", "teacher"), default="student")

    p_check = sub.add_parser("check-ctc", help="loss/posterior vs exhaustive enumeration")
    _add_common(p_check)
    p_check.add_argument("--instances", type=int, default=100)

    p_grad = sub.add_parser("grad-check", help="gradients vs central finite differences")
    _add_common(p_grad)

    p_bound = sub.add_parser("bound-check", help="likelihood lower-bound verification")
    _add_common(p_bound)
    p_bound.add_argument("--instances", type=int, default=200)

    p_dump = sub.add_parser("dump", help="posterior or attention CSV for one example")
    _add_common(p_dump)
    p_dump.add_argument("--checkpoint", type=Path, required=True)
    p_dump.add_argument("--example-id", type=int, required=True)
    p_dump.add_argument("--what", choices=("alignment", "attention"), required=True)

    p_gen = sub.add_parser("gen-data", help="export the synthetic dataset as text")
    _add_common(p_gen)

    return parser


def _load_run_config(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    if args.seed is not None:
        cfg.seed = args.seed
    return cfg.resolved()


def _out_dir(args, cfg: RunConfig | None = None, default_name: str = "run") -> Path:
    if args.out is not None:
        return Path(args.out)
    if cfg is not None and cfg.out_dir:
        return Path(cfg.out_dir)
    root = os.environ.get(OUT_ROOT_ENV, ".")
    return Path(root) / default_name


def _checkpoint_run_config(run_kv: dict, seed_override) -> RunConfig:
    cfg = config_from_mapping(run_kv)
    if seed_override is not None:
        cfg.seed = seed_override
    return cfg.resolved()


def cmd_train(args) -> int:
    cfg = _load_run_config(args)
    out = _out_dir(args, cfg, default_name=f"run-{cfg.task}-seed{cfg.seed}")
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
    cfg = _checkpoint_run_config(run_kv, args.seed)
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
    seed = args.seed if args.seed is not None else 0
    report = check_ctc_suite(n_instances=args.instances, seed=seed)
    for line in report.lines():
        print(line)
    return 0 if report.passed else 1


def cmd_grad_check(args) -> int:
    seed = args.seed if args.seed is not None else 0
    report = grad_check_suite(seed=seed)
    for line in report.lines():
        print(line)
    return 0 if report.passed else 1


def cmd_bound_check(args) -> int:
    seed = args.seed if args.seed is not None else 0
    out = _out_dir(args, None, default_name="bound-check")
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "bound_report.csv"
    report = bound_check_suite(n_instances=args.instances, seed=seed, csv_path=csv_path)
    for line in report.lines():
        print(line)
    print(f"report: {csv_path}")
    return 0 if report.passed else 1


def cmd_dump(args) -> int:
    model, run_kv = load_checkpoint(args.checkpoint)
    if args.what == "alignment" and model.cfg.task != "ctc":
        raise ContractError("alignment dumps need a ctc checkpoint")
    cfg = _checkpoint_run_config(run_kv, args.seed)
    dataset = generate_dataset(cfg)
    examples = split_examples(dataset, "dev")
    if not 0 <= args.example_id < len(examples):
        raise ContractError(
            f"example id {args.example_id} outside the dev split (size {len(examples)})"
        )
    ex = examples[args.example_id]
    out = _out_dir(args, cfg, default_name="dump")
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{args.what}_{args.example_id}.csv"
    if args.what == "alignment":
        dump_alignment(model, ex.x, ex.y, path)
    else:
        dump_attention(model, ex.x, ex.y, path)
    print(f"wrote {path}")
    return 0


def cmd_gen_data(args) -> int:
    cfg = _load_run_config(args)
    dataset = generate_dataset(cfg)
    out = _out_dir(args, cfg, default_name="data")
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"dataset-{cfg.task}-seed{cfg.data_seed}.txt"
    export_dataset(dataset, path, task=cfg.task)
    counts = {s: len(split_examples(dataset, s)) for s in ("train", "dev", "test")}
    print(f"wrote {path} ({counts})")
    return 0


_COMMANDS = {
    "train": cmd_train,
    "eval": cmd_eval,
    "check-ctc": cmd_check_ctc,
    "grad-check": cmd_grad_check,
    "bound-check": cmd_bound_check,
    "dump": cmd_dump,
    "gen-data": cmd_gen_data,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (TrainingAbort, CheckpointFormatError, ContractError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
