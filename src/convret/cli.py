"""Command-line front end: data generation, training, evaluation, sweeps.

Every run prints exactly one JSON document (object or array) to standard
output with sorted keys, so identical runs produce byte-identical reports.
Errors print a diagnostic to standard error and exit nonzero.
"""

from __future__ import annotations

import argparse
import json
import sys

from .corpus import TaskKind, load_corpus, write_corpus
from .errors import ConfigError, ConvretError
from .evaluation import (ABLATION_VARIANTS, ablation_run, evaluate, k_sweep,
                         pool_size_sweep)
from .fusion import ContextMode
from .generator import GeneratorConfig, generate_synthetic
from .training import (Schedule, TrainConfig, load_checkpoint, save_checkpoint,
                       train)

MODES = {"adaptive": ContextMode.adaptive, "full-concat": ContextMode.full_concat,
         "no-prev": ContextMode.no_prev, "mean-all": ContextMode.mean_all}
_GEN = GeneratorConfig()
_TRAIN = TrainConfig()


def _csv_ints(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part]


def _distinct(flag: str, values: list) -> list:
    """A list flag's values; ConfigError when there are none or one repeats."""
    if not values or len(set(values)) < len(values):
        raise ConfigError(f"{flag} needs one or more distinct values, got {values}")
    return values


def _mode_arg(name: str, k: int) -> ContextMode:
    if name == "adaptive":
        return ContextMode.adaptive(k)
    return MODES[name]()


def _emit(doc) -> None:
    print(json.dumps(doc, sort_keys=True))


def _add_train_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mode", choices=sorted(MODES), default=_TRAIN.mode.kind.value)
    p.add_argument("--k", type=int, default=_TRAIN.mode.k,
                   help="previous-utterance top-K")
    p.add_argument("--gamma", type=float, default=_TRAIN.gamma)
    p.add_argument("--no-pair", action="store_true",
                   help="drop the pairwise ordering term")
    p.add_argument("--no-hist", action="store_true",
                   help="drop the historical contrastive term")
    p.add_argument("--epochs", type=int, default=_TRAIN.epochs)
    p.add_argument("--batch", type=int, default=_TRAIN.batch_size)
    p.add_argument("--lr", type=float, default=_TRAIN.learning_rate)
    p.add_argument("--schedule", choices=[s.value for s in Schedule],
                   default=_TRAIN.schedule.value)
    p.add_argument("--dim", type=int, default=_TRAIN.dim)
    p.add_argument("--weight-decay", type=float, default=_TRAIN.weight_decay)
    p.add_argument("--positions", type=int, default=_TRAIN.positions,
                   help="position-table size, 0 disables")
    p.add_argument("--seed", type=int, default=_TRAIN.seed)


def _add_checkpoint_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--corpus", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--task", required=True, choices=[t.value for t in TaskKind])
    p.add_argument("--seed", type=int, default=0)


def _train_config(args, regime: TaskKind | None) -> TrainConfig:
    return TrainConfig(
        epochs=args.epochs, batch_size=args.batch, learning_rate=args.lr,
        schedule=Schedule(args.schedule), mode=_mode_arg(args.mode, args.k),
        gamma=args.gamma, use_hist=not args.no_hist, use_pair=not args.no_pair,
        regime=regime, seed=args.seed, dim=args.dim,
        weight_decay=args.weight_decay, positions=args.positions)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="convret",
        description="conversational retrieval: corpora, training, evaluation")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="write a synthetic corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--topics", type=int, default=_GEN.topics)
    p.add_argument("--dialogues-per-task", type=int,
                   default=_GEN.dialogues_per_task)
    p.add_argument("--sessions", type=int, default=_GEN.sessions_per_dialogue)
    p.add_argument("--turns", type=int, default=_GEN.turns_per_session)
    p.add_argument("--entities", type=int, default=_GEN.entities)
    p.add_argument("--uncoupled", action="store_true",
                   help="positives unrelated to the dialogue (chance-level data)")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("train", help="train a model and save a checkpoint")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--regime", default="full",
                   choices=["full"] + [t.value for t in TaskKind])
    _add_train_options(p)

    p = sub.add_parser("eval", help="evaluate a checkpoint on one task")
    _add_checkpoint_options(p)
    p.add_argument("--pool-size", type=int, default=64)
    p.add_argument("--mode", choices=sorted(MODES), default=None,
                   help="override the checkpoint's context mode")
    p.add_argument("--k", type=int, default=3)

    p = sub.add_parser("sweep-pool", help="evaluate across pool sizes")
    _add_checkpoint_options(p)
    p.add_argument("--sizes", type=_csv_ints, default="256,128,64,32,16,8,4,2")

    p = sub.add_parser("sweep-k", help="evaluate across top-K settings")
    _add_checkpoint_options(p)
    p.add_argument("--ks", type=_csv_ints, default="1,2,3,4")
    p.add_argument("--pool-size", type=int, default=64)

    p = sub.add_parser("ablate", help="retrain and compare ablation variants")
    p.add_argument("--corpus", required=True)
    p.add_argument("--eval-corpus", default=None,
                   help="held-out corpus (defaults to the training corpus)")
    p.add_argument("--variants", default=",".join(ABLATION_VARIANTS),
                   help="comma-separated subset of " + ",".join(ABLATION_VARIANTS))
    p.add_argument("--pool-size", type=int, default=64)
    p.add_argument("--eval-seed", type=int, default=0)
    _add_train_options(p)
    return parser


def _cmd_gen_data(args) -> None:
    cfg = GeneratorConfig(
        topics=args.topics, dialogues_per_task=args.dialogues_per_task,
        sessions_per_dialogue=args.sessions, turns_per_session=args.turns,
        entities=args.entities, positive_coupling=not args.uncoupled)
    corpus = generate_synthetic(cfg, seed=args.seed)
    write_corpus(corpus, args.out)
    _emit({"out": args.out, "dialogues": len(corpus.dialogues),
           "examples": len(corpus.examples), "vocab": len(corpus.vocab),
           "candidates": {t.value: len(p) for t, p in corpus.pools.items()}})


def _cmd_train(args) -> None:
    corpus = load_corpus(args.corpus)
    regime = None if args.regime == "full" else TaskKind(args.regime)
    ck, losses = train(corpus, _train_config(args, regime))
    save_checkpoint(ck, args.out)
    _emit({"checkpoint": args.out, "steps": ck.step,
           "loss_first": losses[0] if losses else None,
           "loss_last": losses[-1] if losses else None})


def _cmd_eval(args) -> None:
    corpus = load_corpus(args.corpus)
    ck = load_checkpoint(args.ckpt)
    mode = None if args.mode is None else _mode_arg(args.mode, args.k)
    report = evaluate(corpus, ck, TaskKind(args.task), args.pool_size,
                      args.seed, mode)
    _emit(report.to_dict())


def _cmd_sweep_pool(args) -> None:
    sizes = _distinct("--sizes", args.sizes)
    corpus = load_corpus(args.corpus)
    ck = load_checkpoint(args.ckpt)
    reports = pool_size_sweep(corpus, ck, TaskKind(args.task), sizes, args.seed)
    _emit([r.to_dict() for r in reports])


def _cmd_sweep_k(args) -> None:
    ks = _distinct("--ks", args.ks)
    corpus = load_corpus(args.corpus)
    ck = load_checkpoint(args.ckpt)
    reports = k_sweep(corpus, ck, TaskKind(args.task), ks, args.pool_size,
                      args.seed)
    _emit([r.to_dict() for r in reports])


def _cmd_ablate(args) -> None:
    variants = _distinct("--variants", [v for v in args.variants.split(",") if v])
    corpus = load_corpus(args.corpus)
    eval_corpus = (corpus if args.eval_corpus is None
                   else load_corpus(args.eval_corpus))
    table = ablation_run(corpus, eval_corpus, _train_config(args, None),
                         variants, args.pool_size, args.eval_seed)
    _emit(table)


_COMMANDS = {"gen-data": _cmd_gen_data, "train": _cmd_train, "eval": _cmd_eval,
             "sweep-pool": _cmd_sweep_pool, "sweep-k": _cmd_sweep_k,
             "ablate": _cmd_ablate}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _COMMANDS[args.command](args)
    except (ConvretError, OSError) as exc:
        print(f"convret: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
