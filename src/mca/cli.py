"""Command-line entry point.

Subcommands: gen-data, train, eval, gradcheck, ablate, dump-masks.
Exit codes: 0 success, 1 runtime failure (one-line diagnostic on stderr),
2 usage error (argparse).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

import numpy as np

from .checkpoint import _write_atomic
from .config import TrainConfig, load_config, parse_override
from .errors import ConfigError, MCAError
from .metrics import THRESHOLD, report_to_csv
from .netpbm import save_pgm
from .synthdata import KINDS, SceneSpec, generate_split, load_split, write_dataset

CHECKPOINT_NAME = "checkpoint.mcaf"
LOG_NAME = "train_log.csv"
CONFIG_NAME = "config.txt"


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", default=None, help="flat key = value config file")
    p.add_argument(
        "--set", dest="overrides", action="append", default=[], metavar="KEY=VALUE",
        help="override one config key (repeatable)",
    )


def _build_config(args: argparse.Namespace) -> TrainConfig:
    overrides = {}
    for text in args.overrides:
        key, value = parse_override(text)
        if key in overrides:
            raise ConfigError(f"config key {key!r} is set twice by --set")
        overrides[key] = value
    return load_config(args.config, overrides)


def _cmd_gen_data(args: argparse.Namespace) -> int:
    spec = SceneSpec(
        kind=args.kind,
        image_size=args.image_size,
        contrast_gap=args.gap,
    )
    train, test = generate_split(spec, args.n_train, args.n_test, args.seed)
    write_dataset(args.out, train, test)
    print(f"wrote {len(train)} train / {len(test)} test samples to {args.out}")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    from .trainer import log_to_csv, save_result, train

    cfg = _build_config(args)
    result = train(cfg, resume_from=args.resume, stop_after_steps=args.stop_after_steps)
    os.makedirs(cfg.out_dir, exist_ok=True)
    # Each file is replaced whole or not at all, like the checkpoint.
    save_result(result, os.path.join(cfg.out_dir, CHECKPOINT_NAME))
    _write_atomic(os.path.join(cfg.out_dir, LOG_NAME), log_to_csv(result.log).encode("ascii"))
    _write_atomic(os.path.join(cfg.out_dir, CONFIG_NAME), result.config_text.encode("ascii"))
    if result.log:
        last = result.log[-1]
        print(
            f"epoch {int(last['epoch'])}: total={last['total']:.6f} "
            f"train_dice={last['train_dice']:.4f}"
        )
    print(f"checkpoint: {os.path.join(cfg.out_dir, CHECKPOINT_NAME)} (step {result.step})")
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    from .trainer import evaluate, model_from_checkpoint

    model, _step = model_from_checkpoint(args.checkpoint)
    report = evaluate(model, load_split(args.data, args.split))
    text = report_to_csv(report)
    if args.out:
        _write_atomic(args.out, text.encode("ascii"))
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_gradcheck(args: argparse.Namespace) -> int:
    from .gradcheck import run_gradcheck

    passed, _worst = run_gradcheck(seeds=range(args.seeds), tol=args.tol)
    return 0 if passed else 1


def _cmd_ablate(args: argparse.Namespace) -> int:
    from .trainer import run_ablation

    cfg = _build_config(args)
    try:
        seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    except ValueError:
        raise ConfigError(f"--seeds must be comma-separated integers, got {args.seeds!r}") from None
    variants = args.variants.split(",") if args.variants else None
    strategies = args.strategies.split(",") if args.strategies else None
    _rows, csv_text = run_ablation(cfg, variants=variants, seeds=seeds, strategies=strategies)
    if args.out:
        _write_atomic(args.out, csv_text.encode("ascii"))
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(csv_text)
    return 0


def _cmd_dump_masks(args: argparse.Namespace) -> int:
    from .trainer import model_from_checkpoint, patch_maps

    if not 0.0 <= args.threshold <= 1.0:  # also false for NaN
        raise ConfigError(f"--threshold must lie in [0, 1], got {args.threshold}")
    model, _step = model_from_checkpoint(args.checkpoint)
    split = load_split(args.data, args.split)
    # Every image is read before the first file is written, so a split
    # refused while it is read leaves no file behind.  Each binary patch is
    # copied into its f x f block of pixels, as thresholding the upsampled
    # map would give.
    masks = (patch_maps(model, split.images) >= args.threshold).astype(np.uint8)
    f = model.cfg.patch_size
    os.makedirs(args.out, exist_ok=True)
    for sid, mask in zip(split.ids, masks):
        save_pgm(os.path.join(args.out, f"{sid}.pgm"), mask.repeat(f, axis=0).repeat(f, axis=1))
    print(f"wrote {len(split)} masks to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mca",
        description="Contrastive-adaptor segmentation toolkit (synthetic desk scale).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic dataset")
    p.add_argument("--out", required=True, help="dataset root directory")
    p.add_argument("--kind", default="camouflage", choices=KINDS)
    p.add_argument("--image-size", type=int, default=64)
    p.add_argument("--gap", type=float, default=0.3, help="foreground contrast gap in [0, 1]")
    p.add_argument("--n-train", type=int, default=200)
    p.add_argument("--n-test", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_gen_data)

    p = sub.add_parser("train", help="train adaptors and decoder on a dataset")
    _add_config_flags(p)
    p.add_argument("--resume", default=None, help="checkpoint to resume from")
    p.add_argument(
        "--stop-after-steps", type=int, default=None,
        help="suspend after N global steps (schedule keeps full length)",
    )
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("eval", help="score a checkpoint on a dataset split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True, help="dataset root directory")
    p.add_argument("--split", default="test", choices=("train", "test"))
    p.add_argument("--out", default=None, help="metrics CSV path (default: stdout)")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--seeds", type=int, default=20)
    p.add_argument("--tol", type=float, default=1e-5)
    p.set_defaults(fn=_cmd_gradcheck)

    p = sub.add_parser("ablate", help="train/evaluate a variant or strategy sweep")
    _add_config_flags(p)
    p.add_argument("--variants", default=None, help="comma-separated variant names")
    p.add_argument("--strategies", default=None, help="comma-separated augmentation strategies")
    p.add_argument("--seeds", default="0", help="comma-separated seeds")
    p.add_argument("--out", default=None, help="comparison CSV path (default: stdout)")
    p.set_defaults(fn=_cmd_ablate)

    p = sub.add_parser("dump-masks", help="write predicted binary masks as PGM files")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", default="test", choices=("train", "test"))
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--threshold", type=float, default=THRESHOLD)
    p.set_defaults(fn=_cmd_dump_masks)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (MCAError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
