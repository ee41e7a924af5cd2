"""Command-line entry point.

Subcommands: gen (episode bundles), train, eval, tube, oracle. Every run
that writes artifacts also writes a manifest.json recording the command,
arguments, config snapshot, seed, version, timestamps, and output paths.

Exit codes: 0 success, 1 validation error, 2 numerical error or failed
oracle suite, 3 I/O error.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .config import TrainConfig, apply_ablation, load_config
from .episodes import class_registry, gen_episode, load_episode, save_episode, split_folds
from .errors import (AllMasked, CheckpointMissing, ConfigError, DivergenceDetected,
                     EmptyReport, EmptySupportMask, FrameCountMismatch, IoError,
                     NonDivisibleClassCount, ShapeMismatch, UnknownClass, UntrackedLoss)
from .metrics import MetricReport, mask_scores, write_report
from .oracles import SUITES
from .trainer import evaluate, load_checkpoint, save_checkpoint, train
from .util import atomic_write_text
from .video import make_tube, propagate_first_frame, save_tube

_VERSION_TAG = f"dcsam-{__version__}"

_NUMERICAL = (DivergenceDetected, AllMasked, FloatingPointError)
_IO = (IoError, CheckpointMissing, OSError)
_VALIDATION = (ConfigError, UnknownClass, NonDivisibleClassCount, ShapeMismatch,
               EmptySupportMask, FrameCountMismatch, EmptyReport, UntrackedLoss,
               ValueError)


@dataclasses.dataclass(frozen=True)
class RunManifest:
    command: str
    argv: tuple[str, ...]
    seed: int
    version: str
    started: str
    finished: str
    config: dict | None
    outputs: tuple[str, ...]


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat()


def write_manifest(path: Path, manifest: RunManifest) -> None:
    """Serialize the manifest; every listed output path must already exist."""
    for out in manifest.outputs:
        if not Path(out).exists():
            raise IoError(f"manifest lists missing output {out}")
    payload = json.dumps(dataclasses.asdict(manifest), indent=2, sort_keys=True)
    atomic_write_text(path, payload + "\n")


def _record_run(path: Path, args, argv: list[str], started: str, cfg: TrainConfig | None,
                *outputs: Path) -> None:
    """Write a finished run's manifest; a run without a config records seed 0."""
    write_manifest(path, RunManifest(
        command=args.command, argv=tuple(argv), seed=0 if cfg is None else cfg.seed,
        version=_VERSION_TAG, started=started, finished=_utc_now(),
        config=None if cfg is None else dataclasses.asdict(cfg),
        outputs=tuple(str(out) for out in outputs)))


class _ArgumentError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1, not argparse's default 2
        raise _ArgumentError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dcsam",
                     description="Dual-branch prompt generation for in-context "
                                 "segmentation on synthetic episodes.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate episode bundles")
    p_gen.add_argument("--out", required=True, help="output directory")
    p_gen.add_argument("--classes", type=int, default=16, help="class count, ids 0..N-1")
    p_gen.add_argument("--seeds", type=int, default=1, help="bundles per class")
    p_gen.add_argument("--size", type=int, nargs=2, default=[16, 16], metavar=("H", "W"))

    p_train = sub.add_parser("train", help="train on a fold's training classes")
    p_train.add_argument("--config", required=True, help="config file (key = value lines)")
    p_train.add_argument("--fold", type=int, required=True)
    p_train.add_argument("--out", required=True, help="output directory")
    p_train.add_argument("--ablate", default="", help="comma-separated ablation tokens")

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on held-out classes")
    p_eval.add_argument("--ckpt", required=True, help="checkpoint directory")
    p_eval.add_argument("--fold", type=int, required=True)
    p_eval.add_argument("--out", required=True, help="report csv path")

    p_tube = sub.add_parser("tube", help="propagate first-frame prompts through a tube")
    p_tube.add_argument("--ckpt", required=True, help="checkpoint directory")
    p_tube.add_argument("--episode", required=True, help="episode bundle directory")
    p_tube.add_argument("--frames", type=int, required=True)
    p_tube.add_argument("--out", required=True, help="output directory")

    p_oracle = sub.add_parser("oracle", help="run a reference audit suite")
    p_oracle.add_argument("--suite", required=True, choices=sorted(SUITES))
    p_oracle.add_argument("--trials", type=int, default=None)
    p_oracle.add_argument("--seed", type=int, default=0)

    return parser


def cmd_gen(args, argv: list[str]) -> int:
    started = _utc_now()
    out = Path(args.out)
    if args.classes < 1 or args.classes > len(class_registry()):
        raise ValueError(f"--classes must be in 1..{len(class_registry())}")
    if args.seeds < 1:
        raise ValueError("--seeds must be >= 1")
    canvas = (args.size[0], args.size[1])
    outputs: list[Path] = []
    for cls in range(args.classes):
        for k in range(args.seeds):
            bundle = out / f"cls{cls:02d}_seed{k:04d}"
            save_episode(bundle, gen_episode(cls, k, canvas))
            outputs.append(bundle)
    _record_run(out / "manifest.json", args, argv, started, None, *outputs)
    print(f"wrote {len(outputs)} episode bundles under {out}")
    return 0


def cmd_train(args, argv: list[str]) -> int:
    started = _utc_now()
    cfg = load_config(args.config)
    if args.ablate:
        cfg = apply_ablation(cfg, args.ablate)
    fold = split_folds(class_registry(), args.fold)
    result = train(cfg, fold)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    ckpt = out / "checkpoint"
    save_checkpoint(ckpt, result.params, cfg, step=len(result.losses))
    lines = ["step,loss"]
    lines += [f"{i},{value!r}" for i, value in enumerate(result.losses)]
    losses_path = out / "losses.csv"
    atomic_write_text(losses_path, "\n".join(lines) + "\n")
    _record_run(out / "manifest.json", args, argv, started, cfg, ckpt, losses_path)
    print(f"trained fold {args.fold} for {len(result.losses)} steps, "
          f"final loss {result.losses[-1]:.6f}")
    return 0


def cmd_eval(args, argv: list[str]) -> int:
    started = _utc_now()
    params, cfg, _step = load_checkpoint(args.ckpt)
    fold = split_folds(class_registry(), args.fold)
    report = evaluate(params, cfg, fold)
    out = Path(args.out)
    write_report(out, args.fold, report)
    _record_run(out.parent / "manifest.json", args, argv, started, cfg,
                out, out.with_suffix(".json"))
    print(f"fold {args.fold}: miou={report.miou:.4f} j={report.j:.4f} "
          f"f={report.f:.4f} jf={report.jf:.4f}")
    return 0


def cmd_tube(args, argv: list[str]) -> int:
    started = _utc_now()
    if args.frames < 1:
        raise ValueError("--frames must be >= 1")
    params, cfg, _step = load_checkpoint(args.ckpt)
    ep = load_episode(args.episode)
    gt = make_tube(ep, args.frames, ep.seed)
    pred = propagate_first_frame(gt, ep.support_img, ep.support_mask,
                                 params, cfg, cfg.encoder(cfg.seed))
    out = Path(args.out)
    pred_dir = out / "predicted"
    save_tube(pred_dir, pred)
    js, fs = mask_scores(pred.masks, gt.masks)
    report = MetricReport.from_frames(js, fs)
    lines = ["frame,j,f"]
    lines += [f"{t},{j_t!r},{f_t!r}" for t, (j_t, f_t) in enumerate(zip(js.tolist(), fs.tolist()))]
    lines.append(f"# summary j={report.j!r} f={report.f!r} jf={report.jf!r}")
    frames_path = out / "frames.csv"
    atomic_write_text(frames_path, "\n".join(lines) + "\n")
    _record_run(out / "manifest.json", args, argv, started, cfg, pred_dir, frames_path)
    print(f"tube of {args.frames} frames: j={report.j:.4f} f={report.f:.4f} "
          f"jf={report.jf:.4f}")
    return 0


def cmd_oracle(args, argv: list[str]) -> int:
    suite = SUITES[args.suite]
    kwargs = {"seed": args.seed}
    if args.trials is not None:
        if args.trials < 1:
            raise ValueError("--trials must be >= 1")
        kwargs["trials"] = args.trials
    result = suite(**kwargs)
    print(result.summary())
    for line in result.detail:
        print(f"  {line}")
    return 0 if result.passed else 2


_COMMANDS = {
    "gen": cmd_gen,
    "train": cmd_train,
    "eval": cmd_eval,
    "tube": cmd_tube,
    "oracle": cmd_oracle,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args, argv)
    except _NUMERICAL as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _IO as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except _VALIDATION as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help
        code = exc.code
        return code if isinstance(code, int) else 0


if __name__ == "__main__":
    raise SystemExit(main())
