"""Command-line entry point.

One binary, subcommand style: gen-data / train / eval / predict /
param-count / verify.  Every hyperparameter is reachable through
``--config FILE`` (flat ``key = value`` lines, ``#`` comments) and repeated
``--set key=value`` overrides; common ones also have shortcut flags.  All
commands are deterministic given their seeds, and the fully resolved config
is echoed into the run log and the checkpoint.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import config as cfgmod
from . import train as trainmod
from .data import gen_synthetic, load_eigenvalues, read_dataset, write_dataset
from .metrics import PredictionSet, gap_at_20, read_predictions_csv, write_predictions_csv
from .model import NUM_EXPERTS, Eigenvalues, MixtureParams, ModelParams, stream_censuses
from .rng import Rng, derive_seed
from .vlad import NeXtVladConfig, param_count_netvlad, param_count_nextvlad, weight_census


def _add_config_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--set", dest="overrides", action="append", default=[],
                   metavar="KEY=VALUE", help="override one config key (repeatable)")


def _run_config(args, shortcuts=()) -> cfgmod.RunConfig:
    cfg = cfgmod.RunConfig()
    if getattr(args, "config", None):
        cfg.load_file(args.config)
    cfg.apply_overrides(args.overrides)
    for key, value in shortcuts:
        if value is not None:
            cfg.set(key, value)
    return cfg


def _read_dataset(path):
    """A FAV1 dataset with finite frames only: a NaN or infinity is rejected
    here, naming the file, rather than by the first batch that holds it."""
    dataset = read_dataset(path)
    for r in dataset.records:
        if not (np.isfinite(r.visual).all() and np.isfinite(r.audio).all()):
            raise ValueError(f"{path}: video {r.video_id!r} has a non-finite frame value")
    return dataset


def _params_class(cfg: cfgmod.RunConfig):
    experts = cfg["model.experts"]
    if experts not in (1, 3):
        raise ValueError(f"model.experts must be 1 or 3, got {experts}")
    return MixtureParams if experts == 3 else ModelParams


def _build_params(cfg: cfgmod.RunConfig, for_restore: bool = False):
    """Construct model or mixture parameters from a resolved config."""
    model_cfg = cfgmod.model_config_from(cfg)
    eig = None
    if model_cfg.reverse_whitening:
        if for_restore:
            # placeholder scale; the checkpoint buffer carries the real one
            eig = Eigenvalues(np.ones(model_cfg.video_dim))
        elif cfg["model.eigenvalues"]:
            eig = load_eigenvalues(cfg["model.eigenvalues"], expected_dim=model_cfg.video_dim)
        else:
            raise ValueError("model.reverse_whitening needs model.eigenvalues")
    rng = Rng(derive_seed(cfg["train.seed"], trainmod.TAG_INIT))
    return _params_class(cfg).create(model_cfg, rng, eigenvalues=eig)


def _restore(checkpoint_path: str):
    """Rebuild a training state from a checkpoint's own config echo."""
    ckpt = trainmod.load_checkpoint(checkpoint_path)
    cfg = cfgmod.RunConfig.from_echo(ckpt.config_echo, checkpoint_path)
    try:
        state = trainmod.TrainState.create(_build_params(cfg, for_restore=True))
        trainmod.apply_checkpoint(state, ckpt)
    except ValueError as exc:  # an echo or tensor set that cannot be rebuilt
        raise ValueError(f"{checkpoint_path}: {exc}") from None
    return state, cfg, ckpt


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_gen_data(args) -> int:
    shortcuts = [
        ("data.num_videos", args.videos),
        ("data.num_classes", args.classes),
        ("data.seed", args.seed),
        ("data.noise_sigma", args.noise_sigma),
    ]
    if args.labels_per_video is not None:
        shortcuts += [("data.labels_min", args.labels_per_video),
                      ("data.labels_max", args.labels_per_video)]
    cfg = _run_config(args, shortcuts)
    spec = cfgmod.synthetic_spec_from(cfg)
    dataset = gen_synthetic(spec)
    write_dataset(dataset, args.out)
    frames = sum(r.num_frames for r in dataset.records)
    print(f"wrote {args.out}: {len(dataset)} videos, {dataset.num_classes} classes, "
          f"visual {dataset.visual_dim}, audio {dataset.audio_dim}, {frames} frames total")
    return 0


def cmd_train(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    dataset = _read_dataset(args.dataset)
    eval_dataset = _read_dataset(args.eval_dataset) if args.eval_dataset else None

    if args.resume:
        state, cfg, _ = _restore(args.resume)
        shortcuts = [(k, v) for k, v in _train_shortcuts(args) if v is not None]
        keys = [pair.split("=", 1)[0].strip() for pair in args.overrides] + [k for k, _ in shortcuts]
        for key in keys:
            if key.startswith(("model.", "vlad.")) or key.endswith("_dim"):
                raise ValueError(f"--resume cannot override {key!r}: the checkpoint fixes the model")
        cfg.apply_overrides(args.overrides)
        for key, value in shortcuts:
            cfg.set(key, value)
    else:
        cfg = _run_config(args, _train_shortcuts(args))
        cfgmod.resolve_dims(cfg, dataset)
        state = trainmod.TrainState.create(_build_params(cfg))
    cfgmod.check_dims(cfg, dataset, args.dataset)
    if eval_dataset is not None:
        cfgmod.check_dims(cfg, eval_dataset, args.eval_dataset)

    train_cfg = cfgmod.train_config_from(cfg)
    max_frames = cfgmod.batch_max_frames(cfg)
    echo = cfg.echo()
    (out_dir / "config.txt").write_text(echo)

    rows = trainmod.train_loop(state, dataset, train_cfg, max_frames, eval_dataset)

    log_path = out_dir / "train_log.csv"
    mode = "a" if (args.resume and log_path.exists()) else "w"
    with open(log_path, mode) as f:
        if mode == "w":
            f.write(trainmod.LOG_HEADER + "\n")
        for row in rows:
            f.write(row.csv() + "\n")

    ckpt_path = out_dir / "checkpoint.ckpt"
    trainmod.save_checkpoint(state, ckpt_path, echo)

    if rows:
        gap = rows[-1].gap  # train_loop always scores its final step
    else:  # a resumed run already past its step budget
        gap_source = eval_dataset if eval_dataset is not None else dataset
        gap = trainmod.evaluate_gap(state.params, gap_source, max_frames)
    print(f"trained {state.global_step} steps; checkpoint {ckpt_path}; GAP {gap:.4f}")
    return 0


def _train_shortcuts(args):
    return [
        ("model.kind", args.model),
        ("model.experts", args.mixture),
        ("kd.temperature", args.kd_temperature),
        ("train.steps", args.steps),
        ("train.epochs", args.epochs),
        ("train.base_lr", args.lr),
        ("train.batch_size", args.batch_size),
        ("train.seed", args.seed),
        ("train.eval_every", args.eval_every),
        ("train.lr_staircase", args.lr_staircase),
        ("model.eigenvalues", args.eigenvalues),
    ]


def cmd_eval(args) -> int:
    dataset = _read_dataset(args.dataset)
    if args.predictions:
        by_video = read_predictions_csv(args.predictions, dataset.num_classes)
        ids = [r.video_id for r in dataset.records]
        missing = [vid for vid in ids if vid not in by_video]
        if missing:
            raise ValueError(f"{args.predictions}: no predictions for {missing[0]!r}")
        rows = [by_video[vid] for vid in ids]
        flat = [p for row in rows for p in row]
        preds = PredictionSet()
        try:  # duplicate classes or over 20 predictions for a video
            preds.append(ids, [r.labels for r in dataset.records], [len(row) for row in rows],
                         [c for c, _ in flat], [s for _, s in flat])
        except ValueError as exc:
            raise ValueError(f"{args.predictions}: {exc}") from None
        source = f" (from {args.predictions})"
    else:
        preds = _predict_from_checkpoint(args.checkpoint, dataset, args.dataset)
        source = ""
    print(f"GAP@20 {gap_at_20(preds):.6f} over {len(dataset)} videos{source}")
    _per_class_report(preds, dataset.num_classes)
    return 0


def _per_class_report(preds: PredictionSet, num_classes: int, limit: int = 50) -> None:
    """Per class: videos labelled with it, top-k appearances, and hits among those."""
    col = preds.columns()
    true_count = np.bincount(col.label_cls, minlength=num_classes)
    pred_count = np.bincount(col.cls, minlength=num_classes)
    hit_count = np.bincount(col.cls[col.hit], minlength=num_classes)
    print(f"{'class':>6} {'true':>8} {'in_top20':>10} {'hits':>8}")
    for cls in range(min(num_classes, limit)):
        print(f"{cls:>6} {true_count[cls]:>8} {pred_count[cls]:>10} {hit_count[cls]:>8}")
    if num_classes > limit:
        print(f"... ({num_classes - limit} more classes)")


def _predict_from_checkpoint(checkpoint_path: str, dataset, dataset_path: str) -> PredictionSet:
    state, cfg, _ = _restore(checkpoint_path)
    cfgmod.check_dims(cfg, dataset, dataset_path)
    try:
        return trainmod.predict(state.params, dataset, cfgmod.batch_max_frames(cfg))
    except ValueError as exc:  # frames or weights so large that the float32 forward overflows
        raise ValueError(f"{dataset_path} scored by {checkpoint_path}: {exc}") from None


def cmd_predict(args) -> int:
    dataset = _read_dataset(args.dataset)
    preds = _predict_from_checkpoint(args.checkpoint, dataset, args.dataset)
    write_predictions_csv(preds, args.out)
    print(f"wrote top-{min(20, dataset.num_classes)} predictions for {len(dataset)} videos "
          f"to {args.out}")
    return 0


def cmd_param_count(args) -> int:
    cfg = _run_config(args)
    # paper-scale fallbacks so the command works without a dataset
    for key, default in (("model.video_dim", 1024), ("model.audio_dim", 128),
                         ("model.num_classes", 3862)):
        if cfg[key] == 0:
            cfg.set(key, default)
    model_cfg = cfgmod.model_config_from(cfg)
    # zero-filled allocation: every census below is read from this one bundle
    eig = Eigenvalues(np.ones(model_cfg.video_dim)) if model_cfg.reverse_whitening else None
    bundle = _params_class(cfg).create(model_cfg, None, eigenvalues=eig)
    params = bundle.experts[0] if isinstance(bundle, MixtureParams) else bundle

    rows = []
    streams = (("video", model_cfg.video_vlad), ("audio", model_cfg.audio_vlad))
    for (label, stream_cfg), census in zip(streams, stream_censuses(params)):
        if isinstance(stream_cfg, NeXtVladConfig):
            rows.append((f"{label} nextvlad", param_count_nextvlad(stream_cfg), census))
        else:
            rows.append((f"{label} netvlad", param_count_netvlad(stream_cfg), census))

    h, r, c = model_cfg.hidden_dim, model_cfg.se_ratio, model_cfg.num_classes
    rows.append(("se context gating", 2 * h * h // r, weight_census(params.secg)))
    rows.append(("classifier", h * c, params.classifier_w.size))

    total_formula = sum(r[1] for r in rows)
    rows.append(("full model weights", total_formula, weight_census(params)))
    if bundle is not params:
        gate = (model_cfg.video_dim + model_cfg.audio_dim) * NUM_EXPERTS
        rows.append((f"{NUM_EXPERTS}-expert mixture weights", NUM_EXPERTS * total_formula + gate,
                     weight_census(bundle)))
    bias_bn = sum(t.size for t in bundle.named_parameters().values()) - weight_census(bundle)

    width = max(len(r[0]) for r in rows)
    print(f"{'component':<{width}} {'closed form':>14} {'census':>14}")
    ok = True
    for label, formula, census in rows:
        mark = "" if formula == census else "  MISMATCH"
        ok = ok and formula == census
        print(f"{label:<{width}} {formula:>14,} {census:>14,}{mark}")
    print(f"{'biases + batch norm (census only)':<{width}} {'-':>14} {bias_bn:>14,}")
    if not ok:
        print("parameter count mismatch", file=sys.stderr)
        return 1
    return 0


def cmd_verify(args) -> int:
    from .verify import run_all

    results = run_all(args.seed if args.seed is not None else 0)
    failed = 0
    for name, ok, detail in results:
        if ok:
            print(f"ok   {name}")
        else:
            failed += 1
            print(f"FAIL {name}: {detail}", file=sys.stderr)
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nextvlad",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="config keys:\n" + cfgmod.registry_help(),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic FAV1 dataset")
    _add_config_args(p)
    p.add_argument("--out", required=True)
    p.add_argument("--videos", type=int)
    p.add_argument("--classes", type=int)
    p.add_argument("--labels-per-video", type=int)
    p.add_argument("--noise-sigma", type=float)
    p.add_argument("--seed", type=int)
    p.set_defaults(fn=cmd_gen_data)

    p = sub.add_parser("train", help="train a model or 3-expert mixture")
    _add_config_args(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--eval-dataset")
    p.add_argument("--resume", help="checkpoint to continue from")
    p.add_argument("--model", choices=["netvlad", "nextvlad"])
    p.add_argument("--mixture", type=int, choices=[1, 3])
    p.add_argument("--kd-temperature", type=float)
    p.add_argument("--steps", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--eval-every", type=int)
    p.add_argument("--eigenvalues")
    p.add_argument("--lr-staircase", action="store_true", default=None,
                   help="floor the decay exponent instead of continuous decay")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="GAP@20 of a checkpoint or prediction dump")
    p.add_argument("--dataset", required=True)
    p.add_argument("--checkpoint")
    p.add_argument("--predictions", help="CSV from the predict command")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("predict", help="write top-20 predictions as CSV")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_predict)

    p = sub.add_parser("param-count", help="closed-form vs allocated parameter counts")
    _add_config_args(p)
    p.set_defaults(fn=cmd_param_count)

    p = sub.add_parser("verify", help="run gradient, oracle and metric self-checks")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "eval" and not (args.checkpoint or args.predictions):
        print("eval needs --checkpoint or --predictions", file=sys.stderr)
        return 2
    try:
        return args.fn(args)
    except (ValueError, KeyError, FileNotFoundError, RuntimeError) as exc:
        # str() of a KeyError is the repr of its message
        print(f"error: {exc.args[0] if isinstance(exc, KeyError) else exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
