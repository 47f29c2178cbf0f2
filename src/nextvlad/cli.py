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
import copy
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


def _run_config(args, cfg=None) -> cfgmod.RunConfig:
    """The defaults (or ``cfg``), then ``--config``, then ``--set``, then every
    shortcut flag, whose ``dest`` is the config key it sets."""
    cfg = cfg or cfgmod.RunConfig()
    if args.config:
        cfg.load_file(args.config)
    cfg.apply_overrides(args.overrides)
    for key, value in vars(args).items():
        if key in cfgmod.REGISTRY and value is not None:
            cfg.set(key, value)
    if getattr(args, "labels_per_video", None) is not None:
        cfg.set("data.labels_min", args.labels_per_video)
        cfg.set("data.labels_max", args.labels_per_video)
    return cfg


def _read_dataset(path):
    """A FAV1 dataset with finite frames only: a NaN or infinity is rejected
    here, naming the file, rather than by the first batch that holds it."""
    dataset = read_dataset(path)
    for r in dataset.records:
        if not (np.isfinite(r.visual).all() and np.isfinite(r.audio).all()):
            raise ValueError(f"{path}: video {r.video_id!r} has a non-finite frame value")
    return dataset


def _build_params(cfg: cfgmod.RunConfig, init: bool = True):
    """Model or mixture parameters for a resolved config.  ``init`` draws the
    seeded weights and loads the EIGV file; otherwise the weights are zeros and
    the whitening scale is one, for a checkpoint to fill or a census to count."""
    model_cfg = cfgmod.model_config_from(cfg)
    experts, eig_path = cfg["model.experts"], cfg["model.eigenvalues"]
    if experts not in (1, 3):
        raise ValueError(f"model.experts must be 1 or 3, got {experts}")
    rng = eig = None
    if init:
        if eig_path and not model_cfg.reverse_whitening:
            raise ValueError("model.eigenvalues is set but model.reverse_whitening is false")
        if model_cfg.reverse_whitening:
            if not eig_path:
                raise ValueError("model.reverse_whitening needs model.eigenvalues")
            eig = load_eigenvalues(eig_path, expected_dim=model_cfg.video_dim)
        rng = Rng(derive_seed(cfg["train.seed"], trainmod.TAG_INIT))
    elif model_cfg.reverse_whitening:
        eig = Eigenvalues(np.ones(model_cfg.video_dim))
    return (MixtureParams if experts == 3 else ModelParams).create(model_cfg, rng, eigenvalues=eig)


def _restore(checkpoint_path: str):
    """Rebuild a training state from a checkpoint's own config echo."""
    ckpt = trainmod.load_checkpoint(checkpoint_path)
    cfg = cfgmod.RunConfig.from_echo(ckpt.config_echo, checkpoint_path)
    try:
        state = trainmod.TrainState.create(_build_params(cfg, init=False))
        trainmod.apply_checkpoint(state, ckpt)
    except ValueError as exc:  # an echo or tensor set that cannot be rebuilt
        raise ValueError(f"{checkpoint_path}: {exc}") from None
    return state, cfg


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_gen_data(args) -> int:
    cfg = _run_config(args)
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
        state, saved = _restore(args.resume)
        cfg = _run_config(args, copy.deepcopy(saved))
        for key in cfgmod.REGISTRY:  # the model is fixed, whatever source sets a key
            if (key.startswith(("model.", "vlad.")) or key.endswith("_dim")) and cfg[key] != saved[key]:
                raise ValueError(f"--resume cannot override {key!r}: the checkpoint fixes the model")
    else:
        cfg = _run_config(args)
    cfgmod.resolve_dims(cfg, dataset, args.dataset)
    if eval_dataset is not None:
        cfgmod.resolve_dims(cfg, eval_dataset, args.eval_dataset)
    if not args.resume:
        state = trainmod.TrainState.create(_build_params(cfg))

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
    state, cfg = _restore(checkpoint_path)
    cfgmod.resolve_dims(cfg, dataset, dataset_path)
    try:  # frames or weights so large that the float32 forward overflows
        with np.errstate(over="raise", invalid="raise"):
            return trainmod.predict(state.params, dataset, cfgmod.batch_max_frames(cfg))
    except (ValueError, FloatingPointError) as exc:
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
    bundle = _build_params(cfg, init=False)  # every census below is read from this bundle
    params = bundle.experts[0] if isinstance(bundle, MixtureParams) else bundle
    model_cfg = params.config

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
    p.add_argument("--videos", type=int, dest="data.num_videos")
    p.add_argument("--classes", type=int, dest="data.num_classes")
    p.add_argument("--labels-per-video", type=int, help="sets data.labels_min and labels_max")
    p.add_argument("--noise-sigma", type=float, dest="data.noise_sigma")
    p.add_argument("--seed", type=int, dest="data.seed")
    p.set_defaults(fn=cmd_gen_data)

    p = sub.add_parser("train", help="train a model or 3-expert mixture")
    _add_config_args(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--eval-dataset")
    p.add_argument("--resume", help="checkpoint to continue from")
    p.add_argument("--model", choices=["netvlad", "nextvlad"], dest="model.kind")
    p.add_argument("--mixture", type=int, choices=[1, 3], dest="model.experts")
    p.add_argument("--kd-temperature", type=float, dest="kd.temperature")
    p.add_argument("--steps", type=int, dest="train.steps")
    p.add_argument("--epochs", type=int, dest="train.epochs")
    p.add_argument("--lr", type=float, dest="train.base_lr")
    p.add_argument("--batch-size", type=int, dest="train.batch_size")
    p.add_argument("--seed", type=int, dest="train.seed")
    p.add_argument("--eval-every", type=int, dest="train.eval_every")
    p.add_argument("--eigenvalues", dest="model.eigenvalues")
    p.add_argument("--lr-staircase", action="store_true", default=None, dest="train.lr_staircase",
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
    if args.command == "eval" and bool(args.checkpoint) == bool(args.predictions):
        print("eval needs exactly one of --checkpoint or --predictions", file=sys.stderr)
        return 2
    try:
        return args.fn(args)
    except (ValueError, KeyError, OSError, RuntimeError) as exc:
        # str() of a KeyError is the repr of its message
        print(f"error: {exc.args[0] if isinstance(exc, KeyError) else exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
