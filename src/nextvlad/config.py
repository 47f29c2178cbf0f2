"""Flat run configuration: ``key = value`` files plus dotted-key overrides.

Every hyperparameter of the system is addressable by a dotted key, and each
command takes only the key groups it reads (``COMMAND_GROUPS``); any other key
is rejected, naming it.  A training run's fully resolved set is echoed
(sorted, one ``key = value`` line each) into its run directory and checkpoint,
so any artifact can be rebuilt from its own record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import SyntheticSpec
from .losses import LossConfig
from .model import ModelConfig
from .train import TrainConfig
from .vlad import NetVladConfig, NeXtVladConfig


@dataclass(frozen=True)
class _Key:
    type: type
    default: object
    help: str


REGISTRY: dict[str, _Key] = {
    # synthetic data generation
    "data.num_videos": _Key(int, 2000, "videos to generate"),
    "data.num_classes": _Key(int, 20, "label vocabulary size"),
    "data.visual_dim": _Key(int, 64, "visual feature dimension"),
    "data.audio_dim": _Key(int, 16, "audio feature dimension"),
    "data.frames_min": _Key(int, 8, "minimum frames per video"),
    "data.frames_max": _Key(int, 20, "maximum frames per video"),
    "data.labels_min": _Key(int, 1, "minimum labels per video"),
    "data.labels_max": _Key(int, 3, "maximum labels per video"),
    "data.noise_sigma": _Key(float, 0.1, "gaussian frame noise"),
    "data.seed": _Key(int, 7, "generator seed"),
    # model
    "model.kind": _Key(str, "nextvlad", "aggregation type: nextvlad or netvlad"),
    "model.hidden": _Key(int, 2048, "hidden size after the reduction layer"),
    "model.se_ratio": _Key(int, 8, "squeeze-excitation reduction ratio (8 or 16)"),
    "model.dropout": _Key(float, 0.5, "dropout after descriptor concatenation"),
    "model.eigenvalues": _Key(str, "", "EIGV file: reverse-whiten video features by sqrt eigenvalues"),
    "model.experts": _Key(int, 1, "1 = single model, 3 = gated mixture"),
    "model.video_dim": _Key(int, 0, "video feature dim (0 = take from dataset)"),
    "model.audio_dim": _Key(int, 0, "audio feature dim (0 = take from dataset)"),
    "model.num_classes": _Key(int, 0, "classifier outputs (0 = take from dataset)"),
    # aggregation
    "vlad.clusters": _Key(int, 128, "cluster count K (video stream)"),
    "vlad.groups": _Key(int, 8, "group count G (video stream, nextvlad only)"),
    "vlad.expansion": _Key(int, 2, "width multiplier before grouping (nextvlad only)"),
    "vlad.audio_clusters": _Key(int, 0, "cluster count for audio (0 = same as video)"),
    "vlad.audio_groups": _Key(int, 0, "group count for audio (0 = same as video)"),
    # distillation
    "kd.temperature": _Key(float, 3.0, "softening temperature T; 0 disables distillation"),
    # optimization
    "train.base_lr": _Key(float, 0.0002, "initial Adam learning rate"),
    "train.batch_size": _Key(int, 160, "videos per step"),
    "train.decay_factor": _Key(float, 0.8, "LR decay factor"),
    "train.decay_every_samples": _Key(int, 2_000_000, "samples per decay period"),
    "train.lr_staircase": _Key(bool, False, "floor the decay exponent instead of continuous decay"),
    "train.l2_classifier": _Key(float, 1e-5, "L2 coefficient on classifier weights"),
    "train.epochs": _Key(int, 5, "training epochs (ignored when train.steps > 0)"),
    "train.steps": _Key(int, 0, "hard step budget (0 = use epochs)"),
    "train.seed": _Key(int, 1, "training seed (init, shuffle, dropout)"),
    "train.eval_every": _Key(int, 0, "evaluate GAP every N steps (0 = each epoch end)"),
    "train.max_frames": _Key(int, 0, "truncate videos to this many frames (0 = the longest video in the data)"),
}

# the key groups each command reads; eval, predict and --resume rebuild train's from a checkpoint echo
COMMAND_GROUPS = {
    "gen-data": ("data.",),
    "train": ("model.", "vlad.", "kd.", "train."),
    "param-count": ("model.", "vlad."),
}


def _parse(key: str, raw: str):
    spec = REGISTRY[key]
    if spec.type is bool:
        low = raw.strip().lower()
        if low in ("true", "1", "yes", "on"):
            return True
        if low in ("false", "0", "no", "off"):
            return False
        raise ValueError(f"{key}: expected a boolean, got {raw!r}")
    try:
        return spec.type(raw.strip() if isinstance(raw, str) else raw)
    except (TypeError, ValueError):
        raise ValueError(f"{key}: expected {spec.type.__name__}, got {raw!r}") from None


class RunConfig:
    """Typed view over the keys one command takes, with defaults applied."""

    def __init__(self, command: str = "train"):
        self.command = command
        groups = COMMAND_GROUPS[command]
        self._values = {k: spec.default for k, spec in REGISTRY.items() if k.startswith(groups)}

    def _check_key(self, key: str) -> None:
        if key not in self._values:
            raise KeyError(f"{self.command} takes no config key {key!r}" if key in REGISTRY
                           else f"unknown config key {key!r}")

    def set(self, key: str, value) -> None:
        """Set one key; every number in the registry is a count, size, seed,
        rate or coefficient, so a negative or non-finite one is rejected."""
        self._check_key(key)
        value = _parse(key, value) if isinstance(value, str) else value
        if REGISTRY[key].type in (int, float) and not (math.isfinite(value) and value >= 0):
            raise ValueError(f"{key}: expected a finite number >= 0, got {value!r}")
        self._values[key] = value

    def __getitem__(self, key: str):
        self._check_key(key)
        return self._values[key]

    def _set_line(self, line: str, where: str) -> None:
        """Apply one ``key = value`` line; an error is prefixed with ``where``,
        the line's source."""
        key, sep, raw = line.partition("=")
        try:
            if not sep:
                raise ValueError(f"expected 'key = value', got {line!r}")
            self.set(key.strip(), raw.strip())
        except (KeyError, ValueError) as exc:
            raise type(exc)(f"{where}: {exc.args[0]}") from None

    def load_file(self, path) -> None:
        with open(path, "rb") as f:
            for line_no, raw in enumerate(f, start=1):
                try:
                    line = raw.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise ValueError(f"{path}:{line_no}: not valid UTF-8 ({exc.reason})") from None
                stripped = line.split("#", 1)[0].strip()
                if stripped:
                    self._set_line(stripped, f"{path}:{line_no}")

    def apply_overrides(self, pairs) -> None:
        for pair in pairs:
            self._set_line(pair, "--set")

    def echo(self) -> str:
        lines = []
        for key in sorted(self._values):
            value = self._values[key]
            if isinstance(value, bool):
                text = "true" if value else "false"
            elif isinstance(value, float):
                text = repr(value)
            else:
                text = str(value)
            lines.append(f"{key} = {text}")
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_echo(text: str, source: str) -> "RunConfig":
        """Rebuild a train config from the echo stored in ``source`` (a checkpoint)."""
        cfg = RunConfig()
        for line_no, line in enumerate(text.splitlines(), start=1):
            if line.strip():
                cfg._set_line(line, f"{source}: config echo line {line_no}")
        return cfg


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def synthetic_spec_from(cfg: RunConfig) -> SyntheticSpec:
    return SyntheticSpec(
        num_videos=cfg["data.num_videos"],
        num_classes=cfg["data.num_classes"],
        visual_dim=cfg["data.visual_dim"],
        audio_dim=cfg["data.audio_dim"],
        frames_min=cfg["data.frames_min"],
        frames_max=cfg["data.frames_max"],
        labels_min=cfg["data.labels_min"],
        labels_max=cfg["data.labels_max"],
        noise_sigma=cfg["data.noise_sigma"],
        seed=cfg["data.seed"],
    )


def _stream_vlad(cfg: RunConfig, input_dim: int, audio: bool):
    clusters = cfg["vlad.audio_clusters"] if audio and cfg["vlad.audio_clusters"] else cfg["vlad.clusters"]
    groups = cfg["vlad.audio_groups"] if audio and cfg["vlad.audio_groups"] else cfg["vlad.groups"]
    if cfg["model.kind"] == "nextvlad":
        return NeXtVladConfig(input_dim=input_dim, clusters=clusters,
                              hidden_dim=cfg["model.hidden"], groups=groups,
                              expansion=cfg["vlad.expansion"])
    if cfg["model.kind"] == "netvlad":
        return NetVladConfig(input_dim=input_dim, clusters=clusters,
                             hidden_dim=cfg["model.hidden"])
    raise ValueError(f"model.kind must be nextvlad or netvlad, got {cfg['model.kind']!r}")


_DATASET_DIMS = (("model.video_dim", "visual_dim"),
                 ("model.audio_dim", "audio_dim"),
                 ("model.num_classes", "num_classes"))


def resolve_dims(cfg: RunConfig, dataset, path) -> None:
    """Fill the 0 = "take from dataset" dims in place so the echo is concrete,
    and reject a dataset (read from ``path``) whose dims differ from the model's."""
    for key, attr in _DATASET_DIMS:
        if cfg[key] == 0:
            cfg.set(key, getattr(dataset, attr))
        elif cfg[key] != getattr(dataset, attr):
            raise ValueError(f"{path}: {attr} is {getattr(dataset, attr)} but the model "
                             f"has {key} = {cfg[key]}")


def model_config_from(cfg: RunConfig) -> ModelConfig:
    """Build the model configuration; dims must already be resolved."""
    for key in ("model.video_dim", "model.audio_dim", "model.num_classes"):
        if cfg[key] == 0:
            raise ValueError(f"{key} is unresolved; call resolve_dims first")
    return ModelConfig(
        video_dim=cfg["model.video_dim"],
        audio_dim=cfg["model.audio_dim"],
        video_vlad=_stream_vlad(cfg, cfg["model.video_dim"], audio=False),
        audio_vlad=_stream_vlad(cfg, cfg["model.audio_dim"], audio=True),
        hidden_dim=cfg["model.hidden"],
        se_ratio=cfg["model.se_ratio"],
        num_classes=cfg["model.num_classes"],
        dropout_rate=cfg["model.dropout"],
    )


def loss_config_from(cfg: RunConfig) -> LossConfig:
    temperature = cfg["kd.temperature"]
    return LossConfig(
        num_classes=cfg["model.num_classes"],
        temperature=temperature,
        kd_enabled=cfg["model.experts"] > 1 and temperature > 0,
    )


def train_config_from(cfg: RunConfig) -> TrainConfig:
    return TrainConfig(
        loss=loss_config_from(cfg),
        base_lr=cfg["train.base_lr"],
        batch_size=cfg["train.batch_size"],
        decay_factor=cfg["train.decay_factor"],
        decay_every_samples=cfg["train.decay_every_samples"],
        lr_staircase=cfg["train.lr_staircase"],
        l2_classifier=cfg["train.l2_classifier"],
        epochs=cfg["train.epochs"],
        max_steps=cfg["train.steps"],
        seed=cfg["train.seed"],
        eval_every=cfg["train.eval_every"],
    )


def batch_max_frames(cfg: RunConfig, *datasets) -> int:
    """``train.max_frames``, or when it is 0 the longest video in ``datasets``."""
    return cfg["train.max_frames"] or max(int(np.diff(d.store.offsets).max()) for d in datasets)


def registry_help(command: str) -> str:
    lines = []
    for key in sorted(RunConfig(command)._values):
        spec = REGISTRY[key]
        lines.append(f"  {key:<30} {spec.help} (default {spec.default!r})")
    return "\n".join(lines)
