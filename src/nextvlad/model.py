"""Two-stream video classifier.

Video and audio frames are aggregated separately (NetVLAD or NeXtVLAD per
stream), the flat descriptors are concatenated, passed through dropout and
one shared reduction layer to the hidden size, gated by a
squeeze-excitation-style context block, and classified by a single affine
layer into per-class logits (sigmoid belongs to the loss).  Given PCA
eigenvalues, the video features are rescaled by their square roots first,
undoing the whitening that would otherwise flatten per-dimension variance
before the distance-based encoding.

A gated mixture of three such models, with the gate fed by the mean of each
video's raw input frames, provides the ensemble logits used for on-the-fly
distillation.  The three are one model whose every tensor is stacked on a
leading expert axis E, so one forward pass runs them all: the frames, their
valid rows and the whitening scale, held once by the mixture, are shared,
each expert's layers run as one stacked op.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .rng import Rng
from .vlad import (
    BatchNormParams,
    init_normal,
    FrameBatchView,
    NeXtVladCore,
    ParamTree,
    ReduceHead,
    VladConfig,
    VladCore,
    make_core,
    netvlad_descriptor,
    nextvlad_descriptor,
    weight_census,
)

NUM_EXPERTS = 3
# float32 features are scaled by sqrt(eigenvalue), and their squares summed
EIGENVALUE_MAX = float(np.finfo(np.float32).max)


@dataclass(frozen=True)
class Eigenvalues:
    """Per-dimension PCA eigenvalues, each in (0, ``EIGENVALUE_MAX``]."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))
        if self.values.ndim != 1:
            raise ValueError(f"eigenvalues must be 1-d, got shape {self.values.shape}")
        bad = np.nonzero(~((self.values > 0) & (self.values <= EIGENVALUE_MAX)))[0]
        if bad.size:
            raise ValueError(f"eigenvalue at index {bad[0]} is {float(self.values[bad[0]])}, "
                             f"must be in (0, {EIGENVALUE_MAX:.4g}]")

    def __len__(self) -> int:
        return len(self.values)


def reverse_whitening(x: Tensor, scale: np.ndarray) -> Tensor:
    """Multiply each feature dimension by its scale, sqrt of its eigenvalue."""
    if x.shape[-1] != len(scale):
        raise ValueError(
            f"feature dim {x.shape[-1]} != eigenvalue count {len(scale)}")
    return x * Tensor(scale.astype(x.dtype))


def _whiten_scale(eigenvalues: Optional[Eigenvalues], video_dim: int) -> Optional[np.ndarray]:
    """sqrt of the eigenvalues as float32: reverse whitening is on exactly when
    a model or mixture is created with eigenvalues."""
    if eigenvalues is None:
        return None
    if len(eigenvalues) != video_dim:
        raise ValueError(f"eigenvalue count {len(eigenvalues)} != video_dim {video_dim}")
    return np.sqrt(eigenvalues.values).astype(np.float32)


def _whitened(batch, scale: Optional[np.ndarray]):
    """The batch with its video frames reverse-whitened by ``scale``, if any."""
    if scale is None:
        return batch
    video = dataclasses.replace(batch.video, frames=reverse_whitening(batch.video.frames, scale))
    return dataclasses.replace(batch, video=video)


@dataclass(frozen=True)
class ModelConfig:
    video_dim: int
    audio_dim: int
    video_vlad: VladConfig
    audio_vlad: VladConfig
    hidden_dim: int
    se_ratio: int
    num_classes: int
    dropout_rate: float = 0.5

    def __post_init__(self):
        if self.num_classes < 1:
            raise ValueError("num_classes must be >= 1")
        if self.hidden_dim % self.se_ratio != 0:
            raise ValueError(
                f"se_ratio {self.se_ratio} must divide hidden_dim {self.hidden_dim}")
        if self.video_vlad.input_dim != self.video_dim:
            raise ValueError("video_vlad.input_dim != video_dim")
        if self.audio_vlad.input_dim != self.audio_dim:
            raise ValueError("audio_vlad.input_dim != audio_dim")
        for stream in (self.video_vlad, self.audio_vlad):
            if stream.hidden_dim != self.hidden_dim:
                raise ValueError("per-stream hidden_dim must equal model hidden_dim")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")

    @property
    def concat_dim(self) -> int:
        return self.video_vlad.descriptor_dim + self.audio_vlad.descriptor_dim


@dataclass
class SecgParams(ParamTree):
    """Squeeze-excitation context gate: FC -> BN -> ReLU -> FC -> BN -> sigmoid."""

    fc1_w: Tensor  # (F, F/r)
    fc1_b: Tensor
    bn1: BatchNormParams
    fc2_w: Tensor  # (F/r, F)
    fc2_b: Tensor
    bn2: BatchNormParams

    @staticmethod
    def create(features: int, ratio: int, rng: Optional[Rng]) -> "SecgParams":
        if features % ratio != 0:
            raise ValueError(f"ratio {ratio} must divide feature size {features}")
        squeezed = features // ratio
        return SecgParams(
            fc1_w=Tensor(init_normal(rng, (features, squeezed), np.sqrt(2.0 / features))),
            fc1_b=Tensor(np.zeros(squeezed, dtype=np.float32)),
            bn1=BatchNormParams.create(squeezed),
            fc2_w=Tensor(init_normal(rng, (squeezed, features), np.sqrt(2.0 / squeezed))),
            fc2_b=Tensor(np.zeros(features, dtype=np.float32)),
            bn2=BatchNormParams.create(features),
        )


def se_context_gating(x: Tensor, params: SecgParams, training: bool = False) -> Tensor:
    """Elementwise-gate ``x`` by a bottlenecked sigmoid excitation of itself."""
    if x.shape[-1] != params.fc1_w.shape[-2]:
        raise ValueError(f"feature dim {x.shape[-1]} != gate dim {params.fc1_w.shape[-2]}")
    h = params.bn1(ad.affine(x, params.fc1_w, params.fc1_b), training)
    h = ad.relu(h)
    h = params.bn2(ad.affine(h, params.fc2_w, params.fc2_b), training)
    gate = ad.sigmoid(h)
    return x * gate


@dataclass
class ModelParams(ParamTree):
    PREFIX = "model"

    config: ModelConfig
    video: VladCore
    audio: VladCore
    reduce: ReduceHead  # shared across streams: (concat_dim, H)
    secg: SecgParams
    classifier_w: Tensor  # (H, C)
    classifier_b: Tensor  # (C,)
    whiten_scale: Optional[np.ndarray] = None  # sqrt(eigenvalues), video dtype

    @staticmethod
    def create(cfg: ModelConfig, rng: Optional[Rng],
               eigenvalues: Optional[Eigenvalues] = None) -> "ModelParams":
        return ModelParams(
            config=cfg,
            video=make_core(cfg.video_vlad, rng),
            audio=make_core(cfg.audio_vlad, rng),
            reduce=ReduceHead.create(cfg.concat_dim, cfg.hidden_dim, rng),
            secg=SecgParams.create(cfg.hidden_dim, cfg.se_ratio, rng),
            classifier_w=Tensor(
                init_normal(rng, (cfg.hidden_dim, cfg.num_classes), np.sqrt(2.0 / cfg.hidden_dim))),
            classifier_b=Tensor(np.zeros(cfg.num_classes, dtype=np.float32)),
            whiten_scale=_whiten_scale(eigenvalues, cfg.video_dim),
        )


def stream_censuses(params: ModelParams) -> tuple[int, int]:
    """Weight census of the video and the audio NetVLAD/NeXtVLAD block: the
    stream's core plus the rows of the shared reduction that its descriptor
    feeds (video rows first, in concat order); of all experts if stacked."""
    rows = params.config.video_vlad.descriptor_dim
    w = params.reduce.w.data
    return (weight_census(params.video) + w[..., :rows, :].size,
            weight_census(params.audio) + w[..., rows:, :].size)


def _descriptor(view: FrameBatchView, core) -> Tensor:
    if isinstance(core, NeXtVladCore):
        return nextvlad_descriptor(view, core)
    return netvlad_descriptor(view, core)


def model_forward(
    batch,
    params: ModelParams,
    training: bool = False,
    rng: Optional[Rng] = None,
) -> Tensor:
    """Logits (B, C) for a batch with ``.video`` and ``.audio`` frame views;
    (E, B, C) for a model stacked on an expert axis.

    ``rng`` feeds the dropout mask and is only consulted in training mode
    with a nonzero dropout rate; stacked experts draw theirs in expert order.
    """
    cfg = params.config
    batch = _whitened(batch, params.whiten_scale)
    video_desc = _descriptor(batch.video, params.video)
    audio_desc = _descriptor(batch.audio, params.audio)
    joint = ad.concat([video_desc, audio_desc], axis=-1)

    if training and cfg.dropout_rate > 0.0:
        if rng is None:
            raise ValueError("training with dropout needs an rng")
        joint = ad.dropout(joint, cfg.dropout_rate, rng, training=True)

    hidden = params.reduce(joint, training)
    gated = se_context_gating(hidden, params.secg, training)
    return ad.affine(gated, params.classifier_w, params.classifier_b)


@dataclass
class MixtureParams(ParamTree):
    """Three independent experts, stacked as one model, plus a softmax gate
    over mean input features and the one whitening scale the experts share."""

    PREFIX = "mixture"

    experts: ModelParams  # every tensor and buffer (E, ...): slice i is expert i; no whitening scale
    gate_w: Tensor  # (video_dim + audio_dim, E)
    gate_b: Tensor  # (E,)
    whiten_scale: Optional[np.ndarray] = None  # sqrt(eigenvalues), video dtype

    @staticmethod
    def create(cfg: ModelConfig, rng: Optional[Rng],
               eigenvalues: Optional[Eigenvalues] = None) -> "MixtureParams":
        experts = [ModelParams.create(cfg, rng) for _ in range(NUM_EXPERTS)]
        gate_in = cfg.video_dim + cfg.audio_dim
        stacked = experts[0]  # takes the stack of every expert's leaf
        for (_, owner, attr), *others in zip(stacked.leaves(), *(e.leaves() for e in experts[1:])):
            slices = [getattr(owner, attr)] + [getattr(o, a) for _, o, a in others]
            data = np.stack([v.data if isinstance(v, Tensor) else v for v in slices])
            setattr(owner, attr, Tensor(data) if isinstance(slices[0], Tensor) else data)
        return MixtureParams(
            experts=stacked,
            gate_w=Tensor(init_normal(rng, (gate_in, NUM_EXPERTS), np.sqrt(2.0 / gate_in))),
            gate_b=Tensor(np.zeros(NUM_EXPERTS, dtype=np.float32)),
            whiten_scale=_whiten_scale(eigenvalues, cfg.video_dim),
        )


def _frame_mean(view: FrameBatchView) -> np.ndarray:
    """Mean of each video's frames, (B, N), summed in frame order; the zero vector
    for a video without frames.  A constant: the frames take no gradient."""
    frames, ends = view.frames.data, np.cumsum(view.lengths).tolist()
    total = np.array([frames[lo:hi].sum(axis=0) for lo, hi in zip([0] + ends[:-1], ends)])
    return total * (1.0 / np.maximum(view.lengths, 1).astype(frames.dtype))[:, None]


def gated_mixture(gates: Tensor, expert_logits: Tensor) -> Tensor:
    """sum over m of gates[:, m] * expert_logits[m], (B, C), for gates (B, E)
    and expert logits (E, B, C), summed along the expert axis in expert order."""
    e, b, _ = expert_logits.shape
    return ad.reduce_sum(ad.transpose(gates, (1, 0)).reshape((e, b, 1)) * expert_logits, axes=0)


def mixture_forward(
    batch,
    mix: MixtureParams,
    training: bool = False,
    rng: Optional[Rng] = None,
) -> tuple[Tensor, Tensor, Tensor]:
    """Run all experts, as one stacked model, and their gate.

    Returns (expert_logits (E, B, C), mixture_logits (B, C), gates (B, E));
    mixture logits are the gate-weighted sum of expert logits, the gate is a
    softmax over a linear map of the mean of each video's raw input frames,
    the streams concatenated, unwhitened.  That mean is a constant of the
    batch: no gradient reaches the frames through the gate.
    """
    expert_logits = model_forward(_whitened(batch, mix.whiten_scale), mix.experts, training, rng)

    mean_features = Tensor(np.concatenate([_frame_mean(batch.video), _frame_mean(batch.audio)], axis=1))
    gates = ad.softmax(ad.affine(mean_features, mix.gate_w, mix.gate_b), axis=-1)  # (B, E)
    return expert_logits, gated_mixture(gates, expert_logits), gates
