"""Training objectives: stable multi-label BCE, temperature-softened
distributions, KL divergence, and the combined distillation loss

    L = sum_m bce(expert_m) + bce(mixture) + T^2 * sum_m KL(p_mix || p_m)

where the p's are softmaxes over classes of logits / T.  The mixture acts
as an on-the-fly teacher; by default its gradient is not stopped, so the
distillation term trains teacher and students jointly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

KL_EPS = 1e-12


@dataclass(frozen=True)
class LossConfig:
    num_classes: int
    temperature: float = 3.0
    kd_enabled: bool = True
    kd_stop_teacher_gradient: bool = False

    def __post_init__(self):
        if self.temperature < 0:
            raise ValueError(f"temperature must be >= 0, got {self.temperature}")
        if self.temperature == 0 and self.kd_enabled:
            # a zero temperature means "no distillation"; the softened
            # distribution itself is undefined at T=0
            raise ValueError("temperature 0 requires kd_enabled=False")


def _label_array(labels: Union[Tensor, np.ndarray], dtype) -> np.ndarray:
    arr = labels.data if isinstance(labels, Tensor) else np.asarray(labels)
    if not np.all((arr == 0) | (arr == 1)):
        raise ValueError("labels must be multi-hot (every entry 0 or 1)")
    return arr.astype(dtype)


def bce_loss(logits: Tensor, labels: Union[Tensor, np.ndarray]) -> Tensor:
    """Binary cross entropy from logits: mean over batch, sum over classes.

    Uses softplus(z) - z*y, which never forms an explicit sigmoid and stays
    finite for any finite logits.
    """
    y = Tensor(_label_array(labels, logits.dtype))
    if y.shape != logits.shape:
        raise ValueError(f"labels shape {y.shape} != logits shape {logits.shape}")
    per_element = ad.softplus(logits) - logits * y
    per_video = ad.reduce_sum(per_element, axes=1)
    return ad.mean(per_video)


def rank_soft_prediction(logits: Tensor, temperature: float) -> Tensor:
    """Softmax over classes of logits / T (a distribution over C, unlike the
    per-class sigmoids of the task loss)."""
    if temperature <= 0:
        raise ValueError(f"temperature must be > 0, got {temperature}")
    return ad.softmax(logits * (1.0 / temperature), axis=-1)


def kl_divergence(p_teacher: Tensor, p_student: Tensor) -> Tensor:
    """Mean over the batch of sum_c p_t(c) * ln(p_t(c) / p_s(c)).

    Zero-probability teacher entries contribute zero; both logs are
    eps-clamped so no infinities enter the graph.
    """
    if p_teacher.shape != p_student.shape:
        raise ValueError(f"shape mismatch {p_teacher.shape} vs {p_student.shape}")
    if (p_teacher.data < 0).any() or (p_student.data < 0).any():
        raise ValueError("negative probabilities")
    log_t = ad.log(ad.clip_min(p_teacher, KL_EPS))
    log_s = ad.log(ad.clip_min(p_student, KL_EPS))
    per_row = ad.reduce_sum(p_teacher * (log_t - log_s), axes=1)
    return ad.mean(per_row)


@dataclass
class LossBreakdown:
    bce_total: float  # experts' BCEs, then the mixture's
    kl_raw: float
    kl_weighted: float


def total_loss(
    expert_logits: Sequence[Tensor],
    mixture_logits: Tensor,
    labels: Union[Tensor, np.ndarray],
    cfg: LossConfig,
) -> tuple[Tensor, LossBreakdown]:
    """Combined objective over the 3-expert mixture.

    Returns the differentiable scalar and a float breakdown whose
    ``kl_weighted`` is exactly ``temperature**2 * kl_raw``.
    """
    if len(expert_logits) != 3:
        raise ValueError(f"expected 3 experts, got {len(expert_logits)}")
    expert_bces = [bce_loss(z, labels) for z in expert_logits]
    mixture_bce = bce_loss(mixture_logits, labels)
    loss = expert_bces[0] + expert_bces[1] + expert_bces[2] + mixture_bce

    kl_raw_value = 0.0
    kl_weighted_value = 0.0
    if cfg.kd_enabled and cfg.temperature > 0:
        t = cfg.temperature
        p_teacher = rank_soft_prediction(mixture_logits, t)
        if cfg.kd_stop_teacher_gradient:
            p_teacher = p_teacher.detach()
        kl_sum = None
        for z in expert_logits:
            term = kl_divergence(p_teacher, rank_soft_prediction(z, t))
            kl_sum = term if kl_sum is None else kl_sum + term
        loss = loss + kl_sum * (t * t)
        kl_raw_value = kl_sum.item()
        kl_weighted_value = (t * t) * kl_raw_value

    breakdown = LossBreakdown(
        bce_total=sum(b.item() for b in expert_bces) + mixture_bce.item(),
        kl_raw=kl_raw_value,
        kl_weighted=kl_weighted_value,
    )
    return loss, breakdown
