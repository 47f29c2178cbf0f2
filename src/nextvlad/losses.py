"""Training objectives: stable multi-label BCE, temperature-softened
distributions, KL divergence, and the combined distillation loss

    L = sum_m bce(expert_m) + bce(mixture) + T^2 * sum_m KL(p_mix || p_m)

where the p's are softmaxes over classes of logits / T.  The mixture acts
as an on-the-fly teacher whose gradient is never stopped: the distillation
term always trains teacher and students jointly.  The experts' logits come
stacked on a leading expert axis, (E, B, C), and each term takes them as one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


@dataclass(frozen=True)
class LossConfig:
    num_classes: int
    temperature: float = 3.0
    kd_enabled: bool = True

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
    """Binary cross entropy from logits: mean over batch, sum over classes;
    one per expert, (E,), for logits (E, B, C).

    One ``ad.bce`` node, which never forms an explicit sigmoid in the forward
    and stays finite for any finite logits.
    """
    return ad.bce(logits, _label_array(labels, logits.dtype))


def _soften(logits: Tensor, temperature: float) -> Tensor:
    if temperature <= 0:
        raise ValueError(f"temperature must be > 0, got {temperature}")
    return logits * (1.0 / temperature)


def kl_divergence(teacher_logits: Tensor, student_logits: Tensor, temperature: float) -> Tensor:
    """Sum over the students of the batch mean of KL(p_t || p_s) =
    sum_c p_t(c) (log p_t(c) - log p_s(c)), each p the softmax over classes
    of logits / T, for teacher logits (B, C) and one student (B, C) or
    students stacked on a leading axis (E, B, C), summed in student order.

    The teacher's logits are scaled once and its softmax and log-softmax
    taken once.  The logs come from ``log_softmax``, so finite logits give
    finite logs, and a teacher probability that underflows to zero
    contributes zero.
    """
    teacher = _soften(teacher_logits, temperature)
    p_t, log_t = ad.softmax(teacher, axis=-1), ad.log_softmax(teacher, axis=-1)
    if student_logits.shape[-2:] != p_t.shape or student_logits.ndim > 3:
        raise ValueError(f"shape mismatch {p_t.shape} vs {student_logits.shape}")
    log_s = ad.log_softmax(_soften(student_logits, temperature), axis=-1)
    per_row = ad.reduce_sum(p_t * (log_t - log_s), axes=-1)
    return ad.reduce_sum(ad.reduce_sum(per_row, axes=-1) * (1.0 / p_t.shape[0]))


@dataclass
class LossBreakdown:
    bce_total: float  # experts' BCEs, then the mixture's
    kl_raw: float
    kl_weighted: float


def total_loss(
    expert_logits: Tensor,
    mixture_logits: Tensor,
    labels: Union[Tensor, np.ndarray],
    cfg: LossConfig,
) -> tuple[Tensor, LossBreakdown]:
    """Combined objective over the mixture, for expert logits stacked on a
    leading expert axis (E, B, C) and mixture logits (B, C).

    Returns the differentiable scalar and a float breakdown whose
    ``kl_weighted`` is exactly ``temperature**2 * kl_raw``.
    """
    if expert_logits.ndim != 3 or expert_logits.shape[1:] != mixture_logits.shape:
        raise ValueError(f"expert logits {expert_logits.shape} need a leading expert axis "
                         f"over the mixture's {mixture_logits.shape}")
    expert_bces = bce_loss(expert_logits, labels)  # (E,)
    mixture_bce = bce_loss(mixture_logits, labels)
    loss = ad.reduce_sum(expert_bces) + mixture_bce

    kl_raw_value = 0.0
    kl_weighted_value = 0.0
    if cfg.kd_enabled:
        t = cfg.temperature
        kl_sum = kl_divergence(mixture_logits, expert_logits, t)
        loss = loss + kl_sum * (t * t)
        kl_raw_value = kl_sum.item()
        kl_weighted_value = (t * t) * kl_raw_value

    breakdown = LossBreakdown(
        bce_total=sum(expert_bces.data.tolist()) + mixture_bce.item(),
        kl_raw=kl_raw_value,
        kl_weighted=kl_weighted_value,
    )
    return loss, breakdown
