"""Objectives: stable BCE, softened distributions, KL, combined loss."""

import mpmath
import numpy as np
import pytest

from nextvlad.autodiff import Tensor
from nextvlad.gradcheck import grad_check
from nextvlad.losses import (
    LossConfig,
    bce_loss,
    kl_divergence,
    total_loss,
)
from nextvlad.rng import Rng


def bce_oracle(logits, labels):
    """Extended-precision -[y ln p + (1-y) ln(1-p)], mean over rows."""
    with mpmath.workdps(60):
        total = mpmath.mpf(0)
        for row_z, row_y in zip(logits, labels):
            for z, y in zip(row_z, row_y):
                p = 1 / (1 + mpmath.e ** (-mpmath.mpf(float(z))))
                total += -(y * mpmath.log(p) + (1 - y) * mpmath.log(1 - p))
        return float(total / len(logits))


def kl_oracle(zt, zs):
    """Extended-precision KL between the softmaxes of two logit rows, mean over rows."""
    with mpmath.workdps(60):
        total = mpmath.mpf(0)
        for row_t, row_s in zip(zt, zs):
            et = [mpmath.e ** mpmath.mpf(float(v)) for v in row_t]
            es = [mpmath.e ** mpmath.mpf(float(v)) for v in row_s]
            for a, b in zip(et, es):
                total += a / sum(et) * mpmath.log(a / sum(et) / (b / sum(es)))
        return float(total / len(zt))


def kl(p_logits, q_logits, temperature=1.0):
    """KL(softmax(p) || softmax(q)) of one student, from float64 logits."""
    return kl_divergence(Tensor(np.asarray(p_logits, dtype=np.float64)),
                         Tensor(np.asarray(q_logits, dtype=np.float64)), temperature).item()


# ---------------------------------------------------------------------------
# bce
# ---------------------------------------------------------------------------


def test_bce_zero_logit_is_ln2_per_class():
    loss = bce_loss(Tensor(np.zeros((1, 1))), np.ones((1, 1)))
    assert abs(loss.item() - np.log(2.0)) < 1e-12
    loss4 = bce_loss(Tensor(np.zeros((2, 4))), np.ones((2, 4)))
    assert abs(loss4.item() - 4 * np.log(2.0)) < 1e-12  # summed over classes


def test_bce_saturated_logit_no_overflow():
    with np.errstate(over="raise"):
        loss = bce_loss(Tensor(np.full((1, 1), 50.0)), np.ones((1, 1)))
    assert 0 <= loss.item() < 1e-20


def test_bce_matches_extended_precision_oracle():
    rng = Rng(40)
    logits = rng.normal((4, 6)) * 3
    labels = (rng.uniform((4, 6)) < 0.3).astype(np.float64)
    loss = bce_loss(Tensor(logits), labels)
    assert abs(loss.item() - bce_oracle(logits, labels)) < 1e-10


def test_bce_rejects_soft_labels():
    with pytest.raises(ValueError, match="multi-hot"):
        bce_loss(Tensor(np.zeros((1, 2))), np.array([[0.5, 1.0]]))


def test_bce_finite_for_extreme_logits():
    logits = Tensor(np.array([[1e4, -1e4]]))
    labels = np.array([[0.0, 1.0]])
    with np.errstate(over="raise"):
        value = bce_loss(logits, labels).item()
    assert np.isfinite(value)


# ---------------------------------------------------------------------------
# kl divergence
# ---------------------------------------------------------------------------


def test_kl_rejects_nonpositive_temperature():
    for t in (0.0, -1.0):
        with pytest.raises(ValueError, match="temperature must be > 0"):
            kl([[0.0, 1.0]], [[1.0, 0.0]], t)


def test_kl_identical_distributions_is_exactly_zero():
    z = np.log([[0.2, 0.3, 0.5]])
    assert kl(z, z) == 0.0


def test_kl_hand_case_ln2():
    # exp(-800) underflows, so the teacher is exactly [1, 0]
    assert abs(kl([[0.0, -800.0]], [[0.0, 0.0]]) - np.log(2.0)) < 1e-12


def test_kl_closed_form_for_a_near_zero_student_probability():
    # closed form: ln(1/2) + 50 + ln(1 + e^-100); a 1e-12 clamp on p_s gave 13.12
    expected = np.log(0.5) + 50.0 + np.log1p(np.exp(-100.0))
    assert abs(kl([[0.0, 0.0]], [[0.0, -100.0]]) - expected) < 1e-12


def test_kl_matches_extended_precision_oracle():
    rng = Rng(43)
    zt = np.log(rng.uniform((3, 6)) + 0.01)
    zs = np.log(rng.uniform((3, 6)) + 0.01)
    assert abs(kl(zt, zs) - kl_oracle(zt, zs)) < 1e-10
    assert abs(kl(zt, zs, 3.0) - kl_oracle(zt / 3.0, zs / 3.0)) < 1e-10


def test_kl_zero_teacher_entries_contribute_zero():
    got = kl([[-800.0, 0.0]], [[0.0, 0.0]])
    assert np.isfinite(got)
    assert abs(got - np.log(2.0)) < 1e-12


def test_kl_nonnegative_and_zero_iff_equal():
    rng = Rng(44)
    for _ in range(25):
        a = rng.uniform((2, 5)) + 1e-3
        b = rng.uniform((2, 5)) + 1e-3
        p = a / a.sum(axis=1, keepdims=True)
        q = b / b.sum(axis=1, keepdims=True)
        value = kl(np.log(p), np.log(q))
        assert value >= -1e-15
        if np.abs(p - q).max() > 1e-3:
            assert value > 1e-9


# ---------------------------------------------------------------------------
# total loss
# ---------------------------------------------------------------------------


def _toy_logits(seed, b=2, c=4):
    """Three experts' logits stacked on a leading expert axis."""
    rng = Rng(seed)
    return Tensor(np.stack([rng.normal((b, c)) * 2 for _ in range(3)]))


def test_total_loss_identical_experts_zero_kl():
    z = Tensor(Rng(45).normal((2, 4)))
    experts = Tensor(np.stack([z.data] * 3))
    labels = np.zeros((2, 4))
    labels[:, 0] = 1.0
    cfg = LossConfig(num_classes=4, temperature=3.0, kd_enabled=True)
    loss, breakdown = total_loss(experts, z, labels, cfg)
    assert breakdown.kl_raw == 0.0
    expected = 4 * bce_loss(z, labels).item()
    assert abs(loss.item() - expected) < 1e-9


def test_total_loss_kd_disabled_is_pure_bce():
    experts = _toy_logits(46)
    mixture = Tensor(Rng(47).normal((2, 4)))
    labels = (Rng(48).uniform((2, 4)) < 0.4).astype(np.float64)
    cfg = LossConfig(num_classes=4, temperature=0.0, kd_enabled=False)
    loss, breakdown = total_loss(experts, mixture, labels, cfg)
    expected = sum(bce_loss(Tensor(z), labels).item() for z in experts.data)
    expected += bce_loss(mixture, labels).item()
    assert abs(loss.item() - expected) < 1e-9
    assert breakdown.kl_raw == 0.0 and breakdown.kl_weighted == 0.0


def test_total_loss_matches_hand_assembled_components():
    experts = _toy_logits(49)
    mixture = Tensor(Rng(50).normal((2, 4)))
    labels = (Rng(51).uniform((2, 4)) < 0.4).astype(np.float64)
    t = 3.0
    cfg = LossConfig(num_classes=4, temperature=t, kd_enabled=True)
    loss, breakdown = total_loss(experts, mixture, labels, cfg)

    expected = sum(bce_loss(Tensor(z), labels).item() for z in experts.data)
    expected += bce_loss(mixture, labels).item()
    expected += t * t * sum(kl_divergence(mixture, Tensor(z), t).item() for z in experts.data)
    assert abs(loss.item() - expected) < 1e-8


def test_breakdown_weighted_kl_is_exactly_t_squared_raw():
    experts = _toy_logits(52)
    mixture = Tensor(Rng(53).normal((2, 4)))
    labels = (Rng(54).uniform((2, 4)) < 0.4).astype(np.float64)
    cfg = LossConfig(num_classes=4, temperature=3.0, kd_enabled=True)
    _, breakdown = total_loss(experts, mixture, labels, cfg)
    assert breakdown.kl_weighted == 9.0 * breakdown.kl_raw
    assert breakdown.kl_raw > 0


def test_total_loss_is_differentiable():
    rng = Rng(55)
    experts = Tensor(rng.normal((3, 2, 3)))
    mixture_w = Tensor(rng.normal((3,)))  # mix logits through a fake gate so all inputs matter
    labels = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    cfg = LossConfig(num_classes=3, temperature=2.0, kd_enabled=True)

    def f(*_):
        from nextvlad import autodiff as ad

        gates = ad.softmax(mixture_w, axis=0)
        mix = ad.reduce_sum(gates.reshape((3, 1, 1)) * experts, axes=0)
        return total_loss(experts, mix, labels, cfg)[0]

    report = grad_check(f, [experts, mixture_w])
    assert report.passed, str(report)


def test_loss_config_validation():
    with pytest.raises(ValueError, match="kd_enabled"):
        LossConfig(num_classes=3, temperature=0.0, kd_enabled=True)
    with pytest.raises(ValueError):
        LossConfig(num_classes=3, temperature=-1.0, kd_enabled=False)
    with pytest.raises(ValueError, match="leading expert axis"):
        total_loss(Tensor(np.zeros((1, 2))), Tensor(np.zeros((1, 2))),
                   np.zeros((1, 2)), LossConfig(num_classes=2, kd_enabled=False, temperature=1.0))
