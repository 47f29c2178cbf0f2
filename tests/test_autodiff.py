"""Tensor primitives: forward semantics against independent oracles, plus
gradient checks of every vector-Jacobian product."""

import itertools
import math
import re

import mpmath
import numpy as np
import pytest

from nextvlad import autodiff as ad
from nextvlad.autodiff import BatchNormState, Primitive, Tensor
from nextvlad.gradcheck import grad_check
from nextvlad.rng import Rng


def t64(rng, *shape):
    return Tensor(rng.normal(shape))


# ---------------------------------------------------------------------------
# affine
# ---------------------------------------------------------------------------


def affine_loops(x, w, b):
    m, k = x.shape
    n = w.shape[1]
    out = np.zeros((m, n), dtype=x.dtype)
    for i in range(m):
        for j in range(n):
            out[i, j] = b[j]
            for s in range(k):
                out[i, j] += x[i, s] * w[s, j]
    return out


def test_matmul_identity():
    out = ad.affine(Tensor([[1.0, 0.0], [0.0, 1.0]]), Tensor([[3.0], [4.0]]), Tensor([0.0]))
    assert np.array_equal(out.data, [[3.0], [4.0]])


def test_matmul_by_hand():
    out = ad.affine(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]), Tensor([0.0]))
    assert np.array_equal(out.data, [[11.0]])


def test_affine_by_hand():
    out = ad.affine(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]), Tensor([0.5]))
    assert np.array_equal(out.data, [[11.5]])


def test_affine_matches_triple_loop():
    rng = Rng(0)
    x, w, b = rng.normal((3, 4)), rng.normal((4, 2)), rng.normal((2,))
    got = ad.affine(Tensor(x), Tensor(w), Tensor(b)).data
    assert np.abs(got - affine_loops(x, w, b)).max() < 1e-12


def test_affine_shape_error_names_every_shape():
    for x, w, b in [((2, 3), (2, 2), (2,)), ((2, 3), (3, 2), (3,)), ((1, 2, 3), (3, 2), (2,)),
                    ((2, 3), (3, 2, 1), (2,))]:
        with pytest.raises(ValueError, match=re.escape(f"affine: x {x} @ w {w} + b {b}")):
            ad.affine(Tensor(np.zeros(x)), Tensor(np.zeros(w)), Tensor(np.zeros(b)))


@pytest.mark.parametrize("lead", [(), (3,)], ids=["one", "3 stacked"])
def test_weight_product_rounds_its_float64_sum_once(lead):
    rng = Rng(1)
    a, b = (rng.normal(lead + shape).astype(np.float32) for shape in ((16, 40), (40, 24)))
    got = ad.weight_product(Tensor(a), Tensor(b)).data
    exact = a.astype(np.float64) @ b.astype(np.float64)
    assert got.dtype == np.float32 and got.tobytes() == exact.astype(np.float32).tobytes()
    g = rng.normal(lead + (16, 24)).astype(np.float32)
    for needs in itertools.product((False, True), repeat=2):
        da, db = ad.WEIGHT_PRODUCT.vjp(g, got, a, b, needs=needs)
        assert da is None if not needs[0] else da.tobytes() == (g @ b.swapaxes(-1, -2)).tobytes()
        assert db is None if not needs[1] else db.tobytes() == (a.swapaxes(-1, -2) @ g).tobytes()


def test_weight_product_shape_error_names_both_shapes():
    for a, b in [((2, 3), (2, 2)), ((2, 3), (3,)), ((3, 2, 3), (3, 2)), ((3, 2, 3), (2, 3, 2)),
                 ((2,), (2, 2))]:
        with pytest.raises(ValueError, match=re.escape(f"weight_product: a {a} @ b {b}")):
            ad.weight_product(Tensor(np.zeros(a)), Tensor(np.zeros(b)))
    with pytest.raises(TypeError, match="weight_product"):
        ad.weight_product(Tensor(np.zeros((2, 2))), Tensor(np.zeros((2, 2), dtype=np.float32)))


def test_dtype_mismatch_rejected():
    a = Tensor(np.zeros((2, 2), dtype=np.float32))
    b = Tensor(np.zeros((2, 2), dtype=np.float64))
    with pytest.raises(TypeError, match="float32.*float64"):
        ad.affine(a, b, Tensor(np.zeros(2)))
    with pytest.raises(TypeError):
        a + b


# ---------------------------------------------------------------------------
# softmax
# ---------------------------------------------------------------------------


def test_softmax_symmetry():
    out = ad.softmax(Tensor([0.0, 0.0]), axis=0)
    assert np.allclose(out.data, [0.5, 0.5], atol=0)


def test_softmax_shift_invariance_no_overflow():
    with np.errstate(over="raise"):
        out = ad.softmax(Tensor([1000.0, 1000.0]), axis=0)
    assert np.allclose(out.data, [0.5, 0.5], atol=1e-12)


def test_softmax_matches_extended_precision():
    x = [1.0, 2.0, 3.0]
    with mpmath.workdps(50):
        exps = [mpmath.e ** v for v in x]
        total = sum(exps)
        expected = [float(e / total) for e in exps]
    out = ad.softmax(Tensor(np.array(x)), axis=0)
    assert np.abs(out.data - expected).max() < 1e-15


def test_softmax_nan_rejected():
    with pytest.raises(ValueError, match="NaN"):
        ad.softmax(Tensor([1.0, np.nan]), axis=0)


def test_softmax_rows_sum_to_one():
    rng = Rng(1)
    for _ in range(10):
        x = rng.normal((4, 7)) * 3
        out = ad.softmax(Tensor(x), axis=-1).data
        assert np.abs(out.sum(axis=-1) - 1.0).max() < 1e-6
        assert (out > 0).all() and (out < 1).all()
    # extreme logits saturate to the closed interval but never leave it
    extreme = ad.softmax(Tensor(rng.normal((4, 7)) * 500), axis=-1).data
    assert (extreme >= 0).all() and (extreme <= 1).all()
    assert np.abs(extreme.sum(axis=-1) - 1.0).max() < 1e-6


# ---------------------------------------------------------------------------
# sigmoid / bce
# ---------------------------------------------------------------------------


def test_sigmoid_midpoint_and_saturation():
    assert ad.sigmoid(Tensor([0.0])).data[0] == 0.5
    with np.errstate(over="raise"):
        hi = ad.sigmoid(Tensor([750.0])).data[0]
        lo = ad.sigmoid(Tensor([-750.0])).data[0]
    assert hi == 1.0 and lo == 0.0


def test_sigmoid_complement_identity():
    x = Rng(2).normal((100,)) * 5
    s = ad.sigmoid(Tensor(x)).data + ad.sigmoid(Tensor(-x)).data
    assert np.abs(s - 1.0).max() < 1e-15


def test_sigmoid_propagates_nan():
    assert np.isnan(ad.sigmoid(Tensor([np.nan])).data[0])


def sigmoid_where(a):
    """The two-branch sigmoid as an explicit select, the reference."""
    e = np.exp(np.minimum(a, -a))
    d = 1.0 + e
    return np.where(a >= 0, 1.0 / d, e / d)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_bytes_match_the_select_form(dtype):
    special = np.array([0.0, -0.0, 1e-45, -1e-45, 1.0, -1.0, 88.0, -88.0, 750.0, -750.0,
                        np.inf, -np.inf, np.nan, -np.nan], dtype=dtype)
    random = (Rng(7).normal((3, 64, 128)) * 10).astype(dtype)
    for a in (special, random):
        got = ad.sigmoid(Tensor(a)).data
        want = sigmoid_where(a)
        assert got.dtype == want.dtype == dtype
        assert got.tobytes() == want.tobytes()


def test_bce_matches_log1p_exp():
    # one logit per call, so the loss is log(1 + e^z) - z*y of that logit alone
    for z in Rng(3).normal((50,)) * 10:
        for y in (0.0, 1.0):
            got = ad.bce(Tensor([[z]]), np.array([[y]])).item()
            with mpmath.workdps(50):
                expected = float(mpmath.log(1 + mpmath.e ** z) - z * y)
            assert abs(got - expected) < 1e-13


def test_bce_rejects_labels_that_do_not_fit():
    z = Tensor(np.zeros((2, 3)))
    for logits, labels in [(z, np.zeros((3, 2))), (z.reshape((6,)), np.zeros(6)),
                           (Tensor(np.zeros((0, 3))), np.zeros((0, 3)))]:
        with pytest.raises(ValueError, match="bce: labels shape"):
            ad.bce(logits, labels)


# ---------------------------------------------------------------------------
# l2_normalize
# ---------------------------------------------------------------------------


def test_l2_normalize_three_four_five():
    out = ad.l2_normalize(Tensor([3.0, 4.0]), axis=0)
    assert np.allclose(out.data, [0.6, 0.8], atol=1e-15)


def test_l2_normalize_zero_guard():
    out = ad.l2_normalize(Tensor([0.0, 0.0]), axis=0)
    assert np.array_equal(out.data, [0.0, 0.0])


def test_l2_normalize_squared_norm_overflow_is_signalled():
    x = Tensor(np.array([[3e30, 1.0], [1.0, 2.0]], dtype=np.float32))
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        ad.l2_normalize(x, axis=-1)
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        ad.L2_NORMALIZE.vjp(x.data, x.data, x.data, axis=-1, needs=(True,))


def test_l2_normalize_unit_norm():
    v = Rng(4).normal((32,))
    out = ad.l2_normalize(Tensor(v), axis=0).data
    assert abs(np.linalg.norm(out) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# reduce_sum / reshape
# ---------------------------------------------------------------------------


def test_reduce_sum_axis0():
    out = ad.reduce_sum(Tensor([[1.0, 2.0], [3.0, 4.0]]), axes=0)
    assert np.array_equal(out.data, [4.0, 6.0])


def test_reduce_sum_no_axes_is_identity():
    x = Rng(5).normal((3, 2))
    out = ad.reduce_sum(Tensor(x), axes=())
    assert np.array_equal(out.data, x)


def test_reduce_sum_duplicate_axis_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        ad.reduce_sum(Tensor(np.zeros((2, 3))), axes=(0, 0))


def test_reduce_sum_matches_scalar_loops():
    x = Rng(6).normal((3, 4, 2))
    got = ad.reduce_sum(Tensor(x), axes=(0, 2)).data
    expected = np.zeros(4)
    for i in range(3):
        for j in range(4):
            for k in range(2):
                expected[j] += x[i, j, k]
    assert np.abs(got - expected).max() < 1e-12


def test_reshape_roundtrip_identity():
    x = Rng(7).normal((4, 6))
    back = Tensor(x).reshape((2, 12)).reshape((4, 6))
    assert np.array_equal(back.data, x)
    with pytest.raises(ValueError):
        Tensor(x).reshape((5, 5))


# ---------------------------------------------------------------------------
# batch norm
# ---------------------------------------------------------------------------


def _bn_params(f, dtype=np.float64):
    return (Tensor(np.ones(f, dtype=dtype)), Tensor(np.zeros(f, dtype=dtype)),
            BatchNormState(f, dtype=dtype))


def test_batch_norm_constant_batch_is_zero():
    gamma, beta, state = _bn_params(3)
    x = Tensor(np.full((4, 3), 2.5))
    out = ad.batch_norm(x, gamma, beta, state, training=True)
    assert np.array_equal(out.data, np.zeros((4, 3)))


def test_batch_norm_inference_fresh_state_is_near_identity():
    gamma, beta, state = _bn_params(3)
    x = Rng(8).normal((5, 3))
    out = ad.batch_norm(Tensor(x), gamma, beta, state, training=False)
    assert np.abs(out.data - x).max() < 1e-4  # only eps in the denominator


def test_batch_norm_two_element_batch_by_hand():
    gamma, beta, state = _bn_params(1)
    x = np.array([[1.0], [3.0]])
    out = ad.batch_norm(Tensor(x), gamma, beta, state, training=True)
    mu, var = 2.0, 1.0
    expected = (x - mu) / np.sqrt(var + ad.BATCH_NORM_EPS)
    assert np.abs(out.data - expected).max() < 1e-12
    # running moments moved toward the batch stats
    assert np.allclose(state.running_mean, 0.1 * mu)
    assert np.allclose(state.running_var, 0.9 * 1.0 + 0.1 * var)


def test_batch_norm_running_moments_follow_the_momentum_recurrence():
    # pins the running variance that inference normalises by, not only the mean
    gamma, beta, state = _bn_params(3)
    rm, rv = np.zeros(3), np.ones(3)
    rng = Rng(48)
    for _ in range(4):
        x = 2.0 + 3.0 * rng.normal((5, 3))
        ad.batch_norm(Tensor(x), gamma, beta, state, training=True)
        mu = x.mean(axis=0)
        rm = 0.9 * rm + 0.1 * mu
        rv = 0.9 * rv + 0.1 * ((x - mu) ** 2).mean(axis=0)
    assert np.abs(state.running_mean - rm).max() < 1e-12
    assert np.abs(state.running_var - rv).max() < 1e-12


@pytest.mark.parametrize("grad", [False, True])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_batch_norm_training_bytes_match_the_composed_form(dtype, grad):
    # the primitive runs the ops the composed graph ran, in its order, and
    # moves the running moments once, with or without a gradient
    rng = Rng(49)
    x = (3.0 + 2.0 * rng.normal((64, 16))).astype(dtype)
    gamma, beta = (1.0 + rng.normal((16,))).astype(dtype), rng.normal((16,)).astype(dtype)
    state = BatchNormState(16, dtype=dtype)
    params = [Tensor(gamma), Tensor(beta)]
    with ad.differentiating(params if grad else []):
        out = ad.batch_norm(Tensor(x), *params, state, training=True)
    assert out.requires_grad == grad
    scale = np.asarray(1.0 / 64, dtype=dtype)
    mu = x.sum(axis=0, keepdims=True) * scale
    centered = x - mu
    var = (centered * centered).sum(axis=0, keepdims=True) * scale
    normed = centered / np.sqrt(var + np.asarray(ad.BATCH_NORM_EPS, dtype=dtype))
    assert out.data.tobytes() == (normed * gamma + beta).tobytes()
    m = ad.BATCH_NORM_MOMENTUM
    rm = m * np.zeros(16, dtype) + (1.0 - m) * mu.reshape(-1)
    rv = m * np.ones(16, dtype) + (1.0 - m) * var.reshape(-1)
    assert state.running_mean.tobytes() == rm.tobytes()
    assert state.running_var.tobytes() == rv.tobytes()


def test_batch_norm_empty_batch_rejected():
    gamma, beta, state = _bn_params(2)
    with pytest.raises(ValueError, match="empty"):
        ad.batch_norm(Tensor(np.zeros((0, 2))), gamma, beta, state, training=True)


# ---------------------------------------------------------------------------
# dropout
# ---------------------------------------------------------------------------


def test_dropout_rate_zero_and_inference_are_identity():
    x = Tensor(Rng(9).normal((10,)))
    assert ad.dropout(x, 0.0, Rng(1), training=True) is x
    assert ad.dropout(x, 0.7, Rng(1), training=False) is x


def test_dropout_rate_validation():
    x = Tensor(np.zeros(3))
    for rate in (1.0, 1.5, -0.1):
        with pytest.raises(ValueError):
            ad.dropout(x, rate, Rng(1), training=True)


def test_dropout_survivor_fraction():
    n = 1_000_000
    x = Tensor(np.ones(n))
    out = ad.dropout(x, 0.5, Rng(10), training=True).data
    survivors = np.count_nonzero(out) / n
    assert abs(survivors - 0.5) < 0.002
    assert np.allclose(out[out != 0], 2.0)  # inverted scaling


# ---------------------------------------------------------------------------
# gradient checks
# ---------------------------------------------------------------------------


def test_grad_check_affine_passes():
    rng = Rng(11)
    report = grad_check(ad.AFFINE, [t64(rng, 2, 3), t64(rng, 3, 2), t64(rng, 2)])
    assert report.passed, str(report)


def test_grad_check_softmax_passes():
    report = grad_check(lambda x: ad.softmax(x, axis=0), [t64(Rng(12), 5)])
    assert report.passed, str(report)


def test_grad_check_locates_corrupted_vjp():
    flipped = Primitive(
        "bad_sigmoid",
        ad.SIGMOID.forward,
        lambda g, out, a, needs: (-g * out * (1.0 - out),),  # sign flip
    )
    report = grad_check(flipped, [t64(Rng(13), 4)])
    assert not report.passed
    assert report.worst_input == 0
    assert len(report.worst_element) == 1  # index into the 4-vector


def test_grad_check_requires_float64():
    with pytest.raises(TypeError, match="float64"):
        grad_check(ad.SIGMOID, [Tensor(np.zeros(3, dtype=np.float32))])


def fixed_labels(shape):
    """Multi-hot labels that depend only on the shape, the same in every call."""
    return (np.arange(math.prod(shape)).reshape(shape) % 3 == 0).astype(np.float64)


PRIMITIVE_CASES = [
    ("add", lambda a, b: a + b, 2),
    ("sub", lambda a, b: a - b, 2),
    ("mul", lambda a, b: a * b, 2),
    ("affine", lambda x, w, b: ad.affine(x.reshape((2, -1)), w.reshape((-1, 2)),
                                         ad.reduce_sum(b.reshape((-1, 2)), axes=0)), 3),
    ("weight_product", lambda a, b: ad.weight_product(a.reshape((2, -1)), b.reshape((-1, 2))), 2),
    ("softmax", lambda a: ad.softmax(a, axis=-1), 1),
    ("log_softmax", lambda a: ad.log_softmax(a, axis=-1), 1),
    ("sigmoid", ad.sigmoid, 1),
    ("relu", ad.relu, 1),
    ("bce", lambda z: ad.bce(z.reshape((2, -1)), fixed_labels((2, z.size // 2))), 1),
    ("l2_normalize", lambda a: ad.l2_normalize(a, axis=-1), 1),
    ("reduce_sum", lambda a: ad.reduce_sum(a, axes=0), 1),
    ("transpose", lambda a: ad.transpose(a.reshape((2, -1)), (1, 0)), 1),
    ("concat", lambda a, b: ad.concat([a, b], axis=0), 2),
]


def stacked_state(features):
    """Batch-norm statistics of E = 3 experts, (3, F)."""
    state = BatchNormState(features, dtype=np.float64)
    state.running_mean, state.running_var = np.zeros((3, features)), np.ones((3, features))
    return state


STACKED_LENGTHS = np.array([2, 1])  # frame counts of two videos of at most 3
# E = 3 experts on a leading axis: inputs shaped by a case, from R = size of the shape / 2 rows
STACKED_CASES = [
    ("affine E=3 shared rows", ad.affine, lambda r: [(r, 2), (3, 2, 4), (3, 4)]),
    ("affine E=3 own rows", ad.affine, lambda r: [(3, r, 2), (3, 2, 4), (3, 4)]),
    ("weight_product E=3", ad.weight_product, lambda r: [(3, 2, r), (3, r, 4)]),
    ("batch_norm E=3", lambda x, g, b: ad.batch_norm(x, g, b, stacked_state(4), training=True),
     lambda r: [(3, r + 1, 4), (3, 4), (3, 4)]),
    ("residual_aggregate E=3", lambda *ts: ad.residual_aggregate(*ts, STACKED_LENGTHS, 3),
     lambda r: [(3, 2), (3, 2, 2 * r), (3, 2 * r), (3, 3, 2, 4), (3, r, 4), (3, 3, 2)]),
    ("residual_aggregate E=3 shared feats and gate",
     lambda *ts: ad.residual_aggregate(*ts, STACKED_LENGTHS, 3),
     lambda r: [(3, 2), (3, 2, 2 * r), (3, 2 * r), (3, 2, 4), (3, r, 4), (3, 2)]),
]


@pytest.mark.parametrize("name,fn,inputs", PRIMITIVE_CASES + STACKED_CASES,
                         ids=[c[0] for c in PRIMITIVE_CASES + STACKED_CASES])
@pytest.mark.parametrize("shape", [(4,), (2, 3), (2, 2, 2)])
def test_every_primitive_grad_checks_on_random_shapes(name, fn, inputs, shape):
    # ``inputs`` counts inputs shaped ``shape``, or maps a row count to their shapes
    rng = Rng(hash(name) % 2**32)
    shapes = [shape] * inputs if isinstance(inputs, int) else inputs(math.prod(shape) // 2)
    report = grad_check(fn, [Tensor(rng.normal(s) + 0.1) for s in shapes])
    assert report.passed, f"{name} {shape}: {report}"


def test_grad_check_batch_norm_training_mode():
    rng = Rng(14)
    state = BatchNormState(3, dtype=np.float64)
    report = grad_check(
        lambda x, g, b: ad.batch_norm(x, g, b, state, training=True),
        [t64(rng, 6, 3), Tensor(1.0 + rng.uniform((3,))), t64(rng, 3)],
    )
    assert report.passed, str(report)


def test_grad_check_dropout_with_frozen_mask():
    report = grad_check(
        lambda x: ad.dropout(x, 0.4, Rng(77), training=True),
        [t64(Rng(15), 5, 4)],
    )
    assert report.passed, str(report)


def test_backward_accumulates_over_reuse():
    x = Tensor(np.array([2.0]), requires_grad=True)
    y = x * x + x * 3.0  # dy/dx = 2x + 3 = 7
    assert np.allclose(y.backward()[x], [7.0])


def test_differentiating_restores_each_flag_also_when_the_block_raises():
    a, b = Tensor(np.ones(2)), Tensor(np.ones(2), requires_grad=True)
    with pytest.raises(KeyError):
        with ad.differentiating([a, b]):
            assert a.requires_grad and b.requires_grad
            raise KeyError("inside")
    assert not a.requires_grad and b.requires_grad


def test_grad_check_leaves_each_input_flag_as_it_found_it():
    a, b = t64(Rng(16), 3, 4), Tensor(Rng(17).normal((4, 2)), requires_grad=True)
    assert grad_check(ad.AFFINE, [a, b, t64(Rng(18), 2)]).passed
    assert not a.requires_grad and b.requires_grad


def test_backward_rejects_bad_cotangent_shape():
    x = Tensor(np.zeros((2, 2)), requires_grad=True)
    y = x * 2.0
    with pytest.raises(ValueError, match="cotangent"):
        y.backward(np.zeros(3))


# ---------------------------------------------------------------------------
# residual aggregation and gradient-aware VJPs
# ---------------------------------------------------------------------------


# frame counts of two videos of at most M = 3: the kernel sees only their rows
LENGTHS = {
    "ragged": [2, 1],
    "empty video": [0, 2],
    "no rows": [0, 0],
    "one row": [0, 1],
    "full": [3, 3],  # T = 6 rows, as many as the G * K logit rows
}


def residual_inputs(rng, lengths="ragged", n=3, g=2, k=3, d=4):
    """Padded (B, M, ...) frames, feats and gate, the assignment weights (N, G*K), bias
    and anchors, and the valid-frame mask, as the loop oracle takes them."""
    lengths = np.array(LENGTHS[lengths])
    mask = (np.arange(3) < lengths[:, None]).astype(np.float64)
    b, m = mask.shape
    return (t64(rng, b, m, n), t64(rng, n, g * k), t64(rng, g * k), t64(rng, b, m, g, d),
            t64(rng, k, d), Tensor(0.5 + rng.uniform((b, m, g))), mask)


def packed_inputs(rng, lengths="ragged"):
    """The kernel's inputs, the frames, feats and gate packed to the rows where the
    mask is set, and the frame counts; then the padded arrays and the mask."""
    x, w, c, f, a, s, mask = residual_inputs(rng, lengths)
    pack = lambda t: Tensor(t.data[mask > 0])  # noqa: E731
    return ((pack(x), w, c, pack(f), a, pack(s), np.array(LENGTHS[lengths])),
            (x.data, w.data, c.data, f.data, a.data, s.data, mask))


def residual_loops(frames, w, bias, feats, anchors, gate, mask):
    b, m, g, _ = feats.shape
    k = anchors.shape[0]
    out = np.zeros((b, k, feats.shape[-1]))
    for bi in range(b):
        for mi in range(m):
            for gi in range(g):
                logits = [bias[gi * k + ki] + sum(frames[bi, mi, ni] * w[ni, gi * k + ki]
                                                  for ni in range(frames.shape[-1])) for ki in range(k)]
                top = max(logits)
                z = [math.exp(v - top) for v in logits]
                for ki in range(k):
                    wt = mask[bi, mi] * gate[bi, mi, gi] * z[ki] / sum(z)
                    out[bi, ki] += wt * (feats[bi, mi, gi] - anchors[ki])
    return out


def test_residual_aggregate_matches_loops():
    for case in LENGTHS:
        (x, w, c, f, a, s, lengths), padded = packed_inputs(Rng(40), case)
        got = ad.residual_aggregate(x, w, c, f, a, s, lengths, 3).data
        assert np.abs(got - residual_loops(*padded)).max() < 1e-12, case
        # three experts on a leading axis, each with its own weights, bias and anchors;
        # their feats and gate their own, or shared as NetVLAD shares its frames; the
        # first expert's frames are every expert's
        experts = [packed_inputs(Rng(41 + e), case) for e in range(3)]
        stacked = [experts[0][0][0]] + [Tensor(np.stack([ins[i].data for ins, _ in experts]))
                                        for i in range(1, 6)]
        pads = [(experts[0][1][0],) + pad[1:] for _, pad in experts]
        got = ad.residual_aggregate(*stacked, lengths, 3).data
        shared = ad.residual_aggregate(*stacked[:3], f, stacked[4], s, lengths, 3).data
        for e, (px, pw, pc, pf, pa, ps, mask) in enumerate(pads):
            assert np.abs(got[e] - residual_loops(px, pw, pc, pf, pa, ps, mask)).max() < 1e-12, (case, e)
            alone = residual_loops(px, pw, pc, padded[3], pa, padded[5], mask)
            assert np.abs(shared[e] - alone).max() < 1e-12, (case, e)


def test_residual_aggregate_shape_mismatch_rejected():
    (x, w, c, f, a, s, lengths), _ = packed_inputs(Rng(41))
    for args in ((x, w, c, f, t64(Rng(1), 2, 4), s),  # anchors of 2 clusters, weights of 3
                 (x, w, c, Tensor(f.data[:2]), a, s),  # feats of 2 of the 3 rows
                 (x, Tensor(w.data[:2]), c, f, a, s),  # weights of 2 of the 3 frame dims
                 (x, w, Tensor(c.data[:5]), f, a, s),  # bias of 5 of the 6 logit rows
                 (x.reshape((3, 3, 1)), w, c, f, a, s)):  # frames not (T, N)
        with pytest.raises(ValueError, match=re.escape(
                f"residual_aggregate: frames {args[0].shape}, weights {args[1].shape}")):
            ad.residual_aggregate(*args, lengths, 3)


def test_residual_aggregate_rejects_lengths_that_do_not_fit_the_rows_or_the_grid():
    (x, w, c, f, a, s, lengths), _ = packed_inputs(Rng(41))  # 3 rows: lengths [2, 1]
    one = [Tensor(v.data[:1]) for v in (x, f, s)]
    for args, max_frames in (((x, w, c, f, a, s, np.array([-1, 4])), 4),  # negative
                             ((x, w, c, f, a, s, np.array([0, 3])), 2),  # above max_frames
                             ((x, w, c, f, a, s, lengths.astype(np.float64)), 3),
                             ((x, w, c, f, a, s, lengths[None]), 3),  # not 1-d
                             ((x, w, c, f, a, s, np.array([2, 0])), 3),  # sums to 2 of 3 rows
                             ((one[0], w, c, one[1], a, one[2], lengths), 3)):  # 3 places for 1 row
        with pytest.raises(ValueError, match="residual_aggregate: lengths"):
            ad.residual_aggregate(*args, max_frames)


def test_residual_aggregate_nan_logits_rejected():
    # the logits are formed inside the kernel: a NaN weight or bias makes them NaN
    for i, at in ((1, (1, 2)), (2, (4,))):
        inputs, _ = packed_inputs(Rng(41))
        inputs[i].data[at] = np.nan
        with pytest.raises(ValueError, match="residual_aggregate: NaN in logits"):
            ad.residual_aggregate(*inputs, 3)


def test_residual_aggregate_is_shift_invariant_without_overflow():
    # logits 1000s apart overflow exp unless the max over K is taken exactly
    (x, w, c, f, a, s, lengths), (px, pw, pc, *rest) = packed_inputs(Rng(49), "full")
    big_w, big_c = Tensor(w.data * 1000), Tensor(c.data * 1000)
    with np.errstate(over="raise", invalid="raise"):
        got = ad.residual_aggregate(x, big_w, big_c, f, a, s, lengths, 3).data
    assert np.isfinite(got).all()
    assert np.abs(got - residual_loops(px, big_w.data, big_c.data, *rest)).max() < 1e-12


@pytest.mark.parametrize("gated", [True, False])
def test_residual_aggregate_grad_checks(gated):
    for case in LENGTHS:
        (x, w, c, f, a, s, lengths), _ = packed_inputs(Rng(42), case)
        if gated:
            report = grad_check(lambda *ts: ad.residual_aggregate(*ts, lengths, 3), [x, w, c, f, a, s])
        else:
            ones = Tensor(np.ones(s.shape))
            report = grad_check(lambda *ts: ad.residual_aggregate(*ts, ones, lengths, 3),
                                [x, w, c, f, a])
        assert report.passed, f"{case}: {report}"


def test_residual_aggregate_grad_checks_with_constant_inputs():
    (x, w, c, f, a, s, lengths), _ = packed_inputs(Rng(43))
    report = grad_check(lambda w, a: ad.residual_aggregate(x, w, c, f, a, s, lengths, 3), [w, a])
    assert report.passed, str(report)


def test_residual_aggregate_vjp_skips_unneeded_inputs():
    cot = Rng(45).normal((2, 3, 4))
    for case in LENGTHS:
        inputs, _ = packed_inputs(Rng(44), case)
        arrays = tuple(v.data for v in inputs[:6])
        kw = dict(lengths=inputs[6], max_frames=3)
        kw.update(ad.RESIDUAL_AGGREGATE.forward(*arrays, **kw)[1])  # what the forward saves
        full = ad.RESIDUAL_AGGREGATE.vjp(cot, None, *arrays, **kw, needs=(True,) * 6)
        for needs in [(False, True, True, False, True, False), (True, False, False, True, False, True),
                      (False, False, False, False, True, False), (False,) * 5 + (True,),
                      (False, False, True, False, False, False)]:
            part = ad.RESIDUAL_AGGREGATE.vjp(cot, None, *arrays, **kw, needs=needs)
            for need, got, ref in zip(needs, part, full):
                assert (got is None) if not need else np.array_equal(got, ref)


def residual_vjp_recomputing(g_out, frames, w, b, feats, anchors, gate, *, lengths, max_frames, softmax,
                             wp, padded, rows):
    """The kernel's VJP as it was before it read the gated softmax and its sums
    over the grid from the forward: it recomputes both."""
    (bb, m), (g, k, t), r = (len(lengths), max_frames), softmax.shape[-3:], softmax.ndim - 3
    a = np.moveaxis(softmax, -1, -3)
    wt = a * gate[..., None]
    d_feats = ad._to_rows((wp @ g_out).reshape(a.shape[:r] + (bb * m, g, -1)), rows, r)
    d_feats = ad._unbroadcast(d_feats, feats.shape)
    wsum = np.ones(m * g, wp.dtype) @ wp
    d_anchors = -(wsum.swapaxes(-1, -2)[..., None, :] @ g_out.swapaxes(-3, -2))[..., 0, :]
    dw = padded @ g_out.swapaxes(-1, -2)
    dw -= (g_out.swapaxes(-3, -2) @ anchors[..., None])[..., 0].swapaxes(-1, -2)[..., None, :]
    dw = ad._to_rows(dw.reshape(a.shape[:r] + (bb * m, g, k)), rows, r)
    d_gate = ((a * dw).reshape(-1, k) @ np.ones(k, a.dtype)).reshape(a.shape[:-1])
    d_logits = np.multiply(np.subtract(dw, d_gate[..., None], out=dw), wt, out=dw)
    d_logits = d_logits.reshape(a.shape[:r] + (t, g * k))
    return (ad._unbroadcast(d_logits @ w.swapaxes(-1, -2), frames.shape), frames.T @ d_logits,
            d_logits.sum(axis=-2), d_feats, d_anchors, ad._unbroadcast(d_gate, gate.shape))


EXPERTS = ["one model", "3 stacked", "3 stacked, shared feats and gate"]


@pytest.mark.parametrize("experts", EXPERTS)
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_residual_aggregate_vjp_bytes_match_the_recomputing_form(dtype, experts):
    # the VJP takes the gated softmax as the saved grid's rows and the weights'
    # sums over the grid as the forward made them, with the bytes of recomputing both
    for case in ("ragged", "empty video", "full"):
        inputs, _ = packed_inputs(Rng(47), case)
        arrays = [v.data.astype(dtype) for v in inputs[:6]]
        if experts != "one model":  # every input but the shared frames stacked
            rng = Rng(48)
            arrays[1:] = [np.stack([v * (1 + rng.uniform((1,))[0]) for _ in range(3)]).astype(dtype)
                          for v in arrays[1:]]
            if experts.endswith("shared feats and gate"):
                arrays[3], arrays[5] = arrays[3][0], arrays[5][0]
        kw = dict(lengths=inputs[6], max_frames=3)
        out, saved = ad.RESIDUAL_AGGREGATE.forward(*arrays, **kw)
        cot = Rng(49).normal(out.shape).astype(dtype)
        got = ad.RESIDUAL_AGGREGATE.vjp(cot, out, *arrays, **kw, **saved, needs=(True,) * 6)
        saved.pop("wsum")
        ref = residual_vjp_recomputing(cot, *arrays, **kw, **saved)
        for i, (x_got, x_ref) in enumerate(zip(got, ref)):
            assert x_got.dtype == dtype and x_got.tobytes() == x_ref.tobytes(), (case, i)


def softmax_rows_last(logits):
    """Softmax over K of logits (..., T, G, K), taken on a (..., G, K, T) copy and
    copied back: the kernel's softmax when it took its logits from an ``affine``."""
    n = logits.ndim
    lead = tuple(range(n - 3))
    a = logits.transpose(lead + (n - 2, n - 1, n - 3)).copy()
    a = np.exp(np.subtract(a, a.max(axis=-2, keepdims=True), out=a), out=a)
    a /= a.sum(axis=-2, keepdims=True)
    return np.ascontiguousarray(a.transpose(lead + (n - 1, n - 3, n - 2)))


def residual_forward_from_logits(frames, w, b, feats, anchors, gate, *, lengths, max_frames):
    """The kernel's forward as it was when an ``affine`` formed its logits rows first,
    (T, G*K): the output, the softmax (..., T, G, K), the gated grid, its sums and the
    padded feats, each grid scattered into zeros."""
    (g, k), r = (feats.shape[-2], anchors.shape[-2]), w.ndim - 2
    logits = (frames @ w + b[..., None, :]).reshape(w.shape[:-2] + (len(frames), g, k))
    a = softmax_rows_last(logits)
    rows = np.flatnonzero(np.arange(max_frames) < lengths[:, None])

    def padded(x):
        out = np.zeros(x.shape[:x.ndim - 3] + (len(lengths) * max_frames,) + x.shape[-2:], x.dtype)
        out[(slice(None),) * (x.ndim - 3) + (rows,)] = x
        return out.reshape(out.shape[:-3] + (len(lengths), max_frames * g, x.shape[-1]))

    wp, feats_grid = padded(a * gate[..., None]), padded(feats)
    agg = wp.swapaxes(-1, -2) @ feats_grid
    wsum = np.ones(wp.shape[-2], wp.dtype) @ wp
    agg -= wsum[..., None] * anchors[..., None, :, :]
    return agg, a, wp, wsum, feats_grid


@pytest.mark.parametrize("experts", EXPERTS)
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_nextvlad_kernel_bytes_match_the_affine_logits_form(dtype, experts):
    # NeXtVLAD-sized inputs (N 16, G 4, K 8, D 4) of five videos of at most 6 frames:
    # the logits formed rows-last give the bytes of the affine's rows-first logits
    rng = Rng(50)
    lead = () if experts == "one model" else (3,)
    for lengths in ([6, 2, 0, 5, 3], [6] * 5):
        lengths, t = np.array(lengths), sum(lengths)
        shapes = [(t, 16), lead + (16, 32), lead + (32,), lead + (t, 4, 4), lead + (8, 4), lead + (t, 4)]
        if experts.endswith("shared feats and gate"):
            shapes[3], shapes[5] = shapes[3][1:], shapes[5][1:]
        arrays = [rng.normal(s).astype(dtype) for s in shapes]
        arrays[5] = 1 / (1 + np.exp(-arrays[5]))
        kw = dict(lengths=lengths, max_frames=6)
        out, saved = ad.RESIDUAL_AGGREGATE.forward(*arrays, **kw)
        agg, a, wp, wsum, feats_grid = residual_forward_from_logits(*arrays, **kw)
        assert out.dtype == dtype and out.tobytes() == agg.tobytes()
        assert np.moveaxis(saved["softmax"], -1, -3).tobytes() == a.tobytes()
        for name, ref in (("wp", wp), ("wsum", wsum), ("padded", feats_grid)):
            assert saved[name].tobytes() == ref.tobytes(), name


@pytest.mark.parametrize("prim", [ad.MUL], ids=lambda p: p.name)
def test_binary_vjps_skip_unneeded_inputs(prim):
    rng = Rng(46)
    a, b = rng.normal((3, 4)), 2.0 + rng.uniform((3, 4))
    cot = rng.normal(prim.forward(a, b).shape)
    full = prim.vjp(cot, None, a, b, needs=(True, True))
    assert all(g is not None for g in full)
    first, second = prim.vjp(cot, None, a, b, needs=(True, False))
    assert second is None and np.array_equal(first, full[0])
    first, second = prim.vjp(cot, None, a, b, needs=(False, True))
    assert first is None and np.array_equal(second, full[1])


def test_affine_vjp_skips_unneeded_inputs():
    rng = Rng(46)
    x, w, b = rng.normal((3, 4)), rng.normal((4, 2)), rng.normal((2,))
    cot = rng.normal((3, 2))
    full = ad.AFFINE.vjp(cot, None, x, w, b, needs=(True,) * 3)
    assert all(g is not None for g in full)
    for needs in itertools.product((False, True), repeat=3):
        part = ad.AFFINE.vjp(cot, None, x, w, b, needs=needs)
        for need, got, ref in zip(needs, part, full):
            assert np.array_equal(got, ref) if need else got is None


def test_node_records_its_primitive_only_where_a_gradient_flows():
    x, w = Tensor(np.ones((2, 3))), Tensor(np.ones((3, 3)), requires_grad=True)
    node = ad.softmax(ad.affine(x, w, Tensor(np.zeros(3))), axis=0)
    assert node._prim is ad.SOFTMAX and node._kw == {"axis": 0} and node._parents[0]._prim is ad.AFFINE
    assert repr(node) == "Tensor(shape=(2, 3), dtype=float64, op=softmax)"
    const = ad.softmax(ad.affine(x, x.reshape((3, 2)), Tensor(np.zeros(2))), axis=0)
    assert const._parents == () and const._prim is None and not const.requires_grad
    assert repr(const) == "Tensor(shape=(2, 2), dtype=float64)"


def test_frames_get_no_cotangent_through_affine():
    seen = []

    def probe_vjp(g, out, x, w, b, needs):
        seen.append(needs)
        return ad.AFFINE.vjp(g, out, x, w, b, needs=needs)

    prim = Primitive("probe", ad.AFFINE.forward, probe_vjp)
    frames = Tensor(np.ones((2, 3)))
    w, b = Tensor(np.ones((3, 2)), requires_grad=True), Tensor(np.ones(2), requires_grad=True)
    grads = ad.reduce_sum(ad.apply(prim, frames, w, b)).backward()
    assert seen == [(False, True, True)] and frames not in grads and w in grads and b in grads


# ---------------------------------------------------------------------------
# hot primitives stay byte-identical to their earlier formulas
# ---------------------------------------------------------------------------


def sigmoid_boolean_scatter(a):
    out = np.empty_like(a)
    pos = a >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-a[pos]))
    ena = np.exp(a[~pos])
    out[~pos] = ena / (1.0 + ena)
    return out


def softmax_reduce_max(a, axis):
    shifted = a - a.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_bytes_match_boolean_scatter_form(dtype):
    rng = Rng(50)
    x = np.concatenate([rng.normal((493,)) * 8, rng.normal((64,)) * 300,
                        [0.0, -0.0, np.inf, -np.inf, np.nan, 1e-40, -1e-40]]).astype(dtype)
    x = x.reshape(188, 3)
    assert ad.sigmoid(Tensor(x)).data.tobytes() == sigmoid_boolean_scatter(x).tobytes()


@pytest.mark.parametrize("shape,axis", [((7, 8), -1), ((5, 4, 3, 32), -1), ((6, 5), 0),
                                        ((3, 7, 2), 1), ((4, 1), -1), ((2, 3, 9), 2)])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_softmax_bytes_match_reduce_max_form(shape, axis, dtype):
    x = np.round(Rng(51).normal(shape) * 4).astype(dtype) * 7  # ties in the max
    x.reshape(-1)[::5] = -np.inf
    with np.errstate(invalid="ignore"):
        assert ad.softmax(Tensor(x), axis=axis).data.tobytes() == softmax_reduce_max(x, axis).tobytes()


@pytest.mark.parametrize("grad", [False, True])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_affine_bytes_match_matmul_plus_bias(dtype, grad):
    # one node for x @ w + b, with the bytes of a matmul node and a bias add node
    rng = Rng(52)
    x, w, b = (rng.normal(shape).astype(dtype) for shape in ((64, 48), (48, 20), (20,)))
    g = rng.normal((64, 20)).astype(dtype)
    leaves = [Tensor(x), Tensor(w), Tensor(b)]
    with ad.differentiating(leaves if grad else []):
        out = ad.affine(*leaves)
        grads = out.backward(g)
    assert out.requires_grad == grad and (out._prim is ad.AFFINE) == grad
    assert out.data.tobytes() == (x @ w + b).tobytes()
    if grad:
        assert grads[leaves[0]].tobytes() == (g @ np.swapaxes(w, -1, -2)).tobytes()
        assert grads[leaves[1]].tobytes() == (np.swapaxes(x, -1, -2) @ g).tobytes()
        assert grads[leaves[2]].tobytes() == g.sum(axis=(0,)).tobytes()


@pytest.mark.parametrize("grad", [False, True])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_bce_bytes_match_the_composed_form(dtype, grad):
    # one node for the six of softplus(z) - z*y, summed over classes, then
    # over rows, times 1/B; the VJP adds the two paths' cotangents
    rng = Rng(53)
    z = np.concatenate([rng.normal((60, 20)) * 4, rng.normal((4, 20)) * 60]).astype(dtype)
    y = (rng.uniform((64, 20)) < 0.2).astype(dtype)
    g = np.asarray(0.7, dtype=dtype)
    logits = Tensor(z)
    with ad.differentiating([logits] if grad else []):
        out = ad.bce(logits, y)
        grads = out.backward(g)
    assert out.requires_grad == grad and (out._prim is ad.BCE) == grad
    softplus = np.maximum(z, 0) + np.log1p(np.exp(-np.abs(z)))
    inv_b = np.asarray(1.0 / 64, dtype=dtype)
    assert out.data.tobytes() == ((softplus - z * y).sum(axis=(1,)).sum(axis=(0,)) * inv_b).tobytes()
    if grad:
        gz = np.broadcast_to(g * inv_b, z.shape).copy()
        expected = gz * sigmoid_boolean_scatter(z) + (-gz) * y
        assert grads[logits].tobytes() == expected.tobytes()
