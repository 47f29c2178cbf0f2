"""Two-stream model: whitening, SE gating, forward wiring, mixture gate."""

import copy
import dataclasses
import hashlib

import numpy as np
import pytest

from nextvlad import autodiff as ad
from nextvlad.autodiff import Tensor
from nextvlad.data import SyntheticSpec, gen_synthetic, make_batch
from nextvlad.gradcheck import grad_check
from nextvlad.model import (
    Eigenvalues,
    MixtureParams,
    ModelConfig,
    ModelParams,
    SecgParams,
    _frame_mean,
    gated_mixture,
    mixture_forward,
    model_forward,
    reverse_whitening,
    se_context_gating,
)
from nextvlad.rng import Rng
from nextvlad.verify import cast_params
from nextvlad.vlad import FrameBatchView, NetVladConfig, NeXtVladConfig, weight_census


def toy_config(num_classes=3, dropout=0.0):
    return ModelConfig(
        video_dim=4,
        audio_dim=3,
        video_vlad=NeXtVladConfig(input_dim=4, clusters=2, hidden_dim=8, groups=2, expansion=2),
        audio_vlad=NeXtVladConfig(input_dim=3, clusters=2, hidden_dim=8, groups=3, expansion=2),
        hidden_dim=8,
        se_ratio=2,
        num_classes=num_classes,
        dropout_rate=dropout,
    )


def toy_batch(seed=5, n=3, dtype=np.float32):
    spec = SyntheticSpec(num_videos=max(n, 4), num_classes=3, visual_dim=4, audio_dim=3,
                         frames_min=2, frames_max=3, labels_min=1, labels_max=2, seed=seed)
    ds = gen_synthetic(spec)
    return make_batch(ds.records[:n], 3, 3, dtype=dtype)


def without_frames(batch):
    """The batch with every video's frame count set to zero."""
    for name in ("video", "audio"):
        view = getattr(batch, name)
        setattr(batch, name, dataclasses.replace(
            view, frames=Tensor(view.frames.data[:0]), lengths=np.zeros_like(view.lengths)))
    return batch


# ---------------------------------------------------------------------------
# reverse whitening
# ---------------------------------------------------------------------------


def test_reverse_whitening_identity_for_unit_eigenvalues():
    x = Tensor(Rng(1).normal((2, 3), dtype=np.float32))
    out = reverse_whitening(x, np.sqrt(np.ones(3)))
    assert np.array_equal(out.data, x.data)


def test_reverse_whitening_by_hand():
    out = reverse_whitening(Tensor([[1.0, 1.0]]), np.sqrt([4.0, 9.0]))
    assert np.allclose(out.data, [[2.0, 3.0]], atol=1e-7)


def test_reverse_whitening_inverse_roundtrip():
    rng = Rng(2)
    x = rng.normal((5, 6))
    e = 0.1 + rng.uniform((6,)) * 5
    scaled = reverse_whitening(Tensor(x), np.sqrt(e)).data
    assert np.abs(scaled / np.sqrt(e) - x).max() < 1e-6


def test_reverse_whitening_validation():
    with pytest.raises(ValueError, match="dim"):
        reverse_whitening(Tensor(np.ones((2, 3))), np.sqrt(np.ones(4)))
    with pytest.raises(ValueError, match="index 1"):
        Eigenvalues([1.0, 0.0, 2.0])
    with pytest.raises(ValueError, match="index 0"):
        Eigenvalues([-3.0])


# ---------------------------------------------------------------------------
# SE context gating
# ---------------------------------------------------------------------------


def test_secg_open_gate_is_identity():
    params = SecgParams.create(6, 2, Rng(3))
    params.fc2_w.data = np.zeros_like(params.fc2_w.data)
    params.fc2_b.data = np.full_like(params.fc2_b.data, 100.0)
    x = Rng(4).normal((4, 6), dtype=np.float32)
    out = se_context_gating(Tensor(x), params, training=False)
    assert np.array_equal(out.data, x)  # sigmoid(100) rounds to exactly 1


def test_secg_closed_gate_zeroes_output():
    params = SecgParams.create(6, 2, Rng(5))
    params.fc2_w.data = np.zeros_like(params.fc2_w.data)
    params.fc2_b.data = np.full_like(params.fc2_b.data, -100.0)
    x = Rng(6).normal((4, 6), dtype=np.float32)
    out = se_context_gating(Tensor(x), params, training=False)
    assert np.abs(out.data).max() < 1e-35


def test_secg_weight_count_formula():
    params = SecgParams.create(2048, 8, None)
    assert weight_census(params) == 1_048_576
    assert weight_census(params) == 2 * 2048 * 2048 // 8


def test_secg_output_bounded_by_input():
    params = SecgParams.create(8, 4, Rng(7))
    x = Rng(8).normal((5, 8), dtype=np.float32)
    out = se_context_gating(Tensor(x), params, training=False).data
    assert (np.abs(out) <= np.abs(x) + 1e-7).all()


def test_secg_ratio_must_divide():
    with pytest.raises(ValueError, match="divide"):
        SecgParams.create(6, 4, Rng(9))


# ---------------------------------------------------------------------------
# full model forward
# ---------------------------------------------------------------------------


def test_all_masked_batch_yields_classifier_bias():
    cfg = toy_config()
    params = ModelParams.create(cfg, Rng(10))
    params.classifier_b.data = Rng(11).normal((3,), dtype=np.float32)
    batch = without_frames(toy_batch())
    logits = model_forward(batch, params, training=False)
    expected = np.tile(params.classifier_b.data, (3, 1))
    assert np.abs(logits.data - expected).max() < 1e-7


def test_forward_probabilities_in_unit_interval():
    cfg = toy_config()
    params = ModelParams.create(cfg, Rng(12))
    batch = toy_batch()
    probs = ad.sigmoid(model_forward(batch, params, training=False)).data
    assert probs.shape == (3, 3)
    assert (probs > 0).all() and (probs < 1).all()


def test_model_forward_grad_check_training_mode():
    cfg = toy_config(dropout=0.3)
    params = cast_params(ModelParams.create(cfg, Rng(13)), np.float64)
    batch = toy_batch(dtype=np.float64)
    leaves = [batch.video.frames, batch.audio.frames]
    leaves += [t for _, t in sorted(params.named_parameters().items())]
    report = grad_check(
        lambda *_: model_forward(batch, params, training=True, rng=Rng(99)), leaves)
    assert report.passed, str(report)


def test_no_eigenvalues_no_whitening_scale():
    # whitening is on exactly when eigenvalues are given: without them nothing
    # holds a scale, and the frames reach the encoder as they are
    cfg = toy_config()
    plain = ModelParams.create(cfg, Rng(14))
    unit = ModelParams.create(cfg, Rng(14), eigenvalues=Eigenvalues(np.ones(4)))
    assert plain.whiten_scale is None
    assert np.array_equal(unit.whiten_scale, np.ones(4, np.float32))
    mix = MixtureParams.create(cfg, Rng(14))
    assert mix.whiten_scale is None and mix.experts.whiten_scale is None
    assert not any("whiten_scale" in name for name in {**plain.named_buffers(), **mix.named_buffers()})
    batch = toy_batch()
    assert np.array_equal(model_forward(batch, plain).data, model_forward(batch, unit).data)


def test_eigenvalues_switch_on_and_reach_the_whitening():
    cfg = toy_config()
    with pytest.raises(ValueError, match="eigenvalue count 3 != video_dim 4"):
        ModelParams.create(cfg, Rng(15), eigenvalues=Eigenvalues(np.ones(3)))
    a = ModelParams.create(cfg, Rng(15), eigenvalues=Eigenvalues([1.0, 1.0, 1.0, 1.0]))
    b = ModelParams.create(cfg, Rng(15), eigenvalues=Eigenvalues([4.0, 4.0, 4.0, 4.0]))
    batch = toy_batch()
    la = model_forward(batch, a, training=False).data
    lb = model_forward(batch, b, training=False).data
    assert np.abs(la - lb).max() > 1e-6  # the scale actually reaches the encoder


def test_model_census_equals_sum_of_closed_forms():
    from nextvlad.vlad import param_count_nextvlad

    cfg = toy_config()
    params = ModelParams.create(cfg, None)
    h, r, c = cfg.hidden_dim, cfg.se_ratio, cfg.num_classes
    expected = (param_count_nextvlad(cfg.video_vlad)
                + param_count_nextvlad(cfg.audio_vlad)
                + 2 * h * h // r
                + h * c)
    assert weight_census(params) == expected


def test_census_splits_weights_from_biases_and_bn():
    # every non-weight trainable is a 1-d vector (bias or BN scale/shift);
    # the weight census must account for exactly the 2-d tensors
    cfg = toy_config()
    params = ModelParams.create(cfg, Rng(22))
    named = params.named_parameters()
    matrices = sum(t.size for t in named.values() if t.ndim == 2)
    vectors = sum(t.size for t in named.values() if t.ndim == 1)
    assert weight_census(params) == matrices
    assert sum(t.size for t in named.values()) == matrices + vectors


def test_mixed_stream_kinds_census():
    from nextvlad.vlad import param_count_netvlad, param_count_nextvlad

    cfg = ModelConfig(
        video_dim=4, audio_dim=3,
        video_vlad=NeXtVladConfig(input_dim=4, clusters=2, hidden_dim=8, groups=2, expansion=2),
        audio_vlad=NetVladConfig(input_dim=3, clusters=2, hidden_dim=8),
        hidden_dim=8, se_ratio=2, num_classes=3)
    params = ModelParams.create(cfg, None)
    expected = (param_count_nextvlad(cfg.video_vlad) + param_count_netvlad(cfg.audio_vlad)
                + 2 * 8 * 8 // 2 + 8 * 3)
    assert weight_census(params) == expected


def test_mixture_census_is_three_experts_plus_gate():
    from nextvlad.vlad import param_count_nextvlad

    cfg = toy_config()
    mix = MixtureParams.create(cfg, None)
    expert = weight_census(ModelParams.create(cfg, None))
    assert weight_census(mix.experts) == 3 * expert  # stacked biases (3, O) are not weights
    assert weight_census(mix) == 3 * expert + mix.gate_w.size
    h, r, c = cfg.hidden_dim, cfg.se_ratio, cfg.num_classes
    closed = (param_count_nextvlad(cfg.video_vlad) + param_count_nextvlad(cfg.audio_vlad)
              + 2 * h * h // r + h * c)
    assert weight_census(mix) == 3 * closed + (cfg.video_dim + cfg.audio_dim) * 3


# ---------------------------------------------------------------------------
# mixture
# ---------------------------------------------------------------------------


def test_identical_experts_make_mixture_equal_experts():
    cfg = toy_config()
    mix = MixtureParams.create(cfg, Rng(16))
    for t in mix.experts.named_parameters().values():
        t.data = np.repeat(t.data[:1], 3, axis=0)
    batch = toy_batch()
    expert_logits, mixture_logits, gates = mixture_forward(batch, mix, training=False)
    for z in expert_logits.data:
        assert np.abs(mixture_logits.data - z).max() < 1e-5


def test_one_hot_gate_selects_first_expert_exactly():
    cfg = toy_config()
    mix = MixtureParams.create(cfg, Rng(17))
    mix.gate_w.data = np.zeros_like(mix.gate_w.data)
    mix.gate_b.data = np.array([1000.0, 0.0, 0.0], dtype=np.float32)
    batch = toy_batch()
    expert_logits, mixture_logits, gates = mixture_forward(batch, mix, training=False)
    assert np.array_equal(gates.data, np.tile([1.0, 0.0, 0.0], (3, 1)))
    assert np.array_equal(mixture_logits.data, expert_logits.data[0])


def test_mixture_matches_hand_computed_weighted_sum():
    cfg = toy_config()
    mix = MixtureParams.create(cfg, Rng(18))
    batch = toy_batch()
    expert_logits, mixture_logits, gates = mixture_forward(batch, mix, training=False)
    expected = sum(gates.data[:, m:m + 1] * expert_logits.data[m] for m in range(3))
    assert np.abs(mixture_logits.data - expected).max() < 1e-6


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_stacked_combine_is_bit_exact_to_the_per_expert_sum(dtype):
    # 150 classes: the gate's row sums take numpy's pairwise path
    mix = cast_params(MixtureParams.create(toy_config(num_classes=150), Rng(21)), dtype)
    expert_logits, mixture_logits, gates = mixture_forward(toy_batch(dtype=dtype), mix)
    g, (z0, z1, z2) = gates.data, expert_logits.data
    assert mixture_logits.dtype == dtype
    assert mixture_logits.data.tobytes() == (g[:, :1] * z0 + g[:, 1:2] * z1 + g[:, 2:] * z2).tobytes()

    gates = Tensor(g, requires_grad=True)
    experts = Tensor(expert_logits.data, requires_grad=True)
    cot = Rng(22).normal(mixture_logits.shape, dtype=dtype)
    grads = gated_mixture(gates, experts).backward(cot)
    for m in range(3):
        assert grads[experts][m].tobytes() == (cot * g[:, m:m + 1]).tobytes()
    rows = [(cot * z).sum(axis=1, keepdims=True) for z in (z0, z1, z2)]
    assert grads[gates].tobytes() == np.concatenate(rows, axis=1).tobytes()


def test_gates_sum_to_one_and_mixture_in_convex_hull():
    cfg = toy_config()
    mix = MixtureParams.create(cfg, Rng(19))
    batch = toy_batch()
    expert_logits, mixture_logits, gates = mixture_forward(batch, mix, training=False)
    assert np.abs(gates.data.sum(axis=1) - 1.0).max() < 1e-6
    lo, hi = expert_logits.data.min(axis=0), expert_logits.data.max(axis=0)
    assert (mixture_logits.data >= lo - 1e-6).all()
    assert (mixture_logits.data <= hi + 1e-6).all()


def test_gate_uses_masked_mean_zero_when_all_masked():
    cfg = toy_config()
    mix = MixtureParams.create(cfg, Rng(20))
    mix.gate_b.data = np.array([0.3, -0.1, 0.4], dtype=np.float32)
    _, _, gates = mixture_forward(without_frames(toy_batch()), mix, training=False)
    # empty mean -> gate input is the zero vector -> softmax of the bias alone
    expected = np.exp(mix.gate_b.data) / np.exp(mix.gate_b.data).sum()
    assert np.abs(gates.data - expected).max() < 1e-6


def test_gate_mean_of_a_video_without_frames_is_zero(padded):
    # between videos with frames too: its mean takes no frame of its neighbours
    mix = MixtureParams.create(toy_config(), Rng(24))
    batch = toy_batch()
    lengths = batch.video.lengths.copy()
    lengths[1] = 0
    for name in ("video", "audio"):
        setattr(batch, name, FrameBatchView.from_lengths(padded(getattr(batch, name)), lengths))
    _, _, gates = mixture_forward(batch, mix, training=False)
    expected = np.exp(mix.gate_b.data) / np.exp(mix.gate_b.data).sum()
    assert np.abs(gates.data[1] - expected).max() < 1e-6
    assert np.abs(gates.data[[0, 2]] - expected).max() > 1e-3


def test_gate_reads_the_unwhitened_frames():
    # the experts see the reverse-whitened video frames, the gate the raw ones
    mix = MixtureParams.create(toy_config(), Rng(34), eigenvalues=Eigenvalues([0.25, 4.0, 9.0, 2.0]))
    batch = toy_batch()
    _, _, gates = mixture_forward(batch, mix)
    mean = Tensor(np.concatenate([_frame_mean(batch.video), _frame_mean(batch.audio)], axis=1))
    expected = ad.softmax(ad.affine(mean, mix.gate_w, mix.gate_b), axis=-1)
    assert gates.data.tobytes() == expected.data.tobytes()


def test_gate_input_ignores_padding(padded):
    cfg = toy_config()
    mix = MixtureParams.create(cfg, Rng(21))
    batch = toy_batch()
    lengths = batch.video.lengths.copy()
    lengths[0] = 1  # force padded positions on the first video
    video, audio = padded(batch.video), padded(batch.audio)
    batch.video = FrameBatchView.from_lengths(video, lengths)
    batch.audio = FrameBatchView.from_lengths(audio, lengths)
    _, _, gates_base = mixture_forward(batch, mix, training=False)
    video[0, -1] = 1e3  # a padded position
    batch.video = FrameBatchView.from_lengths(video, lengths)
    _, _, gates_junk = mixture_forward(batch, mix, training=False)
    assert np.array_equal(gates_base.data, gates_junk.data)


def test_mixture_ignores_appended_padding(padded):
    # 1-10 extra padded frames per video grow M: the gate's frame mean must
    # still divide by the valid count, and every expert ignore the padding
    cfg = toy_config()
    mix = MixtureParams.create(cfg, Rng(22))
    rng = Rng(23)
    for trial in range(5):
        batch = toy_batch(seed=30 + trial)
        _, base_logits, base_gates = mixture_forward(batch, mix, training=False)
        extra = 1 + int(rng.integers(1, 10)[0])
        for name in ("video", "audio"):
            view = getattr(batch, name)
            b, n = len(view.lengths), view.feature_dim
            junk = (rng.uniform((b, extra, n)) * 20 - 10).astype(np.float32)
            setattr(batch, name, FrameBatchView.from_lengths(
                np.concatenate([padded(view), junk], axis=1), view.lengths))
        _, logits, gates = mixture_forward(batch, mix, training=False)
        assert np.abs(logits.data - base_logits.data).max() < 1e-6
        assert np.abs(gates.data - base_gates.data).max() < 1e-6


# ---------------------------------------------------------------------------
# stacked experts against each expert alone
# ---------------------------------------------------------------------------


def expert_alone(stacked: ModelParams, i: int) -> ModelParams:
    """Expert ``i`` of a model stacked on an expert axis, as a model of its own:
    a copy of slice ``i`` of every tensor and buffer."""
    alone = copy.deepcopy(stacked)
    for _, owner, attr in alone.leaves():
        value = getattr(owner, attr)
        if isinstance(value, Tensor):
            setattr(owner, attr, Tensor(value.data[i].copy()))
        else:
            setattr(owner, attr, value[i].copy())
    return alone


@pytest.mark.parametrize("audio_kind", ["nextvlad", "netvlad"])
@pytest.mark.parametrize("training", [False, True])
def test_stacked_experts_match_each_expert_run_alone(audio_kind, training):
    # float64, padded videos of 1-5 frames, whitening, dropout and batch norm:
    # every expert's logits, gradients and running moments must be what its
    # slice gives alone, with the dropout words drawn in expert order
    audio = (NeXtVladConfig(input_dim=3, clusters=2, hidden_dim=8, groups=3, expansion=2)
             if audio_kind == "nextvlad" else NetVladConfig(input_dim=3, clusters=3, hidden_dim=8))
    cfg = ModelConfig(video_dim=4, audio_dim=3, hidden_dim=8, se_ratio=2, num_classes=5,
                      video_vlad=NeXtVladConfig(input_dim=4, clusters=3, hidden_dim=8, groups=2),
                      audio_vlad=audio, dropout_rate=0.3)
    eig = Eigenvalues(0.5 + Rng(30).uniform((4,)))
    mix = cast_params(MixtureParams.create(cfg, Rng(31), eigenvalues=eig), np.float64)
    ds = gen_synthetic(SyntheticSpec(num_videos=6, num_classes=5, visual_dim=4, audio_dim=3,
                                     frames_min=1, frames_max=5, seed=32))
    batch = make_batch(ds.records, 5, 5, dtype=np.float64)
    cot = Rng(33).normal((3, 6, 5))

    # each expert alone holds the one scale the mixture shares
    alone = [dataclasses.replace(expert_alone(mix.experts, i), whiten_scale=mix.whiten_scale)
             for i in range(3)]
    named = mix.experts.named_parameters()
    with ad.differentiating(named.values()):
        logits = mixture_forward(batch, mix, training, Rng(7))[0]
        grads = logits.backward(cot)
    rng = Rng(7)
    for i, expert in enumerate(alone):
        own = expert.named_parameters()
        with ad.differentiating(own.values()):
            z = model_forward(batch, expert, training, rng)
            own_grads = z.backward(cot[i])
        assert np.abs(logits.data[i] - z.data).max() <= 1e-12
        for name, t in named.items():
            assert np.abs(grads[t][i] - own_grads[own[name]]).max() <= 1e-12, name
        buffers = expert.named_buffers()
        for name, buf in mix.experts.named_buffers().items():
            assert np.abs(buf[i] - buffers[name]).max() <= 1e-12, name



# ---------------------------------------------------------------------------
# initialization bytes
# ---------------------------------------------------------------------------


def desk_config():
    """NeXtVLAD at desk scale: visual 64, audio 16, 8 clusters, 4 groups, hidden 128, 20 classes."""
    def stream(dim):
        return NeXtVladConfig(input_dim=dim, clusters=8, hidden_dim=128, groups=4)
    return ModelConfig(video_dim=64, audio_dim=16, video_vlad=stream(64), audio_vlad=stream(16),
                       hidden_dim=128, se_ratio=8, num_classes=20, dropout_rate=0.5)


def params_digest(params) -> str:
    h = hashlib.sha256()
    for name, t in sorted(params.named_parameters().items()):
        h.update(f"{name} {t.data.dtype} {t.data.shape}\n".encode())
        h.update(np.ascontiguousarray(t.data).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("kind, digest", [
    (ModelParams, "005b6d11dad7f02ede26f8de6138d126dd6c20238bda03ce57e21abb05fab71f"),
    (MixtureParams, "90f9dd1b73d051b0d14557fd468aa07a3afe69f7a155c144c304b92802821872"),
])
def test_initial_parameter_bytes_are_pinned(kind, digest):
    """Every initial weight is a fixed function of the seed: the draw order and
    the one float64 -> float32 rounding of each scaled normal never change."""
    assert params_digest(kind.create(desk_config(), Rng(2701))) == digest
