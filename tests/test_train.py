"""Adam, LR schedule, the loop's determinism, scoring passes, and checkpoint round trips."""

import dataclasses
import struct

import numpy as np
import pytest

from nextvlad import autodiff as ad
from nextvlad.autodiff import Tensor
from nextvlad.data import Dataset, SyntheticSpec, gen_synthetic, make_batch
from nextvlad.losses import LossConfig, bce_loss
from nextvlad.metrics import MAX_PREDICTIONS, topk_predictions
from nextvlad.model import Eigenvalues, MixtureParams, ModelConfig, ModelParams, model_forward
from nextvlad.rng import Rng, derive_seed
from nextvlad.train import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_BLOCK,
    ADAM_EPS,
    TAG_INIT,
    AdamState,
    TrainConfig,
    TrainState,
    adam_step,
    apply_checkpoint,
    evaluate_gap,
    load_checkpoint,
    lr_schedule,
    predict,
    predict_logits,
    save_checkpoint,
    train_loop,
)
from nextvlad.vlad import NetVladConfig, NeXtVladConfig


def desk_dataset(seed=90, videos=48):
    return gen_synthetic(SyntheticSpec(
        num_videos=videos, num_classes=5, visual_dim=8, audio_dim=4,
        frames_min=2, frames_max=5, labels_min=1, labels_max=2,
        noise_sigma=0.1, seed=seed))


def desk_model_config(num_classes=5, dropout=0.2):
    return ModelConfig(
        video_dim=8, audio_dim=4,
        video_vlad=NeXtVladConfig(input_dim=8, clusters=2, hidden_dim=16, groups=2, expansion=2),
        audio_vlad=NeXtVladConfig(input_dim=4, clusters=2, hidden_dim=16, groups=2, expansion=2),
        hidden_dim=16, se_ratio=4, num_classes=num_classes, dropout_rate=dropout)


def desk_train_config(**kw):
    defaults = dict(loss=LossConfig(num_classes=5, temperature=0.0, kd_enabled=False),
                    base_lr=2e-3, batch_size=16, epochs=2, seed=4,
                    decay_factor=0.8, decay_every_samples=2_000_000)
    defaults.update(kw)
    return TrainConfig(**defaults)


def fresh_state(seed=4, cfg=None, experts=1):
    kind = MixtureParams if experts == 3 else ModelParams
    return TrainState.create(kind.create(cfg or desk_model_config(), Rng(derive_seed(seed, TAG_INIT))))


# ---------------------------------------------------------------------------
# adam
# ---------------------------------------------------------------------------


def test_adam_zero_gradients_are_a_fixed_point():
    w = Tensor(np.array([1.0, -2.0], dtype=np.float32), requires_grad=True)
    state = AdamState.create({"w": w})
    adam_step({"w": w}, {"w": np.zeros(2, dtype=np.float32)}, state, lr=0.1)
    assert np.array_equal(w.data, [1.0, -2.0])
    assert np.array_equal(state.m["w"], np.zeros(2))
    assert np.array_equal(state.v["w"], np.zeros(2))
    assert state.step == 1


def test_adam_first_step_magnitude():
    w = Tensor(np.array([0.0]), requires_grad=True)
    state = AdamState.create({"w": w})
    adam_step({"w": w}, {"w": np.array([1.0])}, state, lr=0.001)
    # bias correction makes m_hat = g and v_hat = g^2 on step one
    expected = -0.001 * 1.0 / (1.0 + ADAM_EPS)
    assert abs(w.data[0] - expected) < 1e-12


def test_adam_three_steps_match_scalar_oracle():
    w = Tensor(np.array([1.0]), requires_grad=True)
    state = AdamState.create({"w": w})
    m = v = 0.0
    w_ref = 1.0
    lr = 0.1
    history = []
    for t in range(1, 4):
        g = 2.0 * w_ref  # d/dw of w^2
        m = ADAM_BETA1 * m + (1 - ADAM_BETA1) * g
        v = ADAM_BETA2 * v + (1 - ADAM_BETA2) * g * g
        m_hat = m / (1 - ADAM_BETA1 ** t)
        v_hat = v / (1 - ADAM_BETA2 ** t)
        w_ref = w_ref - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        history.append(w_ref)

        adam_step({"w": w}, {"w": np.array([2.0 * w.data[0]])}, state, lr=lr)
        assert abs(w.data[0] - w_ref) < 1e-12
    assert history[0] > history[1] > history[2]  # |w| decreasing toward 0


def test_adam_nan_gradient_names_tensor():
    w = Tensor(np.zeros(2), requires_grad=True)
    state = AdamState.create({"classifier_w": w})
    with pytest.raises(ValueError, match="classifier_w"):
        adam_step({"classifier_w": w}, {"classifier_w": np.array([np.nan, 0.0])}, state, 0.1)


def adam_reference(p, g, m, v, t, lr):
    """The allocating form of one Adam update, kept as the byte reference."""
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * g
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * (g * g)
    m_hat = m / (1.0 - ADAM_BETA1 ** t)
    v_hat = v / (1.0 - ADAM_BETA2 ** t)
    return p - (lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)).astype(p.dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adam_bytes_match_allocating_form(dtype):
    # the second set spans a full block and a partial one, "mid" straddling
    # their border; "mid" has no gradient on even steps
    rng = Rng(60)
    for shapes in ({"small": (3,), "big": (40, 30), "mid": (7, 5)},
                   {"small": (3,), "big": (ADAM_BLOCK - 20,), "mid": (7, 5), "last": (300, 4)}):
        params = {k: Tensor(rng.normal(s).astype(dtype), requires_grad=True) for k, s in shapes.items()}
        ref = {k: (t.data.copy(), np.zeros_like(t.data), np.zeros_like(t.data)) for k, t in params.items()}
        state = AdamState.create(params)
        for t in range(1, 6):
            grads = {k: (rng.normal(s) * 10 ** (t - 3)).astype(dtype) for k, s in shapes.items()}
            if t % 2 == 0:
                grads["mid"] = None
            lr = 1e-3 * 0.8 ** t
            adam_step(params, grads, state, lr)
            for k, (p, m, v) in ref.items():
                g = np.zeros_like(p) if grads[k] is None else grads[k]
                ref[k] = (adam_reference(p, g, m, v, t, lr), m, v)
                assert params[k].data.tobytes() == ref[k][0].tobytes(), (k, t)
                assert state.m[k].tobytes() == m.tobytes() and state.v[k].tobytes() == v.tobytes()


def test_adam_nan_past_the_first_block_names_tensor():
    params = {name: Tensor(np.zeros(ADAM_BLOCK - 1), requires_grad=True) for name in ("first", "second")}
    grads = {name: np.ones(ADAM_BLOCK - 1) for name in params}
    grads["second"][-1] = np.nan
    with pytest.raises(ValueError, match="NaN gradient for tensor 'second'"):
        adam_step(params, grads, AdamState.create(params), 0.1)


def test_adam_rejects_a_rebound_parameter():
    params = {name: Tensor(np.zeros(3), requires_grad=True) for name in ("kept", "rebound")}
    state = AdamState.create(params)
    params["kept"].data[...] = 1.0  # writing into the view is allowed
    params["rebound"].data = np.ones(3)
    with pytest.raises(ValueError, match="'rebound' was rebound"):
        adam_step(params, {}, state, 0.1)


# ---------------------------------------------------------------------------
# lr schedule
# ---------------------------------------------------------------------------


def test_lr_schedule_at_zero_is_base():
    cfg = desk_train_config()
    assert lr_schedule(0, cfg) == cfg.base_lr


def test_lr_schedule_exact_at_one_period():
    cfg = desk_train_config(batch_size=100, decay_every_samples=1000, decay_factor=0.8)
    assert lr_schedule(10, cfg) == cfg.base_lr * 0.8


def test_lr_schedule_matches_direct_formula():
    cfg = desk_train_config(batch_size=7, decay_every_samples=505, decay_factor=0.9)
    for step in (1, 13, 999, 12345):
        expected = cfg.base_lr * cfg.decay_factor ** (step * 7 / 505)
        assert lr_schedule(step, cfg) == expected


def test_lr_schedule_staircase():
    cfg = desk_train_config(batch_size=100, decay_every_samples=1000,
                            decay_factor=0.5, lr_staircase=True)
    assert lr_schedule(9, cfg) == cfg.base_lr  # 900 samples: still period 0
    assert lr_schedule(19, cfg) == cfg.base_lr * 0.5
    assert lr_schedule(20, cfg) == cfg.base_lr * 0.25


def test_lr_schedule_monotone_nonincreasing():
    cfg = desk_train_config(batch_size=3, decay_every_samples=10, decay_factor=0.97)
    values = [lr_schedule(s, cfg) for s in range(200)]
    assert all(a >= b for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# loop behavior
# ---------------------------------------------------------------------------


def test_lr_zero_is_a_fixed_point_of_training():
    ds = desk_dataset()
    state = fresh_state()
    before = {k: t.data.copy() for k, t in state.params.named_parameters().items()}
    cfg = desk_train_config(base_lr=0.0, max_steps=1)
    train_loop(state, ds, cfg, max_frames=5)
    after = state.params.named_parameters()
    for name, old in before.items():
        assert np.array_equal(after[name].data, old), name


def test_same_seed_reproduces_loss_log_exactly():
    ds = desk_dataset()
    cfg = desk_train_config(max_steps=6)
    rows_a = train_loop(fresh_state(), ds, cfg, max_frames=5)
    rows_b = train_loop(fresh_state(), ds, cfg, max_frames=5)
    assert [r.csv() for r in rows_a] == [r.csv() for r in rows_b]
    rows_c = train_loop(fresh_state(seed=5), ds,
                        desk_train_config(max_steps=6, seed=5), max_frames=5)
    assert [r.loss for r in rows_a] != [r.loss for r in rows_c]


def test_l2_touches_only_classifier_gradients():
    ds = desk_dataset()
    cfg = desk_model_config(dropout=0.4)
    grads = {}
    for coeff in (0.0, 1e-5):
        params = ModelParams.create(cfg, Rng(derive_seed(4, TAG_INIT)))
        batch = make_batch(ds.records[:8], 5, 5)
        named = params.named_parameters()
        with ad.differentiating(named.values()):
            logits = model_forward(batch, params, training=True, rng=Rng(123))
            loss = bce_loss(logits, batch.labels)
            if coeff:
                loss = loss + ad.reduce_sum(params.classifier_w * params.classifier_w) * coeff
            leaf_grads = loss.backward()
        grads[coeff] = {k: leaf_grads[t] for k, t in named.items()}
    for name in grads[0.0]:
        same = np.array_equal(grads[0.0][name], grads[1e-5][name])
        if name.endswith("classifier_w"):
            assert not same
        else:
            assert same, name


def test_non_finite_loss_aborts_with_step_number():
    ds = desk_dataset()
    state = fresh_state()
    state.params.classifier_b.data[:] = np.float32(1e38)  # drives bce to inf
    cfg = desk_train_config(max_steps=1)
    with np.errstate(over="ignore"):
        with pytest.raises(RuntimeError, match=r"step 1\b"):
            train_loop(state, ds, cfg, max_frames=5)
    assert not any(t.requires_grad for t in state.params.named_parameters().values())


def test_eval_rows_carry_gap():
    ds = desk_dataset()
    cfg = desk_train_config(max_steps=4, eval_every=2)
    rows = train_loop(fresh_state(), ds, cfg, max_frames=5)
    gaps = [r.gap for r in rows]
    assert gaps[0] is None and gaps[1] is not None
    assert gaps[2] is None and gaps[3] is not None
    assert 0.0 <= rows[1].gap <= 1.0


def test_logged_gap_is_what_evaluation_reproduces():
    # a batch-16 run scores at evaluate_gap's batch size: scoring at 16 moves
    # this config's GAP in the last bits (row-count-dependent BLAS rounding)
    c = 100
    ds = gen_synthetic(SyntheticSpec(
        num_videos=640, num_classes=c, visual_dim=128, audio_dim=32, frames_min=2,
        frames_max=20, labels_min=1, labels_max=2, noise_sigma=1.0, seed=90))
    model_cfg = ModelConfig(
        video_dim=128, audio_dim=32, hidden_dim=256, se_ratio=4, num_classes=c, dropout_rate=0.2,
        video_vlad=NeXtVladConfig(input_dim=128, clusters=16, hidden_dim=256, groups=8, expansion=2),
        audio_vlad=NeXtVladConfig(input_dim=32, clusters=16, hidden_dim=256, groups=8, expansion=2))
    state = fresh_state(cfg=model_cfg)
    cfg = desk_train_config(loss=LossConfig(num_classes=c, temperature=0.0, kd_enabled=False),
                            max_steps=4, batch_size=16)
    rows = train_loop(state, ds, cfg, max_frames=20)
    assert rows[-1].gap == evaluate_gap(state.params, ds, max_frames=20)


def untracked(t: Tensor) -> bool:
    return t._prim is None and t._parents == ()


@pytest.mark.parametrize("experts", [1, 3])
def test_inference_records_no_graph_before_or_after_training(experts):
    ds = desk_dataset()
    rng = Rng(derive_seed(4, TAG_INIT))
    params = (MixtureParams if experts == 3 else ModelParams).create(desk_model_config(), rng)
    state = TrainState.create(params)
    batch = make_batch(ds.records[:8], 5, ds.num_classes)
    assert untracked(predict_logits(params, batch))
    train_loop(state, ds, desk_train_config(max_steps=2), max_frames=5)
    assert not any(t.requires_grad for t in params.named_parameters().values())
    assert untracked(predict_logits(params, batch))


def test_evaluate_gap_runs_on_mixture():
    ds = desk_dataset(videos=12)
    cfg = desk_model_config()
    mix = MixtureParams.create(cfg, Rng(6))
    gap = evaluate_gap(mix, ds, max_frames=5, batch_size=8)
    assert 0.0 <= gap <= 1.0


# ---------------------------------------------------------------------------
# scoring passes: NeXtVLAD's folded assignment weights are formed once a pass
# ---------------------------------------------------------------------------


def netvlad_model_config():
    return ModelConfig(
        video_dim=8, audio_dim=4, video_vlad=NetVladConfig(input_dim=8, clusters=3, hidden_dim=16),
        audio_vlad=NetVladConfig(input_dim=4, clusters=2, hidden_dim=16),
        hidden_dim=16, se_ratio=4, num_classes=5, dropout_rate=0.2)


SCORED_MODELS = {
    "nextvlad": lambda: fresh_state().params,
    "mixture": lambda: fresh_state(experts=3).params,
    "netvlad": lambda: fresh_state(cfg=netvlad_model_config()).params,
}


def scored_per_batch(params, ds, batch_size=16, max_frames=5):
    """``predict``'s classes and confidences, computed batch by batch outside any
    pass, the last batch padded with its last video."""
    k = min(MAX_PREDICTIONS, ds.num_classes)
    classes, confs = [], []
    for start in range(0, len(ds.records), batch_size):
        n = min(batch_size, len(ds.records) - start)
        idx = np.minimum(np.arange(start, start + batch_size), start + n - 1)
        batch = make_batch(ds.rows(idx), max_frames, ds.num_classes)
        c, s = topk_predictions(ad.sigmoid(predict_logits(params, batch)).data[:n], k)
        classes.append(c.reshape(-1))
        confs.append(s.reshape(-1).astype(np.float64))
    return np.concatenate(classes), np.concatenate(confs)


def scored(params, ds, batch_size=16, max_frames=5):
    col = predict(params, ds, max_frames, batch_size).columns()
    return col.cls, col.conf


def assert_same_bytes(got, want):
    for a, b in zip(got, want, strict=True):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def counted_weight_products(monkeypatch) -> list:
    """Swaps in a ``WEIGHT_PRODUCT`` whose forward records its left operand's shape, once a call."""
    calls = []

    def forward(a, b):
        calls.append(a.shape)
        return ad._fw_weight_product(a, b)
    monkeypatch.setattr(ad, "WEIGHT_PRODUCT", dataclasses.replace(ad.WEIGHT_PRODUCT, forward=forward))
    return calls


@pytest.mark.parametrize("kind", sorted(SCORED_MODELS))
def test_predict_matches_a_per_batch_loop(kind):
    ds = desk_dataset(videos=44)  # batches of 16, 16 and 12
    params = SCORED_MODELS[kind]()
    assert_same_bytes(scored(params, ds), scored_per_batch(params, ds))


@pytest.mark.parametrize("batch_size", [0, -1])
def test_predict_rejects_a_batch_size_below_one(batch_size):
    # 0 stepped no range and -1 scored nothing, which evaluate_gap then met as an empty set
    ds = desk_dataset(videos=12)
    with pytest.raises(ValueError, match=f"predict: batch_size must be >= 1, got {batch_size}"):
        predict(fresh_state().params, ds, 5, batch_size)
    with pytest.raises(ValueError, match=f"got {batch_size}"):
        evaluate_gap(fresh_state().params, ds, 5, batch_size)


def scoring_setup(kind):
    """(params, 128-video dataset) at the desk shapes: visual 64 / audio 16, K 8,
    G 4, hidden 128, SE ratio 8, 20 classes; ``wide-se`` with hidden 512, the SE
    squeeze of a wide model; ``mixture`` three desk experts."""
    hidden = 512 if kind == "wide-se" else 128
    cfg = ModelConfig(
        video_dim=64, audio_dim=16, hidden_dim=hidden, se_ratio=8, num_classes=20,
        video_vlad=NeXtVladConfig(input_dim=64, clusters=8, hidden_dim=hidden, groups=4),
        audio_vlad=NeXtVladConfig(input_dim=16, clusters=8, hidden_dim=hidden, groups=4))
    params = (MixtureParams if kind == "mixture" else ModelParams).create(cfg, Rng(derive_seed(5, TAG_INIT)))
    return params, gen_synthetic(SyntheticSpec(num_videos=128, num_classes=20, visual_dim=64,
                                               audio_dim=16, seed=12))


@pytest.mark.parametrize("kind", ["desk", "wide-se", "mixture"])
def test_a_videos_scores_do_not_depend_on_its_batch(kind):
    # OpenBLAS picks its GEMM path by the row count: a short last batch, scored
    # unpadded, gave its videos other bytes than a full one (up to 30 videos at wide)
    params, ds = scoring_setup(kind)
    full = scored(params, ds, 64, 20)
    for n in list(range(1, 32)) + [50, 51, 59]:
        sub = Dataset(ds.records[:n], ds.num_classes, ds.visual_dim, ds.audio_dim)
        assert_same_bytes(scored(params, sub, 64, 20), (a[:n * MAX_PREDICTIONS] for a in full))


@pytest.mark.parametrize("kind", ["desk", "wide-se", "mixture"])
def test_shards_scored_apart_join_to_the_whole_pass(kind):
    params, ds = scoring_setup(kind)
    whole = scored(params, ds, 64, 20)
    for size in (1, 7, 100):
        shards = [scored(params, Dataset(ds.records[lo:lo + size], ds.num_classes, ds.visual_dim,
                                         ds.audio_dim), 64, 20) for lo in range(0, len(ds), size)]
        assert_same_bytes([np.concatenate(parts) for parts in zip(*shards)], whole)


@pytest.mark.parametrize("kind", ["nextvlad", "mixture"])
def test_weight_product_is_formed_once_per_stream_per_pass(monkeypatch, kind):
    ds = desk_dataset(videos=44)
    params = SCORED_MODELS[kind]()
    calls = counted_weight_products(monkeypatch)
    scored(params, ds)
    assert len(set(calls)) == len(calls) == 2  # video and audio; a mixture stacks its experts' weights
    scored(params, ds)
    assert len(calls) == 4
    scored_per_batch(params, ds)
    assert len(calls) == 4 + 2 * 3  # outside a pass every batch forms its own


def test_a_training_step_between_passes_leaves_no_stale_fold():
    ds = desk_dataset()
    state = fresh_state()
    first = scored(state.params, ds)
    train_loop(state, ds, desk_train_config(max_steps=1), max_frames=5)  # Adam writes in place
    fresh = scored_per_batch(state.params, ds)
    assert first[1].tobytes() != fresh[1].tobytes()
    assert_same_bytes(scored(state.params, ds), fresh)


def test_differentiating_inside_a_pass_reaches_the_folded_weights():
    ds = desk_dataset()
    params = fresh_state().params
    batch = make_batch(ds.rows(range(16)), 5, ds.num_classes)
    named = params.named_parameters()

    def gradients():
        with ad.differentiating(named.values()):
            grads = bce_loss(predict_logits(params, batch), batch.labels).backward()
        return {name: grads[t] for name, t in named.items()}

    outside = gradients()
    with ad.fixed_weights():
        predict_logits(params, batch)  # forms the folds a reuse would hand back
        inside = gradients()
    assert sum(name.endswith((".expand_w", ".assign_w")) for name in named) == 4  # both streams' folds
    assert_same_bytes([inside[name] for name in named], [outside[name] for name in named])


def test_a_pass_that_raises_leaves_no_scope_active(monkeypatch):
    ds = desk_dataset()
    params = fresh_state().params
    ds.records[-1].visual[0, 0] = np.nan  # a view of the store: the pass's last batch raises
    with pytest.raises(ValueError, match="NaN"):
        predict(params, ds, 5, 16)
    calls = counted_weight_products(monkeypatch)
    batch = make_batch(ds.rows(range(16)), 5, ds.num_classes)
    predict_logits(params, batch)
    predict_logits(params, batch)
    assert len(calls) == 4


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def test_checkpoint_roundtrip_bitwise(tmp_path):
    ds = desk_dataset()
    state = fresh_state()
    train_loop(state, ds, desk_train_config(max_steps=3), max_frames=5)
    path = tmp_path / "model.ckpt"
    save_checkpoint(state, path, config_echo="a = 1\n")
    ckpt = load_checkpoint(path)
    assert ckpt.global_step == 3 and ckpt.adam_step == 3
    assert ckpt.config_echo == "a = 1\n"
    for name, t in state.params.named_parameters().items():
        assert np.array_equal(ckpt.tensors[name], t.data)
        assert ckpt.tensors[name].dtype == t.data.dtype
    for name, buf in state.params.named_buffers().items():
        assert np.array_equal(ckpt.tensors[name], buf)
    for name, arr in state.adam.m.items():
        assert np.array_equal(ckpt.tensors[f"adam.m.{name}"], arr)


@pytest.mark.parametrize("experts", [1, 3])
def test_resume_matches_uninterrupted_run(tmp_path, experts):
    # a mixture saves its stacked experts whole and writes them back into the arena
    ds = desk_dataset()
    kd = {"loss": LossConfig(num_classes=5, temperature=3.0, kd_enabled=True)} if experts == 3 else {}
    config = lambda steps: desk_train_config(max_steps=steps, **kd)  # noqa: E731
    full = fresh_state(experts=experts)
    full_rows = train_loop(full, ds, config(8), max_frames=5)

    state = fresh_state(experts=experts)
    head = train_loop(state, ds, config(4), max_frames=5)
    path = tmp_path / "half.ckpt"
    save_checkpoint(state, path)

    resumed = fresh_state(seed=999, experts=experts)  # different init: everything must come from the file
    apply_checkpoint(resumed, load_checkpoint(path))
    assert resumed.global_step == 4
    tail = train_loop(resumed, ds, config(8), max_frames=5)

    # the trajectory must be bit-identical; the gap column may differ because
    # each run also evaluates at its own final step
    trajectory = lambda rows: [(r.step, r.lr, r.loss, r.bce, r.kl) for r in rows]  # noqa: E731
    assert trajectory(head + tail) == trajectory(full_rows)
    assert all(full_rows[i].kl != 0.0 for i in range(8)) == (experts == 3)
    final = full.params.named_parameters()
    for name, t in resumed.params.named_parameters().items():
        assert t.data.tobytes() == final[name].data.tobytes(), name


@pytest.mark.parametrize("experts", [1, 3])
def test_apply_checkpoint_writes_into_the_arena(tmp_path, experts):
    state = fresh_state(experts=experts)
    train_loop(state, desk_dataset(), desk_train_config(max_steps=2), max_frames=5)
    path = tmp_path / "state.ckpt"
    save_checkpoint(state, path)
    resumed = fresh_state(seed=999, experts=experts)
    apply_checkpoint(resumed, load_checkpoint(path))
    for name, t in resumed.params.named_parameters().items():
        assert t.data is resumed.adam.views[name], name
    assert resumed.adam.arena.tobytes() == state.adam.arena.tobytes()


def test_failed_save_leaves_previous_checkpoint_intact(tmp_path):
    ds = desk_dataset()
    state = fresh_state()
    train_loop(state, ds, desk_train_config(max_steps=2), max_frames=5)
    path = tmp_path / "model.ckpt"
    save_checkpoint(state, path, config_echo="good\n")
    before = path.read_bytes()

    train_loop(state, ds, desk_train_config(max_steps=3), max_frames=5)
    name = sorted(state.adam.v)[-1]  # written last, after most tensors
    state.adam.v[name] = state.adam.v[name].astype(np.float16)
    with pytest.raises(ValueError, match="cannot serialize"):
        save_checkpoint(state, path, config_echo="bad\n")

    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt"]
    ckpt = load_checkpoint(path)
    assert ckpt.global_step == 2 and ckpt.config_echo == "good\n"


def test_checkpoint_with_a_tensor_the_state_does_not_hold_is_rejected(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(fresh_state(), path)
    ckpt = load_checkpoint(path)
    ckpt.tensors["model.whiten_scale"] = np.ones(6, np.float32)
    state = fresh_state(seed=5)
    before = {name: a.copy() for name, a in state.params.named_buffers().items()}
    with pytest.raises(ValueError, match="holds tensor 'model.whiten_scale', which the model does not expect"):
        apply_checkpoint(state, ckpt)
    assert all(np.array_equal(a, before[name]) for name, a in state.params.named_buffers().items())


def test_truncated_checkpoint_rejected(tmp_path):
    ds = desk_dataset()
    state = fresh_state()
    path = tmp_path / "model.ckpt"
    save_checkpoint(state, path)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - 7])
    with pytest.raises(ValueError, match="truncated"):
        load_checkpoint(path)


@pytest.mark.parametrize("shape", [(0xFFFFFFFF,), (0xFFFFFFFF, 0xFFFFFFFF)])
def test_checkpoint_shape_past_end_of_file_rejected(tmp_path, shape):
    # (2^32-1)^2 float64 elements overflow an int64 byte count
    path = tmp_path / "huge.ckpt"
    tensor = struct.pack("<H", 1) + b"w" + struct.pack(f"<BB{len(shape)}I", 1, len(shape), *shape)
    path.write_bytes(b"CKPT" + struct.pack("<IQQII", 1, 0, 0, 0, 1) + tensor + b"\0" * 16)
    with pytest.raises(ValueError, match="truncated") as err:
        load_checkpoint(path)
    assert str(path) in str(err.value)


def test_checkpoint_invalid_utf8_tensor_name_names_file(tmp_path):
    path = tmp_path / "bad_name.ckpt"
    tensor = struct.pack("<H", 2) + b"w\xff" + struct.pack("<BBI", 1, 1, 1) + b"\0" * 8
    path.write_bytes(b"CKPT" + struct.pack("<IQQII", 1, 0, 0, 0, 1) + tensor)
    with pytest.raises(ValueError, match="name of tensor 0 is not valid UTF-8") as err:
        load_checkpoint(path)
    assert str(path) in str(err.value)


# Checkpoint tensor names and shapes, pinned: video 6 / audio 4 dims, K = 3 / 2,
# NeXtVLAD G = 2 with expansion 2, hidden 8, SE ratio 4, 5 classes.
NAMING_HEAD_PARAMS = [
    ("model.classifier_b", (5,)),
    ("model.classifier_w", (8, 5)),
    ("model.reduce.b", (8,)),
    ("model.reduce.bn.beta", (8,)),
    ("model.reduce.bn.gamma", (8,)),
    ("model.reduce.w", (26, 8)),
    ("model.secg.bn1.beta", (2,)),
    ("model.secg.bn1.gamma", (2,)),
    ("model.secg.bn2.beta", (8,)),
    ("model.secg.bn2.gamma", (8,)),
    ("model.secg.fc1_b", (2,)),
    ("model.secg.fc1_w", (8, 2)),
    ("model.secg.fc2_b", (8,)),
    ("model.secg.fc2_w", (2, 8)),
]
NAMING_BN_BUFFERS = [
    ("model.reduce.bn.running_mean", (8,)),
    ("model.reduce.bn.running_var", (8,)),
    ("model.secg.bn1.running_mean", (2,)),
    ("model.secg.bn1.running_var", (2,)),
    ("model.secg.bn2.running_mean", (8,)),
    ("model.secg.bn2.running_var", (8,)),
]
NEXTVLAD_NAMES = {
    "params": sorted(NAMING_HEAD_PARAMS + [
        ("model.audio.anchors", (2, 4)),
        ("model.audio.assign_b", (4,)),
        ("model.audio.assign_w", (8, 4)),
        ("model.audio.attn_b", (2,)),
        ("model.audio.attn_w", (8, 2)),
        ("model.audio.expand_b", (8,)),
        ("model.audio.expand_w", (4, 8)),
        ("model.video.anchors", (3, 6)),
        ("model.video.assign_b", (6,)),
        ("model.video.assign_w", (12, 6)),
        ("model.video.attn_b", (2,)),
        ("model.video.attn_w", (12, 2)),
        ("model.video.expand_b", (12,)),
        ("model.video.expand_w", (6, 12)),
    ]),
    "buffers": NAMING_BN_BUFFERS + [("model.whiten_scale", (6,))],
}
NETVLAD_NAMES = {
    "params": sorted(NAMING_HEAD_PARAMS + [
        ("model.audio.anchors", (2, 4)),
        ("model.audio.assign_b", (2,)),
        ("model.audio.assign_w", (2, 4)),
        ("model.video.anchors", (3, 6)),
        ("model.video.assign_b", (3,)),
        ("model.video.assign_w", (3, 6)),
    ]),
    "buffers": NAMING_BN_BUFFERS,
}


def naming_config(kind):
    if kind == "nextvlad":
        video = NeXtVladConfig(input_dim=6, clusters=3, hidden_dim=8, groups=2)
        audio = NeXtVladConfig(input_dim=4, clusters=2, hidden_dim=8, groups=2)
    else:
        video = NetVladConfig(input_dim=6, clusters=3, hidden_dim=8)
        audio = NetVladConfig(input_dim=4, clusters=2, hidden_dim=8)
    return ModelConfig(video_dim=6, audio_dim=4, video_vlad=video, audio_vlad=audio, hidden_dim=8,
                       se_ratio=4, num_classes=5)


def checkpoint_names(params, path):
    """(params, buffers): sorted (name, shape) pairs as a saved checkpoint holds them."""
    save_checkpoint(TrainState.create(params), path)
    tensors = load_checkpoint(path).tensors
    named = sorted((k, v.shape) for k, v in tensors.items() if not k.startswith("adam."))
    param_names = set(params.named_parameters())
    assert {k[len("adam.m."):] for k in tensors if k.startswith("adam.m.")} == param_names
    assert {k[len("adam.v."):] for k in tensors if k.startswith("adam.v.")} == param_names
    assert sorted(params.named_buffers()) == [k for k, _ in named if k not in param_names]
    return ([(k, s) for k, s in named if k in param_names],
            [(k, s) for k, s in named if k not in param_names])


@pytest.mark.parametrize("kind, expected", [("nextvlad", NEXTVLAD_NAMES), ("netvlad", NETVLAD_NAMES)])
def test_checkpoint_tensor_names_and_shapes_are_pinned(tmp_path, kind, expected):
    eig = Eigenvalues(np.ones(6)) if kind == "nextvlad" else None
    params = ModelParams.create(naming_config(kind), None, eigenvalues=eig)
    got_params, got_buffers = checkpoint_names(params, tmp_path / "model.ckpt")
    assert got_params == expected["params"]
    assert got_buffers == expected["buffers"]


def test_mixture_checkpoint_names_nest_the_model_names(tmp_path):
    # the experts are saved whole, stacked on a leading axis of 3, under the
    # names the model walks; the mixture holds the one whitening scale
    mix = MixtureParams.create(naming_config("nextvlad"), None, eigenvalues=Eigenvalues(np.ones(6)))
    got_params, got_buffers = checkpoint_names(mix, tmp_path / "mix.ckpt")

    def stacked(pairs):
        return [(f"mixture.experts{name[len('model'):]}", (3,) + shape) for name, shape in pairs]

    assert got_params == sorted(stacked(NEXTVLAD_NAMES["params"])
                                + [("mixture.gate_b", (3,)), ("mixture.gate_w", (10, 3))])
    assert got_buffers == sorted(stacked(NAMING_BN_BUFFERS) + [("mixture.whiten_scale", (6,))])
    tensors = load_checkpoint(tmp_path / "mix.ckpt").tensors
    for tag in ("adam.m.", "adam.v."):
        assert sorted((k[len(tag):], v.shape) for k, v in tensors.items() if k.startswith(tag)) == got_params


def test_checkpoint_missing_tensor_rejected(tmp_path):
    state = fresh_state()
    path = tmp_path / "model.ckpt"
    save_checkpoint(state, path)
    ckpt = load_checkpoint(path)
    del ckpt.tensors["model.classifier_w"]
    with pytest.raises(ValueError, match="missing tensor"):
        apply_checkpoint(fresh_state(), ckpt)


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"JUNKJUNKJUNKJUNK")
    with pytest.raises(ValueError, match="magic"):
        load_checkpoint(path)
