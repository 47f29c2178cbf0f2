"""Acceptance gate: every release criterion, one test each, at its stated
tolerance.  Each test prints one ACCEPTANCE line so the suite doubles as a
report; criterion 7 trains two real models and dominates the runtime."""

import dataclasses
import time

import numpy as np

from nextvlad.autodiff import Tensor
from nextvlad.data import (
    Dataset,
    SyntheticSpec,
    gen_synthetic,
    make_batch,
    read_dataset,
    write_dataset,
    write_eigenvalues,
    load_eigenvalues,
)
from nextvlad.gradcheck import grad_check
from nextvlad.losses import LossConfig, total_loss
from nextvlad.metrics import PredictionSet, gap_at_20, gap_reference
from nextvlad.model import (
    Eigenvalues,
    MixtureParams,
    ModelConfig,
    ModelParams,
    mixture_forward,
    model_forward,
    stream_censuses,
)
from nextvlad.rng import Rng, derive_seed
from nextvlad.train import (
    TAG_INIT,
    TrainConfig,
    TrainState,
    apply_checkpoint,
    evaluate_gap,
    load_checkpoint,
    save_checkpoint,
    train_loop,
)
from nextvlad.verify import (
    block_leaves,
    cast_params,
    core_and_head,
    nextvlad_params_from_netvlad,
    random_prediction_set,
    random_view,
    randomize_head_bn,
)
from nextvlad.vlad import (
    FrameBatchView,
    NetVladConfig,
    NeXtVladConfig,
    netvlad_descriptor,
    nextvlad_descriptor,
    nextvlad_reference,
    param_count_netvlad,
    param_count_nextvlad,
    weight_census,
)


def _report(number: int, description: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"\nACCEPTANCE {number} {status}: {description}{suffix}")
    assert passed, f"criterion {number}: {description}{suffix}"


def toy_model_config(dropout=0.3):
    return ModelConfig(
        video_dim=4, audio_dim=3,
        video_vlad=NeXtVladConfig(input_dim=4, clusters=2, hidden_dim=8, groups=2, expansion=2),
        audio_vlad=NeXtVladConfig(input_dim=3, clusters=2, hidden_dim=8, groups=3, expansion=2),
        hidden_dim=8, se_ratio=2, num_classes=3, dropout_rate=dropout)


def toy_batch(dtype=np.float64, n=3, seed=5):
    spec = SyntheticSpec(num_videos=4, num_classes=3, visual_dim=4, audio_dim=3,
                         frames_min=2, frames_max=3, labels_min=1, labels_max=2, seed=seed)
    return make_batch(gen_synthetic(spec).records[:n], 3, 3, dtype=dtype)


# ---------------------------------------------------------------------------
# 1. parameter-count identities (exact)
# ---------------------------------------------------------------------------


def test_criterion_1_parameter_count_identities():
    net_cfg = NetVladConfig(input_dim=1024, clusters=128, hidden_dim=2048)
    nxt_cfg = NeXtVladConfig(input_dim=1024, clusters=128, hidden_dim=2048,
                             groups=8, expansion=2)
    ok = param_count_netvlad(net_cfg) == 268_697_600
    ok &= param_count_nextvlad(nxt_cfg) == 71_352_320
    # runtime allocation census at the same configs (zero-filled tensors):
    # one model with a NetVLAD video stream and a NeXtVLAD audio stream
    cfg = ModelConfig(video_dim=1024, audio_dim=1024, video_vlad=net_cfg, audio_vlad=nxt_cfg,
                      hidden_dim=2048, se_ratio=8, num_classes=1)
    params = ModelParams.create(cfg, None)
    ok &= weight_census(params.secg) == 1_048_576
    ok &= stream_censuses(params) == (268_697_600, 71_352_320)
    _report(1, "closed-form parameter counts equal the allocation census "
               "(268,697,600 / 71,352,320 / 1,048,576), zero tolerance", ok)


# ---------------------------------------------------------------------------
# 2. gradient correctness, float64, tol 1e-4
# ---------------------------------------------------------------------------


def test_criterion_2_gradient_correctness():
    t0 = time.time()
    rng = Rng(200)
    details = []

    nxt_cfg = NeXtVladConfig(input_dim=4, clusters=2, hidden_dim=3, groups=2, expansion=2)
    nxt, nxt_head = core_and_head(nxt_cfg, rng, np.float64)
    view = random_view(rng, 2, 3, 4)
    r_a = grad_check(lambda *_: nxt_head(nextvlad_descriptor(view, nxt), True),
                     block_leaves(view, nxt, nxt_head))
    details.append(f"nextvlad {r_a.max_rel_error:.2e}")

    net_cfg = NetVladConfig(input_dim=4, clusters=3, hidden_dim=3)
    net, net_head = core_and_head(net_cfg, rng, np.float64)
    view = random_view(rng, 2, 3, 4)
    r_b = grad_check(lambda *_: net_head(netvlad_descriptor(view, net), True),
                     block_leaves(view, net, net_head))
    details.append(f"netvlad {r_b.max_rel_error:.2e}")

    model = cast_params(ModelParams.create(toy_model_config(), rng), np.float64)
    batch = toy_batch()
    leaves = [batch.video.frames, batch.audio.frames]
    leaves += [t for _, t in sorted(model.named_parameters().items())]
    r_c = grad_check(lambda *_: model_forward(batch, model, training=True, rng=Rng(9)), leaves)
    details.append(f"model {r_c.max_rel_error:.2e}")

    mix = cast_params(MixtureParams.create(toy_model_config(), rng), np.float64)
    loss_cfg = LossConfig(num_classes=3, temperature=3.0, kd_enabled=True)
    # the gate's frame mean is a constant, so the frames are no leaf of the mixture
    leaves = [t for _, t in sorted(mix.named_parameters().items())]

    def mixture_loss(*_):
        expert_logits, mixture_logits, _ = mixture_forward(batch, mix, training=True, rng=Rng(9))
        return total_loss(expert_logits, mixture_logits, batch.labels, loss_cfg)[0]

    r_d = grad_check(mixture_loss, leaves)
    details.append(f"mixture loss {r_d.max_rel_error:.2e}")

    ok = all(r.passed for r in (r_a, r_b, r_c, r_d))
    _report(2, "end-to-end float64 gradients match central differences at 1e-4",
            ok, ", ".join(details) + f", {time.time() - t0:.0f}s")


# ---------------------------------------------------------------------------
# 3. oracle equivalence on 20 random tiny configs
# ---------------------------------------------------------------------------


def test_criterion_3_oracle_equivalence():
    rng = Rng(300)
    worst64 = worst32 = 0.0
    for _ in range(20):
        g = 1 + int(rng.integers(1, 3)[0])
        k = 1 + int(rng.integers(1, 4)[0])
        lam = 1 + int(rng.integers(1, 2)[0])
        n = g * (1 + int(rng.integers(1, 3)[0]))
        m = 2 + int(rng.integers(1, 4)[0])
        cfg = NeXtVladConfig(input_dim=n, clusters=k, hidden_dim=3, groups=g, expansion=lam)
        core, head = core_and_head(cfg, rng, np.float64)
        randomize_head_bn(head, rng)
        view = random_view(rng, 2, m, n)
        ref = nextvlad_reference(view, core, head)
        worst64 = max(worst64, np.abs(head(nextvlad_descriptor(view, core), False).data - ref).max())

        core32, head32 = cast_params(core, np.float32), cast_params(head, np.float32)
        view32 = dataclasses.replace(view, frames=Tensor(view.frames.data.astype(np.float32)))
        got32 = head32(nextvlad_descriptor(view32, core32), False).data.astype(np.float64)
        worst32 = max(worst32, np.abs(got32 - ref).max())
    _report(3, "vectorized NeXtVLAD equals the nested-loop reference on 20 "
               "random configs (1e-12 float64, 1e-6 float32)",
            worst64 < 1e-12 and worst32 < 1e-6,
            f"max err {worst64:.1e} f64, {worst32:.1e} f32")


# ---------------------------------------------------------------------------
# 4. reduction to NetVLAD
# ---------------------------------------------------------------------------


def test_criterion_4_reduction_property():
    rng = Rng(400)
    worst = 0.0
    for _ in range(5):
        cfg = NetVladConfig(input_dim=4 + int(rng.integers(1, 4)[0]),
                            clusters=2 + int(rng.integers(1, 3)[0]), hidden_dim=4)
        net, head = core_and_head(cfg, rng, np.float64)
        randomize_head_bn(head, rng)
        nxt = nextvlad_params_from_netvlad(net)
        view = random_view(rng, 3, 4, cfg.input_dim)
        a = head(netvlad_descriptor(view, net), False).data
        b = head(nextvlad_descriptor(view, nxt), False).data
        worst = max(worst, np.abs(a - b).max())
    _report(4, "NeXtVLAD with G=1, identity expansion, saturated attention "
               "equals NetVLAD within 1e-6", worst < 1e-6, f"max err {worst:.1e}")


# ---------------------------------------------------------------------------
# 5. mask invariance
# ---------------------------------------------------------------------------


def test_criterion_5_mask_invariance(padded):
    rng = Rng(500)
    cfg = toy_model_config(dropout=0.0)
    params = ModelParams.create(cfg, rng)
    worst_desc = worst_logit = 0.0
    for trial in range(20):
        batch = toy_batch(dtype=np.float32, seed=1000 + trial)
        base_desc = nextvlad_descriptor(batch.video, params.video).data
        base_logits = model_forward(batch, params, training=False).data

        extra = 1 + int(rng.integers(1, 10)[0])
        junk = lambda view, dim: np.concatenate(  # noqa: E731
            [padded(view),
             (rng.uniform((len(view.lengths), extra, dim)) * 20 - 10).astype(np.float32)],
            axis=1)
        batch.video = FrameBatchView.from_lengths(junk(batch.video, 4), batch.video.lengths)
        batch.audio = FrameBatchView.from_lengths(junk(batch.audio, 3), batch.audio.lengths)

        got_desc = nextvlad_descriptor(batch.video, params.video).data
        got_logits = model_forward(batch, params, training=False).data
        worst_desc = max(worst_desc, np.abs(got_desc - base_desc).max())
        worst_logit = max(worst_logit, np.abs(got_logits - base_logits).max())
    _report(5, "appending 1-10 arbitrary padding frames moves descriptors "
               "and logits by < 1e-6 on 20 random batches",
            worst_desc < 1e-6 and worst_logit < 1e-6,
            f"desc {worst_desc:.1e}, logits {worst_logit:.1e}")


# ---------------------------------------------------------------------------
# 6. GAP metric oracle
# ---------------------------------------------------------------------------


def test_criterion_6_gap_oracle():
    rng = Rng(600)
    exact = all(gap_at_20(p) == gap_reference(p)
                for p in (random_prediction_set(rng) for _ in range(100)))
    perfect = PredictionSet()
    perfect.add_video("v", [1], [(1, 0.8), (0, 0.3)])
    miss = PredictionSet()
    miss.add_video("v", [1], [(0, 0.8), (2, 0.3)])
    ok = exact and gap_at_20(perfect) == 1.0 and gap_at_20(miss) == 0.0
    _report(6, "gap_at_20 equals the brute-force pooled oracle on 100 random "
               "sets; perfect = 1.0, total miss = 0.0", ok)


# ---------------------------------------------------------------------------
# 7. desk-scale convergence trend
# ---------------------------------------------------------------------------


DESK_SPEC = SyntheticSpec(num_videos=2000, num_classes=20, visual_dim=64, audio_dim=16,
                          frames_min=8, frames_max=20, labels_min=1, labels_max=3,
                          noise_sigma=0.1, seed=11)
DESK_STEPS = 1200  # must land inside the 3000-step budget


def _desk_model(kind: str) -> tuple[ModelConfig, int]:
    if kind == "nextvlad":
        video = NeXtVladConfig(input_dim=64, clusters=8, hidden_dim=128, groups=4, expansion=2)
        audio = NeXtVladConfig(input_dim=16, clusters=8, hidden_dim=128, groups=4, expansion=2)
        census = param_count_nextvlad(video) + param_count_nextvlad(audio)
    else:
        # parameter-matched NetVLAD: K chosen so the aggregation census lands
        # within 10% of the NeXtVLAD one
        video = NetVladConfig(input_dim=64, clusters=6, hidden_dim=128)
        audio = NetVladConfig(input_dim=16, clusters=3, hidden_dim=128)
        census = param_count_netvlad(video) + param_count_netvlad(audio)
    cfg = ModelConfig(video_dim=64, audio_dim=16, video_vlad=video, audio_vlad=audio,
                      hidden_dim=128, se_ratio=8, num_classes=20, dropout_rate=0.5)
    return cfg, census


def _train_desk(kind: str, dataset: Dataset) -> float:
    cfg, _ = _desk_model(kind)
    params = ModelParams.create(cfg, Rng(derive_seed(3, TAG_INIT)))
    state = TrainState.create(params)
    train_cfg = TrainConfig(loss=LossConfig(num_classes=20, temperature=0.0, kd_enabled=False),
                            base_lr=1e-3, batch_size=64, epochs=999, max_steps=DESK_STEPS,
                            eval_every=10 ** 9, seed=3)
    train_loop(state, dataset, train_cfg, max_frames=20)
    return evaluate_gap(state.params, dataset, max_frames=20)


def test_criterion_7_desk_scale_convergence_trend():
    t0 = time.time()
    dataset = gen_synthetic(DESK_SPEC)
    _, nxt_census = _desk_model("nextvlad")
    _, net_census = _desk_model("netvlad")
    ratio = net_census / nxt_census
    matched = 0.9 <= ratio <= 1.1

    nxt_gap = _train_desk("nextvlad", dataset)
    net_gap = _train_desk("netvlad", dataset)
    trend = net_gap <= nxt_gap + 0.01
    _report(7, f"NeXtVLAD reaches GAP >= 0.95 within {DESK_STEPS} <= 3000 steps and a "
               "parameter-matched NetVLAD does not beat it by more than 0.01",
            matched and nxt_gap >= 0.95 and trend,
            f"nextvlad {nxt_gap:.4f}, netvlad {net_gap:.4f}, census ratio {ratio:.3f}, "
            f"{time.time() - t0:.0f}s")


# ---------------------------------------------------------------------------
# 8. knowledge-distillation machinery
# ---------------------------------------------------------------------------


def test_criterion_8_kd_machinery():
    t0 = time.time()
    # (a) shared weights: KL is zero at float64 machine precision
    mix = cast_params(MixtureParams.create(toy_model_config(0.0), Rng(80)), np.float64)
    for tensor in mix.experts.named_parameters().values():
        tensor.data = np.repeat(tensor.data[:1], 3, axis=0)
    batch = toy_batch()
    expert_logits, mixture_logits, _ = mixture_forward(batch, mix, training=False)
    cfg3 = LossConfig(num_classes=3, temperature=3.0, kd_enabled=True)
    _, shared = total_loss(expert_logits, mixture_logits, batch.labels, cfg3)
    kl_zero = abs(shared.kl_raw) < 1e-12

    # (b) the loss weights the raw KL by exactly T^2 = 9
    mix2 = cast_params(MixtureParams.create(toy_model_config(0.0), Rng(81)), np.float64)
    el2, ml2, _ = mixture_forward(batch, mix2, training=False)
    _, spread = total_loss(el2, ml2, batch.labels, cfg3)
    weighted_ok = spread.kl_weighted == 9.0 * spread.kl_raw and spread.kl_raw > 0

    # (c) 200 training steps with distillation enabled reduce the total loss
    spec = SyntheticSpec(num_videos=60, num_classes=6, visual_dim=8, audio_dim=4,
                         frames_min=3, frames_max=6, labels_min=1, labels_max=2,
                         noise_sigma=0.1, seed=9)
    ds = gen_synthetic(spec)
    mcfg = ModelConfig(
        video_dim=8, audio_dim=4,
        video_vlad=NeXtVladConfig(input_dim=8, clusters=3, hidden_dim=16, groups=2, expansion=2),
        audio_vlad=NeXtVladConfig(input_dim=4, clusters=3, hidden_dim=16, groups=2, expansion=2),
        hidden_dim=16, se_ratio=4, num_classes=6, dropout_rate=0.25)
    state = TrainState.create(MixtureParams.create(mcfg, Rng(derive_seed(3, TAG_INIT))))
    tcfg = TrainConfig(loss=LossConfig(num_classes=6, temperature=3.0, kd_enabled=True),
                       base_lr=2e-3, batch_size=16, epochs=999, max_steps=200,
                       eval_every=10 ** 9, seed=3)
    rows = train_loop(state, ds, tcfg, max_frames=6)
    first_losses = np.mean([r.loss for r in rows[:10]])
    last_losses = np.mean([r.loss for r in rows[-10:]])
    decreased = last_losses < first_losses

    _report(8, "KL = 0 for shared experts, weighted KL = 9 x raw at T=3, and "
               "200 distillation steps reduce the loss",
            kl_zero and weighted_ok and decreased,
            f"kl {shared.kl_raw:.1e}, loss {first_losses:.2f}->{last_losses:.2f}, "
            f"{time.time() - t0:.0f}s")


# ---------------------------------------------------------------------------
# 9. determinism and persistence
# ---------------------------------------------------------------------------


def test_criterion_9_determinism_and_persistence(tmp_path):
    t0 = time.time()
    spec = SyntheticSpec(num_videos=48, num_classes=5, visual_dim=8, audio_dim=4,
                         frames_min=2, frames_max=5, labels_min=1, labels_max=2,
                         noise_sigma=0.1, seed=90)
    ds = gen_synthetic(spec)
    mcfg = ModelConfig(
        video_dim=8, audio_dim=4,
        video_vlad=NeXtVladConfig(input_dim=8, clusters=2, hidden_dim=16, groups=2, expansion=2),
        audio_vlad=NeXtVladConfig(input_dim=4, clusters=2, hidden_dim=16, groups=2, expansion=2),
        hidden_dim=16, se_ratio=4, num_classes=5, dropout_rate=0.2)
    tcfg = TrainConfig(loss=LossConfig(num_classes=5, temperature=0.0, kd_enabled=False),
                       base_lr=2e-3, batch_size=16, epochs=999, max_steps=10, seed=4)

    def fresh():
        return TrainState.create(ModelParams.create(mcfg, Rng(derive_seed(4, TAG_INIT))))

    # (a) same seed, same loss log, bit for bit
    rows_a = train_loop(fresh(), ds, tcfg, max_frames=5)
    rows_b = train_loop(fresh(), ds, tcfg, max_frames=5)
    same_logs = [r.csv() for r in rows_a] == [r.csv() for r in rows_b]

    # (b) save at step 5, resume, and match the uninterrupted trajectory
    half_cfg = TrainConfig(loss=tcfg.loss, base_lr=2e-3, batch_size=16, epochs=999,
                           max_steps=5, seed=4)
    state = fresh()
    head = train_loop(state, ds, half_cfg, max_frames=5)
    ckpt_path = tmp_path / "half.ckpt"
    save_checkpoint(state, ckpt_path, config_echo="probe = 1")
    resumed = fresh()
    apply_checkpoint(resumed, load_checkpoint(ckpt_path))
    tail = train_loop(resumed, ds, tcfg, max_frames=5)
    track = lambda rows: [(r.step, r.lr, r.loss, r.bce, r.kl) for r in rows]  # noqa: E731
    resume_ok = track(head + tail) == track(rows_a)

    # (c) FAV1 / EIGV / CKPT round-trips are bit-exact
    fav_a, fav_b = tmp_path / "a.fav", tmp_path / "b.fav"
    write_dataset(ds, fav_a)
    write_dataset(read_dataset(fav_a), fav_b)
    fav_ok = fav_a.read_bytes() == fav_b.read_bytes()

    eig = Eigenvalues(0.5 + Rng(91).uniform((8,)))
    eig_a, eig_b = tmp_path / "a.eigv", tmp_path / "b.eigv"
    write_eigenvalues(eig, eig_a)
    write_eigenvalues(load_eigenvalues(eig_a), eig_b)
    eig_ok = eig_a.read_bytes() == eig_b.read_bytes()

    ck_a, ck_b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(state, ck_a, config_echo="probe = 1")
    reloaded = fresh()
    apply_checkpoint(reloaded, load_checkpoint(ck_a))
    reloaded.adam.step = state.adam.step
    save_checkpoint(reloaded, ck_b, config_echo="probe = 1")
    ckpt_ok = ck_a.read_bytes() == ck_b.read_bytes()

    _report(9, "same-seed logs identical; checkpoint resume reproduces the "
               "trajectory; FAV1/EIGV/CKPT round-trips are bit-exact",
            same_logs and resume_ok and fav_ok and eig_ok and ckpt_ok,
            f"{time.time() - t0:.0f}s")
