"""NetVLAD/NeXtVLAD: loop oracles, parameter-count identities, padding."""

import dataclasses

import numpy as np
import pytest

from nextvlad import autodiff as ad
from nextvlad.autodiff import Tensor
from nextvlad.gradcheck import grad_check
from nextvlad.model import ModelConfig, ModelParams, stream_censuses
from nextvlad.rng import Rng
from nextvlad.vlad import (
    FrameBatchView,
    NetVladConfig,
    NeXtVladConfig,
    NeXtVladCore,
    assignment_weights,
    netvlad_descriptor,
    nextvlad_aggregate,
    nextvlad_descriptor,
    nextvlad_reference,
    param_count_netvlad,
    param_count_nextvlad,
)
from nextvlad.verify import (
    block_leaves,
    cast_params,
    core_and_head,
    nextvlad_params_from_netvlad,
    random_view,
    randomize_head_bn,
)


def netvlad_descriptor_loops(view, core):
    """Per-index oracle over frames, dims and clusters, float64."""
    import math

    frames = view.frames.data.astype(np.float64)  # every video's frames in turn
    w = core.assign_w.data.astype(np.float64)
    bias = core.assign_b.data.astype(np.float64)
    anchors = core.anchors.data.astype(np.float64)
    n = frames.shape[1]
    k = w.shape[0]
    out = np.zeros((len(view.lengths), k * n))
    row = 0
    for b, m in enumerate(view.lengths):
        agg = np.zeros((k, n))
        for _ in range(m):
            x = frames[row]
            row += 1
            logits = [bias[ki] + sum(x[j] * w[ki, j] for j in range(n))
                      for ki in range(k)]
            zmax = max(logits)
            exps = [math.exp(z - zmax) for z in logits]
            total = sum(exps)
            for ki in range(k):
                alpha = exps[ki] / total
                for j in range(n):
                    agg[ki, j] += alpha * (x[j] - anchors[ki, j])
        for ki in range(k):
            norm = math.sqrt(sum(agg[ki, j] ** 2 for j in range(n)))
            denom = max(norm, 1e-12)
            for j in range(n):
                out[b, ki * n + j] = agg[ki, j] / denom
    return out


# ---------------------------------------------------------------------------
# parameter counts
# ---------------------------------------------------------------------------


def test_param_count_netvlad_large_config():
    cfg = NetVladConfig(input_dim=1024, clusters=128, hidden_dim=2048)
    assert param_count_netvlad(cfg) == 268_697_600


def test_param_count_netvlad_minimal():
    assert param_count_netvlad(NetVladConfig(input_dim=1, clusters=1, hidden_dim=1)) == 3


def test_param_count_nextvlad_large_config():
    cfg = NeXtVladConfig(input_dim=1024, clusters=128, hidden_dim=2048, groups=8, expansion=2)
    assert param_count_nextvlad(cfg) == 71_352_320


def test_param_count_nextvlad_minimal():
    cfg = NeXtVladConfig(input_dim=1, clusters=1, hidden_dim=1, groups=1, expansion=1)
    assert param_count_nextvlad(cfg) == 5


def test_param_ratio_roughly_four_times_smaller():
    net = param_count_netvlad(NetVladConfig(input_dim=1024, clusters=128, hidden_dim=2048))
    nxt = param_count_nextvlad(
        NeXtVladConfig(input_dim=1024, clusters=128, hidden_dim=2048, groups=8, expansion=2))
    assert abs(net / nxt - 3.77) < 0.01


def test_param_counts_equal_allocation_census_50_random_configs():
    rng = Rng(100)
    for _ in range(50):
        g = 1 + int(rng.integers(1, 4)[0])
        n = g * (1 + int(rng.integers(1, 6)[0]))
        k = 1 + int(rng.integers(1, 6)[0])
        h = 1 + int(rng.integers(1, 8)[0])
        lam = 1 + int(rng.integers(1, 3)[0])
        net_cfg = NetVladConfig(input_dim=n, clusters=k, hidden_dim=h)
        nxt_cfg = NeXtVladConfig(input_dim=n, clusters=k, hidden_dim=h, groups=g, expansion=lam)
        cfg = ModelConfig(video_dim=n, audio_dim=n, video_vlad=net_cfg, audio_vlad=nxt_cfg,
                          hidden_dim=h, se_ratio=1, num_classes=1)
        net_census, nxt_census = stream_censuses(ModelParams.create(cfg, None))
        assert net_census == param_count_netvlad(net_cfg)
        assert nxt_census == param_count_nextvlad(nxt_cfg)


def test_nextvlad_divisibility_enforced():
    with pytest.raises(ValueError, match="divisible"):
        NeXtVladConfig(input_dim=5, clusters=2, hidden_dim=4, groups=3, expansion=2)


# ---------------------------------------------------------------------------
# NetVLAD forward
# ---------------------------------------------------------------------------


def test_netvlad_all_masked_descriptor_is_zero():
    rng = Rng(20)
    cfg = NetVladConfig(input_dim=4, clusters=3, hidden_dim=2)
    core, _ = core_and_head(cfg, rng, np.float32)
    frames = rng.normal((2, 3, 4), dtype=np.float32)
    view = FrameBatchView.from_lengths(frames, [0, 0])
    desc = netvlad_descriptor(view, core)
    assert np.array_equal(desc.data, np.zeros((2, 12), dtype=np.float32))


def test_netvlad_anchor_coincidence_gives_zero():
    rng = Rng(21)
    cfg = NetVladConfig(input_dim=3, clusters=2, hidden_dim=2)
    core, _ = core_and_head(cfg, rng, np.float32)
    x = rng.normal((3,), dtype=np.float32)
    core.anchors.data = np.stack([x, x])  # every anchor equals the frame
    view = FrameBatchView.from_lengths(x.reshape(1, 1, 3), [1])
    desc = netvlad_descriptor(view, core)
    assert np.abs(desc.data).max() < 1e-7


def test_netvlad_matches_loop_oracle():
    rng = Rng(22)
    cfg = NetVladConfig(input_dim=4, clusters=2, hidden_dim=3)
    core64, _ = core_and_head(cfg, rng, np.float64)
    view64 = random_view(rng, 1, 3, 4, lengths=[3])
    expected = netvlad_descriptor_loops(view64, core64)
    got = netvlad_descriptor(view64, core64).data
    assert np.abs(got - expected).max() < 1e-12

    core32 = cast_params(core64, np.float32)
    view32 = dataclasses.replace(view64, frames=Tensor(view64.frames.data.astype(np.float32)))
    got32 = netvlad_descriptor(view32, core32).data
    assert np.abs(got32 - expected).max() < 1e-6


# ---------------------------------------------------------------------------
# NeXtVLAD forward
# ---------------------------------------------------------------------------


def test_nextvlad_closed_attention_zeroes_descriptor():
    rng = Rng(23)
    cfg = NeXtVladConfig(input_dim=4, clusters=2, hidden_dim=2, groups=2, expansion=2)
    core, _ = core_and_head(cfg, rng, np.float32)
    core.attn_w.data = np.zeros_like(core.attn_w.data)
    core.attn_b.data = np.full_like(core.attn_b.data, -1e9)
    view = random_view(rng, 2, 3, 4, dtype=np.float32)
    desc = nextvlad_descriptor(view, core)
    assert np.abs(desc.data).max() == 0.0


def test_nextvlad_reduces_to_netvlad():
    rng = Rng(24)
    net_cfg = NetVladConfig(input_dim=5, clusters=3, hidden_dim=4)
    net, head = core_and_head(net_cfg, rng, np.float64)
    randomize_head_bn(head, rng)
    nxt = nextvlad_params_from_netvlad(net)
    view = random_view(rng, 3, 4, 5)
    a = head(netvlad_descriptor(view, net), False).data
    b = head(nextvlad_descriptor(view, nxt), False).data
    assert np.abs(a - b).max() < 1e-6


def test_nextvlad_matches_reference_oracle():
    rng = Rng(25)
    cfg = NeXtVladConfig(input_dim=4, clusters=2, hidden_dim=3, groups=2, expansion=2)
    core, head = core_and_head(cfg, rng, np.float64)
    randomize_head_bn(head, rng)
    view = random_view(rng, 2, 3, 4)
    expected = nextvlad_reference(view, core, head)
    got = head(nextvlad_descriptor(view, core), False).data
    assert np.abs(got - expected).max() < 1e-12


def test_reference_size_bound():
    rng = Rng(26)
    cfg = NeXtVladConfig(input_dim=64, clusters=64, hidden_dim=2, groups=1, expansion=2)
    core, head = core_and_head(cfg, rng, np.float32)
    view = random_view(rng, 1, 16, 64, dtype=np.float32)  # 16*1*64*128 > 1e5
    with pytest.raises(ValueError, match="size bound"):
        nextvlad_reference(view, core, head)


def test_nextvlad_zero_weights_closed_form():
    # zero weights: attention sigmoid(0) = 1/2, assignment uniform over K
    rng = Rng(27)
    cfg = NeXtVladConfig(input_dim=4, clusters=2, hidden_dim=2, groups=2, expansion=1)
    core, _ = core_and_head(cfg, rng, np.float64)
    for t in (core.expand_w, core.attn_w, core.assign_w,
              core.anchors):
        t.data = np.zeros_like(t.data)
    core.expand_w.data = np.eye(4)
    view = random_view(rng, 1, 3, 4, lengths=[3])
    agg = nextvlad_aggregate(view, core).data  # (1, K, D)
    x = view.frames.data.reshape(3, 2, 2)  # (M, G, D)
    expected = 0.5 * (1.0 / cfg.clusters) * x.sum(axis=(0, 1))
    for k in range(cfg.clusters):
        assert np.abs(agg[0, k] - expected).max() < 1e-12


def test_nextvlad_single_group_single_cluster_hand_expansion():
    # one group, one cluster: aggregate = 1/2 * (sum_i x_i - M*c)
    rng = Rng(28)
    cfg = NeXtVladConfig(input_dim=3, clusters=1, hidden_dim=2, groups=1, expansion=1)
    core, _ = core_and_head(cfg, rng, np.float64)
    core.expand_w.data = np.eye(3)
    core.expand_b.data = np.zeros(3)
    core.attn_w.data = np.zeros_like(core.attn_w.data)
    core.attn_b.data = np.zeros_like(core.attn_b.data)
    m = 4
    view = random_view(rng, 1, m, 3, lengths=[m])
    agg = nextvlad_aggregate(view, core).data[0, 0]
    c = core.anchors.data[0]
    expected = 0.5 * (view.frames.data.sum(axis=0) - m * c)
    assert np.abs(agg - expected).max() < 1e-12


def test_assignment_normalizes_over_clusters_not_groups():
    # with zero assignment weights the per-group softmax must give 1/K, not 1/(G*K)
    rng = Rng(29)
    cfg = NeXtVladConfig(input_dim=4, clusters=4, hidden_dim=2, groups=2, expansion=1)
    core, _ = core_and_head(cfg, rng, np.float64)
    core.assign_w.data = np.zeros_like(core.assign_w.data)
    core.assign_b.data = np.zeros_like(core.assign_b.data)
    core.anchors.data = np.zeros_like(core.anchors.data)
    core.attn_b.data = np.full_like(core.attn_b.data, 1e9)  # gate open
    view = random_view(rng, 1, 2, 4, lengths=[2])
    agg = nextvlad_aggregate(view, core).data
    x = view.frames.data @ core.expand_w.data + core.expand_b.data
    grouped = x.reshape(2, 2, 2).sum(axis=(0, 1))  # sum over frames and groups
    for k in range(cfg.clusters):
        assert np.abs(agg[0, k] - grouped / cfg.clusters).max() < 1e-12


def random_nextvlad_core(rng, cfg):
    """A float64 NeXtVLAD core whose every weight and bias is drawn, none zero."""
    core, _ = core_and_head(cfg, rng, np.float64)
    for name in ("expand_b", "attn_b", "assign_b"):
        getattr(core, name).data = rng.normal(getattr(core, name).shape)
    return core


def test_folded_assignment_logits_equal_the_expanded_frames_through_the_assignment():
    # x (W_e W_a) + (b_e W_a + b_a) is (x W_e + b_e) W_a + b_a, the logits of the expanded frames
    rng = Rng(36)
    cfg = NeXtVladConfig(input_dim=6, clusters=3, hidden_dim=2, groups=4, expansion=2)
    view = random_view(rng, 3, 5, 6)
    cores = [random_nextvlad_core(rng, cfg) for _ in range(3)]
    stacked = NeXtVladCore(**{f.name: Tensor(np.stack([getattr(c, f.name).data for c in cores]))
                              for f in dataclasses.fields(NeXtVladCore) if f.name != "groups"},
                           groups=cfg.groups)

    def expanded_logits(core):
        expanded = ad.affine(view.frames, core.expand_w, core.expand_b)
        return ad.affine(expanded, core.assign_w, core.assign_b).data

    def folded_logits(core):
        w, b = assignment_weights(core)
        return view.frames.data @ w.data + b.data[..., None, :]

    got = folded_logits(cores[0])
    assert got.shape == (view.frames.shape[0], 12)
    assert np.abs(got - expanded_logits(cores[0])).max() < 1e-12
    got = folded_logits(stacked)
    assert got.shape == (3, view.frames.shape[0], 12)
    for e, core in enumerate(cores):
        assert np.abs(got[e] - expanded_logits(core)).max() < 1e-12, e


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("trial", range(5))
def test_mask_invariance(trial, padded):
    rng = Rng(1000 + trial)
    cfg = NeXtVladConfig(input_dim=6, clusters=3, hidden_dim=4, groups=2, expansion=2)
    core, _ = core_and_head(cfg, rng, np.float32)
    view = random_view(rng, 3, 5, 6, dtype=np.float32)
    base = nextvlad_descriptor(view, core).data
    extra = 1 + int(rng.integers(1, 10)[0])
    junk = (rng.uniform((3, extra, 6)) * 20 - 10).astype(np.float32)
    grown = FrameBatchView.from_lengths(np.concatenate([padded(view), junk], axis=1), view.lengths)
    got = nextvlad_descriptor(grown, core).data
    assert np.abs(got - base).max() < 1e-6


@pytest.mark.parametrize("kind", ["nextvlad", "netvlad"])
def test_nan_padding_leaves_descriptor_unchanged(kind):
    # neither kind reads a padded position, so not even a NaN there matters
    rng = Rng(34)
    if kind == "nextvlad":
        cfg = NeXtVladConfig(input_dim=4, clusters=2, hidden_dim=3, groups=2, expansion=2)
        descriptor = nextvlad_descriptor
    else:
        cfg = NetVladConfig(input_dim=4, clusters=2, hidden_dim=3)
        descriptor = netvlad_descriptor
    core, _ = core_and_head(cfg, rng, np.float32)
    frames = rng.normal((3, 4, 4), dtype=np.float32)
    base = descriptor(FrameBatchView.from_lengths(frames, [2, 0, 4]), core).data
    frames[0, 2:] = np.nan
    frames[1] = np.nan
    got = descriptor(FrameBatchView.from_lengths(frames, [2, 0, 4]), core).data
    assert np.isfinite(got).all() and np.array_equal(got, base)


def test_permutation_of_valid_frames_is_invariant():
    rng = Rng(31)
    cfg = NeXtVladConfig(input_dim=4, clusters=2, hidden_dim=3, groups=2, expansion=2)
    core, _ = core_and_head(cfg, rng, np.float32)
    frames = rng.normal((1, 5, 4), dtype=np.float32)
    view = FrameBatchView.from_lengths(frames, [5])
    base = nextvlad_descriptor(view, core).data
    perm = Rng(32).permutation(5)
    shuffled = FrameBatchView.from_lengths(frames[:, perm], [5])
    got = nextvlad_descriptor(shuffled, core).data
    assert np.abs(got - base).max() < 1e-6


def test_intra_normalized_blocks_have_unit_or_zero_norm():
    rng = Rng(33)
    cfg = NeXtVladConfig(input_dim=4, clusters=3, hidden_dim=2, groups=2, expansion=2)
    core, _ = core_and_head(cfg, rng, np.float32)
    view = random_view(rng, 2, 4, 4, dtype=np.float32, lengths=[4, 0])
    desc = nextvlad_descriptor(view, core).data.reshape(2, 3, -1)
    norms = np.linalg.norm(desc, axis=-1)
    assert np.abs(norms[0] - 1.0).max() < 1e-5  # real video: unit blocks
    assert np.abs(norms[1]).max() == 0.0  # fully masked video: zero blocks


def test_both_forwards_grad_check_end_to_end():
    rng = Rng(34)
    net_cfg = NetVladConfig(input_dim=3, clusters=2, hidden_dim=2)
    net, net_head = core_and_head(net_cfg, rng, np.float64)
    view = random_view(rng, 2, 3, 3)
    report = grad_check(lambda *_: net_head(netvlad_descriptor(view, net), True),
                        block_leaves(view, net, net_head))
    assert report.passed, str(report)

    nxt_cfg = NeXtVladConfig(input_dim=4, clusters=2, hidden_dim=2, groups=2, expansion=2)
    nxt, nxt_head = core_and_head(nxt_cfg, rng, np.float64)
    view = random_view(rng, 2, 3, 4)
    report = grad_check(lambda *_: nxt_head(nextvlad_descriptor(view, nxt), True),
                        block_leaves(view, nxt, nxt_head))
    assert report.passed, str(report)


def test_frame_dim_mismatch_raises():
    rng = Rng(35)
    cfg = NeXtVladConfig(input_dim=4, clusters=2, hidden_dim=2, groups=2, expansion=2)
    core, _ = core_and_head(cfg, rng, np.float32)
    view = random_view(rng, 1, 2, 5, dtype=np.float32)
    with pytest.raises(ValueError, match="dim"):
        nextvlad_descriptor(view, core)
