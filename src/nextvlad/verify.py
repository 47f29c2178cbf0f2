"""Self-check suites behind the ``verify`` CLI command.

Three families: gradient checks of the differentiable primitives and the
end-to-end forward, equivalence of the vectorized NeXtVLAD against its
nested-loop reference (plus the collapse to NetVLAD at one group and no
expansion), and the GAP metric against its brute-force oracle.  Each check
returns (name, passed, detail).
"""

from __future__ import annotations

import copy
import dataclasses

import numpy as np

from . import autodiff as ad
from .autodiff import BatchNormState, Tensor
from .gradcheck import grad_check
from .metrics import PredictionSet, gap_at_20, gap_reference
from .model import ModelConfig, ModelParams, stream_censuses
from .rng import Rng
from .vlad import (
    FrameBatchView,
    NetVladConfig,
    NetVladCore,
    NeXtVladConfig,
    NeXtVladCore,
    ReduceHead,
    make_core,
    netvlad_descriptor,
    nextvlad_descriptor,
    nextvlad_reference,
    param_count_netvlad,
    param_count_nextvlad,
)


def random_view(rng: Rng, b: int, m: int, n: int, dtype=np.float64,
                lengths=None) -> FrameBatchView:
    frames = rng.normal((b, m, n), dtype=dtype)
    if lengths is None:
        lengths = 1 + rng.integers(b, m)
    return FrameBatchView.from_lengths(frames, lengths)


def cast_params(params, dtype):
    """A copy of a param bundle with every parameter and buffer cast to
    ``dtype`` (fresh tensors, same values)."""
    out = copy.deepcopy(params)
    for _, owner, attr in out.leaves():
        value = getattr(owner, attr)
        if isinstance(value, Tensor):
            value = Tensor(value.data.astype(dtype))
        else:
            value = value.astype(dtype)
        setattr(owner, attr, value)
    return out


def core_and_head(cfg, rng: Rng, dtype) -> tuple:
    """A stream's core and a reduction head for its descriptor alone, drawn
    from ``rng`` in that order at float32 and cast to ``dtype``."""
    core = make_core(cfg, rng)
    head = ReduceHead.create(cfg.descriptor_dim, cfg.hidden_dim, rng)
    return cast_params(core, dtype), cast_params(head, dtype)


def block_leaves(view: FrameBatchView, core, head: ReduceHead) -> list:
    """Gradient-check leaves of a stream block: the frames, then every core
    and head parameter in name order."""
    named = {**core.named_parameters("core"), **head.named_parameters("head")}
    return [view.frames] + [t for _, t in sorted(named.items())]


def nextvlad_params_from_netvlad(net: NetVladCore) -> NeXtVladCore:
    """Embed NetVLAD weights into a NeXtVLAD core with one group, no
    expansion (identity), and the attention gate saturated open."""
    k, n = net.assign_w.shape
    dtype = net.assign_w.dtype
    return NeXtVladCore(
        expand_w=Tensor(np.eye(n, dtype=dtype)),
        expand_b=Tensor(np.zeros(n, dtype=dtype)),
        attn_w=Tensor(np.zeros((n, 1), dtype=dtype)),
        attn_b=Tensor(np.full(1, 1e9, dtype=dtype)),
        assign_w=Tensor(net.assign_w.data.T.copy()),
        assign_b=Tensor(net.assign_b.data.copy()),
        anchors=Tensor(net.anchors.data.copy()),
        groups=1,
    )


def randomize_head_bn(head: ReduceHead, rng: Rng) -> None:
    """Give the reduction head's BN a non-identity inference transform so
    equivalence checks exercise it."""
    bn = head.bn
    h = bn.gamma.size
    bn.gamma.data = (0.5 + rng.uniform((h,))).astype(bn.gamma.dtype)
    bn.beta.data = rng.normal((h,)).astype(bn.beta.dtype)
    bn.state.running_mean[...] = rng.normal((h,)).astype(bn.state.running_mean.dtype)
    bn.state.running_var[...] = (0.5 + rng.uniform((h,))).astype(bn.state.running_var.dtype)


def random_prediction_set(rng: Rng, max_videos: int = 6, num_classes: int = 12) -> PredictionSet:
    preds = PredictionSet()
    n_videos = 1 + int(rng.integers(1, max_videos)[0])
    for v in range(n_videos):
        n_labels = int(rng.integers(1, 4)[0])  # 0..3 true labels
        labels = rng.choice_without_replacement(num_classes, n_labels).tolist()
        n_preds = 1 + int(rng.integers(1, min(num_classes, 20))[0])
        classes = rng.choice_without_replacement(num_classes, n_preds)
        confs = rng.uniform((n_preds,))
        preds.add_video(f"v{v}", labels, list(zip(classes.tolist(), confs.tolist())))
    if preds.total_true_labels() == 0:
        preds.add_video("pad", [0], [(0, 0.5)])
    return preds


# ---------------------------------------------------------------------------
# check suites
# ---------------------------------------------------------------------------


def gradient_checks(seed: int = 0) -> list:
    rng = Rng(seed)
    results = []

    def check(name, fn, *tensors, **kw):
        report = grad_check(fn, tensors, **kw)
        results.append((f"grad {name}", report.passed, str(report)))

    t = lambda *shape: Tensor(rng.normal(shape))  # noqa: E731
    check("affine", ad.AFFINE, t(3, 4), t(4, 2), t(2,))
    check("weight_product", ad.WEIGHT_PRODUCT, t(3, 4), t(4, 2))
    # two videos of at most 3 frames: the first 0-2 (so always padded), the second 1-3
    lengths = rng.integers(2, 3) + np.array([0, 1])
    frames = int(lengths.sum())
    kernel = lambda *ts: ad.residual_aggregate(*ts, lengths, 3)  # noqa: E731
    # frames (T, 3), assignment weights and bias of G 2 x K 4 logit rows, feats (T, 2, 5)
    check("residual_aggregate", kernel,
          t(frames, 3), t(3, 8), t(8,), t(frames, 2, 5), t(4, 5), t(frames, 2))
    check("residual_aggregate, 3 experts stacked", kernel,
          t(frames, 3), t(3, 3, 8), t(3, 8), t(3, frames, 2, 5), t(3, 4, 5), t(3, frames, 2))
    check("softmax", lambda x: ad.softmax(x, axis=-1), t(3, 5))
    check("log_softmax", lambda x: ad.log_softmax(x, axis=-1), t(3, 5))
    check("sigmoid", ad.SIGMOID, t(4,))
    labels = (rng.uniform((3, 5)) < 0.5).astype(np.float64)
    check("bce", lambda z: ad.bce(z, labels), t(3, 5))
    check("l2_normalize", lambda x: ad.l2_normalize(x, axis=-1), t(3, 4))
    check("reduce_sum", lambda x: ad.reduce_sum(x, axes=(0, 2)), t(2, 3, 4))
    check("concat", lambda a, b: ad.concat([a, b], axis=1), t(2, 3), t(2, 4))

    bn_state = BatchNormState(4, dtype=np.float64)
    check("batch_norm train",
          lambda x, g, b: ad.batch_norm(x, g, b, bn_state, training=True),
          t(5, 4), Tensor(1.0 + rng.uniform((4,))), t(4,))
    check("dropout frozen mask",
          lambda x: ad.dropout(x, 0.4, Rng(123), training=True), t(4, 5))

    view = random_view(rng, 2, 3, 4)
    cfg = NeXtVladConfig(input_dim=4, clusters=2, hidden_dim=3, groups=2, expansion=2)
    core, head = core_and_head(cfg, rng, np.float64)
    report = grad_check(lambda *_: head(nextvlad_descriptor(view, core), True),
                        block_leaves(view, core, head))
    results.append(("grad nextvlad block end-to-end", report.passed, str(report)))
    return results


def oracle_checks(seed: int = 0, cases: int = 5) -> list:
    rng = Rng(seed)
    results = []
    for case in range(cases):
        g = 1 + int(rng.integers(1, 3)[0])
        k = 1 + int(rng.integers(1, 3)[0])
        lam = 1 + int(rng.integers(1, 2)[0])
        n = g * (1 + int(rng.integers(1, 3)[0]))  # N a multiple of G keeps lam*N divisible
        cfg = NeXtVladConfig(input_dim=n, clusters=k, hidden_dim=3, groups=g, expansion=lam)
        core64, head64 = core_and_head(cfg, rng, np.float64)
        randomize_head_bn(head64, rng)
        view64 = random_view(rng, 2, 4, n)
        ref = nextvlad_reference(view64, core64, head64)
        got64 = head64(nextvlad_descriptor(view64, core64), False).data
        err64 = np.abs(got64 - ref).max()
        results.append((f"oracle nextvlad float64 case {case}", err64 < 1e-12,
                        f"max abs err {err64:.3e}"))
        core32, head32 = cast_params(core64, np.float32), cast_params(head64, np.float32)
        view32 = dataclasses.replace(view64, frames=Tensor(view64.frames.data.astype(np.float32)))
        got32 = head32(nextvlad_descriptor(view32, core32), False).data
        err32 = np.abs(got32.astype(np.float64) - ref).max()
        results.append((f"oracle nextvlad float32 case {case}", err32 < 1e-6,
                        f"max abs err {err32:.3e}"))

    # collapse to NetVLAD: one group, identity expansion, open gate
    net_cfg = NetVladConfig(input_dim=5, clusters=3, hidden_dim=4)
    net, head = core_and_head(net_cfg, rng, np.float64)
    randomize_head_bn(head, rng)
    nxt = nextvlad_params_from_netvlad(net)
    view = random_view(rng, 3, 4, 5)
    a = head(netvlad_descriptor(view, net), False).data
    b = head(nextvlad_descriptor(view, nxt), False).data
    err = np.abs(a - b).max()
    results.append(("nextvlad collapses to netvlad", err < 1e-6, f"max abs err {err:.3e}"))
    return results


def metric_checks(seed: int = 0, cases: int = 20) -> list:
    rng = Rng(seed)
    results = []
    worst = 0.0
    exact = True
    for _ in range(cases):
        preds = random_prediction_set(rng)
        a, b = gap_at_20(preds), gap_reference(preds)
        exact = exact and (a == b)
        worst = max(worst, abs(a - b))
    results.append(("gap matches brute-force oracle", exact, f"max abs diff {worst:.3e}"))

    perfect = PredictionSet()
    perfect.add_video("v", [3], [(3, 0.9), (1, 0.5), (2, 0.1)])
    results.append(("gap perfect ranking = 1", gap_at_20(perfect) == 1.0,
                    f"got {gap_at_20(perfect)}"))
    miss = PredictionSet()
    miss.add_video("v", [3], [(1, 0.9), (2, 0.5)])
    results.append(("gap total miss = 0", gap_at_20(miss) == 0.0, f"got {gap_at_20(miss)}"))
    return results


def param_count_checks(seed: int = 0, cases: int = 10) -> list:
    rng = Rng(seed)
    results = []
    ok = True
    detail = ""
    for _ in range(cases):
        n = 1 + int(rng.integers(1, 8)[0])
        k = 1 + int(rng.integers(1, 6)[0])
        h = 1 + int(rng.integers(1, 6)[0])
        g = 1 + int(rng.integers(1, 4)[0])
        lam = 1 + int(rng.integers(1, 3)[0])
        if (lam * n) % g:
            n = n * g
        net_cfg = NetVladConfig(input_dim=n, clusters=k, hidden_dim=h)
        nxt_cfg = NeXtVladConfig(input_dim=n, clusters=k, hidden_dim=h, groups=g, expansion=lam)
        cfg = ModelConfig(video_dim=n, audio_dim=n, video_vlad=net_cfg, audio_vlad=nxt_cfg,
                          hidden_dim=h, se_ratio=1, num_classes=1)
        net_census, nxt_census = stream_censuses(ModelParams.create(cfg, None))
        if net_census != param_count_netvlad(net_cfg):
            ok, detail = False, f"netvlad {net_cfg}: census {net_census} != formula"
        if nxt_census != param_count_nextvlad(nxt_cfg):
            ok, detail = False, f"nextvlad {nxt_cfg}: census {nxt_census} != formula"
    results.append((f"param formulas match census ({cases} random configs)", ok, detail))
    return results


def run_all(seed: int = 0) -> list:
    out = []
    out += gradient_checks(seed)
    out += oracle_checks(seed)
    out += metric_checks(seed)
    out += param_count_checks(seed)
    return out
