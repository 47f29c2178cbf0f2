"""NetVLAD and NeXtVLAD frame aggregation.

Both layers encode a batch of variable-length frame sequences into a fixed
video-level descriptor by summing soft-assigned residuals against learned
cluster anchors and intra-normalizing each cluster block.  NeXtVLAD first
expands each frame by a width multiplier, splits it into groups that share
one low-dimensional anchor table, and weights every group's contribution
with a sigmoid attention gate, which divides the descriptor (and the
dominant reduction layer) by the group count.  The reduction to the hidden
size, an affine layer plus batch norm (:class:`ReduceHead`), is applied once
by the model to the concatenated descriptors of all streams.

Both run every frame-level op on a batch's valid frames alone, packed in
video order (:class:`FrameBatchView`), and pass the frames, their assignment
weights and bias, the attention gate and the features to sum to one kernel,
``ad.residual_aggregate``.  It forms the assignment logits with one GEMM laid
out rows-last, W^T X^T + b shaped (G, K, T), takes the softmax over clusters
in place there, and scatters the gated softmax from that layout to the padded
(B, M) grid, the one place a video's rows are laid out on it, for the gated
residual sum; then the layers intra-normalize with ``ad.l2_normalize``.
NetVLAD, one group without attention, passes its transposed assignment
weights and a gate of ones.

NeXtVLAD's assignment logits are linear in the expanded frames, so they are
read from the frames themselves: x (W_e W_a) + (b_e W_a + b_a), a T x N x GK
product where the expanded frames would take T x lamN x GK, and no (T, lamN)
cotangent from the assignment back into the expanded frames.  The weights are
those of the paper's layer, unchanged.
``ad.weight_product`` sums W_e W_a in float64 and rounds it once to float32.
Summed in float32, the product would carry its own rounding error into every
logit: that moved the float32 NeXtVLAD from 8.2e-7 to 1.3e-6 away from the
loop reference, past the 1e-6 that acceptance criterion 3 allows.  The fold
is formed once per training step, in its graph, and once per scoring pass:
``predict`` scores inside ``ad.fixed_weights``, which reuses the product for
every batch of the pass.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Iterator, Optional, Union

import numpy as np

from . import autodiff as ad
from .autodiff import BatchNormState, Tensor
from .rng import Rng

# upper bound on M * G * K * (lam N / G) accepted by the loop reference
REFERENCE_SIZE_BOUND = 100_000


# ---------------------------------------------------------------------------
# configs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NetVladConfig:
    input_dim: int
    clusters: int
    hidden_dim: int

    def __post_init__(self):
        for name in ("input_dim", "clusters", "hidden_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"NetVladConfig.{name} must be >= 1")

    @property
    def descriptor_dim(self) -> int:
        return self.input_dim * self.clusters


@dataclass(frozen=True)
class NeXtVladConfig:
    input_dim: int
    clusters: int
    hidden_dim: int
    groups: int
    expansion: int = 2

    def __post_init__(self):
        for name in ("input_dim", "clusters", "hidden_dim", "groups", "expansion"):
            if getattr(self, name) < 1:
                raise ValueError(f"NeXtVladConfig.{name} must be >= 1")
        if (self.expansion * self.input_dim) % self.groups != 0:
            raise ValueError(
                f"expanded dim {self.expansion * self.input_dim} "
                f"not divisible by groups={self.groups}")

    @property
    def expanded_dim(self) -> int:
        return self.expansion * self.input_dim

    @property
    def group_dim(self) -> int:
        return self.expanded_dim // self.groups

    @property
    def descriptor_dim(self) -> int:
        return self.clusters * self.group_dim


VladConfig = Union[NetVladConfig, NeXtVladConfig]


# ---------------------------------------------------------------------------
# closed-form parameter counts (weights only: no biases, no batch norm)
# ---------------------------------------------------------------------------


def param_count_netvlad(cfg: NetVladConfig) -> int:
    """Weight count of the NetVLAD block: N*K*(H+2).

    assignment (K x N) + anchors (K x N) + reduction (N*K x H).
    """
    return cfg.input_dim * cfg.clusters * (cfg.hidden_dim + 2)


def param_count_nextvlad(cfg: NeXtVladConfig) -> int:
    """Weight count of the NeXtVLAD block, as exact integer arithmetic:

    expansion N x lamN + attention lamN x G + assignment lamN x (G*K)
    + shared anchors K x (lamN/G) + reduction (lamN*K/G) x H.
    """
    lam_n = cfg.expanded_dim
    d = cfg.group_dim
    return (
        lam_n * cfg.input_dim
        + lam_n * cfg.groups
        + lam_n * cfg.groups * cfg.clusters
        + cfg.clusters * d
        + cfg.clusters * d * cfg.hidden_dim
    )


# ---------------------------------------------------------------------------
# parameter bundles
# ---------------------------------------------------------------------------


class ParamTree:
    """Base of every parameter bundle (a dataclass): one walk names all its tensors.

    A ``Tensor`` field is a parameter and an ndarray field a buffer, both
    named ``prefix.field``; a nested bundle extends the prefix with its field
    name; a ``BatchNormState``'s running statistics are buffers of the bundle
    that holds it.  ``PREFIX`` (a class attribute, never a field) is the
    default prefix.  A walk name is a tensor's only name: it keys the graph's
    leaves, the optimizer and the checkpoint, a stacked tensor whole.
    """

    PREFIX = ""

    def leaves(self, prefix: Optional[str] = None) -> Iterator[tuple]:
        """(name, owner, attribute) of every parameter and buffer, in field order."""
        prefix = self.PREFIX if prefix is None else prefix
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            name = f"{prefix}.{f.name}"
            if isinstance(value, (Tensor, np.ndarray)):
                yield name, self, f.name
            elif isinstance(value, BatchNormState):
                yield f"{prefix}.running_mean", value, "running_mean"
                yield f"{prefix}.running_var", value, "running_var"
            elif isinstance(value, ParamTree):
                yield from value.leaves(name)

    def _named(self, kind, prefix: Optional[str]) -> dict:
        named = ((name, getattr(owner, attr)) for name, owner, attr in self.leaves(prefix))
        return {name: value for name, value in named if isinstance(value, kind)}

    def named_parameters(self, prefix: Optional[str] = None) -> dict[str, Tensor]:
        """Every parameter by walk name."""
        return self._named(Tensor, prefix)

    def named_buffers(self, prefix: Optional[str] = None) -> dict[str, np.ndarray]:
        """Every buffer by walk name (the arrays themselves, writable)."""
        return self._named(np.ndarray, prefix)


@dataclass
class BatchNormParams(ParamTree):
    gamma: Tensor
    beta: Tensor
    state: BatchNormState

    @staticmethod
    def create(num_features: int) -> "BatchNormParams":
        return BatchNormParams(
            gamma=Tensor(np.ones(num_features, dtype=np.float32)),
            beta=Tensor(np.zeros(num_features, dtype=np.float32)),
            state=BatchNormState(num_features),
        )

    def __call__(self, x: Tensor, training: bool) -> Tensor:
        return ad.batch_norm(x, self.gamma, self.beta, self.state, training)


def init_normal(rng: Optional[Rng], shape, std: float) -> np.ndarray:
    """Float32 N(0, std^2) weights, or zeros when there is no ``rng``."""
    if rng is None:
        return np.zeros(shape, dtype=np.float32)
    return rng.normal(shape, np.float32, std)


@dataclass
class NetVladCore(ParamTree):
    """Assignment and anchor weights of a NetVLAD block (no reduction)."""

    assign_w: Tensor  # (K, N)
    assign_b: Tensor  # (K,)
    anchors: Tensor  # (K, N)

    @staticmethod
    def create(cfg: NetVladConfig, rng: Optional[Rng]) -> "NetVladCore":
        n, k = cfg.input_dim, cfg.clusters
        return NetVladCore(
            assign_w=Tensor(init_normal(rng, (k, n), np.sqrt(2.0 / n))),
            assign_b=Tensor(np.zeros(k, dtype=np.float32)),
            anchors=Tensor(init_normal(rng, (k, n), 1.0 / np.sqrt(n))),
        )


@dataclass
class NeXtVladCore(ParamTree):
    """Expansion, attention, assignment and anchor weights of a NeXtVLAD block."""

    expand_w: Tensor  # (N, lamN)
    expand_b: Tensor  # (lamN,)
    attn_w: Tensor  # (lamN, G)
    attn_b: Tensor  # (G,)
    assign_w: Tensor  # (lamN, G*K)
    assign_b: Tensor  # (G*K,)
    anchors: Tensor  # (K, lamN/G), shared across groups
    groups: int

    @staticmethod
    def create(cfg: NeXtVladConfig, rng: Optional[Rng]) -> "NeXtVladCore":
        n, lam_n, g, k, d = cfg.input_dim, cfg.expanded_dim, cfg.groups, cfg.clusters, cfg.group_dim
        return NeXtVladCore(
            expand_w=Tensor(init_normal(rng, (n, lam_n), np.sqrt(2.0 / n))),
            expand_b=Tensor(np.zeros(lam_n, dtype=np.float32)),
            attn_w=Tensor(init_normal(rng, (lam_n, g), np.sqrt(2.0 / lam_n))),
            attn_b=Tensor(np.zeros(g, dtype=np.float32)),
            assign_w=Tensor(init_normal(rng, (lam_n, g * k), np.sqrt(2.0 / lam_n))),
            assign_b=Tensor(np.zeros(g * k, dtype=np.float32)),
            anchors=Tensor(init_normal(rng, (k, d), 1.0 / np.sqrt(d))),
            groups=g,
        )


VladCore = Union[NetVladCore, NeXtVladCore]


@dataclass
class ReduceHead(ParamTree):
    """Affine reduction of a flat descriptor to the hidden size, plus BN."""

    w: Tensor  # (descriptor_dim, H)
    b: Tensor  # (H,)
    bn: BatchNormParams

    @staticmethod
    def create(in_dim: int, hidden_dim: int, rng: Optional[Rng]) -> "ReduceHead":
        return ReduceHead(
            w=Tensor(init_normal(rng, (in_dim, hidden_dim), np.sqrt(2.0 / in_dim))),
            b=Tensor(np.zeros(hidden_dim, dtype=np.float32)),
            bn=BatchNormParams.create(hidden_dim),
        )

    def __call__(self, flat: Tensor, training: bool) -> Tensor:
        return self.bn(ad.affine(flat, self.w, self.b), training)


def make_core(cfg: VladConfig, rng: Optional[Rng]) -> VladCore:
    if isinstance(cfg, NeXtVladConfig):
        return NeXtVladCore.create(cfg, rng)
    return NetVladCore.create(cfg, rng)


def weight_census(bundle) -> int:
    """Allocated weight count of any parameter bundle: the total size of its own
    tensors with more dims than its smallest own tensor, a bias or batch-norm
    vector (1-d, or (E, F) in a model stacked on an expert axis), plus the
    census of each bundle it nests."""
    own = [getattr(bundle, f.name) for f in dataclasses.fields(bundle)]
    tensors = [v for v in own if isinstance(v, Tensor)]
    bias_dims = min((t.ndim for t in tensors), default=0)
    return (sum(t.size for t in tensors if t.ndim > bias_dims)
            + sum(weight_census(v) for v in own if isinstance(v, ParamTree)))


# ---------------------------------------------------------------------------
# batch view
# ---------------------------------------------------------------------------


@dataclass
class FrameBatchView:
    """A batch's valid frames packed in video order, (T, N): video b's are rows
    sum(lengths[:b]) up to sum(lengths[:b + 1]), for frame counts ``lengths``
    (B,), each at most the batch's ``max_frames`` M."""

    frames: Tensor
    lengths: np.ndarray
    max_frames: int

    @staticmethod
    def from_lengths(padded, lengths) -> "FrameBatchView":
        """The first lengths[b] frames of each video b of padded frames (B, M, N)."""
        padded = np.asarray(padded)
        lengths = np.asarray(lengths, dtype=np.int64)
        b, m = padded.shape[:2]
        if lengths.shape != (b,) or ((lengths < 0) | (lengths > m)).any():
            raise ValueError(f"lengths {lengths.tolist()} must be {b} frame counts in [0, {m}]")
        return FrameBatchView(Tensor(padded[np.arange(m) < lengths[:, None]]), lengths, m)

    @property
    def feature_dim(self) -> int:
        return self.frames.shape[-1]


# ---------------------------------------------------------------------------
# forward passes
# ---------------------------------------------------------------------------


def netvlad_aggregate(view: FrameBatchView, core: NetVladCore) -> Tensor:
    """Residual aggregation of valid frames, pre-normalization: (B, K, N), or
    (E, B, K, N) for a core stacked on an expert axis."""
    t, n = view.frames.shape
    w = core.assign_w  # (K, N), or (E, K, N) on an expert axis
    if n != w.shape[-1]:
        raise ValueError(f"frame dim {n} != assignment dim {w.shape[-1]}")
    return ad.residual_aggregate(view.frames, ad.transpose(w, (0, 2, 1) if w.ndim == 3 else (1, 0)),
                                 core.assign_b, view.frames.reshape((t, 1, n)), core.anchors,
                                 Tensor(np.ones((t, 1), view.frames.dtype)), view.lengths, view.max_frames)


def netvlad_descriptor(view: FrameBatchView, core: NetVladCore) -> Tensor:
    """Intra-normalized flat descriptor: (B, K*N), cluster-major; (E, B, K*N) for
    a core stacked on an expert axis."""
    agg = netvlad_aggregate(view, core)
    return ad.l2_normalize(agg, axis=-1).reshape(agg.shape[:-2] + (-1,))


def nextvlad_aggregate(view: FrameBatchView, core: NeXtVladCore) -> Tensor:
    """Grouped residual aggregation of valid frames, pre-normalization: (B, K, lamN/G),
    or (E, B, K, lamN/G) for a core stacked on an expert axis."""
    n = view.feature_dim
    if n != core.expand_w.shape[-2]:
        raise ValueError(f"frame dim {n} != expansion dim {core.expand_w.shape[-2]}")
    g = core.groups
    lead, d = core.anchors.shape[:-2], core.anchors.shape[-1]  # lead: () or (E,)
    expanded = ad.affine(view.frames, core.expand_w, core.expand_b)  # (..., T, lamN)

    attn = ad.sigmoid(ad.affine(expanded, core.attn_w, core.attn_b))  # (..., T, G)
    w, b = assignment_weights(core)
    return ad.residual_aggregate(view.frames, w, b, expanded.reshape(lead + (-1, g, d)), core.anchors,
                                 attn, view.lengths, view.max_frames)


def assignment_weights(core: NeXtVladCore) -> tuple[Tensor, Tensor]:
    """The assignment of the expanded frames folded through the expansion, to be read
    from the frames (T, N): W_e W_a (..., N, G*K) and b_e W_a + b_a (..., G*K)."""
    lead = core.expand_b.shape[:-1]  # () or (E,)
    expand_b = core.expand_b.reshape(lead + (1, -1))
    bias = ad.affine(expand_b, core.assign_w, core.assign_b).reshape(core.assign_b.shape)
    return ad.weight_product(core.expand_w, core.assign_w), bias


def nextvlad_descriptor(view: FrameBatchView, core: NeXtVladCore) -> Tensor:
    """Intra-normalized flat descriptor: (B, K*lamN/G), cluster-major; (E, B, ...)
    for a core stacked on an expert axis."""
    agg = nextvlad_aggregate(view, core)
    return ad.l2_normalize(agg, axis=-1).reshape(agg.shape[:-2] + (-1,))


# ---------------------------------------------------------------------------
# loop reference (independent oracle)
# ---------------------------------------------------------------------------


def nextvlad_reference(view: FrameBatchView, core: NeXtVladCore, head: ReduceHead) -> np.ndarray:
    """Nested-loop NeXtVLAD block in float64: descriptor, reduction and
    inference-mode batch norm.

    Deliberately unvectorized; refuses work above M*G*K*(lamN/G) =
    ``REFERENCE_SIZE_BOUND`` per video.  Serves as the oracle for
    ``head(nextvlad_descriptor(view, core), False)``, which must never share
    code with it.
    """
    frames = np.asarray(view.frames.data, dtype=np.float64)
    expand_w = core.expand_w.data.astype(np.float64)
    expand_b = core.expand_b.data.astype(np.float64)
    attn_w = core.attn_w.data.astype(np.float64)
    attn_b = core.attn_b.data.astype(np.float64)
    assign_w = core.assign_w.data.astype(np.float64)
    assign_b = core.assign_b.data.astype(np.float64)
    anchors = core.anchors.data.astype(np.float64)

    b_sz, m, n = len(view.lengths), view.max_frames, frames.shape[1]
    g = core.groups
    lam_n = expand_w.shape[1]
    k = anchors.shape[0]
    d = lam_n // g
    if m * g * k * d > REFERENCE_SIZE_BOUND:
        raise ValueError(
            f"reference size bound exceeded: M*G*K*D = {m * g * k * d} > {REFERENCE_SIZE_BOUND}")

    out = np.zeros((b_sz, head.w.shape[1]), dtype=np.float64)
    first = 0  # the video's first row among the packed frames
    for b in range(b_sz):
        m_b = int(view.lengths[b])
        # expansion
        xdot = np.zeros((m_b, lam_n))
        for i in range(m_b):
            for q in range(lam_n):
                acc = expand_b[q]
                for j in range(n):
                    acc += frames[first + i, j] * expand_w[j, q]
                xdot[i, q] = acc
        first += m_b
        # per-frame gates and assignments
        agg = np.zeros((k, d))
        for i in range(m_b):
            attn = np.zeros(g)
            for gi in range(g):
                z = attn_b[gi]
                for q in range(lam_n):
                    z += xdot[i, q] * attn_w[q, gi]
                attn[gi] = 1.0 / (1.0 + math.exp(-z)) if z >= 0 else math.exp(z) / (1.0 + math.exp(z))
            for gi in range(g):
                logits = np.zeros(k)
                for ki in range(k):
                    z = assign_b[gi * k + ki]
                    for q in range(lam_n):
                        z += xdot[i, q] * assign_w[q, gi * k + ki]
                    logits[ki] = z
                zmax = logits.max()
                expz = np.array([math.exp(v - zmax) for v in logits])
                soft = expz / expz.sum()
                for ki in range(k):
                    for j in range(d):
                        residual = xdot[i, gi * d + j] - anchors[ki, j]
                        agg[ki, j] += attn[gi] * soft[ki] * residual
        # intra-normalization per cluster
        flat = np.zeros(k * d)
        for ki in range(k):
            norm = math.sqrt(sum(agg[ki, j] ** 2 for j in range(d)))
            denom = max(norm, ad.L2_NORMALIZE_EPS)
            for j in range(d):
                flat[ki * d + j] = agg[ki, j] / denom
        # reduction + inference batch norm
        w = head.w.data.astype(np.float64)
        bias = head.b.data.astype(np.float64)
        gamma = head.bn.gamma.data.astype(np.float64)
        beta = head.bn.beta.data.astype(np.float64)
        rm = head.bn.state.running_mean.astype(np.float64)
        rv = head.bn.state.running_var.astype(np.float64)
        for h in range(w.shape[1]):
            acc = bias[h]
            for q in range(k * d):
                acc += flat[q] * w[q, h]
            out[b, h] = (acc - rm[h]) / math.sqrt(rv[h] + ad.BATCH_NORM_EPS) * gamma[h] + beta[h]
    return out
