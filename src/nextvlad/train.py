"""Adam training loop with exponential LR decay, classifier L2, and
bit-exact checkpointing.

Determinism model: every stochastic choice is a pure function of the config
seed and the step counter — the shuffle order of epoch e comes from
``derive_seed(seed, TAG_SHUFFLE, e)`` and the dropout masks of step t from
``derive_seed(seed, TAG_DROPOUT, t)`` — so resuming from a checkpoint needs
no RNG state beyond the global step, and two runs with one seed produce
identical loss trajectories.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import Dataset, _Reader, atomic_write, make_batch
from .losses import LossConfig, bce_loss, total_loss
from .metrics import MAX_PREDICTIONS, TABLE_PAIRS, PredictionSet, gap_at_20, topk_predictions
from .model import MixtureParams, ModelParams, mixture_forward, model_forward
from .rng import Rng, derive_seed
from .vlad import fixed_weights

TAG_INIT = 0x1A17
TAG_SHUFFLE = 0x5AFF
TAG_DROPOUT = 0xD0D0

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
ADAM_BLOCK = 1 << 16  # elements per block of the Adam pass: its scratch stays in cache

CHECKPOINT_MAGIC = b"CKPT"
CHECKPOINT_VERSION = 1
_DTYPE_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_CODE_DTYPES = {v: k for k, v in _DTYPE_CODES.items()}


@dataclass(frozen=True)
class TrainConfig:
    loss: LossConfig
    base_lr: float = 2e-4
    batch_size: int = 160
    decay_factor: float = 0.8
    decay_every_samples: int = 2_000_000
    lr_staircase: bool = False
    l2_classifier: float = 1e-5
    epochs: int = 5
    max_steps: int = 0  # 0 = derive from epochs
    seed: int = 1
    eval_every: int = 0  # steps; 0 = at each epoch end

    def __post_init__(self):
        if self.base_lr < 0:
            # zero is allowed: a frozen run must be a fixed point
            raise ValueError("base_lr must be >= 0")
        if not 0 < self.decay_factor <= 1:
            raise ValueError("decay_factor must be in (0, 1]")
        if self.batch_size < 1 or self.decay_every_samples < 1:
            raise ValueError("batch_size and decay_every_samples must be >= 1")


def lr_schedule(step: int, cfg: TrainConfig) -> float:
    """Exponential decay in samples seen; continuous by default, floored to
    a staircase when ``lr_staircase`` is set."""
    if step < 0:
        raise ValueError("step must be >= 0")
    exponent = (step * cfg.batch_size) / cfg.decay_every_samples
    if cfg.lr_staircase:
        exponent = math.floor(exponent)
    return cfg.base_lr * cfg.decay_factor ** exponent


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


@dataclass
class AdamState:
    """Adam's moments over one flat arena that holds every parameter.

    ``create`` copies the parameters into row 0 of ``arena`` and rebinds each
    tensor's ``.data`` to its view there; rows 1 and 2 are the first and
    second moments, and ``m`` / ``v`` map names to views of them.  Adam then
    writes the parameters in place, so a tensor must keep its view.
    """

    m: dict
    v: dict
    views: dict  # name -> the parameter's view of arena row 0
    arena: np.ndarray  # (3, n): parameters, m, v
    blocks: list  # (start, stop, pieces): the (name, from, to) gradient slices that fill it, in order
    scratch: np.ndarray  # (3, block): the gradient and two temporaries
    step: int = 0

    @staticmethod
    def create(named_params: dict) -> "AdamState":
        dtypes = {t.dtype for t in named_params.values()}
        if len(dtypes) != 1:
            raise ValueError(f"Adam's arena holds parameters of one dtype, got {sorted(map(str, dtypes))}")
        n = sum(t.size for t in named_params.values())
        arena = np.zeros((3, n), dtypes.pop())
        views, m, v, spans, start = {}, {}, {}, [], 0
        for name, t in named_params.items():
            views[name], m[name], v[name] = (row[start:start + t.size].reshape(t.shape) for row in arena)
            views[name][...] = t.data
            t.data = views[name]
            spans.append((name, start, start + t.size))
            start += t.size
        blocks = []
        for lo in range(0, n, ADAM_BLOCK):
            hi = min(lo + ADAM_BLOCK, n)
            blocks.append((lo, hi, [(name, max(s, lo) - s, min(e, hi) - s)
                                    for name, s, e in spans if s < hi and lo < e]))
        return AdamState(m, v, views, arena, blocks, np.empty((3, min(n, ADAM_BLOCK)), arena.dtype))


def adam_step(params: dict, grads: dict, state: AdamState, lr: float) -> None:
    """One bias-corrected Adam update, written in place into the arena.

    ``params`` maps names to tensors, ``grads`` names to arrays (missing or
    None entries count as zero).  A NaN gradient aborts, naming the tensor, as
    does a parameter whose ``.data`` is no longer its arena view.  The pass
    walks the arena block by block: it copies the block's gradient into
    scratch, then updates m, v and the parameters in place with the
    operations of the plain per-tensor update, in its order, so the bytes
    match it.
    """
    flat = {}
    for name, view in state.views.items():
        if params[name].data is not view:
            raise ValueError(f"parameter {name!r} was rebound: write into its .data, Adam owns the array")
        g = grads.get(name)
        if g is not None:
            if g.shape != view.shape:
                raise ValueError(f"gradient shape {g.shape} != param shape {view.shape} for {name!r}")
            flat[name] = g.reshape(-1)
    state.step += 1
    t = state.step
    bias1 = 1.0 - ADAM_BETA1 ** t
    bias2 = 1.0 - ADAM_BETA2 ** t
    for lo, hi, pieces in state.blocks:
        g, a, b = state.scratch[:, :hi - lo]
        at = 0
        for name, start, stop in pieces:
            piece = g[at:at + stop - start]
            at += stop - start
            if name not in flat:
                piece.fill(0)
            else:
                piece[...] = flat[name][start:stop]
                if np.isnan(np.dot(piece, piece)):  # a sum of squares is NaN only where an element is
                    raise ValueError(f"NaN gradient for tensor {name!r}")
        p, m, v = state.arena[:, lo:hi]
        m *= ADAM_BETA1
        m += np.multiply(g, 1.0 - ADAM_BETA1, out=a)
        v *= ADAM_BETA2
        np.multiply(g, g, out=a)
        v += np.multiply(a, 1.0 - ADAM_BETA2, out=a)
        np.sqrt(np.divide(v, bias2, out=a), out=a)
        a += ADAM_EPS
        np.multiply(np.divide(m, bias1, out=b), lr, out=b)
        p -= np.divide(b, a, out=b)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def predict_logits(params, batch) -> Tensor:
    """Inference-mode logits of a model or of a mixture."""
    if isinstance(params, MixtureParams):
        return mixture_forward(batch, params)[1]
    return model_forward(batch, params)


def predict(params, dataset: Dataset, max_frames: int, batch_size: int = 64) -> PredictionSet:
    """Top-20 sigmoid scores of every video, inference mode, in dataset order, in blocks of
    ``batch_size`` rows, the last padded with copies of its last video: every GEMM sees one row
    count, so a video's scores depend only on the video, the weights and the block size.  Top-k
    and the append run once per piece: the most whole blocks whose scores fit ``TABLE_PAIRS``."""
    if batch_size < 1:
        raise ValueError(f"predict: batch_size must be >= 1, got {batch_size}")
    preds = PredictionSet()
    records = dataset.records
    k = min(MAX_PREDICTIONS, dataset.num_classes)
    per_piece = batch_size * max(1, TABLE_PAIRS // (batch_size * dataset.num_classes))
    with fixed_weights():  # each stream's assignment weights and bias, formed once per pass
        for lo in range(0, len(records), per_piece):
            piece, scores = records[lo:lo + per_piece], []
            for start in range(lo, lo + len(piece), batch_size):
                n = min(batch_size, len(records) - start)
                rows = np.minimum(np.arange(start, start + batch_size), start + n - 1)
                batch = make_batch(dataset.rows(rows), max_frames, dataset.num_classes)
                scores.append(ad.sigmoid(predict_logits(params, batch)).data[:n])
            classes, confs = topk_predictions(np.concatenate(scores), k)
            preds.append([r.video_id for r in piece], [r.labels for r in piece], k,
                         classes.reshape(-1), confs.reshape(-1))
    return preds


def evaluate_gap(params, dataset: Dataset, max_frames: int, batch_size: int = 64) -> float:
    """GAP@20 of the model over a dataset, inference mode."""
    return gap_at_20(predict(params, dataset, max_frames, batch_size))


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------


@dataclass
class TrainState:
    params: Union[ModelParams, MixtureParams]
    adam: AdamState
    global_step: int = 0

    @staticmethod
    def create(params) -> "TrainState":
        return TrainState(params=params, adam=AdamState.create(params.named_parameters()))


@dataclass
class LogRow:
    step: int
    lr: float
    loss: float
    bce: float
    kl: float
    gap: Optional[float] = None

    def csv(self) -> str:
        gap = "" if self.gap is None else repr(self.gap)
        return f"{self.step},{self.lr!r},{self.loss!r},{self.bce!r},{self.kl!r},{gap}"


LOG_HEADER = "step,lr,loss,bce,kl,gap"


def _classifier_l2(named: dict, coefficient: float) -> Tensor:
    reg = None
    for w in (t for name, t in named.items() if name.endswith(".classifier_w")):
        term = ad.reduce_sum(w * w)
        reg = term if reg is None else reg + term
    return reg * coefficient


def _train_step(state: TrainState, named: dict, batch, cfg: TrainConfig) -> LogRow:
    """One Adam step on ``batch``, logged without a GAP; its graph and
    gradients live only inside this call."""
    step = state.global_step + 1  # as the log counts it
    lr = lr_schedule(state.global_step, cfg)
    rng = Rng(derive_seed(cfg.seed, TAG_DROPOUT, state.global_step))
    with ad.differentiating(named.values()):
        if isinstance(state.params, MixtureParams):
            expert_logits, mixture_logits, _ = mixture_forward(
                batch, state.params, training=True, rng=rng)
            loss, breakdown = total_loss(expert_logits, mixture_logits, batch.labels, cfg.loss)
            bce_value, kl_value = breakdown.bce_total, breakdown.kl_weighted
        else:
            logits = model_forward(batch, state.params, training=True, rng=rng)
            loss = bce_loss(logits, batch.labels)
            bce_value, kl_value = loss.item(), 0.0
        if cfg.l2_classifier > 0:
            loss = loss + _classifier_l2(named, cfg.l2_classifier)
        loss_value = loss.item()
        if not math.isfinite(loss_value):
            raise RuntimeError(f"non-finite loss at step {step}")
        grads = loss.backward()
    adam_step(named, {name: grads.get(t) for name, t in named.items()}, state.adam, lr)
    return LogRow(step=step, lr=lr, loss=loss_value, bce=bce_value, kl=kl_value)


def train_loop(
    state: TrainState,
    dataset: Dataset,
    cfg: TrainConfig,
    max_frames: int,
    eval_dataset: Optional[Dataset] = None,
) -> list[LogRow]:
    """Run (or continue) training until the step budget is exhausted.

    Returns one log row per executed step; evaluation rows carry a GAP
    score computed on ``eval_dataset`` (default: the training set).
    """
    records = dataset.records
    if not records:
        raise ValueError("empty dataset")
    n = len(records)
    steps_per_epoch = (n + cfg.batch_size - 1) // cfg.batch_size
    total_steps = cfg.max_steps if cfg.max_steps > 0 else cfg.epochs * steps_per_epoch
    gap_source = eval_dataset if eval_dataset is not None else dataset
    # Adam writes each tensor's arena view in place, never rebinds it: enumerate once
    named = state.params.named_parameters()

    rows: list[LogRow] = []
    cached_epoch = -1
    perm = None
    while state.global_step < total_steps:
        epoch = state.global_step // steps_per_epoch
        pos = state.global_step % steps_per_epoch
        if epoch != cached_epoch:
            perm = Rng(derive_seed(cfg.seed, TAG_SHUFFLE, epoch)).permutation(n)
            cached_epoch = epoch
        idx = perm[pos * cfg.batch_size:(pos + 1) * cfg.batch_size]
        batch = make_batch(dataset.rows(idx), max_frames, dataset.num_classes)

        row = _train_step(state, named, batch, cfg)
        if row.step % (cfg.eval_every or steps_per_epoch) == 0 or row.step == total_steps:
            row.gap = evaluate_gap(state.params, gap_source, max_frames)
        rows.append(row)
        state.global_step = row.step
    return rows


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


@dataclass
class Checkpoint:
    global_step: int
    adam_step: int
    config_echo: str
    tensors: dict


def _gather_tensors(state: TrainState) -> dict:
    """Every array a checkpoint holds, by walk name: parameters, buffers and
    Adam's moments, a mixture's stacked experts whole."""
    out = {name: t.data for name, t in state.params.named_parameters().items()}
    out.update(state.params.named_buffers())
    for tag, moments in (("m", state.adam.m), ("v", state.adam.v)):
        out.update({f"adam.{tag}.{name}": a for name, a in moments.items()})
    return out


def save_checkpoint(state: TrainState, path, config_echo: str = "") -> None:
    """Serialize parameters, BN running stats, optimizer moments and the
    config echo, atomically (``atomic_write``); the round-trip is bit-exact."""
    tensors = _gather_tensors(state)
    echo = config_echo.encode("utf-8")
    with atomic_write(path) as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<IQQ", CHECKPOINT_VERSION, state.global_step, state.adam.step))
        f.write(struct.pack("<I", len(echo)))
        f.write(echo)
        f.write(struct.pack("<I", len(tensors)))
        for name in sorted(tensors):
            arr = np.ascontiguousarray(tensors[name])
            if arr.dtype not in _DTYPE_CODES:
                raise ValueError(f"cannot serialize dtype {arr.dtype} of {name!r}")
            ident = name.encode("utf-8")
            f.write(struct.pack("<H", len(ident)))
            f.write(ident)
            f.write(struct.pack("<BB", _DTYPE_CODES[arr.dtype], arr.ndim))
            f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            f.write(arr.astype(arr.dtype.newbyteorder("<")).tobytes())


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as f:
        r = _Reader(f, path)
        if r.take(4) != CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: bad magic, not a checkpoint")
        version, global_step, adam_step = r.unpack("<IQQ")
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {version}")
        (echo_len,) = r.unpack("<I")
        echo = r.text(echo_len, "config echo")
        (count,) = r.unpack("<I")
        tensors = {}
        for i in range(count):
            (name_len,) = r.unpack("<H")
            name = r.text(name_len, f"name of tensor {i}")
            code, ndim = r.unpack("<BB")
            if code not in _CODE_DTYPES:
                raise ValueError(f"{path}: unknown dtype code {code} for {name!r}")
            shape = r.unpack(f"<{ndim}I")
            dtype = _CODE_DTYPES[code]
            n_bytes = math.prod(shape) * dtype.itemsize
            arr = np.frombuffer(r.take(n_bytes), dtype=dtype.newbyteorder("<"))
            try:  # a zero dim leaves no bytes to read, yet the others may be too large to form
                tensors[name] = arr.astype(dtype).reshape(shape)
            except ValueError:
                raise ValueError(f"{path}: tensor {name!r} has shape {shape}, too large to form") from None
        if f.read(1):
            raise ValueError(f"{path}: trailing bytes")
    return Checkpoint(global_step=global_step, adam_step=adam_step,
                      config_echo=echo, tensors=tensors)


def apply_checkpoint(state: TrainState, ckpt: Checkpoint) -> None:
    """Load a checkpoint into a freshly built state of the same shape.

    Every parameter, buffer and moment must be present with matching shape
    and dtype, and no other tensor; training then continues the saved
    trajectory exactly.
    """
    expected = _gather_tensors(state)
    extra = next((name for name in ckpt.tensors if name not in expected), None)
    if extra is not None:  # saved by another model, which the echo no longer describes
        raise ValueError(f"checkpoint holds tensor {extra!r}, which the model does not expect")
    for name, target in expected.items():
        if name not in ckpt.tensors:
            raise ValueError(f"checkpoint missing tensor {name!r}")
        arr = ckpt.tensors[name]
        if arr.shape != target.shape or arr.dtype != target.dtype:
            raise ValueError(
                f"checkpoint tensor {name!r} is {arr.dtype}{arr.shape}, "
                f"expected {target.dtype}{target.shape}")
    for name, target in expected.items():  # views into the arena and the buffers
        target[...] = ckpt.tensors[name]
    state.adam.step = ckpt.adam_step
    state.global_step = ckpt.global_step
