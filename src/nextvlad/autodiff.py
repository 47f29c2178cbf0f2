"""Dense tensors with reverse-mode differentiation.

A :class:`Tensor` wraps a C-contiguous float32/float64 numpy array.  Every
operation is a :class:`Primitive` exposing a forward evaluation and a
vector-Jacobian product; a result that needs a gradient records its
primitive and inputs, and :meth:`Tensor.backward`, the one caller of the VJPs,
runs them in reverse topological order and returns the leaves' gradients.
Leaves require a gradient only inside :func:`differentiating`.  There is no
symbolic or forward-mode machinery, and no dependency on an ML framework.

Conventions:

* float32 is the training/storage dtype, float64 the verification dtype.
* mixing dtypes between two tensors is an error; python scalars are cast
  to the tensor's dtype.
* values are immutable once constructed; mutable state (batch-norm running
  moments, RNG counters) lives outside the graph.  The one exception is a
  trained parameter: Adam writes its array in place after ``backward``
  returns, so a graph must not be reused across an optimizer step.
* an op that ``add`` and ``mul`` compute exactly is composed from them, not a
  primitive: ``a - b`` is ``a + b * -1`` and dropout a product with its scaled mask.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .rng import Rng

FLOAT_DTYPES = (np.float32, np.float64)


def _contiguous(arr: np.ndarray) -> np.ndarray:
    # ascontiguousarray would promote 0-d arrays to shape (1,)
    return arr if arr.ndim == 0 else np.ascontiguousarray(arr)


def _as_array(data) -> np.ndarray:
    arr = np.asarray(data)
    if arr.dtype not in FLOAT_DTYPES:
        arr = arr.astype(np.float32)
    return _contiguous(arr)


class Tensor:
    """Row-major numeric array plus the node that made it; hashes by identity."""

    __slots__ = ("data", "requires_grad", "_parents", "_prim", "_kw")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_array(data)
        self.requires_grad = requires_grad
        # the node that made this tensor, recorded only where a gradient flows
        self._parents: tuple[Tensor, ...] = ()
        self._prim: Optional[Primitive] = None
        self._kw: dict = {}

    # -- basic views ------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() needs a one-element tensor, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        head = f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}"
        if self._prim is not None:
            head += f", op={self._prim.name}"
        return head + ")"

    # -- autodiff ---------------------------------------------------------

    def backward(self, cotangent: Optional[np.ndarray] = None) -> dict:
        """``{leaf: d(self)/d(leaf)}`` for every reachable leaf that requires a gradient.

        ``cotangent`` defaults to ones and must match this tensor's shape;
        for non-scalar outputs it is the vector of the vector-Jacobian
        product.
        """
        if cotangent is None:
            cotangent = np.ones_like(self.data)
        else:
            cotangent = np.asarray(cotangent, dtype=self.data.dtype)
            if cotangent.shape != self.data.shape:
                raise ValueError(
                    f"cotangent shape {cotangent.shape} != output shape {self.data.shape}")

        order = self._toposort()
        flowing: dict[int, np.ndarray] = {id(self): cotangent}
        grads: dict[Tensor, np.ndarray] = {}
        for node in order:
            g = flowing.pop(id(node), None)
            if g is None:
                continue
            if node._prim is None:
                grads[node] = g
                continue
            # arrays are never written once built, so these are the forward's operands
            parents = node._parents
            needs = tuple(p.requires_grad for p in parents)
            parent_grads = node._prim.vjp(g, node.data, *(p.data for p in parents),
                                          needs=needs, **node._kw)
            for parent, need, pg in zip(parents, needs, parent_grads):
                if pg is None or not need:
                    continue
                key = id(parent)
                if key in flowing:
                    flowing[key] = flowing[key] + pg
                else:
                    flowing[key] = pg
        return grads

    def _toposort(self) -> list["Tensor"]:
        # iterative post-order DFS; reversed result visits consumers first
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen or not node.requires_grad:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                stack.append((p, False))
        order.reverse()
        return order

    # -- operator sugar ----------------------------------------------------

    def __add__(self, other):
        return add(self, _coerce(other, self.dtype))

    __radd__ = __add__

    def __sub__(self, other):  # exact: IEEE defines a - b as a + (-b), and sum(-g) as -sum(g)
        return self + _coerce(other, self.dtype) * -1

    def __mul__(self, other):
        return mul(self, _coerce(other, self.dtype))

    __rmul__ = __mul__

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)


def _coerce(value, dtype) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=dtype))


@contextmanager
def differentiating(leaves: Iterable[Tensor]):
    """Make ``leaves`` require a gradient inside the block; each flag is
    restored on exit, also when the block raises."""
    leaves = list(leaves)
    saved = [t.requires_grad for t in leaves]
    try:
        for t in leaves:
            t.requires_grad = True
        yield
    finally:
        for t, flag in zip(leaves, saved):
            t.requires_grad = flag


# ---------------------------------------------------------------------------
# primitive machinery
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Primitive:
    """A differentiable operation: forward plus its vector-Jacobian product.

    ``forward(*arrays, **kw) -> array`` evaluates the op on raw numpy data.
    ``vjp(cotangent, out, *arrays, needs, **kw) -> tuple`` returns one
    cotangent per input, shaped like it.  ``needs`` holds one bool per input,
    true where it requires a gradient; an input whose flag is false (frames,
    masks, constants) may get ``None`` instead of a cotangent nobody reads.
    Where ``saves`` is true the forward returns ``(array, saved)``: ``saved``
    maps names to arrays the forward made that the VJP takes as keywords,
    kept on the node only where a gradient flows.
    """

    name: str
    forward: Callable[..., np.ndarray]
    vjp: Callable[..., tuple]
    saves: bool = False


def apply(prim: Primitive, *inputs: Tensor, **kw) -> Tensor:
    out = Tensor.__new__(Tensor)
    data = prim.forward(*(t.data for t in inputs), **kw)
    if prim.saves:
        data, saved = data
        kw = {**kw, **saved}
    out.data = _contiguous(data)
    out.requires_grad = any(t.requires_grad for t in inputs)
    out._parents, out._prim, out._kw = (inputs, prim, kw) if out.requires_grad else ((), None, {})
    return out


def _check_same_dtype(name: str, *arrays: np.ndarray) -> None:
    first = arrays[0].dtype
    for a in arrays[1:]:
        if a.dtype != first:
            raise TypeError(f"{name}: dtype mismatch ({first.name} vs {a.dtype.name})")


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise arithmetic
# ---------------------------------------------------------------------------


def _fw_add(a, b):
    _check_same_dtype("add", a, b)
    return a + b


ADD = Primitive(
    "add",
    _fw_add,
    lambda g, out, a, b, needs: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)),
)


def _fw_mul(a, b):
    _check_same_dtype("mul", a, b)
    return a * b


MUL = Primitive(
    "mul",
    _fw_mul,
    lambda g, out, a, b, needs: (_unbroadcast(g * b, a.shape) if needs[0] else None,
                                 _unbroadcast(g * a, b.shape) if needs[1] else None),
)


def add(a: Tensor, b: Tensor) -> Tensor:
    return apply(ADD, a, b)


def mul(a: Tensor, b: Tensor) -> Tensor:
    return apply(MUL, a, b)


def dropout(x: Tensor, rate: float, rng: Rng, training: bool) -> Tensor:
    """Inverted dropout: zero with probability ``rate``, scale survivors by
    1/(1-rate), as a product with that constant mask.  Inference mode returns
    the input unchanged and draws nothing from ``rng``."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x
    keep = (rng.uniform(x.shape) >= rate).astype(x.dtype)
    return x * Tensor(keep * x.dtype.type(1.0 / (1.0 - rate)))


# ---------------------------------------------------------------------------
# dense layers and residual aggregation
# ---------------------------------------------------------------------------


def _fw_affine(x, w, b):
    _check_same_dtype("affine", x, w, b)
    return x @ w + b[..., None, :]


def _vjp_affine(g, out, x, w, b, needs):
    # shared rows under stacked weights take the sum of every expert's cotangent
    return (_unbroadcast(g @ w.swapaxes(-1, -2), x.shape) if needs[0] else None,
            x.swapaxes(-1, -2) @ g if needs[1] else None,
            g.sum(axis=-2) if needs[2] else None)


AFFINE = Primitive("affine", _fw_affine, _vjp_affine)


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Dense layer ``x @ w + b`` of rows x (R, I), weights w (I, O) and bias b (O,).
    Weights (E, I, O) and bias (E, O) stacked on a leading expert axis take
    rows shared by every expert (R, I) or rows of their own (E, R, I)."""
    xs, ws = x.shape, w.shape
    if (len(ws) not in (2, 3) or len(xs) not in (2, len(ws)) or xs[-1] != ws[-2]
            or xs[:-2] != ws[:len(xs) - 2] or b.shape != ws[:-2] + ws[-1:]):
        raise ValueError(f"affine: x {xs} @ w {ws} + b {b.shape} "
                         "do not fit (R, I) @ (I, O) + (O,), nor with a leading expert axis")
    return apply(AFFINE, x, w, b)


def _fw_weight_product(a, b):
    _check_same_dtype("weight_product", a, b)
    return (a.astype(np.float64) @ b.astype(np.float64)).astype(a.dtype)


def _vjp_weight_product(g, out, a, b, needs):
    return (g @ b.swapaxes(-1, -2) if needs[0] else None,
            a.swapaxes(-1, -2) @ g if needs[1] else None)


WEIGHT_PRODUCT = Primitive("weight_product", _fw_weight_product, _vjp_weight_product)


def weight_product(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product ``a @ b`` of two weights, a (I, J) and b (J, O), or both stacked
    on a leading expert axis, (E, I, J) and (E, J, O).  The forward accumulates in
    float64 and rounds once to the weights' dtype; the VJP runs in that dtype."""
    a_s, b_s = a.shape, b.shape
    if len(a_s) not in (2, 3) or len(b_s) != len(a_s) or a_s[:-2] != b_s[:-2] or a_s[-1] != b_s[-2]:
        raise ValueError(f"weight_product: a {a_s} @ b {b_s} "
                         "do not fit (I, J) @ (J, O), nor with a leading expert axis")
    return apply(WEIGHT_PRODUCT, a, b)


def _to_rows(x, rows, axis=0):
    return x if len(rows) == x.shape[axis] else np.take(x, rows, axis=axis)


def _padded(x, rows, shape):
    # (..., T, G, D) rows -> (..., B, M*G, D), the layout the residual sums run in:
    # scattered into zeros, or no copy when they fill the grid (a copy where ``x``
    # is not contiguous)
    (b, m), r = shape, x.ndim - 3
    if len(rows) != b * m:
        out = np.zeros(x.shape[:r] + (b * m,) + x.shape[r + 1:], dtype=x.dtype)
        out[(slice(None),) * r + (rows,)] = x
        x = out
    return x.reshape(x.shape[:r] + (b, m * x.shape[-2], x.shape[-1]))


def _fw_residual_aggregate(frames, w, b, feats, anchors, gate, *, lengths, max_frames):
    _check_same_dtype("residual_aggregate", frames, w, b, feats, anchors, gate)
    (g, k), lead = (feats.shape[-2], anchors.shape[-2]), w.shape[:-2]
    # the logits rows-last, W^T X^T + b shaped (..., G, K, T): the softmax's max and sum
    # over K then reduce a leading axis, which numpy does fast, not a short innermost one
    a = w.swapaxes(-1, -2) @ frames.T
    a += b[..., None]
    a = a.reshape(lead + (g, k, len(frames)))
    top = a.max(axis=-2, keepdims=True)
    if np.isnan(top).any():  # a NaN logit makes its max NaN
        raise ValueError("residual_aggregate: NaN in logits")
    a = np.exp(np.subtract(a, top, out=a), out=a)
    a /= a.sum(axis=-2, keepdims=True)
    shape = (len(lengths), max_frames)
    rows = np.flatnonzero(np.arange(max_frames) < lengths[:, None])  # each video's first places in B*M
    # the gated softmax, scattered from its (..., G, K, T) layout to the grid
    wp = _padded(np.moveaxis(a * gate.swapaxes(-1, -2)[..., None, :], -1, -3), rows, shape)
    padded = _padded(feats, rows, shape)
    agg = wp.swapaxes(-1, -2) @ padded
    wsum = np.ones(wp.shape[-2], wp.dtype) @ wp  # (..., B, K)
    agg -= wsum[..., None] * anchors[..., None, :, :]
    # the softmax unpadded and rows-last, the rest padded
    return agg, {"softmax": a, "wp": wp, "wsum": wsum, "padded": padded, "rows": rows}


def _vjp_residual_aggregate(g_out, out, frames, w, b, feats, anchors, gate, *, lengths, max_frames,
                            softmax, wp, wsum, padded, rows, needs):
    (bb, m), (g, k, t), r = (len(lengths), max_frames), softmax.shape[-3:], softmax.ndim - 3
    lead = softmax.shape[:r]
    gated = _to_rows(wp.reshape(lead + (bb * m, g, k)), rows, r)  # the gated softmax, unpadded
    d_feats = None
    if needs[3]:  # shared feats take the sum over experts
        d_feats = _to_rows((wp @ g_out).reshape(lead + (bb * m, g, -1)), rows, r)
        d_feats = _unbroadcast(d_feats, feats.shape)
    d_anchors = None
    if needs[4]:
        d_anchors = -(wsum.swapaxes(-1, -2)[..., None, :] @ g_out.swapaxes(-3, -2))[..., 0, :]
    if not (needs[0] or needs[1] or needs[2] or needs[5]):
        return (None, None, None, d_feats, d_anchors, None)
    # d/d(gated softmax) of the residual sum, rows first, (..., T, G, K); sums over K, like
    # wsum, are BLAS products with ones, not reductions over a short inner axis
    dw = padded @ g_out.swapaxes(-1, -2)
    dw -= (g_out.swapaxes(-3, -2) @ anchors[..., None])[..., 0].swapaxes(-1, -2)[..., None, :]
    dw = _to_rows(dw.reshape(lead + (bb * m, g, k)), rows, r)
    a = np.moveaxis(softmax, -1, -3)  # the softmax read rows first
    d_gate = ((a * dw).reshape(-1, k) @ np.ones(k, dw.dtype)).reshape(lead + (t, g))
    d_frames = d_w = d_b = None
    if needs[0] or needs[1] or needs[2]:
        d_logits = np.multiply(np.subtract(dw, d_gate[..., None], out=dw), gated, out=dw)
        d_logits = d_logits.reshape(lead + (t, g * k))
        if needs[0]:  # shared frames take the sum over experts
            d_frames = _unbroadcast(d_logits @ w.swapaxes(-1, -2), frames.shape)
        d_w = frames.T @ d_logits if needs[1] else None
        d_b = d_logits.sum(axis=-2) if needs[2] else None
    return (d_frames, d_w, d_b, d_feats, d_anchors, _unbroadcast(d_gate, gate.shape) if needs[5] else None)


RESIDUAL_AGGREGATE = Primitive("residual_aggregate", _fw_residual_aggregate, _vjp_residual_aggregate,
                               saves=True)


def residual_aggregate(frames: Tensor, w: Tensor, b: Tensor, feats: Tensor, anchors: Tensor, gate: Tensor,
                       lengths: np.ndarray, max_frames: int) -> Tensor:
    """VLAD residual sum before normalization, (B, K, D): out[b,k] = sum over the rows t
    of video b and groups g of gate[t,g] a[t,g,k] (feats[t,g] - anchors[k]), a the softmax
    over K of the logits frames @ w + b, for frames (T, N), assignment weights w (N, G*K)
    and bias b (G*K,).  The frames, feats (T, G, D) and gate (T, G) are packed in video
    order, video b holding ``lengths[b]`` rows, at most ``max_frames``.  With a leading
    expert axis E on w, b and anchors (E, K, D), the output is (E, B, K, D); feats and gate
    may have the axis or be shared, the frames are shared.  Rejects NaN logits."""
    fs, ws, bs, xs, cs, ss = (x.shape for x in (frames, w, b, feats, anchors, gate))
    fits = len(fs) == 2 and len(cs) in (2, 3) and len(xs) >= 2
    if fits:
        (t, n), (k, d), g, lead = fs, cs[-2:], xs[-2], cs[:-2]
        fits = (ws == lead + (n, g * k) and bs == lead + (g * k,)
                and xs in ((t, g, d), lead + (t, g, d)) and ss in ((t, g), lead + (t, g)))
    if not fits:
        raise ValueError(f"residual_aggregate: frames {fs}, weights {ws}, bias {bs}, feats {xs}, "
                         f"anchors {cs} and gate {ss} do not fit "
                         "(T, N), (N, G*K), (G*K,), (T, G, D), (K, D) and (T, G), "
                         "nor with a leading expert axis")
    lengths = np.asarray(lengths)
    if lengths.ndim != 1 or lengths.dtype.kind not in "iu" or lengths.size and (
            lengths.min() < 0 or lengths.max() > max_frames) or lengths.sum() != fs[0]:
        raise ValueError(f"residual_aggregate: lengths must be 1-d integers in [0, {max_frames}] "
                         f"summing to the {fs[0]} rows")
    return apply(RESIDUAL_AGGREGATE, frames, w, b, feats, anchors, gate, lengths=lengths,
                 max_frames=max_frames)


# ---------------------------------------------------------------------------
# shape ops
# ---------------------------------------------------------------------------


def _fw_reshape(a, *, shape):
    out = a.reshape(shape)
    if out.size != a.size:
        raise ValueError(f"reshape cannot change size: {a.shape} -> {shape}")
    return out


RESHAPE = Primitive(
    "reshape",
    _fw_reshape,
    lambda g, out, a, *, shape, needs: (g.reshape(a.shape),),
)


def reshape(a: Tensor, shape) -> Tensor:
    return apply(RESHAPE, a, shape=tuple(shape))


def _vjp_transpose(g, out, a, *, axes, needs):
    inverse = tuple(np.argsort(axes))
    return (g.transpose(inverse),)


TRANSPOSE = Primitive(
    "transpose",
    lambda a, *, axes: a.transpose(axes),
    _vjp_transpose,
)


def transpose(a: Tensor, axes) -> Tensor:
    return apply(TRANSPOSE, a, axes=tuple(axes))


def _fw_concat(*arrays, axis):
    _check_same_dtype("concat", *arrays)
    return np.concatenate(arrays, axis=axis)


def _vjp_concat(g, out, *arrays, axis, needs):
    sizes = [a.shape[axis] for a in arrays]
    splits = np.cumsum(sizes)[:-1]
    return tuple(np.ascontiguousarray(p) for p in np.split(g, splits, axis=axis))


CONCAT = Primitive("concat", _fw_concat, _vjp_concat)


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    return apply(CONCAT, *tensors, axis=axis)


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------


def _norm_axes(axes, ndim: int) -> tuple[int, ...]:
    if axes is None:
        return tuple(range(ndim))
    if isinstance(axes, int):
        axes = (axes,)
    axes = tuple(a % ndim for a in axes)
    if len(set(axes)) != len(axes):
        raise ValueError(f"duplicate reduction axis in {axes}")
    return axes


def _fw_reduce_sum(a, *, axes, keepdims):
    return a.sum(axis=_norm_axes(axes, a.ndim), keepdims=keepdims)


def _vjp_reduce_sum(g, out, a, *, axes, keepdims, needs):
    if not keepdims:
        axes = _norm_axes(axes, a.ndim)
        expand = list(g.shape)
        for ax in sorted(axes):
            expand.insert(ax, 1)
        g = g.reshape(expand)
    return (np.broadcast_to(g, a.shape).copy(),)


REDUCE_SUM = Primitive("reduce_sum", _fw_reduce_sum, _vjp_reduce_sum)


def reduce_sum(a: Tensor, axes=None, keepdims: bool = False) -> Tensor:
    return apply(REDUCE_SUM, a, axes=axes, keepdims=keepdims)


# ---------------------------------------------------------------------------
# nonlinearities
# ---------------------------------------------------------------------------


def _fw_softmax(a, *, axis):
    if np.isnan(a).any():
        raise ValueError("softmax: NaN in input")
    e = np.exp(a - a.max(axis=axis, keepdims=True))
    e /= e.sum(axis=axis, keepdims=True)
    return e


def _vjp_softmax(g, out, a, *, axis, needs):
    gy = g * out
    return (np.multiply(np.subtract(g, gy.sum(axis=axis, keepdims=True), out=gy), out, out=gy),)


SOFTMAX = Primitive("softmax", _fw_softmax, _vjp_softmax)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    return apply(SOFTMAX, a, axis=axis)


def _fw_log_softmax(a, *, axis):
    shifted = a - a.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


LOG_SOFTMAX = Primitive(
    "log_softmax",
    _fw_log_softmax,
    lambda g, out, a, *, axis, needs: (g - np.exp(out) * g.sum(axis=axis, keepdims=True),),
)


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    """log softmax(a) along ``axis``, finite for finite input: the shifted
    logits minus the log of their exponentials' sum."""
    return apply(LOG_SOFTMAX, a, axis=axis)


def _fw_sigmoid(a):
    # two-branch form: never exponentiates a positive argument; min(a, -a) rather than -|a|
    # keeps a NaN's sign bit.  As e <= 1, max(e, a >= 0) is 1 where a >= 0 and e elsewhere
    e = np.exp(np.minimum(a, -a))
    d = 1.0 + e
    return np.maximum(e, a >= 0) / d


SIGMOID = Primitive("sigmoid", _fw_sigmoid, lambda g, out, a, needs: (g * out * (1.0 - out),))


def sigmoid(a: Tensor) -> Tensor:
    return apply(SIGMOID, a)


RELU = Primitive(
    "relu",
    lambda a: np.maximum(a, 0),
    lambda g, out, a, needs: (g * (a > 0),),
)


def relu(a: Tensor) -> Tensor:
    return apply(RELU, a)


def _fw_bce(z, *, labels):
    _check_same_dtype("bce", z, labels)
    per_element = np.maximum(z, 0) + np.log1p(np.exp(-np.abs(z))) - z * labels
    return per_element.sum(axis=-1).sum(axis=-1) * z.dtype.type(1.0 / z.shape[-2])


def _vjp_bce(g, out, z, *, labels, needs):
    gz = (g * z.dtype.type(1.0 / z.shape[-2]))[..., None, None]
    return (gz * _fw_sigmoid(z) + (-gz) * labels,)


BCE = Primitive("bce", _fw_bce, _vjp_bce)


def bce(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Binary cross entropy of logits z (B, C) against constant labels y, summed
    over classes and averaged over rows: log(1 + e^z) - z*y, taken as
    max(z, 0) + log1p(e^-|z|) - z*y, finite for finite z; d/dz = sigmoid(z) - y.
    Logits (E, B, C) stacked on a leading expert axis give one loss per expert, (E,)."""
    if logits.ndim not in (2, 3) or labels.shape != logits.shape[-2:] or not logits.shape[-2]:
        raise ValueError(f"bce: labels shape {labels.shape} does not fit logits shape "
                         f"{logits.shape}, which must be (B >= 1, C) or (E, B >= 1, C)")
    return apply(BCE, logits, labels=labels)


# ---------------------------------------------------------------------------
# l2 normalization
# ---------------------------------------------------------------------------


L2_NORMALIZE_EPS = 1e-12


def _row_dot(x, y, axis):  # dot products along ``axis``, kept as a length-1 axis
    dots = np.einsum("...d,...d->...", np.moveaxis(x, axis, -1), np.moveaxis(y, axis, -1))
    # einsum signals no overflow; redone as ufuncs, a non-finite dot raises under np.errstate
    return np.expand_dims(dots, axis) if np.isfinite(dots).all() else (x * y).sum(axis, keepdims=True)


def _fw_l2_normalize(a, *, axis):
    return a / np.maximum(np.sqrt(_row_dot(a, a, axis)), L2_NORMALIZE_EPS)


def _vjp_l2_normalize(g, out, a, *, axis, needs):
    norm = np.sqrt(_row_dot(a, a, axis))
    denom = np.maximum(norm, L2_NORMALIZE_EPS)
    da = (g - out * _row_dot(g, out, axis)) / denom
    if not (norm > L2_NORMALIZE_EPS).all():  # where clamped, the denominator is a constant
        da = np.where(norm > L2_NORMALIZE_EPS, da, g / denom)
    return (da,)


L2_NORMALIZE = Primitive("l2_normalize", _fw_l2_normalize, _vjp_l2_normalize)


def l2_normalize(a: Tensor, axis: int = -1) -> Tensor:
    """Scale slices along ``axis`` to unit L2 norm (at most ``L2_NORMALIZE_EPS``
    in the denominator); zero slices stay zero."""
    return apply(L2_NORMALIZE, a, axis=axis)


# ---------------------------------------------------------------------------
# batch normalization
# ---------------------------------------------------------------------------


BATCH_NORM_EPS = 1e-5
BATCH_NORM_MOMENTUM = 0.9


class BatchNormState:
    """Running first/second moments, (F,) or (E, F) on an expert axis, owned by
    exactly one trainer."""

    def __init__(self, num_features: int, dtype=np.float32):
        self.running_mean = np.zeros(num_features, dtype=dtype)
        self.running_var = np.ones(num_features, dtype=dtype)

    def update(self, batch_mean: np.ndarray, batch_var: np.ndarray) -> None:
        m = BATCH_NORM_MOMENTUM
        self.running_mean = m * self.running_mean + (1.0 - m) * batch_mean
        self.running_var = m * self.running_var + (1.0 - m) * batch_var

    def copy(self) -> "BatchNormState":
        out = BatchNormState.__new__(BatchNormState)
        out.running_mean = self.running_mean.copy()
        out.running_var = self.running_var.copy()
        return out


def _fw_batch_norm(x, gamma, beta, *, state):
    _check_same_dtype("batch_norm", x, gamma, beta)
    scale = x.dtype.type(1.0 / x.shape[-2])
    mu = x.sum(axis=-2, keepdims=True) * scale
    centered = x - mu
    var = (centered * centered).sum(axis=-2, keepdims=True) * scale
    state.update(mu[..., 0, :], var[..., 0, :])
    std = np.sqrt(var + x.dtype.type(BATCH_NORM_EPS))
    normed = centered / std
    return normed * gamma[..., None, :] + beta[..., None, :], {"normed": normed, "std": std}


def _vjp_batch_norm(g, out, x, gamma, beta, *, state, normed, std, needs):
    # with dn = g * gamma: dx = (dn - mean(dn) - normed * mean(dn * normed)) / std
    g_sum, gn_sum = g.sum(axis=-2), (g * normed).sum(axis=-2)
    dx = None
    if needs[0]:
        dx = (g - (g_sum[..., None, :] + normed * gn_sum[..., None, :])
              * x.dtype.type(1.0 / x.shape[-2])) * (gamma[..., None, :] / std)
    return (dx, gn_sum if needs[1] else None, g_sum if needs[2] else None)


BATCH_NORM = Primitive("batch_norm", _fw_batch_norm, _vjp_batch_norm, saves=True)


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor, state: BatchNormState,
               training: bool) -> Tensor:
    """Normalize (batch, features) by batch stats (training) or running stats.
    With a leading expert axis, x (E, B, F) takes gamma, beta and ``state``
    shaped (E, F), and each expert normalizes over its own batch.

    Training mode is one primitive whose VJP flows through the batch
    statistics; its forward updates ``state`` in place with momentum, once
    per call, whether or not a gradient is taken.
    """
    xs = x.shape
    if len(xs) not in (2, 3):
        raise ValueError(f"batch_norm expects (batch, features), got {xs}")
    if xs[-2] == 0:
        raise ValueError("batch_norm: empty batch")
    if gamma.shape != xs[:-2] + xs[-1:]:
        raise ValueError(f"batch_norm: {xs[-1]} features vs {gamma.shape} params")
    if training:
        return apply(BATCH_NORM, x, gamma, beta, state=state)
    shape = x.shape[:-2] + (1, x.shape[-1])
    neg_mean = Tensor(-state.running_mean.reshape(shape).astype(x.dtype))  # x + (-m) is x - m
    inv = Tensor((1.0 / np.sqrt(state.running_var + BATCH_NORM_EPS)).reshape(shape).astype(x.dtype))
    if x.ndim == 3:  # per-expert parameters, (E, F), broadcast over each expert's batch
        gamma, beta = gamma.reshape(shape), beta.reshape(shape)
    return (x + neg_mean) * inv * gamma + beta

