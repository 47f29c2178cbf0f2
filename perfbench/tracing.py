"""Span recording for the traced benchmark run.

The package is not modified: ``install`` replaces public functions of its
modules with wrappers that open a span around the original call, and
``Tracer.uninstall`` puts the originals back.  Spans are kept in memory as
``[name, start, end, parent index, step id]`` and written out by the caller
when the run ends.  A layer's self time is its span's duration minus the
durations of its child spans (the run is single-threaded, so children never
overlap).

Backward time of single layers cannot be separated inside ``Tensor.backward``
without changing the engine, so the wrappers also capture the inputs of a
few training steps; after training, ``replay_backward`` rebuilds each
captured layer alone on those inputs, with copied parameters, and times its
backward pass.
"""

from __future__ import annotations

import dataclasses
import math
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

REPLAY_REPEATS = 3


class Tracer:
    def __init__(self, step_source):
        self.spans: list[tuple] = []
        self.captures: list[tuple] = []  # (step, kind, original function, args)
        self.capture_steps: set[int] = set()
        self.loss_graph = None  # one training loss, kept to count its graph nodes
        self._step_source = step_source
        self._open: list[tuple[int, str]] = []  # (index, name) of open spans
        self._undo: list[tuple] = []

    @property
    def step(self) -> int:
        return len(self._step_source.ends)

    @contextmanager
    def span(self, name: str):
        index, parent, step = len(self.spans), self._open[-1][0] if self._open else -1, self.step
        self._open.append((index, name))
        self.spans.append(None)
        start = time.perf_counter()
        try:
            yield
        finally:
            # a tuple of numbers and a string, which the garbage collector
            # stops tracking, so many spans do not slow its passes
            self.spans[index] = (name, start, time.perf_counter(), parent, step)
            self._open.pop()

    def wrap(self, owner, attr: str, name, hook=None) -> None:
        """Span every call of ``owner.attr``; ``name`` is a string or a
        function of the call's arguments.  ``hook(original, *args)`` runs
        before the span opens."""
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            if hook is not None:
                hook(original, *args, **kwargs)
            with self.span(name if isinstance(name, str) else name(*args)):
                return original(*args, **kwargs)

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def capturing(self) -> bool:
        """True inside a sampled training step, outside any evaluation."""
        return (self.step in self.capture_steps
                and all(name != "train.evaluate_gap" for _, name in self._open))

    def dump(self) -> list:
        return [[n, round(s, 7), round(e, 7), p, st] for n, s, e, p, st in self.spans]


def install(tracer: Tracer, nv, video_dim: int) -> None:
    """Wrap the public functions that ``train_loop`` and ``evaluate_gap``
    reach, in the module namespaces they are looked up from."""
    train, model, vlad, ad = nv.train, nv.model, nv.vlad, nv.autodiff

    def capture(kind):
        def hook(original, *args, **kwargs):
            if tracer.capturing():
                tracer.captures.append((tracer.step, kind(*args), original,
                                        _snapshot((args, kwargs))))
        return hook

    def stream(view, *rest):
        return "vlad.video_descriptor" if view.feature_dim == video_dim else "vlad.audio_descriptor"

    def keep_loss(original, loss, *rest):
        if tracer.loss_graph is None and tracer.capturing():
            tracer.loss_graph = loss

    descriptor_kind = capture(lambda *args: stream(*args).replace("_descriptor", ""))
    tracer.wrap(train, "make_batch", "data.make_batch")
    tracer.wrap(nv.rng.Rng, "permutation", "rng.permutation")
    tracer.wrap(train, "model_forward", "model.forward")
    tracer.wrap(model, "model_forward", "model.forward")
    tracer.wrap(train, "mixture_forward", "model.mixture_forward")
    tracer.wrap(model, "nextvlad_descriptor", stream, descriptor_kind)
    tracer.wrap(model, "netvlad_descriptor", stream, descriptor_kind)
    tracer.wrap(vlad.ReduceHead, "__call__", "model.reduce", capture(lambda *a: "model.reduce"))
    tracer.wrap(model, "se_context_gating", "model.se_gating", capture(lambda *a: "model.se_gating"))
    tracer.wrap(train, "bce_loss", "losses.loss", capture(lambda *a: "losses"))
    tracer.wrap(train, "total_loss", "losses.loss", capture(lambda *a: "losses"))
    tracer.wrap(ad.Tensor, "backward", "autodiff.backward", keep_loss)
    tracer.wrap(train, "adam_step", "train.adam_step")
    tracer.wrap(train, "evaluate_gap", "train.evaluate_gap")
    tracer.wrap(train, "topk_predictions", "metrics.topk")
    tracer.wrap(train, "gap_at_20", "metrics.gap")


# ---------------------------------------------------------------------------
# replay of single layers
# ---------------------------------------------------------------------------


def _snapshot(obj):
    """Copy the tensors and batch-norm statistics reachable from ``obj``.

    Array data is shared: Adam rebinds ``Tensor.data`` rather than writing
    into it, so a captured array keeps the step's values.  Batch-norm
    running statistics are copied because replaying a training-mode layer
    updates them.
    """
    from nextvlad.autodiff import BatchNormState, Tensor

    if isinstance(obj, Tensor):
        return Tensor(obj.data, requires_grad=obj.requires_grad)
    if isinstance(obj, BatchNormState):
        return obj.copy()
    if isinstance(obj, (list, tuple)):
        return type(obj)(_snapshot(x) for x in obj)
    if isinstance(obj, dict):
        return {k: _snapshot(v) for k, v in obj.items()}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return dataclasses.replace(
            obj, **{f.name: _snapshot(getattr(obj, f.name))
                    for f in dataclasses.fields(obj) if f.init})
    return obj


def replay_backward(captures: list) -> dict:
    """Backward ms per training step for each captured layer kind: the
    median over captured steps of the summed per-call backward time."""
    per_step: dict = defaultdict(lambda: defaultdict(float))
    for step, kind, original, (args, kwargs) in captures:
        out = original(*args, **kwargs)
        if isinstance(out, tuple):  # total_loss returns (loss, breakdown)
            out = out[0]
        times = []
        for _ in range(REPLAY_REPEATS):
            t0 = time.perf_counter()
            out.backward()
            times.append(time.perf_counter() - t0)
        per_step[kind][step] += statistics.median(times) * 1e3
    return {kind: statistics.median(steps.values()) for kind, steps in per_step.items()}


def graph_nodes(root) -> int:
    """Nodes that backward visits from ``root``.  The engine exposes its
    graph only through ``Tensor._parents``."""
    seen: set[int] = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen or not node.requires_grad:
            continue
        seen.add(id(node))
        stack.extend(node._parents)
    return len(seen)


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


def self_times(spans: list) -> list[float]:
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [(end - start) - c for (_, start, end, _, _), c in zip(spans, covered)]


TRAIN = ("train.train_loop",)
EVAL = ("train.evaluate_gap",)


def contexts(spans: list) -> list[tuple]:
    """For each span, the ``train.train_loop`` and ``train.evaluate_gap``
    spans enclosing it (itself included), outermost first.  A scoring pass
    of the benchmark's own is ``EVAL``; the probe evaluation ``train_loop``
    runs after its last step is ``TRAIN + EVAL`` and counts for neither."""
    out: list = []
    for name, _, _, parent, _ in spans:
        ctx = out[parent] if parent >= 0 else ()
        out.append(ctx + (name,) if name in TRAIN + EVAL else ctx)
    return out


def layer_table(spans: list, train_steps: int) -> dict:
    """Per-layer self times: ms per training step, per epoch, per batch or
    per scoring pass, as each metric's definition says."""
    own = self_times(spans)
    ctx = contexts(spans)
    total: dict = defaultdict(float)
    count: dict = defaultdict(int)
    for i, span in enumerate(spans):
        total[ctx[i], span[0]] += own[i] * 1e3
        count[ctx[i], span[0]] += 1

    def per_step(name):
        return total[TRAIN, name] / train_steps

    def per_call(name):
        return total[TRAIN, name] / max(count[TRAIN, name], 1)

    passes = max(count[EVAL, "train.evaluate_gap"], 1)
    return {
        "rng.shuffle_ms": per_call("rng.permutation"),
        "data.make_batch_ms": per_call("data.make_batch"),
        "train.data_wait_ms": per_step("rng.permutation") + per_step("data.make_batch"),
        "vlad.video_fw_ms": per_step("vlad.video_descriptor"),
        "vlad.audio_fw_ms": per_step("vlad.audio_descriptor"),
        "model.reduce_fw_ms": per_step("model.reduce"),
        "model.se_gating_fw_ms": per_step("model.se_gating"),
        "model.head_self_ms": per_step("model.forward") + per_step("model.mixture_forward"),
        "losses.fw_ms": per_step("losses.loss"),
        "autodiff.backward_ms": per_step("autodiff.backward"),
        "train.adam_ms": per_step("train.adam_step"),
        "metrics.topk_ms": total[EVAL, "metrics.topk"] / passes,
        "metrics.gap_ms": total[EVAL, "metrics.gap"] / passes,
    }


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]
