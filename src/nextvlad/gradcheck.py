"""Finite-difference verification of vector-Jacobian products.

Works on any pure function of float64 leaf tensors: the output is
contracted with a fixed random cotangent (a plain sum would be blind to
error directions it cancels, e.g. in softmax), the resulting scalar is
differentiated both ways, and per-element relative errors are compared.

The function may close over its inputs instead of reading its arguments;
``grad_check`` perturbs the tensors' buffers in place, so whatever ``fn``
evaluates must go through the exact tensor objects passed in.  Buffers and
``requires_grad`` flags are restored afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .autodiff import Primitive, Tensor, apply, differentiating
from .rng import Rng

DEFAULT_STEP = 1e-5
DEFAULT_TOL = 1e-4


@dataclass
class GradCheckReport:
    passed: bool
    max_rel_error: float
    worst_input: int  # index into the inputs list
    worst_element: tuple  # unraveled index within that input
    tol: float

    def __str__(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"grad_check {status}: max rel error {self.max_rel_error:.3e} "
            f"(tol {self.tol:.1e}) at input {self.worst_input}, "
            f"element {self.worst_element}"
        )


def grad_check(
    fn: Union[Primitive, Callable[..., Tensor]],
    inputs: Sequence[Tensor],
    h: float = DEFAULT_STEP,
    tol: float = DEFAULT_TOL,
    seed: int = 0,
    **kw,
) -> GradCheckReport:
    """Compare reverse-mode gradients of ``fn`` against central differences.

    ``fn`` is a :class:`Primitive` or a deterministic callable producing one
    tensor; ``inputs`` must be float64 leaf tensors.  Relative error per
    element is |a - n| / max(|a|, |n|, 1).
    """
    if isinstance(fn, Primitive):
        prim = fn
        fn = lambda *ts: apply(prim, *ts, **kw)  # noqa: E731
    inputs = list(inputs)
    for i, t in enumerate(inputs):
        if t.dtype != np.float64:
            raise TypeError(f"grad_check requires float64 inputs; input {i} is {t.dtype}")
        if t._parents:
            raise ValueError(f"input {i} is not a leaf tensor")
    if h <= 0:
        raise ValueError(f"step size must be positive, got {h}")

    with differentiating(inputs):
        out = fn(*inputs)
        cot = Rng(seed).normal(out.shape)
        grads = out.backward(cot)
    analytic = [grads.get(t, np.zeros_like(t.data)) for t in inputs]

    def scalar() -> float:
        return float((fn(*inputs).data * cot).sum())

    worst = (0.0, 0, ())
    for i, t in enumerate(inputs):
        flat = t.data.reshape(-1)
        a_flat = analytic[i].reshape(-1)
        for e in range(flat.size):
            orig = flat[e]
            flat[e] = orig + h
            f_plus = scalar()
            flat[e] = orig - h
            f_minus = scalar()
            flat[e] = orig
            numeric = (f_plus - f_minus) / (2.0 * h)
            rel = abs(a_flat[e] - numeric) / max(abs(a_flat[e]), abs(numeric), 1.0)
            if rel > worst[0]:
                worst = (rel, i, np.unravel_index(e, t.data.shape))

    return GradCheckReport(
        passed=worst[0] < tol,
        max_rel_error=worst[0],
        worst_input=worst[1],
        worst_element=worst[2],
        tol=tol,
    )
