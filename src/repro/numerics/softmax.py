"""Softmax: reference, the paper's three-pass stable variant, and the
online (single-pass) variant the three-pass design is derived from.

The SPU softmax submodule (Fig. 5C4) makes three sequential passes over the
attention-score vector:

1. find the maximum ``m``,
2. accumulate the normalizer ``d = sum(exp(x_i - m))``,
3. emit ``s_i = exp(x_i - m) / d``.

The hardware version rounds to FP16 after the exponential, the accumulation,
and the final divide, which is where its (tiny) deviation from the float64
reference comes from.
"""

from __future__ import annotations

import numpy as np

from ..errors import SimulationError
from .fp16 import _round_sum_f32, fp16, fp16_round_f32


def reference_softmax(x: np.ndarray) -> np.ndarray:
    """Numerically stable float64 softmax."""
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        raise SimulationError("softmax of an empty vector")
    shifted = x - np.max(x, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)


def three_pass_softmax(x: np.ndarray) -> np.ndarray:
    """The paper's three-pass FP16 softmax over a 1-D score vector."""
    return batched_three_pass_softmax(np.asarray(x).reshape(-1))


def batched_three_pass_softmax(x: np.ndarray) -> np.ndarray:
    """Three-pass FP16 softmax over the last axis of a score stack.

    Each row runs the identical pass structure as
    :func:`three_pass_softmax` — running max, sequentially FP16-rounded
    normalizer accumulation, one rounded divide — with the leading axes
    vectorized.  Every row's accumulation visits its elements in the
    same order as the scalar loop, so a batch of rows is bit-identical
    to running each row alone (the SPU has one softmax unit per head
    lane; batching heads changes which lane computes, not what).
    """
    x = np.asarray(x)
    x16 = x if x.dtype == np.float16 else fp16(x)
    if x16.size == 0 or x16.shape[-1] == 0:
        raise SimulationError("softmax of an empty vector")
    x32 = x16.astype(np.float32)

    # Pass 1: running maximum (comparators are exact, no rounding).
    m = np.max(x32, axis=-1, keepdims=True)

    # Pass 2: normalizer accumulation; exp unit and accumulator round to
    # FP16.  The exp of every element is independent (one vectorized
    # call); the accumulator order over the score axis must stay serial
    # (each add rounds), so only the rows are vectorized there.
    exps = fp16_round_f32(np.exp(x32 - m))
    d = np.zeros(x32.shape[:-1], dtype=np.float32)
    with np.errstate(over="ignore"):
        for i in range(x32.shape[-1]):
            d = _round_sum_f32(d, exps[..., i])
    if np.any(d <= 0):
        raise SimulationError("softmax normalizer underflowed to zero in FP16")

    # Pass 3: divide (one FP16 divider, rounding the quotient).
    return fp16(exps / d[..., None])


def online_softmax(x: np.ndarray) -> np.ndarray:
    """Milakov–Gimelshein online softmax (single pass max+normalizer).

    Included because the paper cites it as the origin of the stable
    formulation; useful as an ablation of pass count in the SPU model.
    """
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    if x.size == 0:
        raise SimulationError("softmax of an empty vector")
    m = -np.inf
    d = 0.0
    for v in x:
        m_new = max(m, v)
        d = d * np.exp(m - m_new) + np.exp(v - m_new)
        m = m_new
    return np.exp(x - m) / d
