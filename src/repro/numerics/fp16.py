"""FP16 datapath emulation.

The accelerator computes in IEEE half precision (Sec. VI-B: "we adopt FP16
computation on FPGA").  NumPy's ``float16`` arithmetic computes in float32
and rounds the result to float16, which matches a hardware FP16 unit with
round-to-nearest-even on every operation output.  These helpers make the
per-operation rounding explicit so the functional model exhibits the same
rounding behaviour as the RTL datapath: multiply, add, and an adder *tree*
that rounds at every tree level (the paper's DOT engine sums 128 products
through a 7-level tree).

Every reduction in this module runs one schedule — products through the
128-lane multiplier array, tiles through the level-rounded adder tree,
tiles accumulated in an FP16 register (:func:`fp16_tiled_reduce`).  Because
the schedule depends only on the reduction *length*, any number of
independent reductions of the same length can ride one vectorized numpy
call without changing a single rounding: that batch invariance is what
lets :func:`fp16_matmul` and the batched attention kernels replace the
scalar loops bit for bit.
"""

from __future__ import annotations

import numpy as np

FP16_MAX = float(np.finfo(np.float16).max)


def fp16(x) -> np.ndarray:
    """Round ``x`` to float16 (the output register of any FP16 unit)."""
    return np.asarray(x, dtype=np.float32).astype(np.float16)


def fp16_mul(a, b) -> np.ndarray:
    """Elementwise FP16 multiply with per-op rounding."""
    a16 = fp16(a).astype(np.float32)
    b16 = fp16(b).astype(np.float32)
    return fp16(a16 * b16)


#: Arrays up to this size round through NumPy's half casts: they are
#: ufunc-dispatch-bound, so the two casts (one dispatch each) beat the
#: multi-op float32 paths below.
_SMALL = 1024
#: The float32 exponent field, clamped to FP16's normal binades
#: [2^-14, 2^15] — below 2^-14 FP16's spacing stays at 2^-24
#: (subnormals); above 2^15 every value overflows anyway.
_EXP_FIELD = np.uint32(0x7F800000)
_EXP_MIN = np.uint32((127 - 14) << 23)
_EXP_MAX = np.uint32((127 + 15) << 23)
#: Exponent field of 2^e -> bit pattern of C = 1.5 * 2^(e + 13).
_SNAP_OFFSET = np.uint32((13 << 23) | (1 << 22))
_SIGN_BIT = np.uint32(0x80000000)
#: Dekker split constant: 2^13 + 1 — splitting at 13 bits leaves an
#: 11-bit significand, FP16's precision.
_SPLIT = np.float32(8193.0)
#: Scaling an FP16-grid value by 2^112 overflows float32 exactly when
#: it is >= 2^16 (65504 * 2^112 is still finite); scaling back is exact.
_OVERFLOW_UP = np.float32(2.0 ** 112)
_OVERFLOW_DOWN = np.float32(2.0 ** -112)
#: Sums clamp here first so an infinite operand keeps the split finite;
#: any magnitude >= 65520 becomes inf either way.
_SUM_CLAMP = np.float32(2.0 ** 17)


def fp16_round_f32(x: np.ndarray) -> np.ndarray:
    """Round float32 values onto the FP16 grid, staying in float32.

    Bit-identical to ``x.astype(float16).astype(float32)`` for every
    non-NaN float32 input (pinned per binade in tier-1 and over all 2^32
    bit patterns by ``tests/exhaustive_fp16.py``; NaNs are not defined
    data in this model), but built from a fixed sequence of SIMD-friendly
    whole-array ops instead of NumPy's scalar half casts — no mask, no
    reduction, no data-dependent branch:

    * ``C = 1.5 * 2^(e + 13)``, built with integer ops from x's exponent
      field ``e`` clamped to [-14, 15].  ``x + C`` lands in a binade
      whose float32 spacing is x's FP16 spacing (2^-24 for FP16
      subnormals), so ``(x + C) - C`` rounds x to the FP16 grid with the
      FPU's own ties-to-even, and the subtraction is exact;
    * OR-ing x's sign bit back in restores -0.0 for negative values
      that round to zero (every other result already carries x's sign);
    * ``* 2^112 * 2^-112`` turns exactly the results >= 2^16 (inputs
      >= 65520, the halfway point above 65504) into +/-inf.
    """
    x = np.asarray(x, dtype=np.float32)
    with np.errstate(over="ignore"):
        return _round_f32(x)


def _round_f32(x: np.ndarray) -> np.ndarray:
    """:func:`fp16_round_f32` of a float32 ndarray, without its
    ``errstate`` — callers silence float overflow themselves (the tiled
    kernels do it once per call rather than once per rounding)."""
    if x.size <= _SMALL:
        return x.astype(np.float16).astype(np.float32)
    bits = x.view(np.uint32)
    snap = np.bitwise_and(bits, _EXP_FIELD)
    snap.clip(_EXP_MIN, _EXP_MAX, out=snap)
    snap += _SNAP_OFFSET
    hi = x + snap.view(np.float32)
    hi -= snap.view(np.float32)
    np.bitwise_and(bits, _SIGN_BIT, out=snap)
    hi_bits = hi.view(np.uint32)
    hi_bits |= snap
    hi *= _OVERFLOW_UP
    hi *= _OVERFLOW_DOWN
    return hi


def _round_sum_f32(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``fp16_round_f32(a + b)`` for FP16-grid float32 operands — the
    adder-tree levels and FP16 tile accumulators.

    Such a sum needs no subnormal handling: below 2^-14 it is an exact
    multiple of 2^-24 with fewer than 11 significant bits, which the
    Dekker split ``c - (c - s)``, ``c = (2^13 + 1) * s`` leaves as is,
    and above it the split rounds to FP16's 11 bits ties-to-even.  The
    float32 add before it is harmless double rounding (24 >= 2 * 11 + 2,
    Figueroa 1995).  Pinned against the half casts over every finite
    FP16 pair by ``tests/exhaustive_fp16.py``.  Callers silence float
    overflow, as for :func:`_round_f32`.

    Seven whole-array passes against ten for ``_round_f32(a + b)``;
    sums are about half of all roundings in a forward pass.
    """
    s = a + b
    if s.size <= _SMALL:
        return s.astype(np.float16).astype(np.float32)
    s.clip(-_SUM_CLAMP, _SUM_CLAMP, out=s)
    hi = s * _SPLIT
    np.subtract(hi, s, out=s)
    np.subtract(hi, s, out=hi)
    hi *= _OVERFLOW_UP
    hi *= _OVERFLOW_DOWN
    return hi


class FP16GridArray(np.ndarray):
    """A float32 ndarray *certified* to hold FP16-grid values.

    Pure marker subclass: :func:`_as_rounded_f32` trusts it and skips
    the (idempotent) re-rounding pass, so pre-rounded tensors that are
    reused across many kernel calls — dequantized weight matrices, KV
    gathers — are not re-rounded on every call.  Only create one via
    :func:`as_fp16_grid` on data that is already on the grid.  Indexing
    and transposing preserve both the marker and the property; any
    ufunc arithmetic *demotes* the result to a plain ndarray (enforced
    below — derived values leave the grid, so they must not inherit the
    certificate), and ``np.concatenate`` also returns a plain ndarray
    (re-certify explicitly when concatenating certified inputs).
    """

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        # Strip the certificate from every ufunc result: computed
        # values are no longer guaranteed to sit on the FP16 grid.
        inputs = tuple(np.asarray(i).view(np.ndarray)
                       if isinstance(i, FP16GridArray) else i
                       for i in inputs)
        out = kwargs.get("out")
        if out is not None:
            kwargs["out"] = tuple(np.asarray(o).view(np.ndarray)
                                  if isinstance(o, FP16GridArray) else o
                                  for o in out)
        return getattr(ufunc, method)(*inputs, **kwargs)


def as_fp16_grid(x) -> np.ndarray:
    """Certify ``x`` (already FP16-grid-valued) as :class:`FP16GridArray`.

    The caller asserts every value of ``x`` is exactly representable in
    FP16 — e.g. it came from ``fp16(...)`` or ``fp16_round_f32(...)``.
    """
    return np.ascontiguousarray(np.asarray(x, dtype=np.float32)) \
        .view(FP16GridArray)


def _as_rounded_f32(x) -> np.ndarray:
    """``x`` as float32 carrying FP16-grid values.

    Float16 input upcasts (exact); anything else rounds onto the grid
    with :func:`fp16_round_f32` — the same values ``fp16(x)`` would
    produce, kept in float32 so the tiled kernels never touch NumPy's
    scalar half casts on their inputs.  A certified
    :class:`FP16GridArray` comes back as a plain ndarray view, so the
    kernel's arithmetic on it skips ``__array_ufunc__`` dispatch.
    """
    if isinstance(x, FP16GridArray):
        return x.view(np.ndarray)
    x = np.asarray(x)
    if x.dtype == np.float16:
        return x.astype(np.float32)
    return fp16_round_f32(np.asarray(x, dtype=np.float32))


def _tree_reduce_last(level: np.ndarray) -> np.ndarray:
    """Balanced binary adder tree over the last axis, rounding each level.

    ``level`` is float16 of shape ``(..., width)``; odd-width levels
    forward the unpaired element unchanged.  Returns shape ``(...)``.
    Every leading axis sees the identical pair/forward schedule, so a
    stack of reductions is bit-identical to reducing each row alone.

    Layout: the reduction axis is moved to the front once, so every
    pair-sum touches two contiguous slabs of rows (the stride-2 pair
    picking happens across whole slabs, not per element), and the
    levels stay in float32 carrying FP16-grid values, each pair sum
    rounded by :func:`_round_sum_f32` — the values and rounding
    schedule are unchanged, only the memory traversal and dtype
    plumbing are.
    """
    with np.errstate(over="ignore"):
        return _tree_reduce_f32(np.asarray(level, dtype=np.float32)) \
            .astype(np.float16)


def _tree_reduce_f32(level: np.ndarray) -> np.ndarray:
    """:func:`_tree_reduce_last` on float32 carrying FP16-grid values,
    returning the same representation (callers silence float overflow,
    see :func:`_round_f32`)."""
    lead = level.shape[:-1]
    rows = np.ascontiguousarray(
        np.moveaxis(level, -1, 0).reshape(level.shape[-1], -1))
    return _tree_reduce_axis0(rows).reshape(lead)


def _tree_reduce_axis0(rows: np.ndarray) -> np.ndarray:
    """The level-rounded adder tree along axis 0 of a float32 array
    whose trailing axes are contiguous slabs — pair ``i`` of each level
    sums rows ``2i`` and ``2i+1``, exactly the schedule of
    :func:`_tree_reduce_f32` (which is this function after moving the
    reduction axis first)."""
    width = rows.shape[0]
    while width > 1:
        pairs = width // 2
        summed = _round_sum_f32(rows[: 2 * pairs : 2],
                                rows[1 : 2 * pairs : 2])
        if width % 2:
            summed = np.concatenate([summed, rows[-1:]], axis=0)
        rows = summed
        width = rows.shape[0]
    return rows[0]


def fp16_tree_sum(values) -> np.float16:
    """Sum a vector through a balanced binary adder tree.

    Each tree level rounds to FP16, exactly as a pipelined FP16 adder tree
    does.  Odd-width levels forward the unpaired element unchanged.
    """
    level = fp16(np.asarray(values).reshape(-1))
    if level.size == 0:
        return np.float16(0.0)
    return np.float16(_tree_reduce_last(level))


def fp16_dot(a, b) -> np.float16:
    """128-lane-style dot product: FP16 multipliers feeding an adder tree."""
    products = fp16_mul(a, b)
    return fp16_tree_sum(products)


def fp16_tiled_reduce(a, b, lanes: int = 128) -> np.ndarray:
    """The shared tiled multiplier-array + adder-tree dot kernel.

    ``a`` and ``b`` are broadcast-compatible arrays sharing their last
    axis (the reduction axis).  Each group of ``lanes`` elements goes
    through the FP16 multiplier array, sums through the level-rounded
    adder tree, and the tile partials accumulate in an FP16 register —
    one rounding schedule for every scalar/vector/matrix entry point in
    this module.  Returns the broadcast shape of the leading axes.
    """
    a32 = _as_rounded_f32(a)
    b32 = _as_rounded_f32(b)
    if a32.shape[-1] != b32.shape[-1]:
        raise ValueError(
            f"reduction axis mismatch: {a32.shape} vs {b32.shape}")
    n = a32.shape[-1]
    out_shape = np.broadcast_shapes(a32.shape[:-1], b32.shape[:-1])
    acc = np.zeros(out_shape, dtype=np.float32)
    with np.errstate(over="ignore"):
        for start in range(0, n, lanes):
            # Multiplier array, adder tree, and FP16 tile accumulator,
            # all in float32 carrying FP16-grid values (rounded after
            # every op — the identical per-op rounding, minus the half
            # casts); one cast back to float16 at the very end.
            products = _round_f32(a32[..., start : start + lanes]
                                  * b32[..., start : start + lanes])
            partial = _tree_reduce_f32(products)
            acc = _round_sum_f32(acc, partial)
    return acc.astype(np.float16)


def fp16_matvec(w, x, lanes: int = 128) -> np.ndarray:
    """FP16 matrix-vector product the way the VPU computes it.

    ``w`` is (out_features, in_features); each output element is produced
    by streaming the row through the 128-lane multiplier array, summing
    each tile through the FP16 adder tree, and accumulating tiles in an
    FP16 register.  Vectorized across output rows (every row sees the same
    schedule, so batching them does not change the rounding).
    """
    w = np.asarray(w)
    x = np.asarray(x).reshape(-1)
    if w.ndim != 2 or w.shape[1] != x.size:
        raise ValueError(f"matvec shape mismatch: {w.shape} @ {x.shape}")
    return fp16_tiled_reduce(w, x, lanes=lanes)


def fp16_matmul(w, x, lanes: int = 128) -> np.ndarray:
    """FP16 matrix-matrix product: a batch of matvecs in one call.

    ``w`` is (out_features, in_features) and ``x`` is (in_features,
    batch); column ``j`` of the (out_features, batch) result is exactly
    ``fp16_matvec(w, x[:, j])`` — the batch dimension adds independent
    reductions of the same length, which the tile/tree schedule rounds
    identically, so stacking them changes no token anywhere.
    """
    w = np.asarray(w)
    x = np.asarray(x)
    if w.ndim != 2 or x.ndim != 2 or w.shape[1] != x.shape[0]:
        raise ValueError(f"matmul shape mismatch: {w.shape} @ {x.shape}")
    return fp16_tiled_reduce(w[:, None, :], x.T[None, :, :], lanes=lanes)


def fp16_matmul_t(w_t, x, lanes: int = 128) -> np.ndarray:
    """:func:`fp16_matmul` with the weight pre-transposed to
    (in_features, out_features).

    Identical output — ``fp16_matmul_t(w.T, x) == fp16_matmul(w, x)``
    bit for bit (the products and the tree pair the same ``in`` indices
    in the same order) — but the transposed layout feeds the adder tree
    contiguous slabs directly, skipping the per-call axis move the
    general kernel needs.  Callers that reuse one weight matrix across
    many steps cache ``w.T`` contiguously (see
    ``QuantizedModel``) and save the copy every call.
    """
    w32 = _as_rounded_f32(w_t)
    x32 = _as_rounded_f32(x)
    if w32.ndim != 2 or x32.ndim != 2 or w32.shape[0] != x32.shape[0]:
        raise ValueError(
            f"matmul_t shape mismatch: {w32.shape} vs {x32.shape}")
    n, width = w32.shape
    batch = x32.shape[1]
    # (tile, batch, out) product layout: the broadcast keeps the long
    # `out` axis innermost (contiguous SIMD runs) and the tree reduces
    # axis 0 over contiguous slabs; the result transposes back to
    # (out, batch) as a view.  Same products, same pairing order.
    acc = np.zeros((batch, width), dtype=np.float32)
    with np.errstate(over="ignore"):
        for start in range(0, n, lanes):
            products = _round_f32(x32[start : start + lanes, :, None]
                                  * w32[start : start + lanes, None, :])
            partial = _tree_reduce_axis0(products)
            acc = _round_sum_f32(acc, partial)
    return acc.astype(np.float16).T


def fp16_batched_scores(keys, q, lanes: int = 128) -> np.ndarray:
    """Attention scores of every head in one call.

    ``keys`` is (heads, length, head_dim) and ``q`` is (heads,
    head_dim); row ``h`` of the (heads, length) result is exactly
    ``fp16_matvec(keys[h], q[h])`` — the per-head DOT of the rotated
    query against each cached key (Fig. 5B), batched over heads.
    """
    keys = np.asarray(keys)
    q = np.asarray(q)
    if keys.ndim != 3 or q.ndim != 2 \
            or keys.shape[0] != q.shape[0] \
            or keys.shape[2] != q.shape[1]:
        raise ValueError(
            f"score shape mismatch: {keys.shape} vs {q.shape}")
    return fp16_tiled_reduce(keys, q[:, None, :], lanes=lanes)


def fp16_batched_weighted_values(values, probs, lanes: int = 128,
                                 ) -> np.ndarray:
    """Probability-weighted value reduction of every head in one call.

    ``values`` is (heads, length, head_dim) and ``probs`` is (heads,
    length); row ``h`` of the (heads, head_dim) result is exactly
    ``fp16_matvec(values[h].T, probs[h])`` — the scaled-dot output
    accumulation, batched over heads.
    """
    values = np.asarray(values)
    probs = np.asarray(probs)
    if values.ndim != 3 or probs.ndim != 2 \
            or values.shape[0] != probs.shape[0] \
            or values.shape[1] != probs.shape[1]:
        raise ValueError(
            f"weighted-value shape mismatch: {values.shape} vs "
            f"{probs.shape}")
    return fp16_tiled_reduce(values.transpose(0, 2, 1),
                             probs[:, None, :], lanes=lanes)


def fp16_tree_combine(vectors) -> np.ndarray:
    """Elementwise pairwise-tree sum of a list of FP16 vectors.

    Models a hardware all-reduce over 2^k devices whose combining
    elements are FP16 adders: partial sums merge pairwise, rounding to
    FP16 at every tree level — the same shape as :func:`fp16_tree_sum`,
    lifted to whole vectors.  When each input is the tile/tree partial
    of a contiguous power-of-two slice of one dot product, this
    reproduces the single-device adder tree bit for bit (the property
    the tensor-parallel functional backend relies on).
    """
    level = [fp16(v) for v in vectors]
    if not level:
        raise ValueError("tree combine needs at least one vector")
    while len(level) > 1:
        merged = [fp16(level[i].astype(np.float32)
                       + level[i + 1].astype(np.float32))
                  for i in range(0, len(level) - 1, 2)]
        if len(level) % 2:
            merged.append(level[-1])
        level = merged
    return level[0]
