"""Tensor-parallel weight and KV partitioning (Megatron-style).

One transformer layer splits across ``tp`` shards without any
mid-layer communication:

* **column-parallel** — Q/K/V (whole heads per shard) and the MLP
  gate/up projections (intermediate channels per shard): the *output*
  rows are divided, every shard reads the full hidden vector;
* **row-parallel** — the attention output projection and the MLP down
  projection: the *input* columns are divided, every shard produces a
  full-width partial sum that the interconnect all-reduces;
* the LM head splits over vocabulary rows (logits are all-gathered);
* norm weights, the embedding table, and all activations between
  layers are replicated.

Each shard's weights therefore stream as ``1/tp`` of the unsharded
image, in the same interleaved superblock format
(:class:`repro.packing.weight_layout.WeightLayoutSpec`) — a shard is
just a smaller matrix.  :func:`shard_quant_params` /
:func:`unshard_quant_params` cut a quantized matrix into per-shard
streams and stitch them back; :func:`validate_shard_tiling` proves the
round trip is bit-exact through the encoded byte streams, i.e. the
shard layouts tile back to the unsharded image.

The KV cache splits with the KV heads: :func:`shard_model_config`
builds the per-shard shape (``hidden/tp``, ``heads/tp`` — head_dim
preserved) that sizes one shard's :class:`QuantizedKVCache` or
:class:`PagedKVCache`, and :func:`validate_kv_tiling` checks the
per-shard head-major address maps partition the unsharded region.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ..config import ModelConfig, QuantConfig
from ..errors import ConfigError, LayoutError
from ..packing.kv_addressing import KVAddressMap
from ..packing.weight_layout import (WeightLayoutSpec, decode_weight_stream,
                                     encode_weight_stream)
from ..quant.groupquant import GroupQuantParams

#: how each canonical projection splits across shards.
PROJECTION_AXES = {
    "wq": "column", "wk": "column", "wv": "column", "wo": "row",
    "w_gate": "column", "w_up": "column", "w_down": "row",
    "lm_head": "column",
}


def validate_tp(model: ModelConfig, tp: int) -> None:
    """Raise unless ``model`` divides evenly into ``tp`` shards."""
    if tp < 1:
        raise ConfigError(f"tensor-parallel degree must be >= 1: {tp}")
    for what, size in (("num_heads", model.num_heads),
                       ("kv_heads", model.kv_heads),
                       ("hidden_size", model.hidden_size),
                       ("intermediate_size", model.intermediate_size),
                       ("vocab_size", model.vocab_size)):
        if size % tp:
            raise ConfigError(
                f"{model.name}: {what} {size} does not divide into "
                f"tp={tp} shards")


def shard_model_config(model: ModelConfig, tp: int) -> ModelConfig:
    """Per-shard shape: heads and channels divided, head_dim preserved.

    This config sizes one shard's KV cache and activations; it is NOT a
    parameter-accounting config (column/row-parallel matrices are
    rectangular — use :func:`shard_stream_params` for byte counts).
    """
    validate_tp(model, tp)
    if tp == 1:
        return model
    return replace(
        model,
        name=f"{model.name}[tp{tp}]",
        hidden_size=model.hidden_size // tp,
        num_heads=model.num_heads // tp,
        num_kv_heads=model.kv_heads // tp,
        intermediate_size=model.intermediate_size // tp,
    )


def projection_shapes(model: ModelConfig, tp: int = 1) -> dict[str, tuple]:
    """``name -> (out_features, in_features)`` of one shard's matrices."""
    validate_tp(model, tp)
    h, kv, inter = model.hidden_size, model.kv_dim, model.intermediate_size
    shapes = {
        "wq": (h // tp, h),
        "wk": (kv // tp, h),
        "wv": (kv // tp, h),
        "wo": (h, h // tp),
        "w_up": (inter // tp, h),
        "w_down": (h, inter // tp),
        "lm_head": (model.vocab_size // tp, h),
    }
    if model.gated_mlp:
        shapes["w_gate"] = (inter // tp, h)
    return shapes


def shard_stream_params(model: ModelConfig, tp: int) -> int:
    """Weight parameters ONE shard streams per decoded token.

    Projections divide ``tp`` ways; the norm weights are replicated and
    stream in full on every shard.  ``tp = 1`` equals
    :meth:`ModelConfig.decode_stream_params` exactly.
    """
    validate_tp(model, tp)
    sharded = model.decode_stream_params() - model.norm_params()
    return sharded // tp + model.norm_params()


def shard_kv_bytes_per_token(model: ModelConfig, tp: int,
                             kv_bits: int = 8) -> int:
    """KV payload bytes one shard appends per token (its KV heads only)."""
    validate_tp(model, tp)
    return 2 * model.num_layers * (model.kv_dim // tp) * kv_bits // 8


# ---------------------------------------------------------------------------
# Sharded quantized-weight streams (packing.weight_layout variants)
# ---------------------------------------------------------------------------


def shard_quant_params(params: GroupQuantParams, tp: int,
                       axis: str) -> list[GroupQuantParams]:
    """Cut one quantized matrix into ``tp`` per-shard matrices.

    ``axis="column"`` splits output rows (codes, scales and zeros slice
    row-wise — always group-aligned).  ``axis="row"`` splits input
    columns, which must land on group boundaries or the per-group
    scale/zero metadata could not be divided.
    """
    if axis not in ("column", "row"):
        raise LayoutError(f"unknown shard axis {axis!r}")
    out, inp = params.codes.shape
    if axis == "column":
        if out % tp:
            raise LayoutError(
                f"{out} output rows do not divide into tp={tp} shards")
        step = out // tp
        return [GroupQuantParams(
            codes=params.codes[s * step:(s + 1) * step],
            scales=params.scales[s * step:(s + 1) * step],
            zeros=params.zeros[s * step:(s + 1) * step],
            bits=params.bits, group_size=params.group_size)
            for s in range(tp)]
    if inp % tp:
        raise LayoutError(
            f"{inp} input columns do not divide into tp={tp} shards")
    step = inp // tp
    if step % params.group_size:
        raise LayoutError(
            f"row-parallel shard width {step} does not land on "
            f"{params.group_size}-wide group boundaries")
    gstep = step // params.group_size
    return [GroupQuantParams(
        codes=params.codes[:, s * step:(s + 1) * step],
        scales=params.scales[:, s * gstep:(s + 1) * gstep],
        zeros=params.zeros[:, s * gstep:(s + 1) * gstep],
        bits=params.bits, group_size=params.group_size)
        for s in range(tp)]


def unshard_quant_params(shards: list[GroupQuantParams],
                         axis: str) -> GroupQuantParams:
    """Stitch per-shard matrices back into the unsharded image."""
    if not shards:
        raise LayoutError("nothing to unshard")
    if axis not in ("column", "row"):
        raise LayoutError(f"unknown shard axis {axis!r}")
    cat = 0 if axis == "column" else 1
    first = shards[0]
    return GroupQuantParams(
        codes=np.concatenate([s.codes for s in shards], axis=cat),
        scales=np.concatenate([s.scales for s in shards], axis=cat),
        zeros=np.concatenate([s.zeros for s in shards], axis=cat),
        bits=first.bits, group_size=first.group_size)


def validate_shard_tiling(params: GroupQuantParams, tp: int, axis: str,
                          spec: WeightLayoutSpec | None = None) -> None:
    """Prove the per-shard interleaved streams tile back bit-exactly.

    Each shard is encoded with :func:`encode_weight_stream`, decoded
    back, and the stitched result compared against the original codes,
    scales and zero points.  Raises :class:`LayoutError` on any
    mismatch — the invariant every TP deployment of the SD-card image
    relies on.
    """
    if spec is None:
        spec = WeightLayoutSpec(weight_bits=params.bits,
                                group_size=params.group_size)
    shards = shard_quant_params(params, tp, axis)
    decoded = []
    for shard in shards:
        stream = encode_weight_stream(shard, spec)
        decoded.append(decode_weight_stream(
            stream, shard.out_features, shard.in_features, spec))
    stitched = unshard_quant_params(decoded, axis)
    if not (np.array_equal(stitched.codes, params.codes)
            and np.array_equal(stitched.scales, params.scales)
            and np.array_equal(stitched.zeros, params.zeros)):
        raise LayoutError(
            f"tp={tp} {axis}-parallel shard streams do not tile back "
            "to the unsharded matrix")


def validate_kv_tiling(model: ModelConfig, quant: QuantConfig,
                       tp: int, context: int | None = None) -> None:
    """Check the per-shard head-major KV regions partition the full one.

    Each shard holds its own KV heads' history; the per-shard address
    map must cover exactly ``1/tp`` of the unsharded region bytes so
    that ``tp`` shard regions tile the single-device image.
    """
    validate_tp(model, tp)
    if context is None:
        context = model.max_context
    full = KVAddressMap(model, quant, max_context=context)
    shard = KVAddressMap(shard_model_config(model, tp), quant,
                         max_context=context)
    if shard.region_bytes * tp != full.region_bytes:
        raise LayoutError(
            f"tp={tp} KV shards cover {shard.region_bytes * tp} bytes, "
            f"unsharded region is {full.region_bytes}")


# ---------------------------------------------------------------------------
# Functional (bit-exact) partial-sum reduction
# ---------------------------------------------------------------------------


def _is_pow2(n: int) -> bool:
    return n > 0 and n & (n - 1) == 0


def functional_reduction_is_exact(model: ModelConfig, tp: int,
                                  lanes: int = 128) -> bool:
    """Whether TP partial-sum reduction reproduces single-device FP16.

    The DOT engine accumulates each output element tile-by-tile
    (``lanes`` inputs per tile) through an FP16 adder tree, then chains
    tile sums in an FP16 register.  A pairwise-tree reduction of shard
    partials (:func:`repro.numerics.fp16.fp16_tree_combine`) lands on
    exactly the same rounding when every row-parallel input width
    (``hidden_size`` for the O projection, ``intermediate_size`` for
    down) decomposes into shard slices aligned with that structure:

    * the whole row fits one tile (``in_f <= lanes``) and both ``in_f``
      and ``tp`` are powers of two — shard partials are subtrees of the
      single adder tree; or
    * the row is exactly two tiles (``in_f == 2 * lanes``) with a
      power-of-two ``tp`` — the two-tile FP16 accumulation chain *is* a
      two-leaf tree, and each tile again decomposes into subtrees.

    Anything wider accumulates 3+ tile sums sequentially, which no tree
    reduction can reproduce; the functional backend refuses such a
    ``tp`` rather than silently drifting.
    """
    if tp == 1:
        return True
    if not _is_pow2(tp):
        return False
    for in_f in (model.hidden_size, model.intermediate_size):
        if in_f % tp:
            return False
        if in_f <= lanes:
            if not _is_pow2(in_f):
                return False
        elif not (in_f == 2 * lanes and _is_pow2(lanes)):
            return False
    return True
