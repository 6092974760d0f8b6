"""Hardware-equivalent functional model: W4A16 + KV8 + FP16 datapath.

This model computes exactly what the accelerator's datapath computes,
minus the clock: dequantized AWQ weights feed the 128-lane FP16 DOT
engine (:func:`repro.numerics.fp16.fp16_matvec`), RoPE comes from the
quarter-sine/inverse-frequency ROMs, softmax is the three-pass FP16
variant, RMSNorm the two-pass variant, and the KV cache is quantized to
8 bits per element on write and dequantized on read.

Note on AWQ folding: the hardware divides activations by the AWQ channel
scales (folded into the preceding operator); we fold the division into the
dequantized weight matrix instead (``AwqResult.effective_weight``), which
is algebraically identical and keeps the pipeline readable.

Batching note: every hot path here is vectorized — all attention heads
per token (:meth:`QuantizedModel._attention`), all prompt positions per
layer (:meth:`QuantizedModel.prefill`), and all concurrent sequences per
decode step (:meth:`QuantizedModel.forward_batch`), with Q/K/V and
gate/up fused into one matmul each (:func:`fuse_projections_t`) and the
rows' attention padded into one group (:func:`attend_grouped`).  Each
added batch axis stacks *independent* reductions whose schedule depends
only on their own length, which the tile/tree kernels of
:mod:`repro.numerics.fp16` round identically, so the vectorized model
emits bit-for-bit the logits of the scalar reference (pinned by
``tests/test_backend_equivalence.py``, the kernel property tests and
the frozen logits golden).

Tensor-parallel note: ``QuantizedModel(tp=N)`` computes what a
Megatron-style group of N boards computes.  Column-parallel outputs
(Q/K/V, gate/up, the vocabulary rows) and the attention heads are exact
slices of the single-device results, and KV8 quantizes per (token,
head), so only the row-parallel O and down projections change: each
board reduces its slice of the input rows and the partial sums meet in
an FP16 pairwise tree (:meth:`QuantizedModel._row_parallel`).  On
models that pass
:func:`repro.cluster.sharding.functional_reduction_is_exact` that tree
is a subtree split of the one DOT engine's, so every ``tp`` emits the
single-device bits.  The scalar ``forward_token`` paths stay
single-device.
"""

from __future__ import annotations

import numpy as np

from ..config import ModelConfig
from ..errors import SimulationError
from ..numerics.fp16 import (as_fp16_grid, fp16, fp16_batched_scores,
                             fp16_batched_weighted_values, fp16_matmul_t,
                             fp16_matvec, fp16_tree_combine)
from ..numerics.rmsnorm import batched_two_pass_rmsnorm, two_pass_rmsnorm
from ..numerics.rope import HardwareRope
from ..numerics.silu import hardware_gated_silu, hardware_silu
from ..numerics.softmax import batched_three_pass_softmax
from .kvcache import QuantizedKVCache, store_kv_rows
from .weights import QuantizedModelWeights


def attend_grouped(q: np.ndarray, caches, layer_idx: int, lengths,
                   head_map: np.ndarray, inv_sqrt_d: np.float32,
                   lanes: int) -> np.ndarray:
    """Scaled-dot attention for several rows of heads in one kernel call
    per stage.

    ``q`` is (n, heads, head_dim) rotated queries with one KV cache and
    context length per row; ``head_map`` maps each query head to its
    (GQA-shared) KV head.  Every row rides one group padded to the
    longest context: each distinct cache is gathered (and dequantized)
    once, at the longest length any row asks of it; keys pad with 0,
    values with -0.0, and padded scores become -inf after the scale
    multiply.  Each row's result is bit-identical to an unpadded call
    of its own length:

    * ``exp(-inf) = +0``, so the serial softmax normalizer of the real
      prefix is unchanged (``d + 0 == d``) and padded probabilities are
      +0;
    * every padded product ``+0 * -0.0`` is -0.0 and ``x + (-0.0) ==
      x`` for every x, so the tile/tree sums — which pair ``(2i, 2i+1)``
      from the front — reduce the real prefix exactly as before, level
      by level.  (A +0.0 pad would turn a -0.0 partial sum into +0.0;
      only the +0-initialized tile accumulator would then hide it.)

    Returns (n, heads * head_dim).
    """
    n, heads, d = q.shape
    width = max(lengths)
    longest: dict[int, tuple] = {}
    for cache, length in zip(caches, lengths):
        held = longest.get(id(cache))
        if held is None or held[1] < length:
            longest[id(cache)] = (cache, length)
    gathered = {key: (cache.keys_batch(layer_idx, length, dtype=np.float32),
                      cache.values_batch(layer_idx, length,
                                         dtype=np.float32))
                for key, (cache, length) in longest.items()}
    kv_heads = caches[0].config.kv_heads
    keys = np.zeros((n, kv_heads, width, d), dtype=np.float32)
    values = np.full((n, kv_heads, width, d), -0.0, dtype=np.float32)
    for i, (cache, length) in enumerate(zip(caches, lengths)):
        k, v = gathered[id(cache)]
        keys[i, :, :length] = k[:, :length]
        values[i, :, :length] = v[:, :length]
    # Padded on-grid gathers stay on the grid; certify them so the
    # kernels skip the re-rounding pass.
    keys = as_fp16_grid(keys[:, head_map].reshape(n * heads, width, d))
    values = as_fp16_grid(values[:, head_map].reshape(n * heads, width, d))
    # DOT of the rotated query against each (dequantized) cached key,
    # then the scaling multiplier (Fig. 5B).
    scores = fp16_batched_scores(keys, q.reshape(n * heads, d), lanes=lanes)
    scores = fp16(scores.astype(np.float32) * inv_sqrt_d)
    pad = np.arange(width) >= np.asarray(lengths)[:, None]
    scores = np.where(pad[:, None, :], np.float16(-np.inf),
                      scores.reshape(n, heads, width))
    probs = batched_three_pass_softmax(scores.reshape(n * heads, width))
    # Scaled-dot: values weighted by softmax probabilities.
    weighted = fp16_batched_weighted_values(values, probs, lanes=lanes)
    return weighted.reshape(n, heads * d)


def fuse_projections_t(mats) -> dict[str, np.ndarray]:
    """One layer's (in, out)-contiguous weights for the batched paths,
    with the projections that read the same input fused along ``out``
    (operator fusion): ``wqkv`` = Q|K|V and ``w_in`` = gate|up (just up
    for ungated MLPs); ``wo`` and ``w_down`` stay alone.

    Every output column of :func:`fp16_matmul_t` is its own reduction
    over ``in``, on a schedule that depends only on ``in``, so each
    column block of a fused matmul is bit-identical to the matmul of
    its own projection.
    """
    def cat(*names):
        return as_fp16_grid(np.concatenate(
            [np.asarray(mats[name], dtype=np.float32).T for name in names],
            axis=1))

    mlp_in = ("w_gate", "w_up") if "w_gate" in mats else ("w_up",)
    return {"wqkv": cat("wq", "wk", "wv"), "wo": cat("wo"),
            "w_in": cat(*mlp_in), "w_down": cat("w_down")}


def split_qkv(qkv: np.ndarray, heads: int, kv_heads: int,
              head_dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split the (n, q + k + v) output of a fused ``wqkv`` matmul into
    (n, heads, head_dim) queries and (n, kv_heads, head_dim) keys and
    values."""
    q_end = heads * head_dim
    k_end = q_end + kv_heads * head_dim
    return (qkv[:, :q_end].reshape(-1, heads, head_dim),
            qkv[:, q_end:k_end].reshape(-1, kv_heads, head_dim),
            qkv[:, k_end:].reshape(-1, kv_heads, head_dim))


def mlp_hidden(h: np.ndarray, gated: bool) -> np.ndarray:
    """The MLP activation over a fused ``w_in`` matmul output ``h``
    (gate rows above up rows when ``gated``)."""
    if not gated:
        return hardware_silu(h)
    inter = h.shape[0] // 2
    return hardware_gated_silu(h[:inter], h[inter:])


class QuantizedModel:
    """Functional decode/prefill pipeline over quantized weights."""

    def __init__(self, qweights: QuantizedModelWeights,
                 lanes: int = 128, tp: int = 1) -> None:
        self.qweights = qweights
        self.config: ModelConfig = qweights.config
        self.lanes = lanes
        self.tp = tp
        self.rope = HardwareRope(self.config.head_dim, self.config.rope_theta)
        # Dequantize once up front: the hardware dequantizes on the fly,
        # but the mapping code->FP16 value is deterministic, so the
        # functional result is identical.  Stored as float32 carrying
        # FP16-grid values — the tiled kernels' native representation,
        # so no per-call half upcasts on the weight matrices.
        self._mats: list[dict[str, np.ndarray]] = []
        self._mats_t: list[dict[str, np.ndarray]] = []
        for layer in qweights.layers:
            mats = {name: as_fp16_grid(fp16(result.effective_weight()))
                    for name, result in layer.items()}
            self._mats.append(mats)
            # (in, out)-contiguous fused twins: the layout fp16_matmul_t
            # feeds the adder tree without a per-call axis move.
            self._mats_t.append(fuse_projections_t(mats))
        self._head = as_fp16_grid(fp16(qweights.lm_head.effective_weight()))
        self._head_t = as_fp16_grid(self._head.T)
        # Which KV head serves each query head (GQA replication map).
        group = self.config.num_heads // self.config.kv_heads
        self._head_map = np.repeat(np.arange(self.config.kv_heads), group)
        self._inv_sqrt_d = fp16(1.0 / np.sqrt(self.config.head_dim)) \
            .astype(np.float32)

    # -- building blocks ----------------------------------------------------

    def _matvec(self, mat: np.ndarray, x: np.ndarray) -> np.ndarray:
        return fp16_matvec(mat, x, lanes=self.lanes)

    def _matmul_t(self, mat_t: np.ndarray, x: np.ndarray) -> np.ndarray:
        return fp16_matmul_t(mat_t, x, lanes=self.lanes)

    def _row_parallel(self, mat_t: np.ndarray, x: np.ndarray) -> np.ndarray:
        """A row-parallel projection (O or down) of the batched paths.

        In a ``tp``-board group each board holds ``1/tp`` of the input
        rows, reduces its slice through its own DOT engine, and the
        interconnect all-reduces the partial sums in an FP16 tree.
        """
        if self.tp == 1:
            return self._matmul_t(mat_t, x)
        step = mat_t.shape[0] // self.tp
        return fp16_tree_combine([
            self._matmul_t(mat_t[r * step:(r + 1) * step],
                           x[r * step:(r + 1) * step])
            for r in range(self.tp)])

    def _split_heads(self, x: np.ndarray, n_heads: int) -> np.ndarray:
        return x.reshape(n_heads, self.config.head_dim)

    def _attend(self, q: np.ndarray, cache: QuantizedKVCache,
                layer_idx: int, length: int) -> np.ndarray:
        """Scaled-dot attention of every head over ``length`` cached
        tokens; ``q`` is (num_heads, head_dim) rotated queries.  One
        batched kernel per stage instead of a per-head Python loop —
        row ``h`` sees the identical tile/tree schedule either way.
        """
        return self._attend_many(q[None], [cache], layer_idx, [length])[0]

    def _attend_many(self, q: np.ndarray, caches, layer_idx: int,
                     lengths) -> np.ndarray:
        """:func:`attend_grouped` over this model's heads and GQA map."""
        return attend_grouped(q, caches, layer_idx, lengths,
                              self._head_map, self._inv_sqrt_d,
                              lanes=self.lanes)

    def _attention(self, layer_idx: int, x: np.ndarray,
                   cache: QuantizedKVCache, position: int) -> np.ndarray:
        cfg = self.config
        mats = self._mats[layer_idx]
        input_norm, _ = self.qweights.norms[layer_idx]
        normed = two_pass_rmsnorm(x, input_norm, cfg.norm_eps)

        q = self._split_heads(self._matvec(mats["wq"], normed), cfg.num_heads)
        k = self._split_heads(self._matvec(mats["wk"], normed), cfg.kv_heads)
        v = self._split_heads(self._matvec(mats["wv"], normed), cfg.kv_heads)

        q = self.rope.apply(q, position)
        k = self.rope.apply(k, position)

        # On-chip KV8 quantization happens as K/V are generated (Sec. IV-B).
        cache.append(layer_idx, k, v, position)

        attn = self._attend(q, cache, layer_idx, position + 1)
        out = self._matvec(mats["wo"], attn)
        return fp16(x.astype(np.float32) + out.astype(np.float32))

    def _mlp(self, layer_idx: int, x: np.ndarray) -> np.ndarray:
        cfg = self.config
        mats = self._mats[layer_idx]
        _, post_norm = self.qweights.norms[layer_idx]
        normed = two_pass_rmsnorm(x, post_norm, cfg.norm_eps)
        up = self._matvec(mats["w_up"], normed)
        if cfg.gated_mlp:
            gate = self._matvec(mats["w_gate"], normed)
            hidden = hardware_gated_silu(gate, up)
        else:
            hidden = hardware_silu(up)
        down = self._matvec(mats["w_down"], hidden)
        return fp16(x.astype(np.float32) + down.astype(np.float32))

    def _mlp_batch(self, layer_idx: int, x: np.ndarray) -> np.ndarray:
        """Gated MLP over a stack of hidden states: ``x`` is (n, hidden)."""
        cfg = self.config
        mats = self._mats_t[layer_idx]
        _, post_norm = self.qweights.norms[layer_idx]
        normed = batched_two_pass_rmsnorm(x, post_norm, cfg.norm_eps)
        hidden = mlp_hidden(self._matmul_t(mats["w_in"], normed.T),
                            cfg.gated_mlp)
        down = self._row_parallel(mats["w_down"], hidden)
        return fp16(x.astype(np.float32) + down.T.astype(np.float32))

    def _forward_rows(self, tokens, caches, positions) -> np.ndarray:
        """A stack of tokens through every layer; (n, hidden) out.

        Row ``i`` owns ``caches[i]`` and ``positions[i]`` — n concurrent
        sequences (decode), or n prompt positions of one sequence
        (prefill: the same cache repeated; every row's K/V is stored
        before any row attends, which matches the sequential order
        because a causal row never reads past its own position).  The
        projections of all rows run as one fused matmul per layer stage
        (the weight stream is read once — the GEMM reuse the paper
        reserves for prefill, and the amortization the batched cycle
        model charges); attention rides one padded group per layer.
        """
        cfg = self.config
        x = fp16(np.stack([self.embed(t) for t in tokens]))
        lengths = [p + 1 for p in positions]
        for layer_idx in range(cfg.num_layers):
            mats = self._mats_t[layer_idx]
            input_norm, _ = self.qweights.norms[layer_idx]
            normed = batched_two_pass_rmsnorm(x, input_norm, cfg.norm_eps)
            q, k, v = split_qkv(self._matmul_t(mats["wqkv"], normed.T).T,
                                cfg.num_heads, cfg.kv_heads, cfg.head_dim)
            q = self.rope.apply_many(q, positions)
            k = self.rope.apply_many(k, positions)
            # On-chip KV8 quantization as K/V are generated (Sec. IV-B).
            store_kv_rows(caches, layer_idx, k, v, positions)
            attn = self._attend_many(q, caches, layer_idx, lengths)
            out = self._row_parallel(mats["wo"], attn.T)
            x = fp16(x.astype(np.float32) + out.T.astype(np.float32))
            x = self._mlp_batch(layer_idx, x)
        return x

    # -- public API ----------------------------------------------------------

    def embed(self, token: int) -> np.ndarray:
        if not 0 <= token < self.config.vocab_size:
            raise SimulationError(f"token {token} outside vocabulary")
        return self.qweights.embedding[token]

    def forward_token(self, token: int, cache: QuantizedKVCache,
                      position: int) -> np.ndarray:
        """One token through all layers; returns FP16 logits."""
        x = self.embed(token)
        for layer_idx in range(self.config.num_layers):
            x = self._attention(layer_idx, x, cache, position)
            x = self._mlp(layer_idx, x)
        x = two_pass_rmsnorm(x, self.qweights.final_norm, self.config.norm_eps)
        return self._matvec(self._head, x)

    def forward_token_reference(self, token: int, cache: QuantizedKVCache,
                                position: int) -> np.ndarray:
        """Scalar-oracle forward: one head, one kernel call at a time.

        The pre-vectorization decode path, kept as the oracle the
        batched kernels are pinned against: per-head matvec scores,
        per-head 1-D softmax, per-head weighted-value matvec, all over
        per-head, per-position KV gathers (``keys_reference`` /
        ``values_reference`` where the cache provides them).  Must stay
        bit-identical to :meth:`forward_token`.
        """
        from ..numerics.softmax import three_pass_softmax

        cfg = self.config
        x = self.embed(token)
        for layer_idx in range(cfg.num_layers):
            mats = self._mats[layer_idx]
            input_norm, _ = self.qweights.norms[layer_idx]
            normed = two_pass_rmsnorm(x, input_norm, cfg.norm_eps)
            q = self._split_heads(self._matvec(mats["wq"], normed),
                                  cfg.num_heads)
            k = self._split_heads(self._matvec(mats["wk"], normed),
                                  cfg.kv_heads)
            v = self._split_heads(self._matvec(mats["wv"], normed),
                                  cfg.kv_heads)
            q = np.stack([self.rope.apply(q[h], position)
                          for h in range(cfg.num_heads)])
            k = np.stack([self.rope.apply(k[h], position)
                          for h in range(cfg.kv_heads)])
            cache.append(layer_idx, k, v, position)
            length = position + 1
            group = cfg.num_heads // cfg.kv_heads
            inv_sqrt_d = fp16(1.0 / np.sqrt(cfg.head_dim)).astype(np.float32)
            gather_k = getattr(cache, "keys_reference", cache.keys)
            gather_v = getattr(cache, "values_reference", cache.values)
            head_outputs = []
            for h in range(cfg.num_heads):
                kv_h = h // group
                keys = gather_k(layer_idx, kv_h, length)
                values = gather_v(layer_idx, kv_h, length)
                scores = fp16_matvec(keys, q[h], lanes=self.lanes)
                scores = fp16(scores.astype(np.float32) * inv_sqrt_d)
                probs = three_pass_softmax(scores)
                head_outputs.append(fp16_matvec(values.T, probs,
                                                lanes=self.lanes))
            attn = np.concatenate(head_outputs)
            out = self._matvec(mats["wo"], attn)
            x = fp16(x.astype(np.float32) + out.astype(np.float32))
            x = self._mlp(layer_idx, x)
        x = two_pass_rmsnorm(x, self.qweights.final_norm, self.config.norm_eps)
        return self._matvec(self._head, x)

    def prefill(self, tokens: list[int],
                cache: QuantizedKVCache | None = None,
                start: int = 0,
                ) -> tuple[np.ndarray, QuantizedKVCache]:
        """Feed ``tokens`` through the model, resuming at ``start``.

        ``start > 0`` skips positions whose K/V the cache already holds
        (shared-prefix reuse): only ``tokens[start:]`` are forwarded.  The
        final prompt token is always forwarded — its logits seed the first
        sample — so ``start`` must stay below ``len(tokens)``.

        All forwarded positions run each layer as ONE fused projection
        matmul and ONE padded attention group (causally masked: position
        ``p`` attends over ``p + 1`` cached tokens).
        """
        if not tokens:
            raise SimulationError("prefill requires at least one token")
        if not 0 <= start < len(tokens):
            raise SimulationError(
                f"prefill start {start} outside prompt of {len(tokens)}")
        if cache is None:
            cache = QuantizedKVCache(self.config, self.qweights.quant.kv_bits)
        if start > cache.length:
            raise SimulationError(
                f"prefill start {start} beyond the cache's "
                f"{cache.length} stored tokens")
        positions = list(range(start, len(tokens)))
        x = self._forward_rows([tokens[p] for p in positions],
                               [cache] * len(positions), positions)
        last = two_pass_rmsnorm(x[-1], self.qweights.final_norm,
                                self.config.norm_eps)
        return self._matvec(self._head, last), cache

    def decode_step(self, token: int, cache: QuantizedKVCache,
                    position: int) -> np.ndarray:
        return self.forward_token(token, cache, position)

    def forward_batch(self, tokens: list[int], caches: list,
                      positions: list[int]) -> np.ndarray:
        """One decode step for N independent sequences; (n, vocab) logits.

        Each sequence owns its cache and position; the per-layer
        projections of all sequences run as one stacked matmul per
        weight stage, and the attention reductions, each over its own
        context length, ride one padded group (see
        :meth:`_forward_rows`).  Row ``i`` is bit-identical to
        ``decode_step(tokens[i], caches[i], positions[i])``.
        """
        if not (len(tokens) == len(caches) == len(positions)):
            raise SimulationError(
                f"forward_batch arity mismatch: {len(tokens)} tokens, "
                f"{len(caches)} caches, {len(positions)} positions")
        x = self._forward_rows(tokens, caches, positions)
        normed = batched_two_pass_rmsnorm(x, self.qweights.final_norm,
                                          self.config.norm_eps)
        return self._matmul_t(self._head_t, normed.T).T

    def generate(self, prompt: list[int], max_new_tokens: int,
                 sampler=None) -> list[int]:
        logits, cache = self.prefill(prompt)
        out: list[int] = []
        position = len(prompt)
        for _ in range(max_new_tokens):
            if position >= self.config.max_context:
                break
            token = (int(np.argmax(logits)) if sampler is None
                     else sampler.sample(logits))
            out.append(token)
            logits = self.decode_step(token, cache, position)
            position += 1
        return out
