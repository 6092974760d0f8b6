"""The bit-exact functional tensor-parallel group.

:class:`ShardedFunctionalBackend` runs the real quantized-model math
per shard (column-parallel Q/K/V and gate/up, row-parallel O and down
over each shard's own KV8 cache) and combines the row-parallel partial
sums with an FP16 pairwise tree
(:func:`repro.numerics.fp16.fp16_tree_combine`), which reproduces the
single-device DOT-engine rounding bit for bit on alignment-compatible
models — so TP=N generation emits the identical token stream as TP=1.

Its timing and KV capacity are those of every TP group: the per-shard
cycle model plus the interconnect collectives, and one board's DRAM
after its shard of the weights (the ``tp``/``interconnect`` parameters
of :class:`repro.engine.backends.CycleModelBackend` and
:class:`repro.engine.backends.AnalyticalBackend`, which price the
timing-only groups).
"""

from __future__ import annotations

import numpy as np

from ..config import KV260, PlatformConfig
from ..engine.backends import _CycleTimedBackend
from ..engine.request import RequestState
from ..errors import SimulationError
from ..kv import PagedKVCache
from ..model.kvcache import SlottedKVCache, store_kv_rows
from ..model.quantized import (attend_grouped, fuse_projections_t,
                               mlp_hidden, split_qkv)
from ..numerics.fp16 import (as_fp16_grid, fp16, fp16_matmul_t,
                             fp16_matvec, fp16_tree_combine)
from ..numerics.rmsnorm import batched_two_pass_rmsnorm, two_pass_rmsnorm
from ..numerics.rope import HardwareRope
from .interconnect import LinkSpec
from .sharding import (FunctionalShard, functional_reduction_is_exact,
                       shard_functional_weights, validate_tp)

#: DOT-engine lanes of every shard: the FP16 accumulation tile width the
#: sharded partial sums must align with to stay bit-exact.
_LANES = 128


class _ShardWorker:
    """One shard's functional math and KV storage.

    Mirrors :class:`repro.model.quantized.QuantizedModel` over the
    shard's head/channel slices; column-parallel outputs are exact
    slices of the single-device intermediates, row-parallel outputs are
    partial sums the backend tree-combines.
    """

    def __init__(self, shard: FunctionalShard, n_slots: int, kv_mode: str,
                 block_size: int, n_kv_blocks: int | None,
                 kv_bits: int) -> None:
        self.shard = shard
        cfg = shard.config
        self.rope = HardwareRope(cfg.head_dim, cfg.rope_theta)
        group = cfg.num_heads // cfg.kv_heads
        self._head_map = np.repeat(np.arange(shard.local_kv_heads), group)
        self._inv_sqrt_d = fp16(1.0 / np.sqrt(cfg.head_dim)) \
            .astype(np.float32)
        # (in, out)-contiguous fused float32 weights for the transposed
        # matmul kernel (shard.mats stays float16 for the tiling
        # validators).
        self._mats32_t = [fuse_projections_t(layer) for layer in shard.mats]
        self._lm_head32 = as_fp16_grid(shard.lm_head)
        self._lm_head32_t = as_fp16_grid(self._lm_head32.T)
        if kv_mode == "paged":
            assert n_kv_blocks is not None
            self.kv: PagedKVCache | SlottedKVCache = PagedKVCache(
                shard.shard_config, n_kv_blocks, block_size,
                kv_bits=kv_bits, store_data=True)
        else:
            self.kv = SlottedKVCache(shard.shard_config, n_slots, kv_bits)

    def _matvec(self, mat: np.ndarray, x: np.ndarray) -> np.ndarray:
        return fp16_matvec(mat, x, lanes=_LANES)

    def _matmul_t(self, mat_t: np.ndarray, x: np.ndarray) -> np.ndarray:
        return fp16_matmul_t(mat_t, x, lanes=_LANES)

    def _attend_many(self, layer_idx: int, q: np.ndarray, caches,
                     lengths) -> np.ndarray:
        """All local heads' scaled-dot attention for several rows.

        One shared implementation with the single-device model
        (:func:`repro.model.quantized.attend_grouped`), over this
        shard's local heads — global and local GQA offsets cancel per
        shard, so the local head map is exact.
        """
        return attend_grouped(q, caches, layer_idx, lengths,
                              self._head_map, self._inv_sqrt_d,
                              lanes=_LANES)

    def attention_partial_batch(self, layer_idx: int, x: np.ndarray,
                                caches, positions) -> np.ndarray:
        """This shard's row-parallel O partials for a stack of tokens.

        ``x`` is (n, hidden) with one cache view and position per row —
        either n concurrent sequences (decode) or n prompt positions of
        one sequence (prefill; same view repeated, appends land before
        any row attends, which matches the sequential order because
        appends only extend the history a causal slice never reads).
        """
        cfg = self.shard.config
        d = cfg.head_dim
        mats = self._mats32_t[layer_idx]
        input_norm, _ = self.shard.norms[layer_idx]
        normed = batched_two_pass_rmsnorm(x, input_norm, cfg.norm_eps)

        q, k, v = split_qkv(self._matmul_t(mats["wqkv"], normed.T).T,
                            self.shard.local_heads,
                            self.shard.local_kv_heads, d)
        q = self.rope.apply_many(q, positions)
        k = self.rope.apply_many(k, positions)
        store_kv_rows(caches, layer_idx, k, v, positions)
        attn = self._attend_many(layer_idx, q, caches,
                                 [p + 1 for p in positions])
        return self._matmul_t(mats["wo"], attn.T).T

    def mlp_partial_batch(self, layer_idx: int, x: np.ndarray) -> np.ndarray:
        """This shard's row-parallel down partials: ``x`` is (n, hidden)."""
        cfg = self.shard.config
        mats = self._mats32_t[layer_idx]
        _, post_norm = self.shard.norms[layer_idx]
        normed = batched_two_pass_rmsnorm(x, post_norm, cfg.norm_eps)
        hidden = mlp_hidden(self._matmul_t(mats["w_in"], normed.T),
                            cfg.gated_mlp)
        return self._matmul_t(mats["w_down"], hidden).T

    def head_partial(self, normed: np.ndarray) -> np.ndarray:
        """This shard's vocabulary slice of the logits."""
        return self._matvec(self._lm_head32, normed)

    def head_partial_batch(self, normed: np.ndarray) -> np.ndarray:
        """Vocabulary-slice logits for a stack: (n, vocab / tp)."""
        return self._matmul_t(self._lm_head32_t, normed.T).T


class ShardedFunctionalBackend(_CycleTimedBackend):
    """Bit-exact functional TP group over per-shard KV8 caches.

    Token streams are identical to the single-device
    :class:`repro.engine.backends.FunctionalBackend` (the FP16 tree
    reduction reproduces the DOT engine's rounding); timing is the
    per-shard cycle model plus interconnect, priced by the shared
    :class:`repro.engine.backends._CycleTimedBackend` plumbing.
    ``interconnect`` defaults to the 10GbE ring.
    """

    def __init__(self, qweights, platform: PlatformConfig = KV260,
                 tp: int = 2, interconnect: LinkSpec | None = None,
                 mode: str = "fused", n_slots: int = 8,
                 kv_mode: str = "slotted", block_size: int = 16,
                 n_kv_blocks: int | None = None) -> None:
        model = qweights.config
        validate_tp(model, tp)
        if not functional_reduction_is_exact(model, tp, _LANES):
            raise SimulationError(
                f"{model.name} at tp={tp} does not align with the "
                f"{_LANES}-lane FP16 accumulation tree, so sharded "
                "partial sums would not be bit-identical to one device")
        super().__init__(model, qweights.quant, platform, mode, n_slots,
                         kv_mode=kv_mode, block_size=block_size,
                         n_kv_blocks=n_kv_blocks, store_kv_data=False,
                         tp=tp, interconnect=interconnect)
        if kv_mode == "paged":
            assert self.paged_kv is not None
            n_kv_blocks = self.paged_kv.n_total_blocks
        self.workers = [
            _ShardWorker(shard, n_slots, kv_mode, block_size, n_kv_blocks,
                         qweights.quant.kv_bits)
            for shard in shard_functional_weights(qweights, tp)
        ]
        self.embedding = qweights.embedding
        self.final_norm = qweights.final_norm

    # -- KV mirroring -------------------------------------------------------

    def _paged_caches(self) -> list[PagedKVCache]:
        # The shard mirrors match prefixes on their own, so a crash or a
        # run start must cool them with the accounting twin.
        return super()._paged_caches() + [
            w.kv for w in self.workers if isinstance(w.kv, PagedKVCache)]

    def admit(self, state: RequestState) -> None:
        super().admit(state)  # the accounting twin decides admission
        tokens = state.sequence_tokens()
        for worker in self.workers:
            if isinstance(worker.kv, PagedKVCache):
                slot = worker.kv.allocate(tokens)
            else:
                slot = worker.kv.allocate()
            # Same allocator, same call sequence: shard slot ids must
            # mirror the accounting twin's, or workers would read the
            # wrong sequence's KV.
            if slot != state.slot:
                raise SimulationError(
                    f"shard {worker.shard.rank}: slot {slot} diverged "
                    f"from the accounting twin's {state.slot}")

    def release(self, state: RequestState) -> None:
        slot = state.slot
        super().release(state)
        for worker in self.workers:
            worker.kv.free(slot)

    # -- functional math ----------------------------------------------------

    def _embed(self, token: int) -> np.ndarray:
        if not 0 <= token < self.model_config.vocab_size:
            raise SimulationError(f"token {token} outside vocabulary")
        return self.embedding[token]

    def _forward_rows(self, tokens, view_rows, positions) -> np.ndarray:
        """A stack of tokens through every shard; all-reduces per layer.

        ``view_rows[i]`` holds one KV view per shard for row ``i`` —
        distinct sequences for a batched decode step, or the same
        sequence repeated for a prefill's prompt positions.  The
        projections of all rows ride one matmul per shard per weight
        matrix; the FP16 tree-combine of the row-parallel partials is
        elementwise, so each row reduces exactly as it would alone.
        Returns the final (n, hidden) hidden states.
        """
        x = fp16(np.stack([self._embed(t) for t in tokens]))
        for layer in range(self.model_config.num_layers):
            partials = [
                w.attention_partial_batch(
                    layer, x, [row[i] for row in view_rows], positions)
                for i, w in enumerate(self.workers)]
            out = fp16_tree_combine(partials)
            x = fp16(x.astype(np.float32) + out.astype(np.float32))
            partials = [w.mlp_partial_batch(layer, x)
                        for w in self.workers]
            out = fp16_tree_combine(partials)
            x = fp16(x.astype(np.float32) + out.astype(np.float32))
        return x

    # -- EngineBackend ------------------------------------------------------

    def prefill(self, state: RequestState) -> float:
        if state.slot is None:
            raise SimulationError(
                f"request {state.request_id} not admitted")
        tokens = state.sequence_tokens()
        if len(tokens) > self.model_config.max_context:
            raise SimulationError(
                f"request {state.request_id}: {len(tokens)} tokens exceed "
                f"the {self.model_config.max_context}-token context")
        cached = self._cached_prefix(state)
        positions = list(range(cached, len(tokens)))
        views = [w.kv.view(state.slot) for w in self.workers]
        hidden = self._forward_rows([tokens[p] for p in positions],
                                    [views] * len(positions), positions)
        normed = two_pass_rmsnorm(hidden[-1], self.final_norm,
                                  self.model_config.norm_eps)
        # All-gather of the vocabulary-sharded logits (last position only
        # — its forward seeds the first sample).
        logits = np.concatenate([w.head_partial(normed)
                                 for w in self.workers])
        if self.paged_kv is not None:
            # The accounting twin has no data path: charge its occupancy
            # explicitly, then publish the prefix on every cache.
            self.paged_kv.advance(state.slot, len(tokens) - cached)
            self.paged_kv.commit_prefix(state.slot, tokens)
            for worker in self.workers:
                worker.kv.commit_prefix(state.slot, tokens)
        state.logits = logits
        state.position = len(tokens)
        return self.prefill_cycles(len(tokens), start=cached)

    def sample(self, state: RequestState) -> int:
        if state.logits is None:
            raise SimulationError(
                f"request {state.request_id} has no logits to sample")
        sampler = state.request.sampler
        if sampler is None:
            return int(np.argmax(state.logits))
        return sampler.sample(state.logits)

    def decode_batch(self, states) -> float:
        contexts = [s.context for s in states]
        cycles = self.step_cycles(contexts, self._fetch_plan(states,
                                                             contexts))
        for state in states:
            if state.slot is None:
                raise SimulationError(
                    f"request {state.request_id} not admitted")
        view_rows = [[w.kv.view(s.slot) for w in self.workers]
                     for s in states]
        hidden = self._forward_rows([s.pending_token for s in states],
                                    view_rows,
                                    [s.position for s in states])
        normed = batched_two_pass_rmsnorm(hidden, self.final_norm,
                                          self.model_config.norm_eps)
        # All-gather of the vocabulary-sharded logits, whole batch.
        logits = np.concatenate([w.head_partial_batch(normed)
                                 for w in self.workers], axis=1)
        for i, state in enumerate(states):
            state.logits = logits[i]
            if self.paged_kv is not None:
                self.paged_kv.advance(state.slot)
            state.position += 1
        return cycles
