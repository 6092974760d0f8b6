"""Paged KV cache: block tables, copy-on-write, and prefix reuse.

The vLLM/PagedAttention recipe carried to this repo's KV8 storage: a
sequence no longer reserves one contiguous max-length region; it holds a
*block table* of fixed-size physical blocks claimed on demand from a
shared :class:`repro.kv.blockpool.BlockPool`.  Admission is then gated
by free blocks rather than worst-case token counts, and identical
prompts map to identical physical blocks via the
:class:`repro.kv.prefix.PrefixCache`, skipping their prefill entirely.

:class:`PagedKVCache` is the engine-facing allocator (sequence ids in,
block accounting out) and works in two modes: with ``store_data=True``
it backs the functional pipeline through :class:`PagedSequenceView`
(the same interface as :class:`repro.model.kvcache.QuantizedKVCache`);
with ``store_data=False`` it is the accounting twin the timing-only
backends use, so all three engine backends make identical admission,
preemption, and prefix-reuse decisions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..config import ModelConfig
from ..errors import CapacityError, SimulationError
from ..model.kvcache import KV8Append, write_kv8
from ..quant.kv8 import kv_dequantize_batch
from .blockpool import BlockPool
from .prefix import PrefixCache, chain_hashes


def blocks_for_tokens(n_tokens: int, block_size: int) -> int:
    """Blocks needed to hold ``n_tokens`` positions."""
    return -(-n_tokens // block_size)


def blocks_for_budget(budget_tokens: int, block_size: int) -> int:
    """Pool size granting the same DRAM bytes as a KV *token* budget.

    Rounds down — a partial block would overcommit the budget — and
    refuses budgets below one block outright, so every slotted-vs-paged
    comparison built on this rule competes over equal storage (a silent
    one-block floor would hand the paged side extra DRAM).  A block
    size <= 0 gets the same error here as from :class:`BlockPool`.
    """
    if block_size <= 0:
        raise SimulationError(
            f"block size must be positive, got {block_size}")
    if budget_tokens < block_size:
        raise SimulationError(
            f"KV budget of {budget_tokens} tokens is smaller than one "
            f"{block_size}-token block")
    return budget_tokens // block_size


@dataclass
class _Sequence:
    """Per-sequence state: the block table and its occupancy."""

    table: list[int] = field(default_factory=list)
    #: token positions written (or accounted) so far.
    length: int = 0
    #: prefix tokens inherited from the prefix cache at allocation.
    cached_length: int = 0
    #: memoized ``append_needs_block``: ((length, pool epoch), answer).
    needs_block_cache: tuple[tuple[int, int], bool] | None = None


class PagedKVCache:
    """Block-granular multi-sequence KV cache with shared-prefix reuse."""

    def __init__(self, config: ModelConfig, n_blocks: int,
                 block_size: int = 16, kv_bits: int = 8,
                 store_data: bool = True) -> None:
        self.config = config
        self.kv_bits = kv_bits
        self.pool = BlockPool(config, n_blocks, block_size,
                              store_data=store_data)
        self.prefix = PrefixCache(self.pool)
        self.store_data = store_data
        self._seqs: dict[int, _Sequence] = {}
        self._next_seq = 0
        self.prefix_reused_tokens = 0
        self.cow_copies = 0

    # -- capacity ----------------------------------------------------------

    @property
    def block_size(self) -> int:
        return self.pool.block_size

    @property
    def n_total_blocks(self) -> int:
        return self.pool.n_blocks

    @property
    def n_free_blocks(self) -> int:
        return self.pool.n_free

    @property
    def n_reclaimable_blocks(self) -> int:
        """Prefix-cached blocks no live sequence holds (evictable)."""
        return self.prefix.n_reclaimable

    @property
    def n_available_blocks(self) -> int:
        """Blocks an admission could claim: free plus evictable."""
        return self.pool.n_free + self.prefix.n_reclaimable

    @property
    def n_sequences(self) -> int:
        return len(self._seqs)

    # -- sequence lifecycle ------------------------------------------------

    def allocate(self, tokens: Sequence[int] | None = None) -> int:
        """Open a sequence; with ``tokens``, reuse any cached prefix.

        Sharing covers whole blocks only and never the final prompt token
        (its forward pass produces the logits the first sample needs), so
        ``cached_length(seq) <= len(tokens) - 1`` always holds.
        """
        seq = _Sequence()
        if tokens is not None and len(tokens) > 1:
            shareable = (len(tokens) - 1) // self.block_size
            hashes = chain_hashes(tokens, self.block_size)[:shareable]
            matched = self.prefix.match(hashes)
            for bid in matched:
                self.pool.incref(bid)
            seq.table = list(matched)
            seq.length = seq.cached_length = \
                len(matched) * self.block_size
            self.prefix_reused_tokens += seq.cached_length
        seq_id = self._next_seq
        self._next_seq += 1
        self._seqs[seq_id] = seq
        return seq_id

    def free(self, seq_id: int) -> None:
        """Close a sequence; its private blocks return to the pool while
        prefix-cached ones stay resident for future reuse."""
        seq = self._get(seq_id)
        for bid in seq.table:
            self.pool.decref(bid)
        del self._seqs[seq_id]

    def fork(self, seq_id: int) -> int:
        """Clone a sequence copy-on-write: both share every block until
        one of them appends into a shared (partial) block."""
        seq = self._get(seq_id)
        for bid in seq.table:
            self.pool.incref(bid)
        new_id = self._next_seq
        self._next_seq += 1
        self._seqs[new_id] = _Sequence(table=list(seq.table),
                                       length=seq.length,
                                       cached_length=seq.cached_length)
        return new_id

    # -- occupancy ---------------------------------------------------------

    def length(self, seq_id: int) -> int:
        return self._get(seq_id).length

    def cached_length(self, seq_id: int) -> int:
        return self._get(seq_id).cached_length

    def block_table(self, seq_id: int) -> tuple[int, ...]:
        return tuple(self._get(seq_id).table)

    def total_tokens(self) -> int:
        """Logical cached tokens (shared prefixes counted per sequence)."""
        return sum(s.length for s in self._seqs.values())

    def resident_tokens(self) -> int:
        """Physical cached tokens: shared blocks counted once; includes
        prefix-cache-only blocks kept warm for reuse."""
        occupancy: dict[int, int] = {}
        for seq in self._seqs.values():
            for idx, bid in enumerate(seq.table):
                occ = min(seq.length - idx * self.block_size,
                          self.block_size)
                occupancy[bid] = max(occupancy.get(bid, 0), occ)
        for bid in self.prefix.entries().values():
            occupancy.setdefault(bid, self.block_size)
        return sum(occupancy.values())

    def payload_bytes(self) -> int:
        """Stored KV code bytes across all resident blocks."""
        return (2 * self.config.num_layers * self.resident_tokens()
                * self.config.kv_dim * self.kv_bits // 8)

    def sequence_payload_bytes(self, seq_id: int) -> int:
        """KV code bytes a checkpoint of one sequence ships: its full
        logical length.  A migration target holds none of this pool's
        blocks, so prefix-shared residency earns no transfer discount."""
        return (2 * self.config.num_layers * self.length(seq_id)
                * self.config.kv_dim * self.kv_bits // 8)

    # -- admission accounting ---------------------------------------------

    def admission_plan(self, tokens: Sequence[int]) -> tuple[int, int]:
        """``(fresh_blocks_needed, blocks_claimable)`` for admitting
        ``tokens`` plus one decode token.

        ``fresh_blocks_needed`` is what must come out of the pool after
        prefix reuse.  ``blocks_claimable`` is the free-plus-evictable
        supply *minus* the matched prefix blocks that are themselves only
        held by the cache — admission pins those, so counting them as
        evictable would overcommit the pool.
        """
        matched: list[int] = []
        if len(tokens) > 1:
            shareable = (len(tokens) - 1) // self.block_size
            matched = self.prefix.peek(
                chain_hashes(tokens, self.block_size)[:shareable])
        fresh = blocks_for_tokens(len(tokens) + 1, self.block_size) \
            - len(matched)
        pinned = sum(1 for bid in matched if self.pool.refcount(bid) == 1)
        return fresh, self.n_available_blocks - pinned

    def blocks_needed(self, tokens: Sequence[int]) -> int:
        """Fresh blocks a new sequence would claim to hold ``tokens`` plus
        one decode token, after prefix reuse."""
        return self.admission_plan(tokens)[0]

    def append_needs_block(self, seq_id: int) -> bool:
        """Whether the next one-token append must claim a fresh block
        (frontier crossing, or copy-on-write of a shared block).

        The answer is a function of the sequence's length and the
        frontier block's refcount, so it is memoized against (length,
        pool mutation epoch) — the scheduler asks several times per
        step, and the block-table walk only reruns after an append or a
        refcount change somewhere in the pool.
        """
        seq = self._get(seq_id)
        tag = (seq.length, self.pool.mutation_epoch)
        if seq.needs_block_cache is not None \
                and seq.needs_block_cache[0] == tag:
            return seq.needs_block_cache[1]
        idx = seq.length // self.block_size
        if idx >= len(seq.table):
            answer = True
        else:
            answer = self.pool.refcount(seq.table[idx]) > 1
        seq.needs_block_cache = (tag, answer)
        return answer

    def window_advance_cap(self, seq_ids: Sequence[int], n: int) -> int:
        """Largest ``k <= n`` such that advancing every listed sequence
        by ``k`` tokens claims only free or evictable pool blocks.

        This is the paged accounting behind multi-segment fast-forward
        windows: block-frontier crossings are pure arithmetic on context
        length as long as (a) no member's next append copies-on-write a
        shared block (a copy drops a reference and may make a cached
        block evictable mid-window, so the window must break and let the
        eager step resolve it), and (b) the combined fresh-block demand
        fits in the free blocks plus the prefix cache's evictable ones.
        Inside a window nothing matches, registers, or drops a
        reference, so the evictable set is fixed: whatever order the
        members claim blocks in, the evictions are the first ``demand -
        free`` of it in LRU order, exactly as in the eager loop — only
        the (unobservable) block ids differ.  The window thus triggers
        no CapacityError and no preemption the eager loop would not
        also have skipped.
        """
        if n <= 0:
            return 0
        bs = self.block_size
        frontiers: list[tuple[int, int]] = []
        for seq_id in seq_ids:
            seq = self._get(seq_id)
            idx = seq.length // bs
            if idx < len(seq.table) \
                    and self.pool.refcount(seq.table[idx]) > 1:
                return 0
            frontiers.append((seq.length, len(seq.table)))
        supply = self.n_available_blocks

        def fresh(k: int) -> int:
            return sum(max(0, blocks_for_tokens(length + k, bs) - have)
                       for length, have in frontiers)

        if fresh(n) <= supply:
            return n
        lo, hi = 0, n  # invariant: fresh(lo) <= supply < fresh(hi)
        if fresh(0) > supply:
            return 0
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if fresh(mid) <= supply:
                lo = mid
            else:
                hi = mid
        return lo

    # -- append paths ------------------------------------------------------

    def advance(self, seq_id: int, n: int = 1) -> None:
        """Account ``n`` appended tokens (timing backends: no data).

        O(blocks touched), not O(n): inside a block the write frontier
        needs no pool work (the first append COWs a shared partial
        block or claims a fresh one; later appends land in the now-
        private block), so the walk visits one position per block
        boundary and jumps over the rest.  Pool mutations happen in the
        identical order as ``n`` single-token appends.
        """
        seq = self._get(seq_id)
        overflow = seq.length + n > self.config.max_context
        target = min(seq.length + n, self.config.max_context)
        while seq.length < target:
            self._writable_block(seq, seq.length)
            boundary = (seq.length // self.block_size + 1) * self.block_size
            seq.length = min(target, boundary)
        if overflow:
            raise SimulationError(
                f"sequence {seq_id} exceeds context "
                f"{self.config.max_context}")

    def view(self, seq_id: int) -> "PagedSequenceView":
        """A QuantizedKVCache-compatible view of one sequence."""
        self._get(seq_id)
        if not self.store_data:
            raise SimulationError(
                "accounting-only paged cache has no data views")
        return PagedSequenceView(self, seq_id)

    # -- prefix registration ----------------------------------------------

    def commit_prefix(self, seq_id: int, tokens: Sequence[int]) -> None:
        """Publish this sequence's full blocks of ``tokens`` for reuse.

        Called once prefill has materialized the K/V (or, for accounting
        caches, once the positions are charged).  Full blocks only;
        re-registering content that is already cached keeps the incumbent
        physical block.
        """
        seq = self._get(seq_id)
        covered = min(len(tokens), seq.length)
        for i, h in enumerate(chain_hashes(tokens[:covered],
                                           self.block_size)):
            self.prefix.register(h, seq.table[i])

    # -- batched fetch accounting ------------------------------------------

    def fetch_plan(self, seq_ids: Sequence[int],
                   contexts: Sequence[int]) -> list[int]:
        """Per-sequence KV tokens a batched step actually streams.

        Walks the batch in order and counts each physical block once: a
        shared prefix is charged to the first sequence that reads it and
        free for the rest — the DRAM saving of paging plus prefix reuse.
        """
        if len(seq_ids) != len(contexts):
            raise SimulationError("fetch plan needs one context per seq")
        seen: set[int] = set()
        plan: list[int] = []
        for seq_id, ctx in zip(seq_ids, contexts):
            seq = self._get(seq_id)
            if ctx > seq.length:
                raise SimulationError(
                    f"sequence {seq_id}: context {ctx} beyond its "
                    f"{seq.length} cached tokens")
            fetched = 0
            for idx in range(blocks_for_tokens(ctx, self.block_size)):
                bid = seq.table[idx]
                if bid in seen:
                    continue
                seen.add(bid)
                fetched += min(ctx - idx * self.block_size, self.block_size)
            plan.append(fetched)
        return plan

    # -- integrity ---------------------------------------------------------

    def audit(self) -> None:
        """Verify refcount and occupancy invariants; raises on corruption.

        Cheap enough for tests to call after every operation: every block
        reference in a table or the prefix cache is counted, and the per-
        block refcounts must match exactly (no leaks, no double frees).
        Content tags mark cached blocks only, and the pool's incremental
        evictable count equals a scan of the cache.
        """
        expected: dict[int, int] = {}
        for seq_id, seq in self._seqs.items():
            if not 0 <= seq.cached_length <= seq.length:
                raise SimulationError(
                    f"sequence {seq_id}: cached {seq.cached_length} "
                    f"outside [0, {seq.length}]")
            if len(seq.table) < blocks_for_tokens(seq.length,
                                                  self.block_size):
                raise SimulationError(
                    f"sequence {seq_id}: table too short for "
                    f"{seq.length} tokens")
            for bid in seq.table:
                expected[bid] = expected.get(bid, 0) + 1
        for h, bid in self.prefix.entries().items():
            expected[bid] = expected.get(bid, 0) + 1
            if self.pool.content_hash(bid) != h:
                raise SimulationError(
                    f"block {bid}: content tag "
                    f"{self.pool.content_hash(bid)} does not match its "
                    f"prefix-cache entry {h}")
        cached = set(self.prefix.entries().values())
        for bid in range(self.pool.n_blocks):
            if self.pool.refcount(bid) != expected.get(bid, 0):
                raise SimulationError(
                    f"block {bid}: refcount {self.pool.refcount(bid)} != "
                    f"{expected.get(bid, 0)} references")
            if bid not in cached and self.pool.refcount(bid) \
                    and self.pool.content_hash(bid) is not None:
                raise SimulationError(
                    f"block {bid}: content tag without a prefix-cache "
                    "entry")
        evictable = sum(1 for bid in cached
                        if self.pool.refcount(bid) == 1)
        if self.pool.n_evictable != evictable:
            raise SimulationError(
                f"evictable count {self.pool.n_evictable} != "
                f"{evictable} cache-only blocks")

    # -- internals ---------------------------------------------------------

    def _get(self, seq_id: int) -> _Sequence:
        seq = self._seqs.get(seq_id)
        if seq is None:
            raise SimulationError(f"sequence {seq_id} is not allocated")
        return seq

    def _take_block(self) -> int:
        """Claim a block, evicting cold prefix-cache entries if needed."""
        while True:
            try:
                return self.pool.allocate()
            except CapacityError:
                if self.prefix.evict_one() is None:
                    raise

    def _writable_block(self, seq: _Sequence, position: int) -> int:
        """Block id that may be written at ``position`` (allocate/COW)."""
        idx = position // self.block_size
        if idx > len(seq.table):
            raise SimulationError(
                f"paged KV append at position {position} is not "
                f"contiguous with {seq.length} cached tokens")
        if idx == len(seq.table):
            seq.table.append(self._take_block())
            return seq.table[idx]
        bid = seq.table[idx]
        if self.pool.refcount(bid) > 1:
            new_bid = self._take_block()
            self.pool.copy_data(bid, new_bid)
            self.pool.decref(bid)
            seq.table[idx] = new_bid
            self.cow_copies += 1
            return new_bid
        return bid


class PagedSequenceView(KV8Append):
    """One sequence's cache, usable wherever a QuantizedKVCache is.

    Append/store/read semantics mirror :class:`QuantizedKVCache` exactly
    — per-head KV8 quantize on write, dequantize on read, reads gated on
    written scale-zero params — with the storage indirected through the
    sequence's block table.
    """

    def __init__(self, cache: PagedKVCache, seq_id: int) -> None:
        self.cache = cache
        self.seq_id = seq_id
        self.config = cache.config
        self.kv_bits = cache.kv_bits

    @property
    def length(self) -> int:
        return self.cache.length(self.seq_id)

    def store(self, layer: int, position: int, codes: np.ndarray,
              scales: np.ndarray, zeros: np.ndarray) -> None:
        """Store one token's KV8-quantized K/V in its block (see
        :func:`repro.model.kvcache.write_kv8`)."""
        cache = self.cache
        if position >= self.config.max_context:
            raise SimulationError(
                f"position {position} exceeds context "
                f"{self.config.max_context}")
        seq = cache._get(self.seq_id)
        bid = cache._writable_block(seq, position)
        block = cache.pool.storage(bid)
        assert block.k_codes is not None
        write_kv8(block, layer, position % cache.block_size, codes,
                  scales, zeros)
        if layer == self.config.num_layers - 1:
            seq.length = max(seq.length, position + 1)

    def _gather(self, which: str, layer: int, length: int,
                head: int | None = None, dtype=np.float16) -> np.ndarray:
        """Dequantize positions ``[0, length)`` block by block.

        Returns ``(length, head_dim)`` for one head or ``(length,
        kv_heads, head_dim)`` for all heads; either way each entry is
        dequantized exactly as the scalar path does (elementwise), so
        the block-at-a-time vectorization is pure layout.
        """
        cache = self.cache
        seq = cache._get(self.seq_id)
        head_sel = slice(None) if head is None else head
        parts = []
        for start in range(0, length, cache.block_size):
            idx = start // cache.block_size
            if idx >= len(seq.table):
                raise SimulationError(
                    f"KV read beyond block table at pos={start}")
            occ = min(length - start, cache.block_size)
            block = cache.pool.storage(seq.table[idx])
            codes = block.k_codes if which == "k" else block.v_codes
            scales = block.k_scales if which == "k" else block.v_scales
            zeros = block.k_zeros if which == "k" else block.v_zeros
            assert codes is not None and block.written is not None
            written = block.written[layer, :occ, head_sel]
            if not written.all():
                pos = start + int(np.argmin(
                    written.reshape(occ, -1).all(axis=1)))
                raise SimulationError(
                    f"KV cache read of unwritten slot layer={layer} "
                    f"pos={pos} head={head if head is not None else 0}")
            parts.append(kv_dequantize_batch(codes[layer, :occ, head_sel],
                                             scales[layer, :occ, head_sel],
                                             zeros[layer, :occ, head_sel],
                                             dtype=dtype))
        if not parts:
            shape = (0, self.config.head_dim) if head is not None \
                else (0, self.config.kv_heads, self.config.head_dim)
            return np.zeros(shape, dtype=dtype)
        return np.concatenate(parts, axis=0)

    def keys(self, layer: int, head: int, length: int) -> np.ndarray:
        """Dequantized FP16 keys: (length, head_dim) for one head."""
        return self._gather("k", layer, length, head)

    def values(self, layer: int, head: int, length: int) -> np.ndarray:
        return self._gather("v", layer, length, head)

    def keys_batch(self, layer: int, length: int,
                   dtype=np.float16) -> np.ndarray:
        """Dequantized FP16 keys of every head: (kv_heads, length, head_dim).

        ``dtype=np.float32`` keeps the FP16-grid values in float32 (the
        attention kernels' native representation)."""
        return self._gather("k", layer, length,
                            dtype=dtype).transpose(1, 0, 2)

    def values_batch(self, layer: int, length: int,
                     dtype=np.float16) -> np.ndarray:
        return self._gather("v", layer, length,
                            dtype=dtype).transpose(1, 0, 2)

    def payload_bytes(self) -> int:
        """Stored code bytes for this sequence's logical length."""
        return (2 * self.config.num_layers * self.length
                * self.config.kv_dim * self.kv_bits // 8)
