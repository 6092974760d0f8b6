"""Refcounted physical-block pool: the storage substrate of paged KV.

The pool owns ``n_blocks`` physical blocks, each holding ``block_size``
token positions of K/V for *every* layer and head of one sequence —
the same unit vLLM's PagedAttention allocates, sized here so that one
block maps to a whole-burst KV read per head in the DDR model.

Two operating modes share one accounting core:

* ``store_data=True`` — blocks carry real KV8 codes plus scale-zero
  params (the functional backend's storage).  Copying a block on
  copy-on-write duplicates the codes and params.
* ``store_data=False`` — pure accounting for the timing backends: the
  pool tracks allocation, refcounts, and content tags, but no arrays.

Blocks are reference counted.  A block may be referenced by any number
of sequence block tables plus (at most once) by the prefix cache; it
returns to the free list only when the last reference drops.  A block
carries a content tag exactly while the prefix cache holds it, so the
pool counts the tagged blocks at refcount 1 — the cache's evictable
supply — at every refcount and tag change instead of scanning for them.
"""

from __future__ import annotations

import numpy as np

from ..config import ModelConfig
from ..errors import CapacityError, SimulationError


class _Block:
    """One physical block: refcount, content tag, optional storage."""

    __slots__ = ("refcount", "content_hash", "k_codes", "v_codes",
                 "k_scales", "v_scales", "k_zeros", "v_zeros", "written")

    def __init__(self) -> None:
        self.refcount = 0
        #: chain hash of the token content, set once the block is
        #: registered in the prefix cache (None = private/unhashed).
        self.content_hash: int | None = None
        self.k_codes: np.ndarray | None = None
        self.v_codes: np.ndarray | None = None
        self.k_scales: np.ndarray | None = None
        self.v_scales: np.ndarray | None = None
        self.k_zeros: np.ndarray | None = None
        self.v_zeros: np.ndarray | None = None
        self.written: np.ndarray | None = None


class BlockPool:
    """Fixed pool of refcounted KV blocks with explicit allocate/release."""

    def __init__(self, config: ModelConfig, n_blocks: int, block_size: int,
                 store_data: bool = True) -> None:
        if n_blocks <= 0:
            raise SimulationError(
                f"block pool needs at least one block, got {n_blocks}")
        if block_size <= 0:
            raise SimulationError(
                f"block size must be positive, got {block_size}")
        self.config = config
        self.n_blocks = n_blocks
        self.block_size = block_size
        self.store_data = store_data
        self._blocks = [_Block() for _ in range(n_blocks)]
        self._free: list[int] = list(range(n_blocks - 1, -1, -1))
        #: bumped on every allocate/incref/decref — a cheap cache tag
        #: for derived per-sequence state (e.g. "does the next append
        #: need a fresh block"), which can only change when some
        #: refcount does.
        self.mutation_epoch = 0
        #: tagged blocks whose only reference is the prefix cache's:
        #: what eviction can reclaim, kept in step by every refcount
        #: and tag change below.
        self.n_evictable = 0

    # -- capacity ----------------------------------------------------------

    @property
    def n_free(self) -> int:
        return len(self._free)

    @property
    def n_used(self) -> int:
        return self.n_blocks - len(self._free)

    # -- allocation --------------------------------------------------------

    def allocate(self) -> int:
        """Claim one free block (refcount 1); raises when the pool is dry."""
        if not self._free:
            raise CapacityError(
                f"all {self.n_blocks} KV blocks are allocated")
        bid = self._free.pop()
        block = self._blocks[bid]
        self.mutation_epoch += 1
        block.refcount = 1
        block.content_hash = None
        if self.store_data:
            self._init_storage(block)
        return bid

    def incref(self, bid: int) -> None:
        block = self._live(bid)
        if block.refcount == 1 and block.content_hash is not None:
            self.n_evictable -= 1
        block.refcount += 1
        self.mutation_epoch += 1

    def decref(self, bid: int) -> None:
        """Drop one reference; the block frees when the count hits zero."""
        block = self._live(bid)
        block.refcount -= 1
        self.mutation_epoch += 1
        if block.content_hash is not None and block.refcount <= 1:
            self.n_evictable += 1 if block.refcount else -1
        if block.refcount == 0:
            block.content_hash = None
            # Storage is dropped with the block: a freed block must never
            # leak a previous sequence's K/V into its next owner.
            block.k_codes = block.v_codes = None
            block.k_scales = block.v_scales = None
            block.k_zeros = block.v_zeros = None
            block.written = None
            self._free.append(bid)

    def refcount(self, bid: int) -> int:
        self._check(bid)
        return self._blocks[bid].refcount

    def content_hash(self, bid: int) -> int | None:
        return self._live(bid).content_hash

    def set_content_hash(self, bid: int, value: int | None) -> None:
        block = self._live(bid)
        if block.refcount == 1:
            self.n_evictable += (value is not None) \
                - (block.content_hash is not None)
        block.content_hash = value

    def copy_data(self, src_bid: int, dst_bid: int) -> None:
        """Copy-on-write support: clone ``src_bid``'s content into
        ``dst_bid`` (both must be live; a no-op in accounting mode)."""
        src, dst = self._live(src_bid), self._live(dst_bid)
        if not self.store_data:
            return
        assert src.k_codes is not None and dst.k_codes is not None
        dst.k_codes[...] = src.k_codes
        dst.v_codes[...] = src.v_codes
        assert src.k_scales is not None and dst.k_scales is not None
        dst.k_scales[...] = src.k_scales
        dst.v_scales[...] = src.v_scales
        dst.k_zeros[...] = src.k_zeros
        dst.v_zeros[...] = src.v_zeros
        dst.written[...] = src.written

    # -- storage access (store_data only) ----------------------------------

    def storage(self, bid: int) -> _Block:
        if not self.store_data:
            raise SimulationError(
                "block pool is accounting-only (store_data=False)")
        return self._live(bid)

    # -- internals ---------------------------------------------------------

    def _init_storage(self, block: _Block) -> None:
        cfg = self.config
        shape = (cfg.num_layers, self.block_size, cfg.kv_heads, cfg.head_dim)
        params = shape[:-1]
        block.k_codes = np.zeros(shape, dtype=np.uint8)
        block.v_codes = np.zeros(shape, dtype=np.uint8)
        block.k_scales = np.zeros(params, dtype=np.float16)
        block.v_scales = np.zeros(params, dtype=np.float16)
        block.k_zeros = np.zeros(params, dtype=np.int64)
        block.v_zeros = np.zeros(params, dtype=np.int64)
        block.written = np.zeros(params, dtype=bool)

    def _check(self, bid: int) -> None:
        if not 0 <= bid < self.n_blocks:
            raise SimulationError(
                f"block {bid} outside pool of {self.n_blocks}")

    def _live(self, bid: int) -> _Block:
        self._check(bid)
        block = self._blocks[bid]
        if block.refcount <= 0:
            raise SimulationError(f"block {bid} is not allocated")
        return block
