"""Content-addressed prefix cache over full KV blocks.

Requests that share a system prompt should map to the same physical
blocks and skip the prefill work for them.  The cache keys each *full*
block of a token sequence by a chain hash — the hash of the block's
tokens combined with the parent block's hash — so a lookup walks the
prompt block by block and stops at the first miss.  Chaining makes two
blocks equal only when their entire history of tokens is equal, which
is what makes sharing safe (position-dependent RoPE is baked into the
cached K/V).

The cache holds one pool reference per registered block, so cached
prefixes survive the retirement of the request that computed them.
When the pool runs dry, the least recently used block that only the
cache still references is evicted to make room.
"""

from __future__ import annotations

from collections import OrderedDict
from functools import lru_cache
from typing import Sequence

from ..errors import SimulationError
from .blockpool import BlockPool

#: Seed of the chain hash: the hash of the empty prefix.
_CHAIN_ROOT = 0x9E3779B97F4A7C15


def chain_hashes(tokens: Sequence[int], block_size: int) -> list[int]:
    """Chain hash of every *full* block prefix of ``tokens``.

    ``chain_hashes(t, bs)[i]`` identifies the content ``t[: (i + 1) * bs]``;
    partial trailing blocks are never hashed (they are still mutable).

    Memoized: a request blocked at the queue head has its prompt
    re-hashed by every scheduler step's admission check, so repeat
    lookups must not redo the per-block work.
    """
    if block_size <= 0:
        raise SimulationError(f"block size must be positive: {block_size}")
    return list(_chain_hashes_cached(tuple(tokens), block_size))


@lru_cache(maxsize=512)
def _chain_hashes_cached(tokens: tuple[int, ...],
                         block_size: int) -> tuple[int, ...]:
    hashes = []
    parent = _CHAIN_ROOT
    for start in range(0, len(tokens) - block_size + 1, block_size):
        parent = hash((parent, tokens[start:start + block_size]))
        hashes.append(parent)
    return tuple(hashes)


class PrefixCache:
    """LRU map from chain hash to the physical block holding that prefix."""

    def __init__(self, pool: BlockPool) -> None:
        self.pool = pool
        self._entries: OrderedDict[int, int] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def n_reclaimable(self) -> int:
        """Cached blocks no live sequence references (evictable): the
        pool's incremental count, O(1)."""
        return self.pool.n_evictable

    # -- lookup ------------------------------------------------------------

    def match(self, hashes: Sequence[int]) -> list[int]:
        """Block ids of the longest cached prefix of ``hashes`` (LRU touch)."""
        matched: list[int] = []
        for h in hashes:
            bid = self._entries.get(h)
            if bid is None:
                self.misses += 1
                break
            self._entries.move_to_end(h)
            matched.append(bid)
            self.hits += 1
        return matched

    def peek(self, hashes: Sequence[int]) -> list[int]:
        """Block ids of the longest cached prefix, with no LRU or stat
        effects.

        Used by admission accounting, which must not disturb eviction
        order before the request actually claims its blocks.
        """
        matched: list[int] = []
        for h in hashes:
            bid = self._entries.get(h)
            if bid is None:
                break
            matched.append(bid)
        return matched

    # -- registration ------------------------------------------------------

    def register(self, h: int, bid: int) -> None:
        """Publish ``bid`` as the block holding prefix ``h``.

        The cache takes its own pool reference; re-registering a hash that
        is already cached (the same content computed twice concurrently)
        keeps the incumbent block.
        """
        if h in self._entries:
            self._entries.move_to_end(h)
            return
        self.pool.incref(bid)
        self.pool.set_content_hash(bid, h)
        self._entries[h] = bid

    # -- eviction ----------------------------------------------------------

    def evict_one(self) -> int | None:
        """Drop the LRU entry whose block only the cache references.

        Eviction walks from cold to hot; chained children of an evicted
        block remain cached (their hashes still identify their content —
        they just can no longer be *reached* by a fresh prompt walk, and
        age out of the LRU in turn).
        """
        if not self.pool.n_evictable:
            return None
        for h, bid in self._entries.items():  # insertion order == LRU order
            if self.pool.refcount(bid) == 1:
                del self._entries[h]
                self.pool.decref(bid)
                self.evictions += 1
                return bid
        return None

    def clear(self) -> None:
        """Drop every cache reference (a run start, a crash).  Blocks a
        sequence still holds lose their content tag with the entry, so
        they stop counting as evictable."""
        for bid in self._entries.values():
            self.pool.set_content_hash(bid, None)
            self.pool.decref(bid)
        self._entries.clear()

    # -- introspection -----------------------------------------------------

    def entries(self) -> dict[int, int]:
        """Snapshot of hash -> block id (for audits and tests)."""
        return dict(self._entries)
