"""Property-based tests for the paged KV allocator and prefix cache.

Hypothesis drives arbitrary allocate/advance/fork/commit/free programs
against :class:`repro.kv.PagedKVCache` and checks the invariants that
make paging safe to put under a serving engine:

* no block ever leaks: the pool's refcounts always equal the references
  held by sequence block tables plus the prefix cache, and releasing
  everything returns every block to the free list;
* copy-on-write isolation: a fork never mutates its sibling — each
  sequence's reconstructed K/V stays equal to an oracle
  :class:`QuantizedKVCache` fed the same appends;
* prefix matching only ever shares full blocks of identical content,
  and never the final prompt token.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.config import ModelConfig
from repro.errors import CapacityError, SimulationError
from repro.kv import PagedKVCache, blocks_for_tokens, chain_hashes
from repro.model.kvcache import QuantizedKVCache

PROP_MODEL = ModelConfig(
    name="prop-test",
    hidden_size=8,
    num_layers=1,
    num_heads=2,
    intermediate_size=16,
    vocab_size=32,
    max_context=32,
)

BLOCK_SIZE = 4


def _kv_vectors(seed: int):
    rng = np.random.default_rng(seed)
    shape = (PROP_MODEL.kv_heads, PROP_MODEL.head_dim)
    return rng.normal(size=shape), rng.normal(size=shape)


# ---------------------------------------------------------------------------
# Accounting programs: allocate / advance / fork / commit / free
# ---------------------------------------------------------------------------

_ops = st.lists(
    st.one_of(
        st.tuples(st.just("alloc"),
                  st.lists(st.integers(0, 7), min_size=1, max_size=12)),
        st.tuples(st.just("advance"), st.integers(0, 5)),
        st.tuples(st.just("fork"), st.integers(0, 5)),
        st.tuples(st.just("commit"), st.integers(0, 5)),
        st.tuples(st.just("free"), st.integers(0, 5)),
    ),
    max_size=40,
)


@settings(deadline=None, max_examples=60)
@given(ops=_ops, n_blocks=st.integers(2, 12))
def test_accounting_programs_never_leak_blocks(ops, n_blocks):
    kv = PagedKVCache(PROP_MODEL, n_blocks=n_blocks,
                      block_size=BLOCK_SIZE, store_data=False)
    live: dict[int, list[int]] = {}  # seq id -> tokens it accounts
    for op, arg in ops:
        if op == "alloc":
            seq = kv.allocate(tokens=arg)
            live[seq] = list(arg)
        elif not live:
            continue
        else:
            seq = sorted(live)[arg % len(live)]
            if op == "advance":
                try:
                    kv.advance(seq, 1)
                except (CapacityError, SimulationError):
                    pass  # pool dry or context full: both legal outcomes
                else:
                    live[seq].append(0)
            elif op == "fork":
                try:
                    new = kv.fork(seq)
                except SimulationError:
                    pass
                else:
                    live[new] = list(live[seq])
            elif op == "commit":
                tokens = live[seq]
                covered = min(len(tokens), kv.length(seq))
                if covered:
                    kv.commit_prefix(seq, tokens[:covered])
            elif op == "free":
                kv.free(seq)
                del live[seq]
        kv.audit()
        # advance() only accounts tokens the pool actually granted.
        for sid in live:
            assert kv.length(sid) <= PROP_MODEL.max_context
            assert len(kv.block_table(sid)) \
                >= blocks_for_tokens(kv.length(sid), BLOCK_SIZE)

    for seq in list(live):
        kv.free(seq)
    kv.audit()
    kv.prefix.clear()
    kv.audit()
    assert kv.n_free_blocks == kv.n_total_blocks


# ---------------------------------------------------------------------------
# Data programs: append / fork / free against a QuantizedKVCache oracle
# ---------------------------------------------------------------------------

_data_ops = st.lists(
    st.one_of(
        st.tuples(st.just("append"), st.integers(0, 3)),
        st.tuples(st.just("fork"), st.integers(0, 3)),
        st.tuples(st.just("free"), st.integers(0, 3)),
    ),
    max_size=24,
)


@settings(deadline=None, max_examples=30)
@given(ops=_data_ops, seed=st.integers(0, 2**16))
def test_cow_data_matches_quantized_cache_oracle(ops, seed):
    kv = PagedKVCache(PROP_MODEL, n_blocks=24, block_size=BLOCK_SIZE,
                      store_data=True)
    root = kv.allocate()
    #: per sequence, the seeds of the vectors appended at each position —
    #: enough to replay its exact history into a fresh oracle cache.
    history: dict[int, list[int]] = {root: []}
    stamp = seed
    for op, arg in ops:
        if not history:
            break
        seq = sorted(history)[arg % len(history)]
        if op == "append":
            if kv.length(seq) >= PROP_MODEL.max_context:
                continue
            stamp += 1
            keys, values = _kv_vectors(stamp)
            try:
                kv.view(seq).append(0, keys, values,
                                    position=kv.length(seq))
            except CapacityError:
                continue
            history[seq].append(stamp)
        elif op == "fork":
            history[kv.fork(seq)] = list(history[seq])
        elif op == "free":
            kv.free(seq)
            del history[seq]
        kv.audit()

    for seq, stamps in history.items():
        oracle = QuantizedKVCache(PROP_MODEL)
        for pos, s in enumerate(stamps):
            keys, values = _kv_vectors(s)
            oracle.append(0, keys, values, pos)
        view = kv.view(seq)
        assert view.length == len(stamps)
        for head in range(PROP_MODEL.kv_heads):
            np.testing.assert_array_equal(
                view.keys(0, head, len(stamps)),
                oracle.keys(0, head, len(stamps)))
            np.testing.assert_array_equal(
                view.values(0, head, len(stamps)),
                oracle.values(0, head, len(stamps)))


# ---------------------------------------------------------------------------
# Prefix sharing properties
# ---------------------------------------------------------------------------

@settings(deadline=None, max_examples=60)
@given(prompt=st.lists(st.integers(0, 7), min_size=1, max_size=20),
       reuse_prompt=st.lists(st.integers(0, 7), min_size=1, max_size=20))
def test_prefix_match_is_content_correct_and_capped(prompt, reuse_prompt):
    kv = PagedKVCache(PROP_MODEL, n_blocks=16, block_size=BLOCK_SIZE,
                      store_data=False)
    first = kv.allocate(tokens=prompt)
    kv.advance(first, len(prompt) - kv.cached_length(first))
    kv.commit_prefix(first, prompt)
    kv.audit()

    second = kv.allocate(tokens=reuse_prompt)
    cached = kv.cached_length(second)
    # Sharing is full blocks only, and never the final prompt token.
    assert cached % BLOCK_SIZE == 0
    assert cached <= max(0, len(reuse_prompt) - 1)
    assert cached <= len(prompt)
    # Everything shared must be identical token content.
    assert list(reuse_prompt[:cached]) == list(prompt[:cached])
    # And the match is maximal: the next full block either diverges,
    # overruns the committed prefix, or would swallow the last token.
    next_end = cached + BLOCK_SIZE
    if next_end <= min(len(reuse_prompt) - 1, len(prompt)):
        assert list(reuse_prompt[:next_end]) != list(prompt[:next_end])
    # Shared blocks really are shared storage.
    shared_blocks = cached // BLOCK_SIZE
    assert kv.block_table(second)[:shared_blocks] \
        == kv.block_table(first)[:shared_blocks]
    kv.audit()

    kv.free(first)
    kv.free(second)
    kv.audit()


@settings(deadline=None, max_examples=40)
@given(n_prompts=st.integers(1, 6), seed=st.integers(0, 999))
def test_eviction_under_pressure_preserves_refcounts(n_prompts, seed):
    """Churning many distinct committed prompts through a tiny pool
    forces LRU eviction; nothing may leak and live tables never break."""
    rng = np.random.default_rng(seed)
    kv = PagedKVCache(PROP_MODEL, n_blocks=6, block_size=BLOCK_SIZE,
                      store_data=False)
    for _ in range(n_prompts):
        prompt = [int(t) for t in rng.integers(0, 8, size=9)]
        try:
            seq = kv.allocate(tokens=prompt)
            kv.advance(seq, len(prompt) - kv.cached_length(seq))
        except CapacityError:
            kv.audit()
            continue
        kv.commit_prefix(seq, prompt)
        kv.audit()
        kv.free(seq)
        kv.audit()
    kv.prefix.clear()
    kv.audit()
    assert kv.n_free_blocks == kv.n_total_blocks


def test_chain_hashes_depend_on_whole_history():
    a = chain_hashes([1, 2, 3, 4, 5, 6, 7, 8], 4)
    b = chain_hashes([9, 2, 3, 4, 5, 6, 7, 8], 4)
    assert len(a) == len(b) == 2
    # First blocks differ -> both hashes differ (chained, not local).
    assert a[0] != b[0] and a[1] != b[1]
    c = chain_hashes([1, 2, 3], 4)
    assert c == []  # partial blocks are never hashed


def test_fetch_plan_charges_shared_blocks_once():
    kv = PagedKVCache(PROP_MODEL, n_blocks=16, block_size=4,
                      store_data=False)
    prompt = list(range(8)) + [9]
    a = kv.allocate(tokens=prompt)
    kv.advance(a, 9)
    kv.commit_prefix(a, prompt)
    b = kv.allocate(tokens=prompt)
    kv.advance(b, 9 - kv.cached_length(b))
    assert kv.fetch_plan([a, b], [9, 9]) == [9, 1]
    # Order flips the charge: whoever reads first pays for the blocks.
    assert kv.fetch_plan([b, a], [9, 9]) == [9, 1]


# ---------------------------------------------------------------------------
# The incremental evictable count
# ---------------------------------------------------------------------------

#: shared system prompts: most churn allocations reuse a cached prefix.
_PREFIXES = ((1, 2, 3, 4, 5, 6, 7, 8), (1, 2, 3, 4, 0, 0, 0, 0), (6, 6, 6))

_churn_alloc = st.tuples(st.just("alloc"),
                         st.tuples(st.sampled_from(_PREFIXES),
                                   st.lists(st.integers(0, 2), max_size=6)))

_churn_ops = st.lists(
    st.one_of(
        _churn_alloc,
        _churn_alloc,  # twice: re-allocations are what hit the cache
        st.tuples(st.just("advance"), st.tuples(st.integers(0, 5),
                                                st.integers(1, 6))),
        st.tuples(st.just("fork"), st.integers(0, 5)),
        st.tuples(st.just("commit"), st.integers(0, 5)),
        st.tuples(st.just("free"), st.integers(0, 5)),
        st.tuples(st.just("evict"), st.none()),
        st.tuples(st.just("clear"), st.none()),
    ),
    min_size=8,
    max_size=50,
)


def _scanned_evictable(kv: PagedKVCache) -> int:
    return sum(1 for bid in kv.prefix.entries().values()
               if kv.pool.refcount(bid) == 1)


@settings(deadline=None, max_examples=80)
@given(ops=_churn_ops, n_blocks=st.integers(3, 12))
@example(ops=[("alloc", (_PREFIXES[0], [0])), ("free", 0),
              ("alloc", (_PREFIXES[0], [0]))], n_blocks=8)
def test_evictable_count_matches_refcount_scan(ops, n_blocks):
    """The pool's O(1) evictable count equals the refcount scan of the
    prefix cache after every allocate, fork, free, prefix commit,
    append (copy-on-write of a forked partial block included), LRU
    eviction and cache clear — prompts drawn over a few shared prefixes
    keep hitting cached blocks."""
    kv = PagedKVCache(PROP_MODEL, n_blocks=n_blocks,
                      block_size=BLOCK_SIZE, store_data=False)
    live: dict[int, list[int]] = {}
    for op, arg in ops:
        if op == "alloc":
            tokens = list(arg[0]) + arg[1]
            seq = kv.allocate(tokens=tokens)
            try:
                kv.advance(seq, len(tokens) - kv.cached_length(seq))
            except (CapacityError, SimulationError):
                kv.free(seq)
            else:
                # As a prefill does: the prompt is published at once.
                kv.commit_prefix(seq, tokens)
                live[seq] = tokens
        elif op == "evict":
            kv.prefix.evict_one()
        elif op == "clear":
            kv.prefix.clear()
        elif live:
            index = arg[0] if op == "advance" else arg
            seq = sorted(live)[index % len(live)]
            if op == "advance":
                before = kv.length(seq)
                try:
                    kv.advance(seq, arg[1])
                except (CapacityError, SimulationError):
                    pass
                live[seq].extend([0] * (kv.length(seq) - before))
            elif op == "fork":
                live[kv.fork(seq)] = list(live[seq])
            elif op == "commit":
                kv.commit_prefix(seq, live[seq])
            else:
                kv.free(seq)
                del live[seq]
        assert kv.n_reclaimable_blocks == _scanned_evictable(kv)
        kv.audit()
    for seq in list(live):
        kv.free(seq)
        assert kv.n_reclaimable_blocks == _scanned_evictable(kv)
    kv.prefix.clear()
    kv.audit()
    assert kv.n_reclaimable_blocks == 0
    assert kv.n_free_blocks == kv.n_total_blocks


def test_clear_untags_blocks_sequences_still_hold():
    """Clearing the cache under a live sequence drops the content tags
    with the entries: the blocks stay the sequence's, and freeing it
    later must not count them evictable on the way down."""
    kv = PagedKVCache(PROP_MODEL, n_blocks=8, block_size=BLOCK_SIZE,
                      store_data=False)
    prompt = list(range(9))
    seq = kv.allocate(tokens=prompt)
    kv.advance(seq, len(prompt))
    kv.commit_prefix(seq, prompt)
    other = kv.fork(seq)
    kv.free(other)
    assert kv.n_reclaimable_blocks == 0  # the sequence holds both
    kv.prefix.clear()
    kv.audit()
    assert all(kv.pool.content_hash(bid) is None
               for bid in kv.block_table(seq))
    kv.free(seq)
    kv.audit()
    assert kv.n_reclaimable_blocks == 0
    assert kv.n_free_blocks == kv.n_total_blocks
