"""Paged KV cache unit tests: pool, prefix cache, views, cost threading.

The property suite (:mod:`test_kv_properties`) fuzzes the invariants;
these tests pin the specific behaviours the engine depends on, plus the
``fetched`` plumbing through the cycle model and traffic accounting.
"""

import numpy as np
import pytest

from repro.config import KV260, TINY_MODEL, QuantConfig
from repro.core.cyclemodel import CycleModel
from repro.errors import CapacityError, ScheduleError, SimulationError
from repro.kv import PagedKVCache, blocks_for_tokens
from repro.model.quantized import QuantizedModel


@pytest.fixture()
def kv():
    return PagedKVCache(TINY_MODEL, n_blocks=16, block_size=4)


@pytest.fixture(scope="module")
def quant32():
    return QuantConfig(weight_group_size=32)


def _fill(kv, seq, n, seed=0):
    rng = np.random.default_rng(seed)
    view = kv.view(seq)
    shape = (TINY_MODEL.kv_heads, TINY_MODEL.head_dim)
    for pos in range(n):
        for layer in range(TINY_MODEL.num_layers):
            view.append(layer, rng.normal(size=shape),
                        rng.normal(size=shape), pos)


class TestPoolBasics:
    def test_bad_sizes_rejected(self):
        with pytest.raises(SimulationError):
            PagedKVCache(TINY_MODEL, n_blocks=0, block_size=4)
        with pytest.raises(SimulationError):
            PagedKVCache(TINY_MODEL, n_blocks=4, block_size=0)

    def test_blocks_for_tokens(self):
        assert blocks_for_tokens(1, 4) == 1
        assert blocks_for_tokens(4, 4) == 1
        assert blocks_for_tokens(5, 4) == 2

    def test_blocks_for_budget_rounds_down_never_over(self):
        from repro.kv import blocks_for_budget

        assert blocks_for_budget(256, 16) == 16
        assert blocks_for_budget(23, 4) == 5  # partial block dropped
        with pytest.raises(SimulationError):
            blocks_for_budget(8, 16)  # sub-block budget would overcommit

    def test_accounting_cache_refuses_views(self):
        acc = PagedKVCache(TINY_MODEL, n_blocks=4, block_size=4,
                           store_data=False)
        seq = acc.allocate()
        with pytest.raises(SimulationError):
            acc.view(seq)

    def test_unknown_sequence_rejected(self, kv):
        with pytest.raises(SimulationError):
            kv.length(99)
        seq = kv.allocate()
        kv.free(seq)
        with pytest.raises(SimulationError):
            kv.free(seq)

    def test_pool_exhaustion_raises_capacity_error(self):
        acc = PagedKVCache(TINY_MODEL, n_blocks=2, block_size=4,
                           store_data=False)
        seq = acc.allocate()
        acc.advance(seq, 8)
        with pytest.raises(CapacityError):
            acc.advance(seq, 1)
        acc.audit()  # the failed advance must not corrupt accounting

    def test_non_contiguous_append_rejected(self, kv):
        seq = kv.allocate()
        view = kv.view(seq)
        shape = (TINY_MODEL.kv_heads, TINY_MODEL.head_dim)
        with pytest.raises(SimulationError):
            view.append(0, np.zeros(shape), np.zeros(shape), position=7)

    def test_read_of_unwritten_position_raises(self, kv):
        seq = kv.allocate()
        _fill(kv, seq, 2)
        with pytest.raises(SimulationError):
            kv.view(seq).keys(0, 0, 3)


class TestAdmissionArithmetic:
    def test_blocks_needed_counts_growth_token(self, kv):
        # 4 prompt tokens + 1 growth = 5 positions -> 2 blocks of 4.
        assert kv.blocks_needed([1, 2, 3, 4]) == 2
        assert kv.blocks_needed([1, 2, 3]) == 1

    def test_blocks_needed_after_commit(self, kv):
        prompt = list(range(9))
        seq = kv.allocate(tokens=prompt)
        _fill(kv, seq, 9)
        kv.commit_prefix(seq, prompt)
        # 2 full blocks cached; 10 positions = 3 blocks -> 1 fresh.
        assert kv.blocks_needed(prompt) == 1

    def test_admission_plan_pins_matched_reclaimable_blocks(self):
        acc = PagedKVCache(TINY_MODEL, n_blocks=3, block_size=4,
                           store_data=False)
        prompt = list(range(9))
        seq = acc.allocate(tokens=prompt)
        acc.advance(seq, 9)
        acc.commit_prefix(seq, prompt)
        acc.free(seq)
        # All three blocks resident: two committed (reclaimable), one
        # free.  A re-run of the same prompt matches the two cached
        # blocks, so they are pinned, not claimable supply.
        fresh, claimable = acc.admission_plan(prompt)
        assert fresh == 1
        assert claimable == 1
        # A *different* prompt gets no match: all three are claimable.
        fresh, claimable = acc.admission_plan([50] * 9)
        assert fresh == 3
        assert claimable == 3


class TestPrefixCacheBehaviour:
    def test_register_keeps_incumbent_block(self, kv):
        prompt = list(range(8))
        a = kv.allocate(tokens=prompt)
        _fill(kv, a, 8, seed=1)
        b = kv.allocate(tokens=[*prompt])  # same content, no cache yet
        _fill(kv, b, 8, seed=1)
        kv.commit_prefix(a, prompt)
        kv.commit_prefix(b, prompt)  # must keep a's blocks as canonical
        c = kv.allocate(tokens=prompt + [9])
        assert kv.block_table(c)[:1] == kv.block_table(a)[:1]
        kv.audit()

    def test_lru_eviction_prefers_cold_entries(self):
        acc = PagedKVCache(TINY_MODEL, n_blocks=3, block_size=4,
                           store_data=False)
        old = [1] * 5
        hot = [2] * 5
        for prompt in (old, hot):
            seq = acc.allocate(tokens=prompt)
            acc.advance(seq, 5 - acc.cached_length(seq))
            acc.commit_prefix(seq, prompt)
            acc.free(seq)
        # Touch `hot` via a fresh match so `old` is the LRU entry.
        seq = acc.allocate(tokens=hot)
        assert acc.cached_length(seq) == 4
        acc.free(seq)
        # Pressure: a new 9-token sequence needs 3 blocks; only one is
        # free, so eviction must reclaim `old` first, then `hot`.
        seq = acc.allocate(tokens=[3] * 9)
        acc.advance(seq, 9)
        acc.audit()
        entries = set(acc.prefix.entries())
        assert len(entries) == 0  # both evicted under full pressure
        assert acc.prefix.evictions == 2

    def test_free_keeps_committed_blocks_resident(self, kv):
        prompt = list(range(8))
        seq = kv.allocate(tokens=prompt)
        _fill(kv, seq, 8)
        kv.commit_prefix(seq, prompt)
        kv.free(seq)
        assert kv.n_sequences == 0
        assert kv.n_reclaimable_blocks == 2
        again = kv.allocate(tokens=prompt + [40])
        assert kv.cached_length(again) == 8
        kv.audit()


class TestSharedDataIntegrity:
    def test_shared_blocks_serve_identical_kv(self, kv):
        prompt = list(range(8))
        a = kv.allocate(tokens=prompt)
        _fill(kv, a, 8, seed=3)
        kv.commit_prefix(a, prompt)
        b = kv.allocate(tokens=prompt + [9])
        assert kv.cached_length(b) == 8
        for head in range(TINY_MODEL.kv_heads):
            np.testing.assert_array_equal(
                kv.view(b).keys(1, head, 8), kv.view(a).keys(1, head, 8))

    def test_writer_extends_without_touching_shared(self, kv):
        prompt = list(range(8))
        a = kv.allocate(tokens=prompt)
        _fill(kv, a, 8, seed=4)
        kv.commit_prefix(a, prompt)
        b = kv.allocate(tokens=prompt + [9])
        before = kv.view(a).keys(0, 0, 8).copy()
        rng = np.random.default_rng(99)
        shape = (TINY_MODEL.kv_heads, TINY_MODEL.head_dim)
        for pos in (8, 9):
            for layer in range(TINY_MODEL.num_layers):
                kv.view(b).append(layer, rng.normal(size=shape),
                                  rng.normal(size=shape), pos)
        np.testing.assert_array_equal(kv.view(a).keys(0, 0, 8), before)
        assert kv.length(b) == 10 and kv.length(a) == 8
        kv.audit()


class TestFetchedCostThreading:
    def test_batched_schedule_fetched_reduces_cycles_and_bytes(self,
                                                               quant32):
        # Tiny model: attention is compute-bound, so skipping fetches
        # saves bytes but never cycles (the DOT still spans the context).
        cm = CycleModel(TINY_MODEL, quant32, KV260)
        full = cm.batched_decode_step([32, 32])
        shared = cm.batched_decode_step([32, 32], fetched=[32, 4])
        assert shared.cycles <= full.cycles
        assert shared.transfer_bytes < full.transfer_bytes
        # fetched == contexts is exactly the default.
        same = cm.batched_decode_step([32, 32], fetched=[32, 32])
        assert same.cycles == full.cycles

    def test_fetched_saves_cycles_when_bandwidth_bound(self):
        from repro.config import LLAMA2_7B, W4A16_KV8

        cm = CycleModel(LLAMA2_7B, W4A16_KV8, KV260)
        full = cm.batched_decode_step([512, 512])
        shared = cm.batched_decode_step([512, 512], fetched=[512, 0])
        assert shared.cycles < full.cycles
        assert shared.transfer_bytes < full.transfer_bytes

    def test_fetched_validation(self, quant32):
        cm = CycleModel(TINY_MODEL, quant32, KV260)
        with pytest.raises(ScheduleError):
            cm.batched_decode_step([8, 8], fetched=[8])
        with pytest.raises(ScheduleError):
            cm.batched_decode_step([8], fetched=[9])

    def test_prefill_start_skips_leading_positions(self, quant32):
        cm = CycleModel(TINY_MODEL, quant32, KV260)
        full = cm.prefill_cycles(12)
        tail = cm.prefill_cycles(12, start=8)
        head = cm.prefill_cycles(8)
        assert full == pytest.approx(head + tail)
        with pytest.raises(SimulationError):
            cm.prefill_cycles(12, start=12)


class TestFunctionalPrefillResume:
    def test_prefill_start_matches_full_prefill(self, tiny_qweights):
        model = QuantizedModel(tiny_qweights)
        tokens = [256, 1, 2, 3, 4, 5]
        want, _ = model.prefill(tokens)
        logits, cache = model.prefill(tokens[:4])
        # Resume from position 4 on the same cache.
        got, _ = model.prefill(tokens, cache, start=4)
        np.testing.assert_array_equal(got, want)

    def test_prefill_start_validation(self, tiny_qweights):
        model = QuantizedModel(tiny_qweights)
        with pytest.raises(SimulationError):
            model.prefill([1, 2, 3], start=3)
        with pytest.raises(SimulationError):
            model.prefill([1, 2, 3], start=-1)
        fresh_cache = model.prefill([1])[1]
        with pytest.raises(SimulationError):
            # start beyond what the cache holds would read unwritten KV.
            model.prefill([1, 2, 3, 4], fresh_cache, start=2)
