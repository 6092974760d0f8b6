"""Engine edge cases the PR 1 suite skipped, under block-granular KV.

Each test pins one awkward corner of the paged serving path: admission
when the pool is empty, requests that can never fit, identical prompts
racing into the same step, EOS landing on the prefill/decode boundary,
and preempted requests re-admitting through their own cached prefix.
"""

import pytest

from repro.config import TINY_MODEL, QuantConfig
from repro.engine import (
    ContinuousBatchScheduler,
    CycleModelBackend,
    FinishReason,
    FunctionalBackend,
    Request,
)
from repro.errors import CapacityError
from report_checks import assert_reports_identical


@pytest.fixture(scope="module")
def quant32():
    return QuantConfig(weight_group_size=32)


def paged_engine(quant, n_blocks, block_size=4, max_batch=4, oracle=None):
    backend = CycleModelBackend(TINY_MODEL, quant, n_slots=max_batch,
                                kv_mode="paged", block_size=block_size,
                                n_kv_blocks=n_blocks, token_oracle=oracle)
    return ContinuousBatchScheduler(backend, max_batch=max_batch), backend


class TestBlockPressure:
    def test_preemption_under_zero_free_blocks(self, quant32):
        """A pool of 10 blocks cannot hold three growing sequences; the
        engine must preempt by block pressure yet finish everything."""
        engine, backend = paged_engine(quant32, n_blocks=10)
        reqs = [Request(i, (10 + i, 20 + i, 30 + i, 40 + i), 16)
                for i in range(3)]
        report = engine.run(reqs)
        assert report.preemptions > 0
        assert len(report.results) == 3
        assert all(len(r.tokens) == 16 for r in report.results)
        backend.paged_kv.audit()

    def test_request_longer_than_total_pool_rejected(self, quant32):
        engine, _ = paged_engine(quant32, n_blocks=3, block_size=4)
        # 13 prompt tokens + 1 decode token need 4 blocks; pool holds 3.
        with pytest.raises(CapacityError):
            engine.submit(Request(0, tuple(range(13)), 2))
        # 11 + 1 tokens exactly fill 3 blocks: admissible.
        engine.submit(Request(1, tuple(range(11)), 1))
        report = engine.run()
        assert report.results[0].tokens

    def test_lone_sequence_outgrowing_pool_retires(self, quant32):
        engine, backend = paged_engine(quant32, n_blocks=3, block_size=4,
                                       max_batch=1)
        report = engine.run([Request(0, (1, 2, 3, 4), 32)])
        result = report.results[0]
        assert result.finish_reason == FinishReason.LENGTH
        assert 0 < len(result.tokens) < 32
        assert len(result.decode_step_s) == len(result.tokens)
        backend.paged_kv.audit()
        assert backend.paged_kv.n_sequences == 0

    def test_paged_backend_enforces_slot_cap(self, quant32):
        """n_slots caps concurrency identically in both KV disciplines,
        even when the block pool could hold more sequences."""
        backend = CycleModelBackend(TINY_MODEL, quant32, n_slots=2,
                                    kv_mode="paged", block_size=4,
                                    n_kv_blocks=64)
        engine = ContinuousBatchScheduler(backend, max_batch=8)
        report = engine.run([Request(i, (1 + i, 2, 3), 6)
                             for i in range(5)])
        assert len(report.results) == 5
        assert report.max_batch_observed == 2

    def test_zero_token_overgrown_retirement_clears_ttft(self, quant32):
        """An over-budget retirement drops the sampled-but-never-
        forwarded tail token; when that token was the *first*, the
        first-token time must go with it — a result reporting zero
        tokens must report no TTFT, not the timestamp of a token it
        never delivered."""
        engine, backend = paged_engine(quant32, n_blocks=8)
        engine.submit(Request(0, (1, 2, 3), 8))
        engine._admit_ready()
        (state,) = engine.running
        assert state.generated and state.first_token_s is not None
        engine._retire_overgrown(state)
        assert state.finish_reason == FinishReason.LENGTH
        assert state.generated == [] and state.first_token_s is None
        assert not engine.running
        result = engine._report().results[0]
        assert result.tokens == () and result.ttft_s is None
        backend.paged_kv.audit()

    def test_preempted_request_readmits_through_own_prefix(self, quant32):
        """Preemption frees a sequence's blocks, but its committed prompt
        blocks stay cached — the recompute prefill skips them."""
        engine, backend = paged_engine(quant32, n_blocks=8, block_size=4,
                                       max_batch=2)
        reqs = [Request(i, tuple(range(1 + 8 * i, 9 + 8 * i)), 12)
                for i in range(2)]
        report = engine.run(reqs)
        assert report.preemptions > 0
        assert all(len(r.tokens) == 12 for r in report.results)
        # The preempted request's re-prefill found its own blocks.
        assert backend.paged_kv.prefix_reused_tokens > 0
        backend.paged_kv.audit()


class TestIdenticalPrompts:
    def test_same_prompt_admitted_same_step_shares_blocks(self,
                                                          tiny_qweights):
        prompt = tuple(range(1, 18))  # 17 tokens = 2 full blocks of 8 + 1
        backend = FunctionalBackend(tiny_qweights, n_slots=2,
                                    kv_mode="paged", block_size=8,
                                    n_kv_blocks=16)
        engine = ContinuousBatchScheduler(backend, max_batch=2)
        report = engine.run([Request(0, prompt, 4),
                             Request(1, prompt, 4)])
        (a, b) = sorted(report.results, key=lambda r: r.request_id)
        assert a.tokens == b.tokens  # greedy + same prompt + shared KV
        # Both were in one batch from the first step (same-step admit).
        assert report.max_batch_observed == 2
        # The second request reused the first's two full prompt blocks.
        assert backend.paged_kv.prefix_reused_tokens == 16
        backend.paged_kv.audit()

    def test_identical_prompts_use_fewer_blocks_than_private(self,
                                                             quant32):
        prompt = tuple(range(1, 18))
        engine, backend = paged_engine(quant32, n_blocks=16, block_size=8,
                                       max_batch=2)
        engine.submit(Request(0, prompt, 4))
        engine.submit(Request(1, prompt, 4))
        engine.step()
        kv = backend.paged_kv
        # Private storage would need 2 * ceil(18/8) = 6 blocks; sharing
        # the 2 full prompt blocks caps residency at 4.
        assert kv.n_total_blocks - kv.n_free_blocks == 4


class TestEosAtPrefillBoundary:
    def test_eos_on_first_sample_charges_no_decode(self, tiny_qweights):
        """The first sample fires the moment the last prefill chunk
        lands; an EOS there must retire the request with zero decode
        steps and release every block."""
        ref = FunctionalBackend(tiny_qweights, n_slots=1)
        eng = ContinuousBatchScheduler(ref, max_batch=1)
        first = eng.run([Request(0, (256, 1, 2), 1)]).results[0].tokens[0]

        backend = FunctionalBackend(tiny_qweights, n_slots=1,
                                    kv_mode="paged", block_size=4,
                                    n_kv_blocks=8)
        engine = ContinuousBatchScheduler(backend, max_batch=1)
        report = engine.run([Request(0, (256, 1, 2), 8, eos_id=first)])
        result = report.results[0]
        assert result.finish_reason == FinishReason.EOS
        assert list(result.tokens) == [first]
        assert result.decode_step_s == ()
        assert backend.paged_kv.n_sequences == 0
        backend.paged_kv.audit()

    def test_eos_mid_stream_frees_blocks_for_waiters(self, quant32):
        """An oracle EOS during decode releases blocks that admission
        immediately hands to the queued request."""
        def oracle(request_id, step):
            if request_id == 0 and step == 2:
                return 7  # EOS for request 0 only
            return 20 + request_id

        engine, backend = paged_engine(quant32, n_blocks=4, block_size=4,
                                       max_batch=2, oracle=oracle)
        reqs = [Request(0, (1, 2, 3, 4), 8, eos_id=7),
                Request(1, (5, 6, 7, 8), 4)]
        report = engine.run(reqs)
        by_id = {r.request_id: r for r in report.results}
        assert by_id[0].finish_reason == FinishReason.EOS
        assert len(by_id[0].tokens) == 3
        assert by_id[1].finish_reason == FinishReason.LENGTH
        assert len(by_id[1].tokens) == 4
        backend.paged_kv.audit()
        assert backend.paged_kv.n_free_blocks \
            + backend.paged_kv.n_reclaimable_blocks \
            == backend.paged_kv.n_total_blocks


class TestDirectSubmitOrder:
    def test_out_of_order_submits_drain_in_fifo_order(self, quant32):
        """Two direct submit() calls out of arrival order (5 ms, then
        1 ms) must drain: the idle jump lands on the class head's
        arrival, since nothing behind the head is admitted before it.
        Jumping to the earlier, non-head arrival instead leaves the
        engine spinning zero-work steps until the step cap."""
        reports = []
        for fast_forward in (True, False):
            backend = CycleModelBackend(TINY_MODEL, quant32, n_slots=2)
            engine = ContinuousBatchScheduler(backend, max_batch=2,
                                              fast_forward=fast_forward)
            states = [
                engine.submit(Request(0, (1, 2, 3), 4, arrival_s=0.005)),
                engine.submit(Request(1, (4, 5, 6), 4, arrival_s=0.001))]
            reports.append(engine.run(max_steps=2000))
            first_token = {s.request_id: s.first_token_s for s in states}
            # FIFO within the class: submission order, not arrival.
            assert 0.005 < first_token[0] < first_token[1]
        windows, eager = reports
        assert_reports_identical(windows, eager)
        assert windows.n_requests == 2
        assert all(len(r.tokens) == 4 for r in windows.results)
