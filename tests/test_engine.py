"""The unified execution engine: requests, backends, continuous batching."""

import pytest

from repro.config import LLAMA2_7B, TINY_MODEL, W4A16_KV8, QuantConfig
from repro.core.accelerator import Accelerator
from repro.engine import (
    ContinuousBatchScheduler,
    CycleModelBackend,
    FinishReason,
    FunctionalBackend,
    Request,
    RequestState,
    RequestStatus,
    synthetic_trace,
)
from repro.errors import CapacityError, SimulationError


@pytest.fixture(scope="module")
def tiny_quant32():
    return QuantConfig(weight_group_size=32)


def make_engine(quant, max_batch=8, **kwargs):
    backend = CycleModelBackend(TINY_MODEL, quant, n_slots=max_batch)
    return ContinuousBatchScheduler(backend, max_batch=max_batch, **kwargs)


class TestRequestModel:
    def test_empty_prompt_rejected(self):
        with pytest.raises(SimulationError):
            Request(0, (), 4)

    def test_nonpositive_budget_rejected(self):
        with pytest.raises(SimulationError):
            Request(0, (1,), 0)

    def test_state_lifecycle_properties(self):
        state = RequestState(Request(7, (1, 2, 3), 4))
        assert state.status == RequestStatus.QUEUED
        assert state.prompt_len == 3
        assert not state.has_pending_forward
        with pytest.raises(SimulationError):
            _ = state.ttft_s
        with pytest.raises(SimulationError):
            _ = state.pending_token


class TestContinuousBatching:
    def test_sustains_eight_concurrent_requests(self, tiny_quant32):
        """Acceptance: >= 8 concurrent synthetic requests on TINY_MODEL."""
        engine = make_engine(tiny_quant32, max_batch=8)
        trace = synthetic_trace(TINY_MODEL, n_requests=12,
                                arrival_rate_rps=1e9, seed=1)
        report = engine.run(trace)
        assert len(report.results) == 12
        assert report.max_batch_observed >= 8
        assert report.total_new_tokens \
            == sum(r.max_new_tokens for r in trace)

    def test_all_requests_get_their_tokens(self, tiny_quant32):
        engine = make_engine(tiny_quant32, max_batch=4)
        reqs = [Request(i, (1, 2, 3), 5 + i) for i in range(6)]
        report = engine.run(reqs)
        for i, r in enumerate(report.results):
            assert r.request_id == i
            assert len(r.tokens) == 5 + i
            assert r.finish_reason == FinishReason.LENGTH
            assert len(r.decode_step_s) == len(r.tokens)

    def test_batched_run_beats_serial_time(self, tiny_quant32):
        reqs = [Request(i, (1, 2, 3, 4), 8) for i in range(8)]
        batched = make_engine(tiny_quant32, max_batch=8).run(reqs)
        serial = make_engine(tiny_quant32, max_batch=1).run(reqs)
        assert batched.total_time_s < serial.total_time_s
        assert batched.aggregate_tokens_per_s \
            > serial.aggregate_tokens_per_s
        assert serial.max_batch_observed == 1

    def test_ttft_reflects_queueing(self, tiny_quant32):
        engine = make_engine(tiny_quant32, max_batch=2)
        reqs = [Request(i, (1, 2), 4) for i in range(4)]
        report = engine.run(reqs)
        ttfts = [r.ttft_s for r in report.results]
        # Later arrivals queue behind the full batch.
        assert max(ttfts[2:]) > min(ttfts[:2])

    def test_arrivals_in_future_advance_clock(self, tiny_quant32):
        engine = make_engine(tiny_quant32, max_batch=2)
        report = engine.run([Request(0, (1, 2), 2, arrival_s=5.0)])
        assert report.total_time_s > 5.0
        assert report.results[0].ttft_s < 5.0

    def test_preemption_under_kv_pressure(self, tiny_quant32):
        engine = make_engine(tiny_quant32, max_batch=4, kv_token_budget=40)
        reqs = [Request(i, tuple(range(1, 9)), 16) for i in range(6)]
        report = engine.run(reqs)
        assert report.preemptions > 0
        assert len(report.results) == 6
        assert all(len(r.tokens) == 16 for r in report.results)
        assert any(r.preemptions > 0 for r in report.results)

    def test_lone_sequence_outgrowing_budget_retires(self, tiny_quant32):
        engine = make_engine(tiny_quant32, max_batch=1, kv_token_budget=10)
        report = engine.run([Request(0, (1, 2, 3, 4), 32)])
        result = report.results[0]
        assert result.finish_reason == FinishReason.LENGTH
        assert 0 < len(result.tokens) < 32
        # Every reported token was charged exactly one decode step.
        assert len(result.decode_step_s) == len(result.tokens)

    def test_no_admit_then_preempt_thrash(self, tiny_quant32):
        """Admission accounts for running sequences' decode growth, so a
        freshly admitted request is never evicted in the same step."""
        engine = make_engine(tiny_quant32, max_batch=4, kv_token_budget=24)
        reqs = [Request(i, (1, 2, 3, 4), 12, arrival_s=i * 1e-5)
                for i in range(6)]
        report = engine.run(reqs)
        assert len(report.results) == 6
        for event in engine.events:
            assert not (event.admitted and event.preempted)

    def test_step_events_count_budget_retirement(self, tiny_quant32):
        engine = make_engine(tiny_quant32, max_batch=1, kv_token_budget=10)
        report = engine.run([Request(0, (1, 2, 3, 4), 32)])
        assert len(report.results) == 1
        assert sum(e.retired for e in engine.events) == 1

    def test_oversized_prompt_rejected_at_submit(self, tiny_quant32):
        engine = make_engine(tiny_quant32)
        with pytest.raises(SimulationError):
            engine.submit(Request(0, tuple(range(TINY_MODEL.max_context)), 2))
        engine2 = make_engine(tiny_quant32, kv_token_budget=4)
        with pytest.raises(CapacityError):
            engine2.submit(Request(0, (1, 2, 3, 4), 2))

    def test_kv_budget_derived_from_capacity_report(self):
        backend = CycleModelBackend(LLAMA2_7B, W4A16_KV8, n_slots=8)
        engine = ContinuousBatchScheduler(backend, max_batch=8)
        # The KV260 fits ~2100 KV tokens beyond the 7B W4 weights.
        assert 1024 <= engine.kv_token_budget < 2200

    def test_report_percentiles(self, tiny_quant32):
        report = make_engine(tiny_quant32).run(
            [Request(0, (1, 2), 8)])
        p50 = report.latency_percentile_s(50)
        p99 = report.latency_percentile_s(99)
        assert 0 < p50 <= p99
        with pytest.raises(SimulationError):
            report.latency_percentile_s(101)


class TestFunctionalBackend:
    def test_matches_accelerator_decode(self, tiny_qweights):
        """Engine batch of one == the classic bare-metal decode loop."""
        acc = Accelerator.from_quantized_weights(tiny_qweights)
        want_tokens, want_perf = acc.decode([256, 1, 2], 6)
        backend = FunctionalBackend(tiny_qweights, n_slots=1)
        engine = ContinuousBatchScheduler(backend, max_batch=1)
        state = engine.submit(Request(0, (256, 1, 2), 6))
        engine.run()
        assert state.generated == want_tokens
        assert [e.cycles for e in engine.events if e.batch] \
            == pytest.approx(want_perf.decode_cycles)
        assert state.prefill_cycles == pytest.approx(want_perf.prefill_cycles)

    def test_batching_does_not_change_tokens(self, tiny_qweights):
        acc = Accelerator.from_quantized_weights(tiny_qweights)
        prompts = [(256, 1, 2), (256, 9, 9), (256, 3, 7, 1)]
        want = [acc.decode(list(p), 5)[0] for p in prompts]
        backend = FunctionalBackend(tiny_qweights, n_slots=3)
        engine = ContinuousBatchScheduler(backend, max_batch=3)
        report = engine.run([Request(i, p, 5)
                             for i, p in enumerate(prompts)])
        assert report.max_batch_observed == 3
        for result, tokens in zip(report.results, want):
            assert list(result.tokens) == tokens

    def test_eos_retires_without_charging_a_step(self, tiny_qweights):
        acc = Accelerator.from_quantized_weights(tiny_qweights)
        first = acc.decode([256, 1, 2], 1)[0][0]
        backend = FunctionalBackend(tiny_qweights, n_slots=1)
        engine = ContinuousBatchScheduler(backend, max_batch=1)
        report = engine.run([Request(0, (256, 1, 2), 8, eos_id=first)])
        result = report.results[0]
        assert result.finish_reason == FinishReason.EOS
        assert list(result.tokens) == [first]
        assert result.decode_step_s == ()  # EOS is never forwarded

    def test_context_limit_respected(self, tiny_qweights):
        backend = FunctionalBackend(tiny_qweights, n_slots=1)
        engine = ContinuousBatchScheduler(backend, max_batch=1)
        prompt = tuple([1] * (TINY_MODEL.max_context - 2))
        report = engine.run([Request(0, prompt, 10)])
        assert len(report.results[0].tokens) <= 2


class TestCycleModelBackend7B:
    def test_serves_trace(self):
        backend = CycleModelBackend(LLAMA2_7B, W4A16_KV8, n_slots=4)
        engine = ContinuousBatchScheduler(backend, max_batch=4)
        trace = synthetic_trace(LLAMA2_7B, n_requests=6,
                                arrival_rate_rps=1.0, seed=2)
        report = engine.run(trace)
        assert len(report.results) == 6
        # A 7B on the KV260 decodes a few tokens per second, batched.
        assert 1.0 < report.aggregate_tokens_per_s < 12.0

    def test_batched_step_sublinear(self):
        """The weight stream is shared by the batch: four members cost
        more than one but far less than four single steps."""
        backend = CycleModelBackend(LLAMA2_7B, W4A16_KV8)
        one = backend.step_cycles([512])
        four = backend.step_cycles([512] * 4)
        assert one < four < 4 * one


class TestSyntheticTrace:
    def test_deterministic(self):
        a = synthetic_trace(TINY_MODEL, 8, seed=5)
        b = synthetic_trace(TINY_MODEL, 8, seed=5)
        assert [r.prompt for r in a] == [r.prompt for r in b]
        assert [r.arrival_s for r in a] == [r.arrival_s for r in b]

    def test_arrivals_increase(self):
        trace = synthetic_trace(TINY_MODEL, 8, arrival_rate_rps=2.0, seed=0)
        arrivals = [r.arrival_s for r in trace]
        assert arrivals == sorted(arrivals)
        assert arrivals[0] > 0

    def test_fits_context(self):
        trace = synthetic_trace(TINY_MODEL, 32, prompt_len=(1, 200),
                                decode_len=(1, 200), seed=1)
        for r in trace:
            assert len(r.prompt) + r.max_new_tokens <= TINY_MODEL.max_context

    def test_bad_args_rejected(self):
        with pytest.raises(SimulationError):
            synthetic_trace(TINY_MODEL, 0)
        with pytest.raises(SimulationError):
            synthetic_trace(TINY_MODEL, 4, arrival_rate_rps=0)
        with pytest.raises(SimulationError):
            synthetic_trace(TINY_MODEL, 4, prompt_len=(0, 4))
