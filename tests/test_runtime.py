"""Bare-metal capacity model, inference session, and tracing."""

import hashlib

import numpy as np
import pytest

from repro.config import (
    KV260,
    LLAMA2_7B,
    TINYLLAMA_1_1B,
    TINY_MODEL,
    W4A16_KV8,
    QuantConfig,
)
from repro.core.pipeline import AttentionPipeline
from repro.errors import CapacityError, SimulationError
from repro.model.sampler import Sampler
from repro.runtime.baremetal import (
    BareMetalSystem,
    LINUX_RESERVED_BYTES,
)
from repro.runtime.session import InferenceSession
from repro.runtime.trace import Trace

#: sha256 of the tokens and ``float.hex`` cycles of
#: ``test_generate_tokens_perf_is_frozen``'s two sessions.
SESSION_GOLDEN = \
    "43c6bc65d70266e0f26e95efbab0bc51e65d390f7d11d43d01f89253cfe96744"


class TestBareMetal:
    def test_llama7b_fits_bare_metal(self):
        system = BareMetalSystem(KV260)
        assert system.fits(LLAMA2_7B, W4A16_KV8, context=1024)

    def test_llama7b_does_not_fit_under_linux(self):
        """The paper's motivating claim: no room left for an OS."""
        system = BareMetalSystem(KV260)
        assert not system.linux_would_fit(LLAMA2_7B, W4A16_KV8, context=1024)

    def test_capacity_report_matches_paper(self):
        report = BareMetalSystem(KV260).capacity_report(
            LLAMA2_7B, W4A16_KV8, 1024)
        assert report.model_utilization == pytest.approx(0.93, abs=0.01)
        assert report.kv_bytes == 264 * 1024 * 1024

    def test_max_context_exceeds_1024(self):
        """The 93.3% point leaves just enough headroom for 1024 tokens."""
        system = BareMetalSystem(KV260)
        max_ctx = system.max_context(LLAMA2_7B, W4A16_KV8)
        assert max_ctx >= 1024
        assert max_ctx < 2200  # ~540 MiB of headroom / 264 KiB per token

    def test_w8_llama7b_does_not_fit(self):
        system = BareMetalSystem(KV260)
        w8 = QuantConfig(weight_bits=8)
        assert not system.fits(LLAMA2_7B, w8, context=1024)
        with pytest.raises(CapacityError):
            system.max_context(LLAMA2_7B, w8)

    def test_tinyllama_fits_even_under_linux(self):
        system = BareMetalSystem(KV260, LINUX_RESERVED_BYTES)
        assert system.fits(TINYLLAMA_1_1B, W4A16_KV8, context=1024)

    def test_headroom_positive_when_fits(self):
        report = BareMetalSystem(KV260).capacity_report(
            LLAMA2_7B, W4A16_KV8, 1024)
        assert report.fits
        assert report.headroom_bytes > 0


class TestInferenceSession:
    def test_generate_roundtrip(self, tiny_qweights):
        session = InferenceSession(tiny_qweights, check_capacity=False)
        result = session.generate("Hi", max_new_tokens=4)
        assert result.prompt == "Hi"
        assert len(result.tokens) <= 4
        assert result.perf.tokens_per_s > 0

    def test_sampled_generation(self, tiny_qweights):
        session = InferenceSession(tiny_qweights, check_capacity=False,
                                   sampler=Sampler(temperature=0.8, seed=3))
        result = session.generate("abc", max_new_tokens=6)
        assert isinstance(result.completion, str)

    def test_overlong_prompt_rejected(self, tiny_qweights):
        session = InferenceSession(tiny_qweights, check_capacity=False)
        with pytest.raises(SimulationError):
            session.generate("x" * TINY_MODEL.max_context, 1)

    def test_capacity_check_passes_for_tiny_model(self, tiny_qweights):
        # A 117k-parameter model trivially fits the KV260.
        InferenceSession(tiny_qweights, check_capacity=True)

    def test_zero_budget_still_reports_prefill(self, tiny_qweights):
        session = InferenceSession(tiny_qweights, check_capacity=False)
        tokens, perf = session.generate_tokens([256, 1, 2], 0)
        assert tokens == []
        assert perf.ttft_s > 0  # the prompt was still prefilled

    def test_generate_tokens_perf_is_frozen(self, tiny_qweights):
        """Tokens and every prefill/decode cycle count of two sessions,
        bit for bit: one runs to its token budget, one is cut by an EOS
        sampled on its fourth token."""

        class EosOnFourth:
            def __init__(self, eos_id):
                self.eos_id = eos_id
                self.calls = 0

            def sample(self, logits):
                self.calls += 1
                return self.eos_id if self.calls == 4 \
                    else int(np.argmax(logits))

        digest = hashlib.sha256()
        for prompt, eos_cut in (([256, 72, 105, 33], False),
                                ([256, 7], True)):
            session = InferenceSession(tiny_qweights, check_capacity=False)
            if eos_cut:
                session.sampler = EosOnFourth(session.tokenizer.eos_id)
            tokens, perf = session.generate_tokens(prompt, 9)
            digest.update(repr(tokens).encode())
            digest.update(perf.prefill_cycles.hex().encode())
            digest.update(";".join(c.hex()
                                   for c in perf.decode_cycles).encode())
            assert perf.new_tokens == len(tokens)
        assert tokens[-1] == session.tokenizer.eos_id
        assert len(tokens) == 4 and len(perf.decode_cycles) == 3
        assert digest.hexdigest() == SESSION_GOLDEN

    def test_immediate_eos_has_no_decode_steps(self, tiny_qweights):
        """Intended post-EOS-fix semantics: an empty reply has TTFT but no
        decode-phase timing (the EOS token is never forwarded)."""

        class EosSampler:
            def __init__(self, eos_id):
                self.eos_id = eos_id

            def sample(self, logits):
                return self.eos_id

        session = InferenceSession(tiny_qweights, check_capacity=False)
        session.sampler = EosSampler(session.tokenizer.eos_id)
        result = session.generate("hi", max_new_tokens=4)
        assert result.tokens == []
        assert result.completion == ""
        assert result.perf.ttft_s > 0
        assert result.perf.decode_cycles == []
        with pytest.raises(SimulationError):
            _ = result.perf.tokens_per_s


class TestTrace:
    def test_from_attention_report(self):
        pipe = AttentionPipeline(LLAMA2_7B, W4A16_KV8)
        report = pipe.fused_schedule(64)
        trace = Trace.from_attention_report(report)
        assert len(trace.events) == len(report.stages) + len(report.misc)
        assert trace.span >= max(s.end for s in report.stages)

    def test_lanes(self):
        pipe = AttentionPipeline(LLAMA2_7B, W4A16_KV8)
        trace = Trace.from_attention_report(pipe.fused_schedule(16))
        assert set(trace.lanes()) == {"dense", "misc"}

    def test_render_ascii(self):
        trace = Trace()
        trace.add("alpha", 0, 10)
        trace.add("beta", 10, 5, lane="misc")
        art = trace.render(width=40)
        assert "alpha" in art and "beta" in art
        assert "#" in art and "~" in art

    def test_render_empty(self):
        assert Trace().render() == "(empty trace)"

    def test_negative_duration_rejected(self):
        with pytest.raises(SimulationError):
            Trace().add("bad", 0, -1)

    def test_render_truncates(self):
        trace = Trace()
        for i in range(50):
            trace.add(f"e{i}", i, 1)
        art = trace.render(max_events=10)
        assert "more events" in art


class TestTokenScheduleTrace:
    def test_from_token_schedule(self):
        from repro.core.scheduler import TokenScheduler

        schedule = TokenScheduler(LLAMA2_7B, W4A16_KV8).build(context=64)
        trace = Trace.from_token_schedule(schedule)
        dense = [e for e in trace.events if e.lane == "dense"]
        assert len(dense) == len(schedule.segments)
        assert trace.span == pytest.approx(schedule.total_cycles)

    def test_exposed_misc_marked(self):
        from repro.core.scheduler import TokenScheduler

        schedule = TokenScheduler(LLAMA2_7B, W4A16_KV8).build(
            context=64, mode="coarse")
        trace = Trace.from_token_schedule(schedule)
        misc = [e for e in trace.events if e.lane == "misc"]
        assert misc  # coarse mode exposes misc work
