"""Cycle model: the paper's headline decode numbers."""

import pytest

from repro.config import (
    KV260,
    LLAMA2_7B,
    RASPBERRY_PI_4B,
    TINYLLAMA_1_1B,
    W4A16_KV8,
)
from repro.core.cyclemodel import CycleModel
from repro.errors import SimulationError


@pytest.fixture(scope="module")
def cm():
    return CycleModel(LLAMA2_7B, W4A16_KV8, KV260)


class TestHeadlineNumbers:
    def test_decode_speed_at_full_context(self, cm):
        """Paper: ~4.9 token/s."""
        step = cm.decode_step(1023, "fused")
        assert step.tokens_per_s == pytest.approx(4.9, abs=0.15)

    def test_utilization_at_full_context(self, cm):
        """Paper: 84.5% of the bandwidth-bound ceiling."""
        step = cm.decode_step(1023, "fused")
        assert step.utilization == pytest.approx(0.845, abs=0.02)

    def test_decode_speed_around_5(self, cm):
        """Paper abstract: 'around 5 token/s'."""
        for ctx in (128, 512, 1023):
            assert 4.7 < cm.decode_step(ctx).tokens_per_s < 5.4

    def test_utilization_above_80_everywhere(self, cm):
        for ctx in (0, 256, 512, 1023):
            assert cm.decode_step(ctx).utilization > 0.80


class TestModelBehaviour:
    def test_speed_decreases_with_context(self, cm):
        sweep = cm.context_sweep([0, 256, 512, 1023])
        rates = [s.tokens_per_s for s in sweep]
        assert all(a > b for a, b in zip(rates, rates[1:]))

    def test_coarse_mode_slower(self, cm):
        fused = cm.decode_step(512, "fused")
        coarse = cm.decode_step(512, "coarse")
        assert coarse.tokens_per_s < fused.tokens_per_s
        assert coarse.exposed_misc_cycles > fused.exposed_misc_cycles

    def test_average_decode_between_extremes(self, cm):
        avg = cm.average_decode(prompt_len=16, n_tokens=64)
        lo = cm.decode_step(79).tokens_per_s
        hi = cm.decode_step(16).tokens_per_s
        assert lo <= avg.tokens_per_s <= hi

    def test_prefill_scales_with_prompt(self, cm):
        # The simple DOT engine restreams weights per prompt token.
        one = cm.prefill_cycles(1)
        four = cm.prefill_cycles(4)
        assert four == pytest.approx(4 * one, rel=0.02)

    def test_average_rejects_zero_tokens(self, cm):
        with pytest.raises(SimulationError):
            cm.average_decode(0, 0)

    def test_tinyllama_utilization_lower_than_7b(self, cm):
        """Smaller weight streams amortize overheads worse."""
        tiny = CycleModel(TINYLLAMA_1_1B, W4A16_KV8, KV260)
        assert tiny.decode_step(512).utilization < \
            cm.decode_step(512).utilization

    def test_non_fpga_platform_rejected(self):
        with pytest.raises(SimulationError):
            CycleModel(LLAMA2_7B, W4A16_KV8, RASPBERRY_PI_4B)

    def test_transfer_bytes_reported(self, cm):
        step = cm.decode_step(512)
        assert 3.4e9 < step.transfer_bytes < 3.8e9


class TestBitIdentityGoldens:
    """Exact ``float.hex`` cycle counts recorded before the cycle model
    memoized its DRAM streams and reused one priced decoder layer for
    all of them.  Those are pure accelerations: any change to a value
    here is a change to the simulated board, not a refactor."""

    @pytest.mark.parametrize("mode,ctx,want", [
        ("fused", 0, "0x1.af94df6b70be6p+25"),
        ("fused", 17, "0x1.b05e0dd8350e4p+25"),
        ("fused", 1023, "0x1.d24287e02a71cp+25"),
        ("coarse", 0, "0x1.ba4dd0a9c849dp+25"),
        ("coarse", 17, "0x1.bb7cff168c99dp+25"),
        ("coarse", 1023, "0x1.f4f5791e81fdap+25"),
    ])
    def test_token_schedule(self, cm, mode, ctx, want):
        assert cm.token_schedule(ctx, mode).total_cycles.hex() == want

    def test_prefill(self, cm):
        assert cm.prefill_cycles(40, start=16).hex() \
            == "0x1.44889a4ceec18p+30"

    @pytest.mark.parametrize("tp,want", [
        (1, "0x1.31550d9539094p+27"),
        (2, "0x1.315b4d91e81fdp+26"),
    ])
    def test_batched_decode_step(self, tp, want):
        cm = CycleModel(LLAMA2_7B, W4A16_KV8, KV260, tp=tp)
        step = cm.batched_decode_step([5, 300, 1023], fetched=[5, 100, 1023])
        assert step.cycles.hex() == want
