"""Fused head-wise attention pipeline (Fig. 3)."""

import hashlib

import pytest

from repro.config import LLAMA2_7B, MODEL_PRESETS, TINYLLAMA_1_1B, W4A16_KV8
from repro.core.pipeline import AttentionPipeline
from repro.errors import ScheduleError


@pytest.fixture(scope="module")
def pipe():
    return AttentionPipeline(LLAMA2_7B, W4A16_KV8)


class TestFusedSchedule:
    def test_all_misc_hidden_at_paper_contexts(self, pipe):
        """The headline Fig. 3 claim: no cycle penalties."""
        for ctx in (16, 128, 512, 1023):
            report = pipe.fused_schedule(ctx)
            assert report.all_hidden(), (
                f"misc ops exposed at context {ctx}: "
                f"{[m.name for m in report.misc if not m.hidden]}"
            )
            assert report.exposed_misc_cycles == 0.0

    def test_stage_count_mha(self, pipe):
        report = pipe.fused_schedule(64)
        # 32 heads x 5 stages + o_proj.
        assert len(report.stages) == 32 * 5 + 1

    def test_stages_are_contiguous(self, pipe):
        report = pipe.fused_schedule(64)
        for prev, cur in zip(report.stages, report.stages[1:]):
            assert cur.start == pytest.approx(prev.end)

    def test_softmax_window_is_v_projection(self, pipe):
        report = pipe.fused_schedule(512)
        softmaxes = [m for m in report.misc if m.name == "softmax"]
        assert len(softmaxes) == 32
        for m in softmaxes:
            assert m.hidden
            assert m.window > 0

    def test_weight_transfer_dominates_stages(self, pipe):
        report = pipe.fused_schedule(128)
        projections = [s for s in report.stages if "proj" in s.name]
        # Decode is bandwidth-bound: every projection stage is
        # transfer-limited, not compute-limited.
        assert all(s.transfer_cycles >= s.compute_cycles
                   for s in projections)

    def test_cycles_grow_with_context(self, pipe):
        a = pipe.fused_schedule(64).total_cycles
        b = pipe.fused_schedule(512).total_cycles
        assert b > a

    def test_zero_context_works(self, pipe):
        report = pipe.fused_schedule(0)
        assert report.total_cycles > 0

    def test_negative_context_rejected(self, pipe):
        with pytest.raises(ScheduleError):
            pipe.fused_schedule(-1)


class TestCoarseSchedule:
    def test_misc_fully_exposed(self, pipe):
        report = pipe.coarse_schedule(512)
        assert report.exposed_misc_cycles == report.serialized_misc_cycles
        assert report.exposed_misc_cycles > 0

    def test_coarse_slower_than_fused(self, pipe):
        for ctx in (64, 512, 1023):
            fused = pipe.fused_schedule(ctx).total_cycles
            coarse = pipe.coarse_schedule(ctx).total_cycles
            assert coarse > fused

    def test_penalty_grows_with_context(self, pipe):
        """Softmax exposure scales with context in the coarse pipeline."""
        def penalty(ctx):
            return (pipe.coarse_schedule(ctx).total_cycles
                    / pipe.fused_schedule(ctx).total_cycles)
        assert penalty(1023) > penalty(64)

    def test_mode_dispatch(self, pipe):
        assert pipe.schedule(10, "fused").mode == "fused"
        assert pipe.schedule(10, "coarse").mode == "coarse"
        with pytest.raises(ScheduleError):
            pipe.schedule(10, "sideways")


class TestGqaSchedule:
    def test_gqa_has_fewer_kv_stages(self):
        pipe = AttentionPipeline(TINYLLAMA_1_1B, W4A16_KV8)
        report = pipe.fused_schedule(128)
        k_projs = [s for s in report.stages if s.name == "k_proj"]
        assert len(k_projs) == TINYLLAMA_1_1B.kv_heads

    def test_gqa_three_pass_softmax_exposes(self):
        # With GQA there is no per-head V-projection slice to hide behind,
        # so the three-pass softmax (3 x context) overruns its 2 x context
        # dense window — the reason the online variant matters.
        pipe = AttentionPipeline(TINYLLAMA_1_1B, W4A16_KV8)
        report = pipe.fused_schedule(512)
        exposed = [m.name for m in report.misc if not m.hidden]
        assert exposed and set(exposed) == {"softmax"}

    def test_gqa_online_softmax_hides_everything(self):
        pipe = AttentionPipeline(TINYLLAMA_1_1B, W4A16_KV8,
                                 online_softmax=True)
        assert pipe.fused_schedule(512).all_hidden()


#: sha256 over every preset's exposed-misc cycles (``float.hex``) on the
#: grid of :class:`TestContextPricingGolden`, and over the fused misc
#: placements at its power-of-two contexts — recorded from the schedule
#: builders before the fused arithmetic moved into one timeline.
EXPOSED_GOLDEN = \
    "6b7665bd754daf40c00102e17ed8ec0b08448f181fa0788c2a1eb04fead6290c"
PLACEMENTS_GOLDEN = \
    "131511c200314cf0b2231b667d5142b298ecd718dd425070dcd33c9e5ae9c40c"


class TestContextPricingGolden:
    """``exposed_misc_cycles`` prices a context without building a
    report; it must equal the report's own sum to the bit, for every
    preset (GQA included), TP degree and mode, and neither may drift
    from the pre-timeline schedule builders."""

    def test_pricing_matches_schedule_bitwise(self):
        exposed = hashlib.sha256()
        placements = hashlib.sha256()
        for name, model in sorted(MODEL_PRESETS.items()):
            powers = {1 << k for k in range(model.max_context.bit_length())}
            contexts = sorted(set(range(601)) | powers
                              | {model.max_context - 1})
            for tp in (1, 2, 4):
                try:
                    pipe = AttentionPipeline(model, W4A16_KV8, tp=tp)
                except ScheduleError:
                    continue  # heads or hidden do not split tp ways
                for mode in ("fused", "coarse"):
                    for ctx in contexts:
                        report = pipe.schedule(ctx, mode)
                        priced = pipe.exposed_misc_cycles(ctx, mode)
                        assert priced.hex() \
                            == report.exposed_misc_cycles.hex(), \
                            (name, tp, mode, ctx)
                        exposed.update(f"{name}/{tp}/{mode}/{ctx}:"
                                       f"{priced.hex()};".encode())
                        if mode == "fused" and ctx in powers:
                            placements.update(repr([
                                (p.name, p.cycles, p.window_start,
                                 p.window_end)
                                for p in report.misc]).encode())
        assert exposed.hexdigest() == EXPOSED_GOLDEN
        assert placements.hexdigest() == PLACEMENTS_GOLDEN

    def test_unknown_mode_rejected(self, pipe):
        with pytest.raises(ScheduleError):
            pipe.exposed_misc_cycles(8, "sideways")
