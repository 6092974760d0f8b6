"""Whole-token decode scheduler."""

import pytest

from repro.config import GPT2_1_5B, LLAMA2_7B, TINYLLAMA_1_1B, W4A16_KV8
from repro.core.scheduler import TokenScheduler
from repro.errors import ScheduleError


@pytest.fixture(scope="module")
def sched():
    return TokenScheduler(LLAMA2_7B, W4A16_KV8)


def test_segment_inventory(sched):
    ts = sched.build(context=64)
    names = [s.name for s in ts.segments]
    assert names[0] == "embedding"
    assert "layer0.attn" in names
    assert "layer31.mlp.down" in names
    assert names[-2] == "final_norm"
    assert names[-1] == "lm_head"
    # 1 embedding + 32 x (attn + gate + up + down) + final_norm + lm_head.
    assert len(names) == 1 + 32 * 4 + 2


def test_segment_lookup(sched):
    ts = sched.build(context=16)
    assert ts.segment("lm_head").transfer_bytes > 0
    with pytest.raises(ScheduleError):
        ts.segment("nonexistent")


def test_transfer_bytes_match_traffic_model(sched):
    from repro.memory.traffic import decode_traffic

    ts = sched.build(context=100)
    traffic = decode_traffic(LLAMA2_7B, W4A16_KV8, context=100)
    assert ts.total_transfer_bytes == pytest.approx(traffic.total_bytes,
                                                    rel=0.01)


def test_fused_exposed_only_final_norm(sched):
    ts = sched.build(context=512, mode="fused")
    exposed = {s.name: s.exposed_misc_cycles for s in ts.segments
               if s.exposed_misc_cycles > 0}
    assert set(exposed) == {"final_norm"}


def test_coarse_slower_than_fused(sched):
    fused = sched.build(context=512, mode="fused").total_cycles
    coarse = sched.build(context=512, mode="coarse").total_cycles
    assert coarse > fused * 1.02


def test_cycles_grow_with_context(sched):
    assert sched.build(900).total_cycles > sched.build(100).total_cycles


def test_bad_mode_rejected(sched):
    with pytest.raises(ScheduleError):
        sched.build(context=1, mode="quantum")


def test_ungated_model_has_no_gate_segment():
    ts = TokenScheduler(GPT2_1_5B, W4A16_KV8).build(context=16)
    assert not any("gate" in s.name for s in ts.segments)


def assemble(sched, attention, mode, batch=1):
    """The per-layer reference assembly: each layer's segments from the
    public per-layer builders, layer by layer."""
    segs = []
    for layer in range(sched.model.num_layers):
        segs.append(attention(layer))
        segs.extend(sched.mlp_segments(layer, mode, batch=batch))
    return segs


@pytest.mark.parametrize("model", [LLAMA2_7B, TINYLLAMA_1_1B],
                         ids=lambda m: m.name)
@pytest.mark.parametrize("mode", ["fused", "coarse"])
@pytest.mark.parametrize("tp", [1, 2])
class TestLayerReuse:
    """``build``/``build_batched`` price one decoder layer and copy it per
    layer; every segment must equal the per-layer assembly."""

    def test_build_equals_per_layer_assembly(self, model, mode, tp):
        sched = TokenScheduler(model, W4A16_KV8, tp=tp)
        for ctx in (0, 37):
            built = sched.build(ctx, mode).segments
            assert built[1:-2] == assemble(
                sched, lambda layer: sched.attention_segment(layer, ctx, mode),
                mode)

    def test_build_batched_equals_per_layer_assembly(self, model, mode, tp):
        sched = TokenScheduler(model, W4A16_KV8, tp=tp)
        contexts, fetched = [3, 120, 400], [3, 40, 400]
        built = sched.build_batched(contexts, mode, fetched=fetched)
        assert built.segments[1:-2] == assemble(
            sched, lambda layer: sched.batched_attention_segment(
                layer, contexts, mode, fetched),
            mode, batch=len(contexts))
