"""Batched serving throughput: the perf trajectory for future PRs.

Four artifacts: the throughput-vs-batch curve of the batched cycle
model (weight-stream amortization on LLaMA2-7B), a full continuous-
batching trace replay on the cycle-model backend recording aggregate
tokens/s, TTFT, and tail latency, the slotted-vs-paged KV comparison
on a shared-prefix trace (the paging win: a strictly larger admitted
batch and higher throughput from the same DRAM budget), and the
TP x DP multi-accelerator scaling curve (tensor parallelism divides
the per-step weight stream sub-linearly — the interconnect model
charges the gap — while replicas split the queue near-linearly).
Records go to ``benchmarks/results/`` so every later PR can diff
against them.
"""

import dataclasses

import pytest

from repro.cluster import TEN_GIG_ETHERNET, scaling_sweep, tp_scaling_is_sane
from repro.config import KV260, LLAMA2_7B, TINY_MODEL, W4A16_KV8, QuantConfig
from repro.core.cyclemodel import CycleModel
from repro.report.cluster import scaling_table
from repro.scenario import Scenario


def _render_curve(points) -> str:
    lines = ["Batched decode — LLaMA2-7B W4A16/KV8 on KV260 @ctx 512",
             "  batch   agg tok/s   per-seq   speedup"]
    single = points[0].aggregate_tokens_per_s
    for p in points:
        lines.append(f"  {p.batch:5d}   {p.aggregate_tokens_per_s:9.3f}"
                     f"   {p.per_sequence_tokens_per_s:7.3f}"
                     f"   {p.aggregate_tokens_per_s / single:6.2f}x")
    return "\n".join(lines)


def bench_batch_amortization_curve(benchmark, save_result):
    cm = CycleModel(LLAMA2_7B, W4A16_KV8, KV260)
    batches = [1, 2, 4, 8, 16]
    points = benchmark(cm.batch_sweep, batches, 512)
    save_result("serving_batch_curve", _render_curve(points))

    single = points[0].aggregate_tokens_per_s
    assert single == pytest.approx(5.1, abs=0.15)
    # Acceptance: aggregate rate strictly above single-batch from batch 2 on.
    for p in points[1:]:
        assert p.aggregate_tokens_per_s > single


def bench_continuous_batching_trace(benchmark, save_result):
    """Replay a 24-request synthetic trace through the engine."""
    scenario = Scenario(model=TINY_MODEL,
                        quant=QuantConfig(weight_group_size=32),
                        requests=24, arrival_rate=1e6, prompt_len=(4, 12),
                        decode_len=(8, 24), seed=11)
    report = benchmark.pedantic(scenario.serve, rounds=3, iterations=1)
    serial = dataclasses.replace(scenario, max_batch=1).serve()
    text = "\n".join([
        "Continuous batching — 24 requests, tiny-test on KV260, batch <= 8",
        f"  aggregate  : {report.aggregate_tokens_per_s:12.1f} token/s"
        f"  (serial engine: {serial.aggregate_tokens_per_s:.1f})",
        f"  mean batch : {report.mean_batch:12.2f}",
        f"  max batch  : {report.max_batch_observed:12d}",
        f"  mean TTFT  : {report.mean_ttft_s * 1e3:12.3f} ms",
        f"  p50 lat    : {report.latency_percentile_s(50) * 1e3:12.3f} ms",
        f"  p99 lat    : {report.latency_percentile_s(99) * 1e3:12.3f} ms",
        f"  preemptions: {report.preemptions:12d}",
    ])
    save_result("serving_trace_replay", text)

    assert len(report.results) == 24
    assert report.max_batch_observed == 8
    # Batched serving must beat the same trace served one request at a time.
    assert report.aggregate_tokens_per_s > serial.aggregate_tokens_per_s


def bench_kv_paging_vs_slotted(benchmark, save_result):
    """Slotted vs paged KV on one shared-prefix trace, equal DRAM budget.

    The budget is deliberately tight (256 KV tokens) so admission — not
    ``max_batch`` — limits concurrency: slotted charges every request
    its full worst-case prompt, paged charges the shared system prompt
    once, so it must sustain a strictly larger batch *and* more
    throughput.  This is the trajectory record for the paging win.
    """
    budget_tokens = 256
    scenario = Scenario(model=TINY_MODEL,
                        quant=QuantConfig(weight_group_size=32),
                        max_batch=16, kv_budget=budget_tokens,
                        block_size=16, requests=24, arrival_rate=1e9,
                        prompt_len=(2, 6), decode_len=(8, 16), seed=23,
                        shared_prefix=32)

    def serve(kv_mode):
        deployment = dataclasses.replace(scenario, kv=kv_mode).build()
        return deployment.serve(), deployment.backends[0]

    slotted, _ = serve("slotted")
    (paged, paged_backend) = benchmark.pedantic(
        serve, args=("paged",), rounds=3, iterations=1)

    lines = [
        "KV disciplines — 24 requests, 32-token shared prefix, "
        f"{budget_tokens}-token budget, tiny-test on KV260",
        "  mode      agg tok/s   mean batch  max batch  preempt",
    ]
    for name, rep in (("slotted", slotted), ("paged", paged)):
        lines.append(f"  {name:8}  {rep.aggregate_tokens_per_s:9.1f}"
                     f"   {rep.mean_batch:10.2f}"
                     f"   {rep.max_batch_observed:8d}"
                     f"   {rep.preemptions:7d}")
    lines.append(f"  prefix reuse: "
                 f"{paged_backend.paged_kv.prefix_reused_tokens} prompt "
                 f"tokens served from resident blocks")
    save_result("serving_kv_modes", "\n".join(lines))

    assert len(slotted.results) == len(paged.results) == 24
    # Acceptance: paged KV sustains a strictly larger admitted batch and
    # strictly more aggregate throughput than slotted on this trace.
    assert paged.max_batch_observed > slotted.max_batch_observed
    assert paged.aggregate_tokens_per_s > slotted.aggregate_tokens_per_s


def bench_tp_dp_scaling_curve(benchmark, save_result):
    """TP x DP grid replay on LLaMA2-7B over 10GbE: the cluster record.

    One 10-request trace hits every (tp, replicas) point in
    {1,2,4} x {1,2}; acceptance is the paper's natural follow-on shape:
    aggregate throughput strictly rises with TP but stays sub-linear
    (the interconnect's all-reduce time is the gap), and replicas
    multiply it again near-linearly.
    """
    points = benchmark.pedantic(
        scaling_sweep, args=(LLAMA2_7B, W4A16_KV8, KV260),
        kwargs=dict(tp_values=(1, 2, 4), dp_values=(1, 2),
                    interconnect=TEN_GIG_ETHERNET, n_requests=10,
                    max_batch=8, seed=0),
        rounds=1, iterations=1)
    _, table = scaling_table(points)
    header = ("TP x DP scaling — LLaMA2-7B W4A16/KV8 on KV260 boards, "
              "10GbE ring interconnect, 10-request trace")
    save_result("serving_tp_scaling", header + "\n" + table)

    by_grid = {(p.tp, p.replicas): p for p in points}
    base = by_grid[(1, 1)].aggregate_tokens_per_s
    # TP scaling: strictly increasing, sub-linear, interconnect-gapped.
    assert tp_scaling_is_sane(points)
    assert by_grid[(4, 1)].aggregate_tokens_per_s > 3 * base
    assert by_grid[(4, 1)].aggregate_tokens_per_s < 4 * base
    # DP scaling: two replicas roughly double every TP point.
    for tp in (1, 2, 4):
        ratio = by_grid[(tp, 2)].aggregate_tokens_per_s \
            / by_grid[(tp, 1)].aggregate_tokens_per_s
        assert 1.5 < ratio <= 2.1
