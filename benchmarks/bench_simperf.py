"""Simulator-performance trajectory: how fast the simulator itself runs.

Every other benchmark in this directory measures the *modeled* hardware;
this one measures the wall-clock cost of running the models.  Each
section but the last times an optimized path against the
pre-optimization baseline kept in-tree for exactly this purpose (and
for the bit-exactness tests):

* functional decode — ``QuantizedModel.forward_batch`` (stacked
  matmuls, batched attention kernels, vectorized KV gathers) vs the
  scalar per-token reference ``forward_token_reference`` at batch 1, 8,
  and 16;
* functional prefill — all prompt positions per layer as one matmul vs
  the sequential scalar path;
* timing-backend sweeps — a 1k-request continuous-batching run on the
  cycle-model and analytical backends with memoized step costs plus the
  scheduler's fast-forward windows, vs ``reference_costs=True`` with
  the step-by-step loop (the pre-optimization cost path, still the
  oracle of the differential tests).  That baseline shares the cycle
  model's own memoized DRAM streams and once-priced decoder layer, so
  the 1k cycle-model speedup measured 69x before they landed and 23x
  after (2-core Xeon container), still above the 10x floor;
* sweep scale — streamed traces + run-length telemetry (the PR 5
  O(state-changes) path) vs the PR 4 pipeline (materialized trace,
  ``telemetry="full"``) at 10k/100k requests, a million-request
  streamed summary sweep, and tracemalloc peak-heap rows showing the
  windowed footprint stays flat while decoded tokens double.
  ``SIMPERF_SWEEP=smoke`` scales the points down to the CI budget;
* long decode — event-horizon fast-forward on a retirement-dominated
  paged-KV trace: bursts of 16 long decodes drained to empty before
  the next burst lands.  Every retirement and block frontier folds
  into the segments of one window per burst, so the recorded window
  count is O(admissions), not O(requests).  PR 6 measured this path
  3.3x faster than the single-segment windows it replaced (since
  deleted); that comparison stays in the committed record's
  ``single_*`` fields.

Results go to ``BENCH_simperf.json`` at the repo root (machine-readable
trajectory for later PRs to diff) and ``benchmarks/results/simperf.txt``.
The assertions double as the CI smoke budget: optimized wall times and
minimum speedups that fail loudly on regression.  Speedup floors are set
well under the recorded values to absorb shared-runner noise.

All timed pairs compute bit-identical results — that is pinned by
``tests/test_batched_kernels.py`` and ``tests/test_backend_equivalence.py``,
not here.
"""

from __future__ import annotations

import json
import os
import pathlib
import time
import tracemalloc

import numpy as np

from repro.config import SMALL_MODEL, TINY_MODEL, QuantConfig
from repro.engine import (
    AnalyticalBackend,
    ContinuousBatchScheduler,
    CycleModelBackend,
    Request,
    iter_synthetic_trace,
    synthetic_trace,
)
from repro.model.kvcache import SlottedKVCache
from repro.model.quantized import QuantizedModel
from repro.model.weights import quantize_model, random_weights

REPO_ROOT = pathlib.Path(__file__).parent.parent
RECORD_PATH = REPO_ROOT / "BENCH_simperf.json"

QUANT = QuantConfig(weight_group_size=32)
DECODE_CONTEXT = 96
DECODE_BATCHES = (1, 8, 16)
SWEEP_REQUESTS = 1000

#: ``full`` reproduces the committed record (10k / 100k / 1M points,
#: several minutes of wall time); ``smoke`` is the CI budget subset
#: with scaled-down points and the same floor assertions.
SWEEP_SCALE_MODE = os.environ.get("SIMPERF_SWEEP", "full")

#: accumulated section results, written by bench_write_record (last in
#: file, so pytest runs it after every measuring bench).
RECORD: dict = {"schema": "simperf-v4", "sections": {}}


def _model(config=SMALL_MODEL) -> QuantizedModel:
    return QuantizedModel(quantize_model(random_weights(config, seed=7),
                                         QUANT))


def _prefilled_views(model, batch: int, context: int):
    slots = SlottedKVCache(model.config, batch, QUANT.kv_bits)
    prompt = [1 + (i % (model.config.vocab_size - 2))
              for i in range(context)]
    views = []
    for _ in range(batch):
        slot = slots.allocate()
        model.prefill(prompt, slots.view(slot))
        views.append(slots.view(slot))
    return views


def bench_functional_decode(save_result):
    """Batched decode vs the scalar per-sequence reference path."""
    model = _model()
    rows = []
    for batch in DECODE_BATCHES:
        views = _prefilled_views(model, batch, DECODE_CONTEXT)
        ref_views = _prefilled_views(model, batch, DECODE_CONTEXT)
        tokens = [10 + i for i in range(batch)]

        steps = 3 if batch >= 8 else 4
        start = time.perf_counter()
        for j in range(steps):
            for i in range(batch):
                model.forward_token_reference(tokens[i], ref_views[i],
                                              DECODE_CONTEXT + j)
        baseline_ms = (time.perf_counter() - start) / steps * 1e3

        steps = 8
        start = time.perf_counter()
        for j in range(steps):
            model.forward_batch(tokens, views,
                                [DECODE_CONTEXT + j] * batch)
        optimized_ms = (time.perf_counter() - start) / steps * 1e3

        rows.append({"batch": batch, "context": DECODE_CONTEXT,
                     "baseline_ms_per_step": round(baseline_ms, 2),
                     "optimized_ms_per_step": round(optimized_ms, 2),
                     "speedup": round(baseline_ms / optimized_ms, 2)})
    RECORD["sections"]["functional_decode"] = {
        "model": model.config.name, "rows": rows}
    # Smoke budget: the batched path must stay fast and clearly ahead.
    headline = rows[-1]
    assert headline["optimized_ms_per_step"] < 500
    assert headline["speedup"] >= 4.0
    save_result("simperf_decode", json.dumps(rows, indent=2))


def bench_functional_prefill(save_result):
    """Whole-prompt-per-layer prefill vs sequential scalar forwards."""
    model = _model()
    prompt = list(range(1, DECODE_CONTEXT + 1))

    from repro.model.kvcache import QuantizedKVCache

    start = time.perf_counter()
    cache = QuantizedKVCache(model.config, QUANT.kv_bits)
    for pos, tok in enumerate(prompt):
        model.forward_token_reference(tok, cache, pos)
    baseline_ms = (time.perf_counter() - start) * 1e3

    start = time.perf_counter()
    model.prefill(prompt)
    optimized_ms = (time.perf_counter() - start) * 1e3

    section = {"model": model.config.name, "prompt_len": len(prompt),
               "baseline_ms": round(baseline_ms, 1),
               "optimized_ms": round(optimized_ms, 1),
               "speedup": round(baseline_ms / optimized_ms, 2)}
    RECORD["sections"]["functional_prefill"] = section
    assert section["speedup"] >= 2.0
    save_result("simperf_prefill", json.dumps(section, indent=2))


def _sweep(backend_cls, n_requests: int, reference: bool) -> dict:
    trace = synthetic_trace(TINY_MODEL, n_requests,
                            arrival_rate_rps=2000.0, seed=5,
                            prompt_len=(4, 16), decode_len=(8, 48))
    backend = backend_cls(TINY_MODEL, QUANT, n_slots=16,
                          reference_costs=reference)
    engine = ContinuousBatchScheduler(backend, max_batch=16,
                                      fast_forward=not reference)
    start = time.perf_counter()
    report = engine.run(trace)
    wall_s = time.perf_counter() - start
    return {"wall_s": round(wall_s, 3), "n_steps": report.n_steps,
            "total_time_s": report.total_time_s}


def bench_timing_backend_sweeps(save_result):
    """1k-request serving sweeps: memoized + fast-forwarded vs the
    original schedule/traffic builders stepped one by one."""
    rows = {}
    for name, cls in (("cycle", CycleModelBackend),
                      ("analytical", AnalyticalBackend)):
        baseline = _sweep(cls, SWEEP_REQUESTS, reference=True)
        optimized = _sweep(cls, SWEEP_REQUESTS, reference=False)
        # Same trace, same scheduler: the simulated outcome is identical
        # (the equivalence tests pin it bitwise); only wall time moves.
        assert baseline["n_steps"] == optimized["n_steps"]
        rows[name] = {
            "n_requests": SWEEP_REQUESTS,
            "n_steps": optimized["n_steps"],
            "baseline_wall_s": baseline["wall_s"],
            "optimized_wall_s": optimized["wall_s"],
            "speedup": round(baseline["wall_s"] / optimized["wall_s"], 1),
        }
    RECORD["sections"]["timing_sweeps"] = {"model": TINY_MODEL.name,
                                           "rows": rows}
    # Smoke budgets: the optimized 1k-request sweep must stay cheap and
    # the cycle-model path decisively faster than the full builders.
    assert rows["cycle"]["optimized_wall_s"] < 20.0
    assert rows["cycle"]["speedup"] >= 10.0
    assert rows["analytical"]["speedup"] >= 1.2
    save_result("simperf_sweeps", json.dumps(rows, indent=2))


SCALE_TRACE = dict(arrival_rate_rps=2000.0, seed=5, prompt_len=(4, 16))
SCALE_DECODE = (8, 48)


_SUBPROCESS_SWEEP = """
import json, resource, sys, time
from repro.config import TINY_MODEL, QuantConfig
from repro.engine import (ContinuousBatchScheduler, CycleModelBackend,
                          iter_synthetic_trace)

params = json.loads(sys.argv[1])
n, telemetry = params.pop("n_requests"), params.pop("telemetry")
quant = QuantConfig(weight_group_size=params.pop("weight_group_size"))
params["prompt_len"] = tuple(params["prompt_len"])
params["decode_len"] = tuple(params["decode_len"])
backend = CycleModelBackend(TINY_MODEL, quant, n_slots=16)
engine = ContinuousBatchScheduler(backend, max_batch=16)
start = time.perf_counter()
report = engine.run(iter_synthetic_trace(TINY_MODEL, n, **params),
                    max_steps=1_000_000_000, telemetry=telemetry)
wall_s = time.perf_counter() - start
row = {
    "n_requests": n, "telemetry": telemetry, "streamed": True,
    "wall_s": round(wall_s, 2), "n_steps": report.n_steps,
    "total_new_tokens": report.total_new_tokens,
    "p99_token_lat_ms": round(report.latency_percentile_s(99) * 1e3, 4),
    "peak_rss_mb": round(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
}
if telemetry == "windows":
    records = report.recorders[0].records
    row["records_mb"] = round(records.n_bytes / 1e6, 1)
    row["n_windows"] = records.n_windows
elif telemetry == "sketch":
    row["n_centroids"] = report.latency_digest().n_centroids
print(json.dumps(row))
"""


def _scale_run_subprocess(n_requests: int, telemetry: str) -> dict:
    """The streamed sweep in a fresh interpreter, so the recorded wall
    and peak RSS belong to this run alone (the parent process carries
    the eager baselines' retained heap).  The workload ships as argv
    from the same SCALE_TRACE/QUANT the in-process rows use."""
    import subprocess
    import sys

    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    params = dict(SCALE_TRACE, n_requests=n_requests, telemetry=telemetry,
                  decode_len=SCALE_DECODE,
                  weight_group_size=QUANT.weight_group_size)
    out = subprocess.run(
        [sys.executable, "-c", _SUBPROCESS_SWEEP, json.dumps(params)],
        check=True, capture_output=True, text=True, env=env)
    return json.loads(out.stdout)


def _scale_run(n_requests: int, telemetry: str, stream: bool,
               decode_len=SCALE_DECODE,
               measure_memory: bool = False) -> dict:
    """One end-to-end sweep: trace generation + engine run, timed as a
    whole (the baseline pays list materialization, the streamed path
    pays lazy generation — each its own real cost)."""
    backend = CycleModelBackend(TINY_MODEL, QUANT, n_slots=16)
    engine = ContinuousBatchScheduler(backend, max_batch=16)
    if measure_memory:
        tracemalloc.start()
    start = time.perf_counter()
    requests = iter_synthetic_trace(TINY_MODEL, n_requests,
                                    decode_len=decode_len,
                                    **SCALE_TRACE) if stream \
        else synthetic_trace(TINY_MODEL, n_requests,
                             decode_len=decode_len, **SCALE_TRACE)
    report = engine.run(requests, max_steps=1_000_000_000,
                        telemetry=telemetry)
    wall_s = time.perf_counter() - start
    row = {"n_requests": n_requests, "telemetry": telemetry,
           "streamed": stream, "wall_s": round(wall_s, 2),
           "n_steps": report.n_steps,
           "total_new_tokens": report.total_new_tokens,
           "p99_token_lat_ms": round(
               report.latency_percentile_s(99) * 1e3, 4)}
    if measure_memory:
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        row["peak_heap_mb"] = round(peak / 1e6, 1)
    return row


def bench_sweep_scale(save_result):
    """Streaming million-request sweeps vs the PR 4-shaped path.

    The baseline is the pre-PR 5 serving pipeline's *representation*:
    materialized trace, up-front submission, ``telemetry="full"``
    per-step recording (that path is still the differential oracle).
    The optimized path streams the trace incrementally and records
    run-length windows — O(scheduler state changes) instead of O(total
    decoded tokens) — with every expanded observable pinned
    bit-identical by tests/test_telemetry_equivalence.py.

    Note on the trajectory rebase: PR 6 replaced the materialized
    path's O(waiting) idle-jump arrival scan with an O(1) sorted-head
    read, which sped the *baseline itself* ~4-6x at scale (the PR 5
    record's 100k baseline was dominated by that quadratic scan).
    Both sides now share the fix, so from PR 6 on this pair isolates
    the telemetry + streaming gains and the recorded speedups rebase
    accordingly; earlier records are not comparable.
    """
    smoke = SWEEP_SCALE_MODE == "smoke"
    pair_points = (10_000, 30_000) if smoke else (10_000, 100_000)
    stream_point = 150_000 if smoke else 1_000_000

    pairs = []
    for n in pair_points:
        # Best of two on BOTH sides of the big pair: min-of-repeats
        # strips scheduler noise symmetrically (smoke keeps single
        # shots for the CI budget).
        repeats = 1 if smoke or n != pair_points[-1] else 2
        baseline = min((_scale_run(n, "full", stream=False)
                        for _ in range(repeats)),
                       key=lambda r: r["wall_s"])
        windows = min((_scale_run(n, "windows", stream=True)
                       for _ in range(repeats)),
                      key=lambda r: r["wall_s"])
        assert baseline["n_steps"] == windows["n_steps"]
        assert baseline["total_new_tokens"] == windows["total_new_tokens"]
        assert baseline["p99_token_lat_ms"] == windows["p99_token_lat_ms"]
        pairs.append({
            "n_requests": n,
            "baseline_wall_s": baseline["wall_s"],
            "windows_wall_s": windows["wall_s"],
            "speedup": round(baseline["wall_s"] / windows["wall_s"], 1),
            "n_steps": windows["n_steps"],
            "total_new_tokens": windows["total_new_tokens"],
        })

    # Memory: same request count, decoded tokens nearly doubled — the
    # windowed telemetry's footprint must not follow the tokens.
    mem_n = 10_000 if smoke else 20_000
    memory = {}
    for telemetry, stream in (("full", False), ("windows", True)):
        rows = [_scale_run(mem_n, telemetry, stream, decode_len=dec,
                           measure_memory=True)
                for dec in ((8, 48), (32, 192))]
        memory[telemetry] = [
            {"n_requests": mem_n, "decode_len": list(dec),
             "total_new_tokens": r["total_new_tokens"],
             "peak_heap_mb": r["peak_heap_mb"]}
            for dec, r in zip(((8, 48), (32, 192)), rows)]

    # The headline streamed point runs in a FRESH subprocess: in-process
    # RSS would carry the eager baselines' retained heap (glibc keeps
    # freed arenas resident), and tracemalloc would inflate wall ~6x.
    # A child process gives the run its own wall clock and its own RSS
    # high-water.
    streamed = _scale_run_subprocess(stream_point, "summary")
    heap_point = 40_000 if smoke else 100_000
    streamed_heap = _scale_run(heap_point, "summary", stream=True,
                               measure_memory=True)

    section = {
        "model": TINY_MODEL.name,
        "mode": SWEEP_SCALE_MODE,
        "baseline": "PR 4 path: materialized trace + telemetry='full' "
                    "fast-forward (still the differential oracle)",
        "pairs": pairs,
        "memory": memory,
        "streamed": streamed,
        "streamed_heap": streamed_heap,
    }
    RECORD["sections"]["sweep_scale"] = section

    # CI floors — wall-clock, speedup, and memory.  Floors sit well
    # under the recorded values to absorb shared-runner noise; the
    # committed record (mode=full) is the trajectory of record.
    big = pairs[-1]
    if smoke:
        # Rebased floors (see the docstring): the baseline shares the
        # PR 6 O(1) idle jump, so the pair measures telemetry +
        # streaming only (recorded ~1.4x at 30k).
        assert big["speedup"] >= 1.15, big
        assert big["windows_wall_s"] < 30.0, big
        assert streamed["wall_s"] < 90.0, streamed
        assert streamed_heap["peak_heap_mb"] < 150.0, streamed_heap
    else:
        assert big["n_requests"] >= 100_000
        assert big["speedup"] >= 1.2, big
        assert big["windows_wall_s"] < 60.0, big
        assert streamed["n_requests"] == 1_000_000
        assert streamed["wall_s"] < 500.0, streamed
        # Whole fresh process, including the end-of-run percentile
        # query's transient sort over ~18M latency runs.
        assert streamed["peak_rss_mb"] < 1200.0, streamed
        assert streamed_heap["peak_heap_mb"] < 250.0, streamed_heap
    # Sub-linear memory in decoded tokens: near-doubling the tokens at
    # fixed request count must not grow the windowed footprint by more
    # than a sliver, while the eager footprint tracks the per-token
    # lists it materializes.
    win_lo, win_hi = memory["windows"]
    token_ratio = win_hi["total_new_tokens"] / win_lo["total_new_tokens"]
    assert token_ratio > 1.5
    assert win_hi["peak_heap_mb"] <= win_lo["peak_heap_mb"] * 1.25, memory
    full_lo = memory["full"][0]
    assert win_lo["peak_heap_mb"] < full_lo["peak_heap_mb"] / 2, memory
    save_result("simperf_sweep_scale", json.dumps(section, indent=2))


def bench_windows_scale(save_result):
    """PR 8 columnar telemetry at the million-request scale.

    Three fresh-subprocess runs of the same streamed sweep, one per
    streaming telemetry level:

    * ``summary`` — the PR 5 yardstick (exact run-length percentiles,
      no step records); its peak RSS is the memory baseline.
    * ``windows`` — the columnar step store.  The acceptance bar is
      peak RSS within 1.5x of the summary run, while keeping every
      window (bit-identical expansion is pinned by
      tests/test_telemetry_equivalence.py; this bench re-checks the
      cheap observables across the levels).
    * ``sketch`` — the t-digest level: the run-length latency sample is
      dropped entirely, so percentiles are approximate (within the
      digest's documented rank-error bound) and memory must not exceed
      the summary run's.
    """
    smoke = SWEEP_SCALE_MODE == "smoke"
    n = 150_000 if smoke else 1_000_000
    summary = _scale_run_subprocess(n, "summary")
    windows = _scale_run_subprocess(n, "windows")
    sketch = _scale_run_subprocess(n, "sketch")

    # One simulated outcome across the levels: exact aggregates agree
    # everywhere, the exact-percentile levels agree on p99, and the
    # sketch lands near it (the rank-error bound; 10% value slack is
    # orders of magnitude above what the digest actually needs).
    for row in (windows, sketch):
        assert row["n_steps"] == summary["n_steps"], (row, summary)
        assert row["total_new_tokens"] == summary["total_new_tokens"]
    assert windows["p99_token_lat_ms"] == summary["p99_token_lat_ms"]
    assert abs(sketch["p99_token_lat_ms"] - summary["p99_token_lat_ms"]) \
        <= 0.1 * summary["p99_token_lat_ms"], (sketch, summary)

    rss_ratio = round(windows["peak_rss_mb"] / summary["peak_rss_mb"], 3)
    section = {
        "model": TINY_MODEL.name,
        "mode": SWEEP_SCALE_MODE,
        "summary": summary,
        "windows": windows,
        "sketch": sketch,
        "windows_rss_ratio": rss_ratio,
    }
    RECORD["sections"]["windows_scale"] = section

    # CI floors.  The RSS ratio is the PR 8 acceptance bar; wall floors
    # sit well over the recorded values for shared-runner noise.
    assert rss_ratio <= 1.5, section
    assert sketch["peak_rss_mb"] <= summary["peak_rss_mb"] * 1.1, section
    assert sketch["n_centroids"] <= 1100, section
    if smoke:
        assert windows["wall_s"] < 120.0, section
    else:
        assert windows["wall_s"] < 600.0, section
    save_result("simperf_windows_scale", json.dumps(section, indent=2))


LONG_DECODE_BURST = 16


def _long_decode_trace(n_requests: int) -> list:
    """Retirement-dominated serving: bursts of 16 long decodes arriving
    together, fully drained before the next burst lands.  Fourteen
    lanes run 48 new tokens, two run 56, so every burst retires at two
    predicted LENGTH horizons and crosses six block frontiers per
    sequence — exactly the events the event horizon folds instead of
    breaking a window at."""
    rng = np.random.default_rng(11)
    prompts = rng.integers(1, TINY_MODEL.vocab_size - 1,
                           size=(n_requests, 3))
    return [Request(i, tuple(int(t) for t in prompts[i]),
                    max_new_tokens=56 if i % LONG_DECODE_BURST >= 14
                    else 48,
                    arrival_s=(i // LONG_DECODE_BURST) * 10.0)
            for i in range(n_requests)]


def bench_long_decode(save_result):
    """Event-horizon windows on a long-decode paged-KV sweep (100k
    requests; smoke scales down)."""
    smoke = SWEEP_SCALE_MODE == "smoke"
    n = 8_000 if smoke else 100_000
    trace = _long_decode_trace(n)
    backend = CycleModelBackend(TINY_MODEL, QUANT,
                                n_slots=LONG_DECODE_BURST,
                                kv_mode="paged", block_size=8,
                                n_kv_blocks=LONG_DECODE_BURST * 8)
    engine = ContinuousBatchScheduler(backend, max_batch=LONG_DECODE_BURST)
    start = time.perf_counter()
    report = engine.run(trace, max_steps=1_000_000_000,
                        telemetry="summary")
    wall_s = round(time.perf_counter() - start, 2)
    stats = report.window_stats

    section = {
        "model": TINY_MODEL.name,
        "mode": SWEEP_SCALE_MODE,
        "kv_mode": "paged",
        "n_requests": n,
        "n_steps": report.n_steps,
        "wall_s": wall_s,
        "windows": stats["n_windows"],
        "segments": stats["n_segments"],
        "folded_retirements": stats["folded_retirements"],
        "breaks": {k: v for k, v in stats["breaks"].items() if v},
    }
    RECORD["sections"]["long_decode"] = section

    # CI floors: one window per burst admission — every retirement and
    # block frontier folds into its segments, so nothing else breaks.
    assert stats["n_windows"] == n // LONG_DECODE_BURST, section
    assert stats["folded_retirements"] == n, section
    assert stats["breaks"]["block-frontier"] == 0, section
    assert stats["breaks"]["retirement-unpredicted"] == 0, section
    save_result("simperf_long_decode", json.dumps(section, indent=2))


def bench_write_record(save_result):
    """Persist the machine-readable trajectory (runs last in this file)."""
    sections = RECORD["sections"]
    assert set(sections) == {"functional_decode", "functional_prefill",
                             "timing_sweeps", "sweep_scale",
                             "windows_scale", "long_decode"}, sections
    RECORD["note"] = (
        "wall-clock of the simulator itself; every optimized/baseline "
        "pair computes bit-identical results (see "
        "tests/test_batched_kernels.py and "
        "tests/test_backend_equivalence.py)")
    RECORD_PATH.write_text(json.dumps(RECORD, indent=2) + "\n")

    lines = ["Simulator performance (simperf) — optimized vs in-tree "
             "pre-optimization baselines",
             f"functional model: {SMALL_MODEL.name}, timing sweeps: "
             f"{TINY_MODEL.name} x {SWEEP_REQUESTS} requests", ""]
    for row in sections["functional_decode"]["rows"]:
        lines.append(
            f"  decode  batch {row['batch']:2d} @ctx {row['context']}: "
            f"{row['baseline_ms_per_step']:9.1f} -> "
            f"{row['optimized_ms_per_step']:7.1f} ms/step "
            f"({row['speedup']:.1f}x)")
    pf = sections["functional_prefill"]
    lines.append(f"  prefill {pf['prompt_len']} tokens:      "
                 f"{pf['baseline_ms']:9.1f} -> {pf['optimized_ms']:7.1f} "
                 f"ms      ({pf['speedup']:.1f}x)")
    for name, row in sections["timing_sweeps"]["rows"].items():
        lines.append(
            f"  {name:10s} sweep ({row['n_requests']} req, "
            f"{row['n_steps']} steps): {row['baseline_wall_s']:7.2f} -> "
            f"{row['optimized_wall_s']:6.2f} s   ({row['speedup']:.1f}x)")
    scale = sections["sweep_scale"]
    lines.append(f"  sweep-scale mode: {scale['mode']} (baseline = "
                 "PR 4 fast-forward path)")
    for row in scale["pairs"]:
        lines.append(
            f"  {row['n_requests']:>9,d}-request sweep: "
            f"{row['baseline_wall_s']:7.2f} -> {row['windows_wall_s']:6.2f} s"
            f"   ({row['speedup']:.1f}x, telemetry=windows streamed)")
    st = scale["streamed"]
    lines.append(
        f"  {st['n_requests']:>9,d}-request streamed summary sweep: "
        f"{st['wall_s']:7.2f} s, peak RSS {st['peak_rss_mb']:.0f} MB "
        f"({st['total_new_tokens']:,} tokens)")
    for tel in ("full", "windows"):
        lo, hi = scale["memory"][tel]
        lines.append(
            f"  telemetry={tel:7s} peak heap at {lo['n_requests']:,} req: "
            f"{lo['peak_heap_mb']:6.1f} MB @ {lo['total_new_tokens']:,} tok"
            f" -> {hi['peak_heap_mb']:6.1f} MB @ "
            f"{hi['total_new_tokens']:,} tok")
    ws = sections["windows_scale"]
    for level in ("summary", "windows", "sketch"):
        row = ws[level]
        extra = ""
        if level == "windows":
            extra = (f", {row['n_windows']:,} windows in "
                     f"{row['records_mb']:.0f} MB columns")
        elif level == "sketch":
            extra = f", {row['n_centroids']} centroids"
        lines.append(
            f"  {row['n_requests']:>9,d}-request streamed "
            f"telemetry={level:7s}: {row['wall_s']:7.2f} s, peak RSS "
            f"{row['peak_rss_mb']:.0f} MB{extra}")
    lines.append(f"  windows/summary peak-RSS ratio: "
                 f"{ws['windows_rss_ratio']:.2f} (bar 1.50)")
    ld = sections["long_decode"]
    lines.append(
        f"  long-decode {ld['n_requests']:,}-request paged sweep: "
        f"{ld['wall_s']:.2f} s, {ld['windows']:,} windows / "
        f"{ld['segments']:,} segments "
        f"({ld['folded_retirements']:,} folded retirements)")
    save_result("simperf", "\n".join(lines))

    # Mirror the headline numbers into the diffable run store, so
    # ``repro obs diff`` can compare benchmark runs across commits.
    from repro.obs import RunStore

    scale = sections["sweep_scale"]
    metrics = {
        "timing.cycle_speedup":
            sections["timing_sweeps"]["rows"]["cycle"]["speedup"],
        "sweep_scale.big_speedup": scale["pairs"][-1]["speedup"],
        "sweep_scale.streamed_wall_s": scale["streamed"]["wall_s"],
        "sweep_scale.streamed_peak_rss_mb":
            scale["streamed"]["peak_rss_mb"],
        "windows_scale.windows_wall_s": ws["windows"]["wall_s"],
        "windows_scale.windows_peak_rss_mb":
            ws["windows"]["peak_rss_mb"],
        "windows_scale.rss_ratio_vs_summary": ws["windows_rss_ratio"],
        "windows_scale.sketch_peak_rss_mb": ws["sketch"]["peak_rss_mb"],
        "long_decode.wall_s": ld["wall_s"],
    }
    store = RunStore(REPO_ROOT / "benchmarks" / "runs")
    record = store.record(
        "simperf", {"bench": "simperf", "mode": SWEEP_SCALE_MODE},
        metrics)
    store.save(record)


if __name__ == "__main__":
    def _print_result(name, text):
        print(f"[{name}]\n{text}\n")

    bench_functional_decode(_print_result)
    bench_functional_prefill(_print_result)
    bench_timing_backend_sweeps(_print_result)
    bench_sweep_scale(_print_result)
    bench_windows_scale(_print_result)
    bench_long_decode(_print_result)
    bench_write_record(_print_result)
