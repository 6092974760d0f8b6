"""Run-length telemetry and streaming: exact-expansion guarantees.

The contract under test: fast-forward windows and streamed traces are
pure *representations* — every observable (events, step batches,
clocks, per-request token streams and latencies, percentiles) expands
to the bit-identical values the eager loop (``fast_forward=False``)
records one step at a time at ``telemetry="windows"``, across both
backends, both KV disciplines, and a TP=2 group;
``telemetry="sketch"`` preserves every scalar aggregate exactly.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import ReplicaRouter
from repro.config import TINY_MODEL, QuantConfig
from repro.engine import (
    WINDOW_BREAK_REASONS,
    ContinuousBatchScheduler,
    CycleModelBackend,
    FinishReason,
    FunctionalBackend,
    Request,
    StepEvent,
    StepWindow,
    TenantSpec,
    iter_synthetic_trace,
    synthetic_trace,
)
from repro.errors import SimulationError
from repro.stats import percentile_of_runs, percentile_of_sorted

from report_checks import (
    assert_reports_identical,
    assert_results_match_charges,
    assert_windows_match_eager,
    record_charges,
)

QUANT32 = QuantConfig(weight_group_size=32)
BLOCK_SIZE = 8
BUDGET_TOKENS = 256
MAX_BATCH = 4
PERCENTILES = (0.0, 25.0, 50.0, 95.0, 99.0, 100.0)

#: perfbench's knee-tenants shape scaled to one MAX_BATCH engine: three
#: priority classes and an arrival rate well past the knee, so a queue
#: backlog refills every retirement's slot — admission-heavy windows.
KNEE_MIX = tuple((TenantSpec(name, cls), 1.0) for name, cls in
                 (("fg", "interactive"), ("bulk", "batch"),
                  ("bg", "best_effort")))


#: the streamed-sweep trace shape the scale floors run at
SCALE_KWARGS = dict(arrival_rate_rps=2000.0, seed=5, prompt_len=(4, 16),
                    decode_len=(8, 48))


def scale_engine():
    """The streamed-sweep engine: cycle backend, 16 slotted lanes."""
    return ContinuousBatchScheduler(
        CycleModelBackend(TINY_MODEL, QUANT32, n_slots=16), max_batch=16)


def knee_kwargs(seed):
    return dict(arrival_rate_rps=20_000.0, seed=seed, prompt_len=(4, 16),
                decode_len=(8, 32), tenant_mix=KNEE_MIX)


def idle_gaps(requests, report):
    """``(start, end)`` of every idle stretch of a served ``report``:
    from the moment all earlier requests have retired to the next
    arrival."""
    arrival = {r.request_id: r.arrival_s for r in requests}
    spans = sorted((arrival[r.request_id], arrival[r.request_id] + r.e2e_s)
                   for r in report.results)
    gaps, busy_until = [], 0.0
    for start, done in spans:
        if start > busy_until:
            gaps.append((busy_until, start))
        busy_until = max(busy_until, done)
    return gaps


#: a low-rate trace: requests mostly arrive one at a time, each
#: draining before the next lands
LOW_RATE_KWARGS = dict(arrival_rate_rps=200.0, seed=7, prompt_len=(3, 8),
                       decode_len=(4, 24))


#: requests per long-decode burst: one full engine of lanes
LONG_DECODE_BURST = 16


def long_decode_trace(n_requests):
    """Retirement-dominated serving: bursts of 16 long decodes arriving
    together, fully drained before the next burst lands.  Fourteen
    lanes run 48 new tokens, two run 56, so every burst retires at two
    predicted LENGTH horizons and crosses six block frontiers per
    sequence (block size 8) — the events the event horizon folds
    instead of breaking a window at."""
    rng = np.random.default_rng(11)
    prompts = rng.integers(1, TINY_MODEL.vocab_size - 1,
                           size=(n_requests, 3))
    return [Request(i, tuple(int(t) for t in prompts[i]),
                    max_new_tokens=56 if i % LONG_DECODE_BURST >= 14
                    else 48,
                    arrival_s=(i // LONG_DECODE_BURST) * 10.0)
            for i in range(n_requests)]


def make_engine(kind, kv_mode, tiny_qweights=None, tp=1, ff=True):
    kv = dict(kv_mode=kv_mode, block_size=BLOCK_SIZE,
              n_kv_blocks=BUDGET_TOKENS // BLOCK_SIZE)
    if kind == "functional":
        backend = FunctionalBackend(tiny_qweights, n_slots=MAX_BATCH,
                                    **kv)
    else:
        backend = CycleModelBackend(TINY_MODEL, QUANT32, tp=tp,
                                    n_slots=MAX_BATCH, **kv)
    budget = BUDGET_TOKENS if kv_mode == "slotted" else None
    return ContinuousBatchScheduler(backend, max_batch=MAX_BATCH,
                                    kv_token_budget=budget,
                                    fast_forward=ff)


def assert_percentiles_identical(a, b):
    for p in PERCENTILES:
        assert a.latency_percentile_s(p) == b.latency_percentile_s(p)
        assert a.ttft_percentile_s(p) == b.ttft_percentile_s(p)


class TestWindowedExpansionIsExact:
    """Satellite: hypothesis property over backends x KV modes x TP."""

    @pytest.mark.parametrize("tp", (1, 2))
    @pytest.mark.parametrize("kv_mode", ("slotted", "paged"))
    @settings(deadline=None, max_examples=12)
    @given(seed=st.integers(0, 10_000),
           arrival_rate=st.sampled_from([1e9, 5000.0, 300.0]),
           n_requests=st.integers(4, 24),
           decode_hi=st.integers(6, 40))
    def test_windows_expand_to_eager(self, kv_mode, tp, seed, arrival_rate,
                                     n_requests, decode_hi):
        kwargs = dict(arrival_rate_rps=arrival_rate, seed=seed,
                      prompt_len=(3, 10), decode_len=(4, decode_hi),
                      shared_prefix_len=8)
        trace = synthetic_trace(TINY_MODEL, n_requests, **kwargs)
        eng_eager = make_engine("cycle", kv_mode, tp=tp, ff=False)
        eager = eng_eager.run(trace)
        eng_win = make_engine("cycle", kv_mode, tp=tp)
        windows = eng_win.run(
            iter_synthetic_trace(TINY_MODEL, n_requests, **kwargs))
        assert_reports_identical(windows, eager)
        assert_percentiles_identical(windows, eager)
        assert windows.mean_ttft_s == eager.mean_ttft_s
        assert windows.mean_batch == eager.mean_batch
        # Expanded event streams (clocks included) match bit for bit.
        assert eng_win.events == eng_eager.events

        sketch = make_engine("cycle", kv_mode, tp=tp).run(
            iter_synthetic_trace(TINY_MODEL, n_requests, **kwargs),
            telemetry="sketch")
        assert sketch.total_time_s == eager.total_time_s
        assert sketch.n_steps == eager.n_steps
        assert sketch.total_new_tokens == eager.total_new_tokens
        assert sketch.max_batch_observed == eager.max_batch_observed
        assert sketch.mean_batch == eager.mean_batch

    def test_sharded_tp2_streamed_windows_match_eager(self):
        kwargs = dict(arrival_rate_rps=500.0, seed=4,
                      prompt_len=(3, 10), decode_len=(4, 24))
        trace = synthetic_trace(TINY_MODEL, 12, **kwargs)
        eager = make_engine("cycle", "slotted", tp=2, ff=False).run(trace)
        windows = make_engine("cycle", "slotted", tp=2).run(
            iter_synthetic_trace(TINY_MODEL, 12, **kwargs))
        assert_reports_identical(windows, eager)
        assert_percentiles_identical(windows, eager)

    @pytest.mark.parametrize("kv_mode", ("slotted", "paged"))
    def test_functional_windows_match_charges(self, kv_mode,
                                              tiny_qweights):
        """The functional backend never fast-forwards, but the windowed
        report (eager token columns, span-gathered latencies) must
        still reproduce exactly what the engine generated and
        charged."""
        system = tuple(range(1, 17))
        trace = [Request(i, system + (30 + i, 40 + i), max_new_tokens=6)
                 for i in range(4)]
        engine = make_engine("functional", kv_mode, tiny_qweights,
                             ff=False)
        log = record_charges(engine)
        windows = engine.run(trace)
        assert len(log) == windows.n_requests == 4
        assert_results_match_charges(windows, [log])

    def test_windows_cover_steps_without_materializing(self):
        """A lone long decode must be recorded as run-length windows —
        far fewer records than steps — or the O(1)-per-window claim is
        silently broken."""
        eng = make_engine("cycle", "slotted")
        report = eng.run([Request(0, (1, 2, 3), max_new_tokens=40)],
                         telemetry="windows")
        records = eng._recorder.records
        window_steps = sum(r.count for r in records
                           if isinstance(r, StepWindow))
        assert len(records) < report.n_steps
        assert window_steps > report.n_steps // 2

    def test_oracle_eos_windows_match_eager(self):
        """Oracle streams ending in EOS retire identically under
        fast-forward windows (tokens replayed through the oracle)."""
        stream = (21, 22, 23, 24, 25, 7)

        def oracle(request_id, step):
            return stream[step]

        def engine(ff):
            backend = CycleModelBackend(TINY_MODEL, QUANT32, n_slots=1,
                                        token_oracle=oracle)
            return ContinuousBatchScheduler(
                backend, max_batch=1, kv_token_budget=BUDGET_TOKENS,
                fast_forward=ff)

        requests = [Request(0, (5, 6), max_new_tokens=30, eos_id=7)]
        eager = engine(False).run(requests)
        windows = engine(True).run(requests)
        assert_reports_identical(windows, eager)
        assert windows.results[0].tokens == stream

    def test_sketch_keeps_no_results(self):
        eng = make_engine("cycle", "slotted")
        report = eng.run([Request(0, (1, 2), max_new_tokens=4)],
                         telemetry="sketch")
        with pytest.raises(SimulationError):
            report.results
        with pytest.raises(SimulationError):
            report.step_batches
        with pytest.raises(SimulationError):
            eng.events

    @pytest.mark.parametrize("level", ("everything", "full", "summary"))
    def test_unknown_level_rejected(self, level):
        """The engine and the router refuse any level but the two kept
        ones (the retired ``full`` and ``summary`` included), naming
        them."""
        choices = r"choose from \('windows', 'sketch'\)"
        eng = make_engine("cycle", "slotted")
        with pytest.raises(SimulationError, match=choices):
            eng.run([Request(0, (1, 2), max_new_tokens=4)],
                    telemetry=level)
        router = ReplicaRouter([make_engine("cycle", "slotted")])
        with pytest.raises(SimulationError, match=choices):
            router.run([Request(0, (1, 2), max_new_tokens=4)],
                       telemetry=level)


class TestEventHorizonTiers:
    """Satellite: event-horizon fast-forward is a pure optimization.
    ``fast_forward=True`` must reproduce the eager loop bit for bit on
    every observable, while the recorded window count collapses on
    retirement-dominated traces."""

    @pytest.mark.parametrize("tp", (1, 2))
    @pytest.mark.parametrize("kv_mode", ("slotted", "paged"))
    @settings(deadline=None, max_examples=8)
    @given(seed=st.integers(0, 10_000),
           arrival_rate=st.sampled_from([1e9, 2000.0, 150.0]),
           n_requests=st.integers(3, 12),
           decode_hi=st.integers(30, 80))
    def test_long_decode_tiers_agree(self, kv_mode, tp, seed, arrival_rate,
                                     n_requests, decode_hi):
        """Long decodes make predicted-retirement segments fire; the
        windows must stay bit-identical to the eager loop through
        them."""
        kwargs = dict(arrival_rate_rps=arrival_rate, seed=seed,
                      prompt_len=(3, 10), decode_len=(25, decode_hi),
                      shared_prefix_len=8)
        trace = synthetic_trace(TINY_MODEL, n_requests, **kwargs)
        eager = make_engine("cycle", kv_mode, tp=tp, ff=False).run(trace)
        windowed = make_engine("cycle", kv_mode, tp=tp).run(trace)
        assert_reports_identical(windowed, eager)
        assert_percentiles_identical(windowed, eager)

    @pytest.mark.parametrize("tp", (1, 2))
    @pytest.mark.parametrize("kv_mode", ("slotted", "paged"))
    def test_oracle_mixed_eos_length_tiers_agree(self, kv_mode, tp):
        """Mixed EOS and LENGTH finishes inside one batch: predicted
        retirements of both kinds fold at segment boundaries without
        disturbing the token streams."""
        streams = {
            0: (11, 12, 13, 7),
            1: (21, 22, 23, 24, 25, 26),
            2: (31, 7),
            3: (41, 42, 43, 44, 45, 46),
        }

        def oracle(request_id, step):
            return streams[request_id][step]

        def engine(ff):
            backend = CycleModelBackend(
                TINY_MODEL, QUANT32, tp=tp, n_slots=MAX_BATCH,
                token_oracle=oracle, kv_mode=kv_mode,
                block_size=BLOCK_SIZE,
                n_kv_blocks=BUDGET_TOKENS // BLOCK_SIZE)
            budget = BUDGET_TOKENS if kv_mode == "slotted" else None
            return ContinuousBatchScheduler(
                backend, max_batch=MAX_BATCH, kv_token_budget=budget,
                fast_forward=ff)

        requests = [Request(i, (5, 6 + i), max_new_tokens=6, eos_id=7)
                    for i in range(4)]
        eager = engine(False).run(requests)
        windowed = engine(True).run(requests)
        assert_reports_identical(windowed, eager)
        assert {r.finish_reason for r in windowed.results} \
            == {FinishReason.EOS, FinishReason.LENGTH}

    @pytest.mark.parametrize("tp", (1, 2))
    @pytest.mark.parametrize("kv_mode", ("slotted", "paged"))
    @pytest.mark.parametrize("eos_step", range(1, 12))
    def test_oracle_eos_at_every_segment_position(self, kv_mode, eos_step,
                                                  tp):
        """One oracle EOS swept across a window whose segments end at
        two LENGTH retirements (decode steps 5 and 9; step ``k``
        samples token ``k``): it lands on a segment's first step (1, 6,
        10), a middle step (2-4, 7-8), its last step, beside the
        LENGTH retiree (5, 9), and the request's last token, where its
        length budget ends too (11).  Every position retires at the
        EOS, bit-identical to the eager loop."""
        def oracle(request_id, step):
            if request_id == 1 and step == eos_step:
                return 7
            return 20 + 10 * request_id + step

        def engine(ff):
            backend = CycleModelBackend(
                TINY_MODEL, QUANT32, tp=tp, n_slots=MAX_BATCH,
                token_oracle=oracle, kv_mode=kv_mode,
                block_size=BLOCK_SIZE,
                n_kv_blocks=BUDGET_TOKENS // BLOCK_SIZE)
            budget = BUDGET_TOKENS if kv_mode == "slotted" else None
            return ContinuousBatchScheduler(
                backend, max_batch=MAX_BATCH, kv_token_budget=budget,
                fast_forward=ff)

        requests = [Request(i, (5, 6 + i), max_new_tokens=n, eos_id=7)
                    for i, n in enumerate((5, 12, 9))]
        eager = engine(False).run(requests)
        windowed = engine(True).run(requests)
        assert_reports_identical(windowed, eager)
        result = next(r for r in windowed.results if r.request_id == 1)
        assert result.finish_reason is FinishReason.EOS
        assert len(result.tokens) == eos_step + 1

    def test_sharded_tp2_tiers_agree(self):
        kwargs = dict(arrival_rate_rps=800.0, seed=9,
                      prompt_len=(3, 10), decode_len=(20, 48))
        trace = synthetic_trace(TINY_MODEL, 10, **kwargs)
        eager = make_engine("cycle", "slotted", tp=2, ff=False).run(trace)
        windowed = make_engine("cycle", "slotted", tp=2).run(trace)
        assert_reports_identical(windowed, eager)
        assert_percentiles_identical(windowed, eager)

    def test_retirement_dominated_trace_collapses_windows(self):
        """Staggered-length decodes with an empty arrival queue: the
        admissions fold into the first segment and every retirement
        into a segment of the same window, so the whole run is ONE
        window of MAX_BATCH segments."""
        trace = [Request(i, (1, 2, 3), max_new_tokens=12 + 9 * i)
                 for i in range(MAX_BATCH)]
        eager = make_engine("cycle", "slotted", ff=False).run(
            trace, telemetry="windows")
        eng = make_engine("cycle", "slotted")
        report = eng.run(trace, telemetry="windows")
        assert_reports_identical(report, eager)
        assert_percentiles_identical(report, eager)

        assert report.window_stats == {
            "n_windows": 1, "n_segments": MAX_BATCH,
            "folded_retirements": MAX_BATCH,
            "folded_admissions": MAX_BATCH,
            "breaks": {reason: 0 for reason in WINDOW_BREAK_REASONS}}
        assert eager.window_stats["n_windows"] == 0
        assert len(eng._recorder.records) < report.n_steps

    def test_long_decode_sweep_folds_into_one_window(self):
        """50 bursts on a paged pool sized to one burst: every
        retirement and block frontier folds into a segment, and every
        drained gap folds into the idle jump of the next burst's
        admitting segment, so the whole sweep is ONE window of two
        segments per burst (one per LENGTH horizon)."""
        n = 50 * LONG_DECODE_BURST
        trace = long_decode_trace(n)

        def engine(ff):
            backend = CycleModelBackend(
                TINY_MODEL, QUANT32, n_slots=LONG_DECODE_BURST,
                kv_mode="paged", block_size=8,
                n_kv_blocks=LONG_DECODE_BURST * 8)
            return ContinuousBatchScheduler(
                backend, max_batch=LONG_DECODE_BURST, fast_forward=ff)

        report = engine(True).run(trace, telemetry="windows")
        assert_reports_identical(report, engine(False).run(trace))
        stats = report.window_stats
        assert stats["n_windows"] == 1, stats
        assert stats["n_segments"] == 2 * n // LONG_DECODE_BURST, stats
        assert stats["folded_admissions"] == n, stats
        assert stats["folded_retirements"] == n, stats
        assert stats["breaks"]["block-frontier"] == 0, stats
        assert stats["breaks"]["retirement-unpredicted"] == 0, stats

    def test_break_histogram_shape_and_reasons(self):
        trace = synthetic_trace(TINY_MODEL, 16, arrival_rate_rps=400.0,
                                seed=5, prompt_len=(3, 8),
                                decode_len=(12, 40))
        report = make_engine("cycle", "slotted").run(
            trace, telemetry="windows")
        stats = report.window_stats
        assert set(stats["breaks"]) == set(WINDOW_BREAK_REASONS)
        assert "quota" in stats["breaks"]
        assert stats["n_windows"] > 0
        assert stats["n_segments"] >= stats["n_windows"]
        assert sum(stats["breaks"].values()) > 0
        # The slotted discipline never touches block frontiers.
        assert stats["breaks"]["block-frontier"] == 0

    def test_zero_step_windows_leave_no_break_note(self):
        """A fast-forward pass whose arrival cut lands on zero steps
        records no window — so it must not note a break either, or the
        histogram counts phantom windows.  Every note is attached to a
        recorded window, so the histogram total is bounded by
        n_windows."""
        trace = synthetic_trace(TINY_MODEL, 24, arrival_rate_rps=900.0,
                                seed=17, prompt_len=(3, 8),
                                decode_len=(4, 30))
        report = make_engine("cycle", "slotted").run(
            trace, telemetry="windows")
        stats = report.window_stats
        assert stats["n_windows"] > 0
        assert stats["breaks"]["arrival"] > 0
        assert sum(stats["breaks"].values()) <= stats["n_windows"]
        # At the knee every segment start admits: a pass that admits
        # and charges nothing must not note a break either.
        knee = make_engine("cycle", "slotted").run(
            synthetic_trace(TINY_MODEL, 120, **knee_kwargs(2)),
            telemetry="windows")
        stats = knee.window_stats
        assert sum(stats["breaks"].values()) <= stats["n_windows"]
        assert stats["folded_admissions"] > 0

    @pytest.mark.parametrize("tp", (1, 2))
    @pytest.mark.parametrize("kv_mode", ("slotted", "paged"))
    def test_knee_folded_admissions_match_eager(self, kv_mode, tp):
        """Admissions fold into the windows at segment starts: the
        materialized and the streamed run both reproduce the eager
        loop, events included — each admission's count lands on the
        step that decodes right after it.  The idle start folds too,
        and the paged pool's spare blocks sit in the prefix cache as
        evictable supply, so no step stays eager and no window breaks
        at a block frontier."""
        n = 120
        trace = synthetic_trace(TINY_MODEL, n, **knee_kwargs(3))
        eager_eng = make_engine("cycle", kv_mode, tp=tp, ff=False)
        eager = eager_eng.run(trace)
        eng = make_engine("cycle", kv_mode, tp=tp)
        windowed = eng.run(trace)
        assert_reports_identical(windowed, eager)
        assert eng.events == eager_eng.events

        streamed_eng = make_engine("cycle", kv_mode, tp=tp)
        streamed = streamed_eng.run(
            iter_synthetic_trace(TINY_MODEL, n, **knee_kwargs(3)),
            telemetry="windows")
        assert_reports_identical(streamed, eager)
        assert streamed_eng.events == eager_eng.events
        stats = streamed.window_stats
        assert stats["breaks"]["admission"] == 0
        assert stats["breaks"]["block-frontier"] == 0
        assert stats["folded_admissions"] == n
        assert not any(isinstance(r, StepEvent)
                       for r in streamed_eng._recorder.records)

    def test_streamed_report_carries_window_stats(self):
        kwargs = dict(arrival_rate_rps=600.0, seed=13,
                      prompt_len=(3, 8), decode_len=(10, 30))
        windows = make_engine("cycle", "paged").run(
            synthetic_trace(TINY_MODEL, 20, **kwargs))
        sketch = make_engine("cycle", "paged").run(
            iter_synthetic_trace(TINY_MODEL, 20, **kwargs),
            telemetry="sketch")
        assert sketch.window_stats == windows.window_stats
        assert windows.window_stats["n_windows"] > 0

    def test_off_tier_records_no_windows(self):
        report = make_engine("cycle", "slotted", ff=False).run(
            [Request(0, (1, 2, 3), max_new_tokens=20)],
            telemetry="windows")
        stats = report.window_stats
        assert stats["n_windows"] == 0
        assert sum(stats["breaks"].values()) == 0

    def test_unknown_tier_rejected(self):
        """``fast_forward`` is a plain bool: the retired tier names and
        any other value fail fast, naming the accepted values."""
        for bad in ("single", "multi", "off", "warp"):
            with pytest.raises(SimulationError,
                               match=r"must be True .* or False"):
                make_engine("cycle", "slotted", ff=bad)


class TestStreamedSubmission:
    def test_iter_trace_matches_materialized_trace(self):
        kwargs = dict(arrival_rate_rps=123.0, seed=11, prompt_len=(2, 9),
                      decode_len=(3, 17), shared_prefix_len=4)
        eager = synthetic_trace(TINY_MODEL, 40, **kwargs)
        lazy = list(iter_synthetic_trace(TINY_MODEL, 40, **kwargs))
        assert eager == lazy

    def test_iter_trace_validates_eagerly(self):
        with pytest.raises(SimulationError):
            iter_synthetic_trace(TINY_MODEL, 0)

    def test_streamed_run_matches_materialized_run(self):
        kwargs = dict(arrival_rate_rps=700.0, seed=3, prompt_len=(3, 8),
                      decode_len=(4, 20))
        trace = synthetic_trace(TINY_MODEL, 25, **kwargs)
        materialized = make_engine("cycle", "slotted").run(trace)
        streamed = make_engine("cycle", "slotted").run(
            iter_synthetic_trace(TINY_MODEL, 25, **kwargs))
        assert_reports_identical(streamed, materialized)

    def test_unsorted_stream_rejected(self):
        reqs = [Request(0, (1, 2), 4, arrival_s=2.0),
                Request(1, (1, 2), 4, arrival_s=1.0)]
        with pytest.raises(SimulationError, match="sorted by arrival"):
            make_engine("cycle", "slotted").run(iter(reqs))

    def test_stream_keeps_waiting_queue_small(self):
        """The point of streaming: the queue holds in-flight work plus
        one look-ahead, not the trace."""
        seen = []
        eng = make_engine("cycle", "slotted")
        trace = iter_synthetic_trace(TINY_MODEL, 200,
                                     arrival_rate_rps=200.0, seed=2,
                                     prompt_len=(3, 6),
                                     decode_len=(4, 10))

        def watched():
            for request in trace:
                seen.append(len(eng.waiting))
                yield request

        eng.run(watched())
        assert max(seen) <= MAX_BATCH + 2


class TestStreamedCluster:
    def _engines(self, n):
        return [make_engine("cycle", "slotted") for _ in range(n)]

    @pytest.mark.parametrize("policy", ("round_robin", "least_loaded",
                                        "prefix_affinity"))
    def test_factory_run_matches_materialized_run(self, policy):
        kwargs = dict(arrival_rate_rps=2000.0, seed=6, prompt_len=(3, 8),
                      decode_len=(4, 16), shared_prefix_len=4)
        trace = synthetic_trace(TINY_MODEL, 30, **kwargs)
        eager = ReplicaRouter(self._engines(2), policy=policy).run(trace)

        def factory():
            return iter_synthetic_trace(TINY_MODEL, 30, **kwargs)

        streamed = ReplicaRouter(self._engines(2), policy=policy).run(
            factory, telemetry="windows")
        assert_reports_identical(streamed, eager)
        assert_percentiles_identical(streamed, eager)
        assert streamed.mean_ttft_s == eager.mean_ttft_s
        assert streamed.mean_batch == eager.mean_batch
        assert streamed.aggregate_tokens_per_s \
            == eager.aggregate_tokens_per_s
        assert [r.n_requests for r in streamed.replica_reports] \
            == [r.n_requests for r in eager.replica_reports]

        sketch = ReplicaRouter(self._engines(2), policy=policy).run(
            factory, telemetry="sketch")
        assert sketch.total_time_s == eager.total_time_s
        assert sketch.n_steps == eager.n_steps
        assert sketch.total_new_tokens == eager.total_new_tokens

    def test_cluster_merge_concatenates_samples(self):
        """The cluster report's percentile samples are the replicas'
        samples concatenated — and equal the re-sorted union of every
        per-request sample exactly."""
        trace = synthetic_trace(TINY_MODEL, 24, arrival_rate_rps=1e9,
                                seed=8, prompt_len=(3, 8),
                                decode_len=(4, 16))
        report = ReplicaRouter(self._engines(3)).run(trace)
        values, counts = report.latency_runs()
        assert np.repeat(values, counts).tolist() \
            == sorted(s for r in report.results for s in r.decode_step_s)
        # One sample per decode step per batch member, on every replica.
        assert counts.sum() == sum(r.batch_sum
                                   for r in report.replica_reports)
        ttfts = sorted(r.ttft_s for r in report.results)
        for p in PERCENTILES:
            assert report.ttft_percentile_s(p) \
                == percentile_of_sorted(ttfts, p)


class TestSketchLevel:
    """``telemetry="sketch"`` trades the exact latency sample for a
    t-digest; every other observable stays bit-identical to windows."""

    KWARGS = dict(arrival_rate_rps=2000.0, seed=17, prompt_len=(3, 8),
                  decode_len=(4, 24), shared_prefix_len=4)
    N = 60

    def _pair(self, kv_mode="slotted"):
        windows = make_engine("cycle", kv_mode).run(
            synthetic_trace(TINY_MODEL, self.N, **self.KWARGS))
        sketch = make_engine("cycle", kv_mode).run(
            iter_synthetic_trace(TINY_MODEL, self.N, **self.KWARGS),
            telemetry="sketch")
        return windows, sketch

    def test_aggregates_and_ttft_exact(self):
        windows, sketch = self._pair()
        assert sketch.total_time_s == windows.total_time_s
        assert sketch.n_steps == windows.n_steps
        assert sketch.total_new_tokens == windows.total_new_tokens
        assert sketch.preemptions == windows.preemptions
        assert sketch.n_requests == windows.n_requests
        assert sketch.window_stats == windows.window_stats
        # TTFTs are per-request scalars, kept exact at every level.
        for p in PERCENTILES:
            assert sketch.ttft_percentile_s(p) \
                == windows.ttft_percentile_s(p)

    def test_latency_percentiles_within_digest_bound(self):
        windows, sketch = self._pair()
        ordered = sorted(s for r in windows.results
                         for s in r.decode_step_s)
        digest = sketch.latency_digest()
        assert digest.n == len(ordered)
        assert sketch.latency_percentile_s(0.0) == ordered[0]
        assert sketch.latency_percentile_s(100.0) == ordered[-1]
        bound = digest.rank_error_bound
        n = len(ordered)
        for p in PERCENTILES[1:-1]:
            value = sketch.latency_percentile_s(p)
            below = sum(1 for s in ordered if s < value)
            at_most = sum(1 for s in ordered if s <= value)
            target = p / 100.0 * n
            err = 0.0 if below - 1 <= target <= at_most + 1 \
                else min(abs(below - 1 - target),
                         abs(at_most + 1 - target)) / n
            assert err <= bound, (p, value, err, bound)

    def test_sample_accessors_gated(self):
        _, sketch = self._pair()
        with pytest.raises(SimulationError, match="latency_digest"):
            sketch.latency_runs()
        with pytest.raises(SimulationError):
            sketch.results
        windows = make_engine("cycle", "slotted").run(
            iter_synthetic_trace(TINY_MODEL, 8, **self.KWARGS),
            telemetry="windows")
        with pytest.raises(SimulationError, match="latency_runs"):
            windows.latency_digest()

    def test_recorder_storage_by_level(self):
        """Windows keeps typed columns, eager steps included; sketch
        keeps no step records at all."""
        from repro.obs import ColumnarRecords

        for ff in (True, False):
            eng_win = make_engine("cycle", "slotted", ff=ff)
            eng_win.run(iter_synthetic_trace(TINY_MODEL, 12,
                                             **self.KWARGS))
            assert isinstance(eng_win._recorder.records, ColumnarRecords)
        eng_sketch = make_engine("cycle", "slotted")
        eng_sketch.run(iter_synthetic_trace(TINY_MODEL, 12, **self.KWARGS),
                       telemetry="sketch")
        assert eng_sketch._recorder.records is None

    def test_centroid_cap_on_streamed_run(self):
        """The sketch level's memory bound: a streamed run of ~56k
        decoded tokens keeps at most 1,100 centroids."""
        report = scale_engine().run(
            iter_synthetic_trace(TINY_MODEL, 2000, **SCALE_KWARGS),
            telemetry="sketch")
        digest = report.latency_digest()
        assert digest.n == report.total_new_tokens > 50_000
        assert digest.n_centroids <= 1100

    def test_cluster_merges_replica_digests(self):
        def engines():
            return [make_engine("cycle", "slotted") for _ in range(2)]

        def factory():
            return iter_synthetic_trace(TINY_MODEL, self.N,
                                        **self.KWARGS)

        eager = ReplicaRouter(engines()).run(
            synthetic_trace(TINY_MODEL, self.N, **self.KWARGS))
        sketch = ReplicaRouter(engines()).run(factory,
                                              telemetry="sketch")
        assert sketch.total_time_s == eager.total_time_s
        assert sketch.n_steps == eager.n_steps
        ordered = sorted(s for r in eager.results for s in r.decode_step_s)
        digest = sketch.latency_digest()
        assert digest.n == len(ordered)
        assert sketch.latency_percentile_s(100.0) == ordered[-1]
        bound = digest.rank_error_bound
        for p in PERCENTILES[1:-1]:
            value = sketch.latency_percentile_s(p)
            below = sum(1 for s in ordered if s < value)
            at_most = sum(1 for s in ordered if s <= value)
            target = p / 100.0 * len(ordered)
            err = 0.0 if below - 1 <= target <= at_most + 1 \
                else min(abs(below - 1 - target),
                         abs(at_most + 1 - target)) / len(ordered)
            assert err <= bound, (p, value, err, bound)
        with pytest.raises(SimulationError, match="latency_percentile_s"):
            ReplicaRouter(engines()).run(
                factory, telemetry="windows").latency_digest()


class TestWindowedMemory:
    """The windowed level's footprint follows scheduler state changes,
    not decoded tokens (tracemalloc peak heap of trace generation plus
    the engine run)."""

    @staticmethod
    def _peak_heap(decode_len, n=500):
        """(decoded tokens, peak heap bytes) of a streamed trace."""
        engine = scale_engine()
        tracemalloc.start()
        try:
            trace = iter_synthetic_trace(
                TINY_MODEL, n, **dict(SCALE_KWARGS, decode_len=decode_len))
            report = engine.run(trace)
            return report.total_new_tokens, \
                tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_windowed_heap_flat_in_decoded_tokens(self):
        """Decoded tokens near-double at a fixed request count: the
        windowed heap grows by at most 1.25x.  A first run warms the
        process-wide caches, so neither measured run pays for them."""
        self._peak_heap((8, 48), n=50)
        tokens_lo, win_lo = self._peak_heap((8, 48))
        tokens_hi, win_hi = self._peak_heap((32, 192))
        assert tokens_hi / tokens_lo > 1.5
        assert win_hi <= win_lo * 1.25, (win_lo, win_hi)


class TestRunLengthPrimitives:
    @settings(deadline=None, max_examples=60)
    @given(st.lists(st.tuples(
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        st.integers(1, 9)), min_size=1, max_size=40),
        st.floats(min_value=0, max_value=100))
    def test_percentile_of_runs_matches_expansion(self, runs, p):
        order = np.argsort([v for v, _ in runs], kind="stable")
        vals = np.asarray([runs[i][0] for i in order])
        cnts = np.asarray([runs[i][1] for i in order])
        expanded = sorted(v for v, c in runs for _ in range(c))
        assert percentile_of_runs(vals, cnts, p) \
            == percentile_of_sorted(expanded, p)

    @settings(deadline=None, max_examples=60)
    @given(st.lists(st.floats(min_value=0, max_value=1e9,
                              allow_nan=False), min_size=1, max_size=64),
           st.floats(min_value=0, max_value=1e9, allow_nan=False))
    def test_cumsum_matches_sequential_fold(self, deltas, start):
        """The closed-form window clock is np.cumsum seeded with the
        running clock; it must reproduce the eager per-step fold
        ``clock += delta`` to the last bit."""
        arr = np.empty(len(deltas) + 1)
        arr[0] = start
        arr[1:] = deltas
        np.cumsum(arr, out=arr)
        clock = start
        folded = [clock]
        for d in deltas:
            clock = clock + np.float64(d)
            folded.append(clock)
        assert arr.tolist() == folded


class TestIdleAndEvictionFolds:
    """The event horizon folds the idle jump to the next arrival and
    the prefix-cache evictions of a full paged pool: every telemetry
    level, materialized or streamed, reports what the eager loop does."""

    @pytest.mark.parametrize("tp", (1, 2))
    @pytest.mark.parametrize("kv_mode", ("slotted", "paged"))
    def test_low_rate_trace_takes_no_eager_step(self, kv_mode, tp):
        """Requests arrive one at a time and drain before the next: each
        arrival is an idle jump the window folds into an admitting
        segment, so the run takes no eager step and owes no decode
        half."""
        requests = synthetic_trace(TINY_MODEL, 20, **LOW_RATE_KWARGS)

        def check(engine, eager_engine, report, counts):
            assert counts == {"step": 0, "decode": 0}
            stats = report.window_stats
            assert stats["folded_admissions"] == len(requests)
            assert stats["n_windows"] < len(requests)
            if report.telemetry != "sketch":
                assert engine.events == eager_engine.events

        _, eager = assert_windows_match_eager(
            lambda ff: make_engine("cycle", kv_mode, tp=tp, ff=ff),
            requests, check)
        # Idle gaps are real: most requests arrive to an idle engine.
        assert len(idle_gaps(requests, eager)) > len(requests) // 2

    @pytest.mark.parametrize("n_blocks", (24, 12))
    def test_evictable_prefix_pool_folds_block_frontiers(self, n_blocks):
        """A shared system prompt fills the pool with cached prefix
        blocks nobody holds: windows claim them as evictable supply
        instead of breaking at each block frontier, and evict exactly
        what the eager loop does.  24 blocks never run dry, so no
        window breaks at a frontier; 12 blocks preempt, and windows
        must run up to the last claimable block and no further."""
        requests = synthetic_trace(TINY_MODEL, 40, arrival_rate_rps=1000.0,
                                   seed=1, prompt_len=(3, 12),
                                   decode_len=(8, 40), shared_prefix_len=8)

        def engine(ff):
            backend = CycleModelBackend(TINY_MODEL, QUANT32,
                                        n_slots=MAX_BATCH, kv_mode="paged",
                                        block_size=4, n_kv_blocks=n_blocks)
            return ContinuousBatchScheduler(backend, max_batch=MAX_BATCH,
                                            fast_forward=ff)

        def check(engine, eager_engine, report, counts):
            paged, oracle = engine.backend.paged_kv, \
                eager_engine.backend.paged_kv
            assert paged.prefix.evictions == oracle.prefix.evictions
            assert paged.prefix_reused_tokens == oracle.prefix_reused_tokens
            if n_blocks == 24:
                assert report.window_stats["breaks"]["block-frontier"] == 0
            paged.audit()

        eager_engine, eager = assert_windows_match_eager(engine, requests,
                                                         check)
        assert eager_engine.backend.paged_kv.prefix.evictions > 0
        assert (eager.preemptions > 0) == (n_blocks == 12)
