"""Run-length telemetry and streaming: exact-expansion guarantees.

The contract under test: ``telemetry="windows"`` and streamed traces
are pure *representations* — every observable (events, step batches,
clocks, per-request token streams and latencies, percentiles) expands
to the bit-identical values the eager ``telemetry="full"`` run
materializes, across all three backends, both KV disciplines, and a
TP=2 sharded backend; ``telemetry="summary"`` preserves every scalar
aggregate and percentile exactly.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import (
    ReplicaRouter,
    ShardedAnalyticalBackend,
    ShardedCycleBackend,
)
from repro.config import TINY_MODEL, QuantConfig
from repro.engine import (
    WINDOW_BREAK_REASONS,
    AnalyticalBackend,
    ContinuousBatchScheduler,
    CycleModelBackend,
    FinishReason,
    FunctionalBackend,
    Request,
    StepWindow,
    iter_synthetic_trace,
    synthetic_trace,
)
from repro.errors import SimulationError
from repro.stats import percentile_of_runs, percentile_of_sorted

from report_checks import assert_reports_identical

QUANT32 = QuantConfig(weight_group_size=32)
BLOCK_SIZE = 8
BUDGET_TOKENS = 256
MAX_BATCH = 4
PERCENTILES = (0.0, 25.0, 50.0, 95.0, 99.0, 100.0)


def make_engine(kind, kv_mode, tiny_qweights=None, tp=1, ff=True):
    kv = dict(kv_mode=kv_mode, block_size=BLOCK_SIZE,
              n_kv_blocks=BUDGET_TOKENS // BLOCK_SIZE)
    if kind == "functional":
        backend = FunctionalBackend(tiny_qweights, n_slots=MAX_BATCH,
                                    **kv)
    elif tp > 1:
        cls = ShardedCycleBackend if kind == "cycle" \
            else ShardedAnalyticalBackend
        backend = cls(TINY_MODEL, QUANT32, tp=tp, n_slots=MAX_BATCH, **kv)
    else:
        cls = CycleModelBackend if kind == "cycle" else AnalyticalBackend
        backend = cls(TINY_MODEL, QUANT32, n_slots=MAX_BATCH, **kv)
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

    @pytest.mark.parametrize("kv_mode", ("slotted", "paged"))
    @pytest.mark.parametrize("kind", ("cycle", "analytical"))
    @settings(deadline=None, max_examples=12)
    @given(seed=st.integers(0, 10_000),
           arrival_rate=st.sampled_from([1e9, 5000.0, 300.0]),
           n_requests=st.integers(4, 24),
           decode_hi=st.integers(6, 40))
    def test_windows_expand_to_full(self, kind, kv_mode, seed,
                                    arrival_rate, n_requests, decode_hi):
        kwargs = dict(arrival_rate_rps=arrival_rate, seed=seed,
                      prompt_len=(3, 10), decode_len=(4, decode_hi),
                      shared_prefix_len=8)
        trace = synthetic_trace(TINY_MODEL, n_requests, **kwargs)
        eng_full = make_engine(kind, kv_mode)
        full = eng_full.run(trace)
        eng_win = make_engine(kind, kv_mode)
        windows = eng_win.run(
            iter_synthetic_trace(TINY_MODEL, n_requests, **kwargs),
            telemetry="windows")
        assert_reports_identical(windows, full)
        assert_percentiles_identical(windows, full)
        assert windows.mean_ttft_s == full.mean_ttft_s
        assert windows.mean_batch == full.mean_batch
        # Expanded event streams (clocks included) match bit for bit.
        assert eng_win.events == eng_full.events

        eng_sum = make_engine(kind, kv_mode)
        summary = eng_sum.run(
            iter_synthetic_trace(TINY_MODEL, n_requests, **kwargs),
            telemetry="summary")
        assert summary.total_time_s == full.total_time_s
        assert summary.n_steps == full.n_steps
        assert summary.total_new_tokens == full.total_new_tokens
        assert summary.max_batch_observed == full.max_batch_observed
        assert summary.mean_batch == full.mean_batch
        assert_percentiles_identical(summary, full)

    @pytest.mark.parametrize("kind", ("cycle", "analytical"))
    def test_sharded_tp2_windows_expand_to_full(self, kind):
        kwargs = dict(arrival_rate_rps=500.0, seed=4,
                      prompt_len=(3, 10), decode_len=(4, 24))
        trace = synthetic_trace(TINY_MODEL, 12, **kwargs)
        full = make_engine(kind, "slotted", tp=2).run(trace)
        eng = make_engine(kind, "slotted", tp=2)
        windows = eng.run(
            iter_synthetic_trace(TINY_MODEL, 12, **kwargs),
            telemetry="windows")
        assert_reports_identical(windows, full)
        assert_percentiles_identical(windows, full)

    @pytest.mark.parametrize("kv_mode", ("slotted", "paged"))
    def test_functional_windows_expand_to_full(self, kv_mode,
                                               tiny_qweights):
        """The functional backend never fast-forwards, but the windowed
        report (eager token columns, span-gathered latencies) must
        still reproduce the eager report exactly."""
        system = tuple(range(1, 17))
        trace = [Request(i, system + (30 + i, 40 + i), max_new_tokens=6)
                 for i in range(4)]
        full = make_engine("functional", kv_mode, tiny_qweights).run(trace)
        windows = make_engine("functional", kv_mode, tiny_qweights).run(
            trace, telemetry="windows")
        assert_reports_identical(windows, full)
        assert_percentiles_identical(windows, full)

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

    def test_oracle_eos_windows_match_full(self):
        """Oracle streams ending in EOS retire identically under
        windowed telemetry (tokens replayed through the oracle)."""
        stream = (21, 22, 23, 24, 25, 7)

        def oracle(request_id, step):
            return stream[step]

        def engine():
            backend = CycleModelBackend(TINY_MODEL, QUANT32, n_slots=1,
                                        token_oracle=oracle)
            return ContinuousBatchScheduler(
                backend, max_batch=1, kv_token_budget=BUDGET_TOKENS)

        requests = [Request(0, (5, 6), max_new_tokens=30, eos_id=7)]
        full = engine().run(requests)
        windows = engine().run(requests, telemetry="windows")
        assert_reports_identical(windows, full)
        assert windows.results[0].tokens == stream

    def test_summary_keeps_no_results(self):
        eng = make_engine("cycle", "slotted")
        report = eng.run([Request(0, (1, 2), max_new_tokens=4)],
                         telemetry="summary")
        with pytest.raises(SimulationError):
            report.results
        with pytest.raises(SimulationError):
            report.step_batches
        with pytest.raises(SimulationError):
            eng.events

    def test_unknown_level_rejected(self):
        eng = make_engine("cycle", "slotted")
        with pytest.raises(SimulationError):
            eng.run([Request(0, (1, 2), max_new_tokens=4)],
                    telemetry="everything")


class TestEventHorizonTiers:
    """Satellite: event-horizon fast-forward is a pure optimization.
    ``fast_forward=True`` must reproduce the eager loop bit for bit on
    every observable, while the recorded window count collapses on
    retirement-dominated traces."""

    @pytest.mark.parametrize("kv_mode", ("slotted", "paged"))
    @pytest.mark.parametrize("kind", ("cycle", "analytical"))
    @settings(deadline=None, max_examples=8)
    @given(seed=st.integers(0, 10_000),
           arrival_rate=st.sampled_from([1e9, 2000.0, 150.0]),
           n_requests=st.integers(3, 12),
           decode_hi=st.integers(30, 80))
    def test_long_decode_tiers_agree(self, kind, kv_mode, seed,
                                     arrival_rate, n_requests,
                                     decode_hi):
        """Long decodes make predicted-retirement segments fire; the
        windows must stay bit-identical to the eager loop through
        them."""
        kwargs = dict(arrival_rate_rps=arrival_rate, seed=seed,
                      prompt_len=(3, 10), decode_len=(25, decode_hi),
                      shared_prefix_len=8)
        trace = synthetic_trace(TINY_MODEL, n_requests, **kwargs)
        eager = make_engine(kind, kv_mode, ff=False).run(trace)
        windowed = make_engine(kind, kv_mode).run(trace)
        assert_reports_identical(windowed, eager)
        assert_percentiles_identical(windowed, eager)

    @pytest.mark.parametrize("kv_mode", ("slotted", "paged"))
    def test_oracle_mixed_eos_length_tiers_agree(self, kv_mode):
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
                TINY_MODEL, QUANT32, n_slots=MAX_BATCH,
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

    @pytest.mark.parametrize("kind", ("cycle", "analytical"))
    def test_sharded_tp2_tiers_agree(self, kind):
        kwargs = dict(arrival_rate_rps=800.0, seed=9,
                      prompt_len=(3, 10), decode_len=(20, 48))
        trace = synthetic_trace(TINY_MODEL, 10, **kwargs)
        eager = make_engine(kind, "slotted", tp=2, ff=False).run(trace)
        windowed = make_engine(kind, "slotted", tp=2).run(trace)
        assert_reports_identical(windowed, eager)
        assert_percentiles_identical(windowed, eager)

    def test_retirement_dominated_trace_collapses_windows(self):
        """Staggered-length decodes with an empty arrival queue: every
        retirement folds into a segment of the same window, so the
        whole decode after the admission step is ONE window of
        MAX_BATCH segments."""
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
            "breaks": {reason: 0 for reason in WINDOW_BREAK_REASONS}}
        assert eager.window_stats["n_windows"] == 0
        assert len(eng._recorder.records) < report.n_steps

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

    def test_streamed_report_carries_window_stats(self):
        kwargs = dict(arrival_rate_rps=600.0, seed=13,
                      prompt_len=(3, 8), decode_len=(10, 30))
        full = make_engine("cycle", "paged").run(
            synthetic_trace(TINY_MODEL, 20, **kwargs))
        summary = make_engine("cycle", "paged").run(
            iter_synthetic_trace(TINY_MODEL, 20, **kwargs),
            telemetry="summary")
        assert summary.window_stats == full.window_stats
        assert full.window_stats["n_windows"] > 0

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
        full = make_engine("cycle", "slotted").run(trace)
        streamed = make_engine("cycle", "slotted").run(
            iter_synthetic_trace(TINY_MODEL, 25, **kwargs))
        assert_reports_identical(streamed, full)

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

        summary = ReplicaRouter(self._engines(2), policy=policy).run(
            factory, telemetry="summary")
        assert summary.total_time_s == eager.total_time_s
        assert summary.n_steps == eager.n_steps
        assert summary.total_new_tokens == eager.total_new_tokens
        assert_percentiles_identical(summary, eager)

    def test_factory_full_run_records_assignments_and_loads(self):
        """At telemetry='full' a factory run must report routing like a
        materialized run — assignments map and load ledger included."""
        kwargs = dict(arrival_rate_rps=2000.0, seed=6, prompt_len=(3, 8),
                      decode_len=(4, 16))
        trace = synthetic_trace(TINY_MODEL, 20, **kwargs)
        eager_router = ReplicaRouter(self._engines(2),
                                     policy="least_loaded")
        eager = eager_router.run(trace)
        factory_router = ReplicaRouter(self._engines(2),
                                       policy="least_loaded")
        streamed = factory_router.run(
            lambda: iter_synthetic_trace(TINY_MODEL, 20, **kwargs),
            telemetry="full")
        assert factory_router.assignments == eager_router.assignments
        assert streamed.assignments == eager.assignments
        assert factory_router.loads == eager_router.loads
        assert factory_router.loads \
            == factory_router.recompute_loads(trace)

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
    """PR 8: ``telemetry="sketch"`` trades the exact latency sample for
    a t-digest; every other observable stays bit-identical to full."""

    KWARGS = dict(arrival_rate_rps=2000.0, seed=17, prompt_len=(3, 8),
                  decode_len=(4, 24), shared_prefix_len=4)
    N = 60

    def _pair(self, kind="cycle", kv_mode="slotted"):
        full = make_engine(kind, kv_mode).run(
            synthetic_trace(TINY_MODEL, self.N, **self.KWARGS))
        sketch = make_engine(kind, kv_mode).run(
            iter_synthetic_trace(TINY_MODEL, self.N, **self.KWARGS),
            telemetry="sketch")
        return full, sketch

    @pytest.mark.parametrize("kind", ("cycle", "analytical"))
    def test_aggregates_and_ttft_exact(self, kind):
        full, sketch = self._pair(kind=kind)
        assert sketch.total_time_s == full.total_time_s
        assert sketch.n_steps == full.n_steps
        assert sketch.total_new_tokens == full.total_new_tokens
        assert sketch.preemptions == full.preemptions
        assert sketch.n_requests == full.n_requests
        assert sketch.window_stats == full.window_stats
        # TTFTs are per-request scalars, kept exact at every level.
        for p in PERCENTILES:
            assert sketch.ttft_percentile_s(p) == full.ttft_percentile_s(p)

    def test_latency_percentiles_within_digest_bound(self):
        full, sketch = self._pair()
        ordered = sorted(s for r in full.results
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
        summary = make_engine("cycle", "slotted").run(
            iter_synthetic_trace(TINY_MODEL, 8, **self.KWARGS),
            telemetry="summary")
        with pytest.raises(SimulationError, match="latency_runs"):
            summary.latency_digest()

    def test_recorder_storage_by_level(self):
        from repro.obs import ColumnarRecords

        eng_win = make_engine("cycle", "slotted")
        eng_win.run(iter_synthetic_trace(TINY_MODEL, 12, **self.KWARGS),
                    telemetry="windows")
        assert isinstance(eng_win._recorder.records, ColumnarRecords)
        eng_full = make_engine("cycle", "slotted")
        eng_full.run(synthetic_trace(TINY_MODEL, 12, **self.KWARGS))
        assert isinstance(eng_full._recorder.records, list)

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
                factory, telemetry="summary").latency_digest()


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
