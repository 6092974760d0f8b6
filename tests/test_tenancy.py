"""Multi-tenant serving: priority classes, KV quotas, admission control.

The contract under test: tenancy is *scheduling policy only* — every
fast-forward tier reproduces the eager loop bit for bit on mixed-tenant
traces; priority never inverts in victim selection; per-tenant quota
accounting never leaks a token; rejected work drains into the report
instead of aborting the run; and a default-tenant run is
indistinguishable from the pre-tenancy scheduler.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import ReplicaRouter
from repro.config import TINY_MODEL, QuantConfig
from repro.engine import (
    DEFAULT_TENANT,
    PRIORITY_CLASSES,
    ContinuousBatchScheduler,
    CycleModelBackend,
    FinishReason,
    Request,
    TenantSpec,
    iter_synthetic_trace,
    synthetic_trace,
)
from repro.errors import CapacityError, SimulationError

from report_checks import assert_reports_identical, count_steps

QUANT32 = QuantConfig(weight_group_size=32)
BLOCK_SIZE = 8
BUDGET_TOKENS = 128
MAX_BATCH = 4

FG = TenantSpec("fg", "interactive")
BULK = TenantSpec("bulk", "batch", kv_quota_tokens=64)
BG = TenantSpec("bg", "best_effort", kv_quota_tokens=48)
MIX = ((FG, 0.3), (BULK, 0.5), (BG, 0.2))


def make_engine(kv_mode, tp=1, ff=True, max_batch=MAX_BATCH,
                budget=BUDGET_TOKENS):
    kv = dict(kv_mode=kv_mode, block_size=BLOCK_SIZE,
              n_kv_blocks=budget // BLOCK_SIZE)
    backend = CycleModelBackend(TINY_MODEL, QUANT32, tp=tp,
                                n_slots=max_batch, **kv)
    token_budget = budget if kv_mode == "slotted" else None
    return ContinuousBatchScheduler(backend, max_batch=max_batch,
                                    kv_token_budget=token_budget,
                                    fast_forward=ff)


class TestTenantSpec:
    def test_default_tenant_is_quota_free_batch(self):
        assert DEFAULT_TENANT.priority == "batch"
        assert not DEFAULT_TENANT.has_quota
        assert Request(0, (1, 2), 4).tenant is DEFAULT_TENANT

    def test_ranks_follow_priority_order(self):
        ranks = [TenantSpec("t", p).rank for p in PRIORITY_CLASSES]
        assert ranks == sorted(ranks)
        assert TenantSpec("a", "interactive").rank \
            < TenantSpec("b", "best_effort").rank

    @pytest.mark.parametrize("kwargs", (
        dict(name=""),
        dict(priority="platinum"),
        dict(kv_quota_tokens=0),
        dict(kv_quota_blocks=-1),
        dict(kv_quota_tokens=8, kv_quota_blocks=2),
        dict(ttft_slo_s=0.0),
    ))
    def test_bad_spec_rejected(self, kwargs):
        with pytest.raises(SimulationError):
            TenantSpec(**{"name": "t", **kwargs})

    def test_request_requires_tenant_spec(self):
        with pytest.raises(SimulationError):
            Request(0, (1, 2), 4, tenant="interactive")


class TestPriorityAdmission:
    def test_interactive_jumps_earlier_batch_arrivals(self):
        """Both classes queued at the same instant: the interactive
        request is admitted first even though the batch request was
        submitted first, so its TTFT does not pay for the batch
        prefill-and-decode turn (FIFO would admit request 0 first)."""
        eng = make_engine("slotted", max_batch=1)
        reqs = [Request(0, tuple(range(1, 9)), 6, arrival_s=0.0),
                Request(1, (21, 22, 23), 4, arrival_s=0.0, tenant=FG)]
        report = eng.run(reqs)
        by_id = {r.request_id: r for r in report.results}
        assert by_id[1].ttft_s < by_id[0].ttft_s
        assert set(report.tenant_stats) == {"interactive", "batch"}

    def test_kv_pressure_evicts_lower_class_for_interactive(self):
        """An arrived interactive head that does not fit evicts running
        best-effort work — and never the other way around."""
        eng = make_engine("slotted", max_batch=2, budget=48)
        reqs = [Request(0, (1, 2, 3), 40, arrival_s=0.0, tenant=BG),
                Request(1, tuple(range(10, 40)), 4, arrival_s=2e-4,
                        tenant=FG)]
        report = eng.run(reqs)
        by_id = {r.request_id: r for r in report.results}
        assert by_id[0].preemptions > 0
        assert by_id[1].preemptions == 0

    @pytest.mark.parametrize("kv_mode", ("slotted", "paged"))
    def test_no_priority_inversion_in_victim_order(self, kv_mode):
        """Under sustained mixed-class contention, every eviction lands
        on the lowest class present in its candidate pool — higher-class
        work is never sacrificed while lower-class work is evictable."""
        victim_log = []

        class Watched(ContinuousBatchScheduler):
            def _pick_victim(self, pool):
                victim = super()._pick_victim(pool)
                victim_log.append(
                    (victim.request.tenant.rank,
                     max(s.request.tenant.rank for s in pool)))
                return victim

        kv = dict(kv_mode=kv_mode, block_size=BLOCK_SIZE,
                  n_kv_blocks=64 // BLOCK_SIZE)
        backend = CycleModelBackend(TINY_MODEL, QUANT32,
                                    n_slots=MAX_BATCH, **kv)
        eng = Watched(backend, max_batch=MAX_BATCH,
                      kv_token_budget=64 if kv_mode == "slotted" else None,
                      fast_forward=True)
        trace = synthetic_trace(TINY_MODEL, 60, arrival_rate_rps=20000.0,
                                seed=7, prompt_len=(3, 10),
                                decode_len=(12, 40), tenant_mix=MIX)
        report = eng.run(trace)
        assert report.preemptions > 0
        assert victim_log
        assert all(victim == worst for victim, worst in victim_log)


class TestQuota:
    def test_tenant_at_quota_queues_with_pool_room(self):
        """Quota admission control: a second same-tenant request waits
        for its sibling to retire even though pool and batch have room —
        and its TTFT shows the serialization."""
        tenant = TenantSpec("capped", "batch", kv_quota_tokens=8)
        eng = make_engine("slotted")
        reqs = [Request(0, (1, 2, 3, 4), 4, tenant=tenant),
                Request(1, (5, 6, 7, 8), 4, arrival_s=1e-6,
                        tenant=tenant)]
        report = eng.run(reqs)
        by_id = {r.request_id: r for r in report.results}
        assert report.max_batch_observed == 1
        assert by_id[1].ttft_s > by_id[0].e2e_s

    def test_quota_blocked_head_yields_to_lower_class(self):
        """A quota-blocked head must not block classes below it — only
        a *pool*-blocked head does (strict priority)."""
        capped = TenantSpec("capped", "batch", kv_quota_tokens=8)
        eng = make_engine("slotted")
        reqs = [Request(0, (1, 2, 3, 4), 12, tenant=capped),
                Request(1, (5, 6, 7, 8), 12, arrival_s=1e-6,
                        tenant=capped),
                Request(2, (11, 12, 13), 6, arrival_s=2e-6,
                        tenant=TenantSpec("bg", "best_effort"))]
        report = eng.run(reqs)
        by_id = {r.request_id: r for r in report.results}
        # The best-effort request slipped past the blocked batch head.
        assert by_id[2].ttft_s < by_id[1].ttft_s

    def test_quota_growth_preempts_own_tenant_only(self):
        """Decode growth past quota evicts the offending tenant's own
        youngest sequence, not a bystander."""
        capped = TenantSpec("capped", "batch", kv_quota_tokens=24)
        eng = make_engine("slotted")
        reqs = [Request(0, (1, 2, 3), 12, tenant=capped),
                Request(1, (4, 5, 6), 12, arrival_s=1e-6, tenant=capped),
                Request(2, (7, 8, 9), 12, arrival_s=2e-6)]
        report = eng.run(reqs)
        by_id = {r.request_id: r for r in report.results}
        assert by_id[0].preemptions + by_id[1].preemptions > 0
        assert by_id[2].preemptions == 0
        assert all(len(r.tokens) == 12 for r in report.results)

    def test_block_quota_converts_through_pool(self):
        tenant = TenantSpec("paged-capped", "batch", kv_quota_blocks=2)
        eng = make_engine("paged")
        reqs = [Request(0, tuple(range(1, 9)), 6, tenant=tenant),
                Request(1, tuple(range(11, 19)), 6, arrival_s=1e-6,
                        tenant=tenant)]
        report = eng.run(reqs)
        assert report.max_batch_observed == 1  # 2 blocks = 16 tokens
        assert len(report.results) == 2

    def test_block_quota_on_slotted_backend_rejected(self):
        tenant = TenantSpec("t", "batch", kv_quota_blocks=2)
        eng = make_engine("slotted")
        with pytest.raises(SimulationError, match="paged"):
            eng.submit(Request(0, (1, 2), 4, tenant=tenant))

    def test_conflicting_quotas_for_one_name_rejected(self):
        eng = make_engine("slotted")
        eng.submit(Request(0, (1, 2), 4,
                           tenant=TenantSpec("t", kv_quota_tokens=32)))
        with pytest.raises(SimulationError, match="conflicting"):
            eng.submit(Request(1, (1, 2), 4,
                               tenant=TenantSpec("t", kv_quota_tokens=16)))

    def test_prompt_exceeding_quota_raises_on_submit(self):
        eng = make_engine("slotted")
        with pytest.raises(CapacityError, match="quota"):
            eng.submit(Request(0, tuple(range(20)), 4,
                               tenant=TenantSpec("t", kv_quota_tokens=8)))

    @settings(deadline=None, max_examples=10)
    @given(seed=st.integers(0, 10_000),
           arrival_rate=st.sampled_from([1e9, 20000.0, 500.0]),
           n_requests=st.integers(6, 30))
    def test_quota_accounting_leak_free_under_churn(self, seed,
                                                    arrival_rate,
                                                    n_requests):
        """Hypothesis churn over admit/preempt/retire: the per-tenant
        cached-token ledger always equals the sum of live member
        positions, and drains to zero with the pool."""
        trace = synthetic_trace(TINY_MODEL, n_requests,
                                arrival_rate_rps=arrival_rate, seed=seed,
                                prompt_len=(3, 10), decode_len=(4, 30),
                                tenant_mix=MIX)
        eng = make_engine("slotted", budget=64)
        for request in trace:
            eng.submit(request)
        while eng.waiting or eng.running:
            eng.step()
            live = {name: 0 for name in eng._tenant_cached}
            for s in eng.running:
                name = s.request.tenant.name
                if name in live:
                    live[name] += s.position
            assert eng._tenant_cached == live
        assert all(v == 0 for v in eng._tenant_cached.values())


class TestRejection:
    def poisoned(self):
        good = synthetic_trace(TINY_MODEL, 8, arrival_rate_rps=5000.0,
                               seed=3, prompt_len=(3, 8),
                               decode_len=(4, 12))
        bad = Request(100, tuple(range(200)), 4,
                      arrival_s=good[3].arrival_s, tenant=BG)
        return sorted(good + [bad], key=lambda r: r.arrival_s)

    @pytest.mark.parametrize("ff", (True, False))
    def test_poisoned_stream_drains_and_reports(self, ff):
        """A mid-trace request that can never fit must not abort the
        run: it surfaces as a REJECTED result and the rest completes,
        fast-forwarded and eager alike."""
        eng = make_engine("slotted", budget=64, ff=ff)
        report = eng.run(iter(self.poisoned()))
        results = {r.request_id: r for r in report.results}
        bad = results[100]
        assert bad.finish_reason == FinishReason.REJECTED
        assert bad.tokens == () and bad.ttft_s is None
        assert bad.e2e_s == 0.0
        assert len(results) == 9
        assert all(r.finish_reason != FinishReason.REJECTED
                   for rid, r in results.items() if rid != 100)
        assert report.tenant_stats["best_effort"]["n_rejected"] == 1
        assert report.tenant_stats["best_effort"]["new_tokens"] == 0

    def test_poisoned_materialized_run_matches_stream(self):
        trace = self.poisoned()
        materialized = make_engine("slotted", budget=64).run(trace)
        streamed = make_engine("slotted", budget=64).run(iter(trace))
        assert_reports_identical(streamed, materialized)

    def test_direct_submit_still_raises(self):
        """run()/streams reject; explicit submit() keeps the loud
        contract the PR 1 suite pinned."""
        eng = make_engine("slotted", budget=32)
        with pytest.raises(CapacityError):
            eng.submit(Request(0, tuple(range(40)), 4))


class TestBestEffortDrop:
    def run_thrash(self, ff, tp=1):
        bg = TenantSpec("bg", "best_effort")  # quota-free: evictions,
        eng = make_engine("slotted", tp=tp, budget=64, ff=ff)  # not caps
        reqs = [Request(0, (1, 2, 3), 55, arrival_s=0.0, tenant=bg)]
        for i in range(1, 25):
            reqs.append(Request(i, tuple(range(2, 14)), 12,
                                arrival_s=i * 3e-4, tenant=FG))
        return eng.run(reqs)

    def test_thrashing_best_effort_dropped(self):
        """A best-effort sequence evicted past the limit is dropped
        (REJECTED) instead of thrashing the pool forever."""
        report = self.run_thrash(ff=False)
        bg = [r for r in report.results
              if r.tenant_class == "best_effort"][0]
        assert bg.finish_reason == FinishReason.REJECTED
        assert bg.preemptions > 3
        assert report.tenant_stats["best_effort"]["n_rejected"] == 1
        fg = report.tenant_stats["interactive"]
        assert fg["n_rejected"] == 0 and fg["n_requests"] == 24

    @pytest.mark.parametrize("tp", (1, 2))
    def test_drop_is_tier_invariant(self, tp):
        assert_reports_identical(self.run_thrash(ff=True, tp=tp),
                                 self.run_thrash(ff=False, tp=tp))


class TestTenancyTiersAgree:
    """Satellite: the differential harness over mixed-tenant traces —
    event-horizon windows == eager across KV modes and TP=2."""

    @pytest.mark.parametrize("tp", (1, 2))
    @pytest.mark.parametrize("kv_mode", ("slotted", "paged"))
    @settings(deadline=None, max_examples=8)
    @given(seed=st.integers(0, 10_000),
           arrival_rate=st.sampled_from([1e9, 20000.0, 800.0]),
           n_requests=st.integers(4, 24),
           decode_hi=st.integers(8, 48))
    def test_mixed_tenant_tiers_agree(self, kv_mode, tp, seed, arrival_rate,
                                      n_requests, decode_hi):
        trace = synthetic_trace(TINY_MODEL, n_requests,
                                arrival_rate_rps=arrival_rate, seed=seed,
                                prompt_len=(3, 10),
                                decode_len=(4, decode_hi),
                                tenant_mix=MIX)
        eager = make_engine(kv_mode, tp=tp, ff=False).run(trace)
        windowed = make_engine(kv_mode, tp=tp).run(trace)
        assert_reports_identical(windowed, eager)

    def test_mixed_tenant_contention_tiers_agree(self):
        """Heavy preemption + quota churn: the regime where a wrong
        window cap would first diverge."""
        kwargs = dict(arrival_rate_rps=50000.0, seed=11,
                      prompt_len=(3, 10), decode_len=(16, 48),
                      tenant_mix=MIX)
        trace = synthetic_trace(TINY_MODEL, 80, **kwargs)
        eager = make_engine("slotted", ff=False,
                            budget=64).run(trace)
        assert eager.preemptions > 0
        windowed = make_engine("slotted", budget=64).run(trace)
        assert_reports_identical(windowed, eager)

    @pytest.mark.parametrize("kv_mode", ("slotted", "paged"))
    def test_quota_knee_folded_admissions_agree(self, kv_mode):
        """Quota'd tenants past the knee: admissions fold into windows,
        and where a segment start admits but KV pressure then forces an
        eviction, the window hands that step to the eager decode half.
        Materialized and streamed runs both match the eager loop,
        events included.  The paged pool is 12 blocks: windows claim
        evictable prefix blocks, so on the default 16 every admitting
        segment start folds its first step and no decode half is owed."""
        kwargs = dict(arrival_rate_rps=20000.0, seed=1,
                      prompt_len=(3, 10), decode_len=(8, 32),
                      tenant_mix=MIX)
        budget = BUDGET_TOKENS if kv_mode == "slotted" \
            else 12 * BLOCK_SIZE
        trace = synthetic_trace(TINY_MODEL, 80, **kwargs)
        eager_eng = make_engine(kv_mode, ff=False, budget=budget)
        eager = eager_eng.run(trace)
        assert eager.preemptions > 0
        eng = make_engine(kv_mode, budget=budget)
        counts = count_steps(eng)
        assert_reports_identical(eng.run(trace), eager)
        assert eng.events == eager_eng.events
        # Owed steps: decode halves the windows ran after admitting.
        assert counts["decode"] > counts["step"]
        streamed_eng = make_engine(kv_mode, budget=budget)
        streamed = streamed_eng.run(
            iter_synthetic_trace(TINY_MODEL, 80, **kwargs),
            telemetry="windows")
        assert_reports_identical(streamed, eager)
        assert streamed_eng.events == eager_eng.events
        assert streamed.window_stats["folded_admissions"] > 40

    def test_pool_blocked_paged_head_folds_agree(self):
        """A tight paged pool under quota churn: a preempted batch-class
        head waits on pool capacity and, by strict priority, holds back
        a best-effort head that would fit — until its own tenant's
        growth makes it quota-blocked, which hands admission to the
        best-effort head mid-segment.  Windows must end exactly there,
        as the eager loop's per-step scan does."""
        kwargs = dict(arrival_rate_rps=20000.0, seed=0,
                      prompt_len=(3, 10), decode_len=(8, 32),
                      tenant_mix=MIX)
        trace = synthetic_trace(TINY_MODEL, 80, **kwargs)
        eager_eng = make_engine("paged", ff=False, budget=64)
        eager = eager_eng.run(trace)
        eng = make_engine("paged", budget=64)
        assert_reports_identical(eng.run(trace), eager)
        assert eng.events == eager_eng.events
        streamed = make_engine("paged", budget=64).run(
            iter_synthetic_trace(TINY_MODEL, 80, **kwargs),
            telemetry="windows")
        assert_reports_identical(streamed, eager)
        assert streamed.window_stats["folded_admissions"] > 0

    def test_stream_lookahead_cuts_behind_a_blocked_class(self):
        """A streamed run sees one request ahead.  When that look-ahead
        queues behind a pool-blocked head of its own class, a later
        arrival of another class may still be admissible, so the window
        must cut at the look-ahead's arrival to see it."""
        kwargs = dict(arrival_rate_rps=3000.0, seed=288,
                      prompt_len=(3, 12), decode_len=(2, 48),
                      tenant_mix=tuple((t, 1.0) for t in (
                          TenantSpec("fg", "interactive"),
                          TenantSpec("bulk", "batch"),
                          TenantSpec("bg", "best_effort"))))
        eager_eng = make_engine("slotted", ff=False, max_batch=8,
                                budget=48)
        eager = eager_eng.run(synthetic_trace(TINY_MODEL, 46, **kwargs))
        eng = make_engine("slotted", max_batch=8, budget=48)
        streamed = eng.run(iter_synthetic_trace(TINY_MODEL, 46, **kwargs),
                           telemetry="windows")
        assert_reports_identical(streamed, eager)
        assert eng.events == eager_eng.events

    def test_sharded_tp2_mixed_tenant_tiers_agree(self):
        trace = synthetic_trace(TINY_MODEL, 16, arrival_rate_rps=2000.0,
                                seed=5, prompt_len=(3, 10),
                                decode_len=(8, 30), tenant_mix=MIX)
        eager = make_engine("slotted", tp=2, ff=False).run(trace)
        windowed = make_engine("slotted", tp=2).run(trace)
        assert_reports_identical(windowed, eager)

    @pytest.mark.parametrize("telemetry", ("windows", "sketch"))
    def test_streamed_tenant_stats_match_eager(self, telemetry):
        """Tenant stats are per-request scalars, exact at every level —
        including ``"sketch"``, which only sketches decode latencies."""
        kwargs = dict(arrival_rate_rps=5000.0, seed=9, prompt_len=(3, 8),
                      decode_len=(4, 20), tenant_mix=MIX)
        eager = make_engine("paged", ff=False).run(
            synthetic_trace(TINY_MODEL, 30, **kwargs))
        streamed = make_engine("paged").run(
            iter_synthetic_trace(TINY_MODEL, 30, **kwargs),
            telemetry=telemetry)
        assert streamed.tenant_stats == eager.tenant_stats

    def test_cluster_merged_tenant_stats_match_materialized(self):
        kwargs = dict(arrival_rate_rps=8000.0, seed=2, prompt_len=(3, 8),
                      decode_len=(4, 16), tenant_mix=MIX)
        trace = synthetic_trace(TINY_MODEL, 40, **kwargs)

        def engines():
            return [make_engine("slotted") for _ in range(2)]

        eager = ReplicaRouter(engines()).run(trace)
        streamed = ReplicaRouter(engines()).run(
            lambda: iter_synthetic_trace(TINY_MODEL, 40, **kwargs),
            telemetry="windows")
        assert streamed.tenant_stats == eager.tenant_stats
        total = sum(s["n_requests"]
                    for s in eager.tenant_stats.values())
        assert total == 40


def test_running_members_leave_by_identity(monkeypatch):
    """Retiring, evicting or checkpointing a sequence finds it in the
    running batch by identity: comparing states field by field would
    call ``Request.__eq__`` against every member ahead of it, on every
    retirement."""
    requests = synthetic_trace(TINY_MODEL, 1000, arrival_rate_rps=12000.0,
                               seed=1, tenant_mix=MIX)
    calls = [0]
    request_eq = Request.__eq__

    def counting_eq(self, other):
        calls[0] += 1
        return request_eq(self, other)

    monkeypatch.setattr(Request, "__eq__", counting_eq)
    backend = CycleModelBackend(TINY_MODEL, QUANT32, n_slots=8)
    report = ContinuousBatchScheduler(backend, max_batch=8).run(requests)
    assert len(report.results) == len(requests)
    assert calls[0] <= len(requests) // 100


class TestDefaultTenantUnchanged:
    def test_default_trace_draws_are_bit_identical(self):
        """tenant_mix=None must leave the RNG stream untouched — the
        default trace is the pre-tenancy trace, element for element."""
        kwargs = dict(arrival_rate_rps=700.0, seed=4, prompt_len=(3, 9),
                      decode_len=(4, 18))
        plain = synthetic_trace(TINY_MODEL, 30, **kwargs)
        mixed = synthetic_trace(TINY_MODEL, 30, tenant_mix=MIX, **kwargs)
        for a, b in zip(plain, mixed):
            assert a.arrival_s == b.arrival_s
            assert a.prompt == b.prompt
            assert a.max_new_tokens == b.max_new_tokens
            assert a.tenant is DEFAULT_TENANT

    def test_default_run_reports_single_batch_class(self):
        trace = synthetic_trace(TINY_MODEL, 10, arrival_rate_rps=1000.0,
                                seed=1, prompt_len=(3, 8),
                                decode_len=(4, 12))
        report = make_engine("slotted").run(trace)
        assert set(report.tenant_stats) == {"batch"}
        stats = report.tenant_stats["batch"]
        assert stats["n_requests"] == 10
        assert stats["new_tokens"] == report.total_new_tokens
        assert all(r.tenant_class == "batch" for r in report.results)

    def test_retenanted_trace_changes_only_tenancy(self):
        """Re-tagging every request with the default tenant reproduces
        the untagged run exactly — tenancy with one batch-class tenant
        is the identity policy."""
        trace = synthetic_trace(TINY_MODEL, 20, arrival_rate_rps=9000.0,
                                seed=6, prompt_len=(3, 8),
                                decode_len=(6, 24), tenant_mix=MIX)
        plain = [dataclasses.replace(r, tenant=DEFAULT_TENANT)
                 for r in trace]
        named = [dataclasses.replace(
            r, tenant=TenantSpec(r.tenant.name, "batch"))
            for r in trace]
        ref = make_engine("slotted").run(plain)
        got = make_engine("slotted").run(named)
        assert ref.total_time_s == got.total_time_s
        assert ref.preemptions == got.preemptions
        for ra, rb in zip(ref.results, got.results):
            assert tuple(ra.tokens) == tuple(rb.tokens)
            assert ra.ttft_s == rb.ttft_s
            assert ra.e2e_s == rb.e2e_s
