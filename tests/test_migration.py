"""Graceful drains, KV migration, failure domains, hedged dispatch.

The PR 10 contract: a ``"drain"`` fault hands its work over instead of
killing it — queued members re-dispatch immediately, running sequences
checkpoint at the deadline and resume elsewhere with their KV shipped
over the interconnect and *zero* prefill recompute; failure domains
correlate faults and steer retries/handoffs across racks; hedged
dispatch duplicates tail-latency requests first-token-wins.  All of it
stays bit-identical with fast-forward on or off, and retried
or migrated requests account TTFT/E2E from their *original* arrival.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import (
    DegradedModeConfig,
    FailureDomain,
    FaultEvent,
    FaultSchedule,
    HealthTracker,
    HedgePolicy,
    MigrationPolicy,
    ReplicaRouter,
    RetryPolicy,
    TEN_GIG_ETHERNET,
)
from repro.config import TINY_MODEL
from repro.engine import (
    ContinuousBatchScheduler,
    CycleModelBackend,
    FinishReason,
    Request,
    StepEvent,
    TenantSpec,
    iter_synthetic_trace,
    synthetic_trace,
)
from repro.errors import SimulationError
from repro.scenario import Scenario
from report_checks import (
    assert_levels_agree,
    assert_reports_identical,
    assert_windows_match_eager,
)
from test_telemetry_equivalence import (
    KNEE_MIX,
    LOW_RATE_KWARGS,
    QUANT32,
    idle_gaps,
    make_engine,
)

FF_TIERS = (True, False)


def trace(n=32, rate=1e9, seed=0, decode=(64, 128), mix=None):
    return synthetic_trace(TINY_MODEL, n_requests=n,
                           arrival_rate_rps=rate, seed=seed,
                           prompt_len=(3, 8), decode_len=decode,
                           tenant_mix=mix)


def cluster(ff=True, n=3, kv="slotted", tp=1, **kwargs):
    engines = [make_engine("cycle", kv, tp=tp, ff=ff) for _ in range(n)]
    return ReplicaRouter(engines, **kwargs)


#: all arrivals at ~t=0, drain lands while the backlog is mid-flight,
#: and the window is too short for running sequences to finish — so the
#: deadline checkpoint path (KV actually ships) is always exercised.
DRAIN = FaultSchedule([FaultEvent("drain", 1, 0.0005, 0.0005)])

#: the same disruption window, taken as an unplanned crash instead.
CRASH = FaultSchedule([FaultEvent("crash", 1, 0.0005, 0.0005,
                                  warmup_s=0.0)])


# ---------------------------------------------------------------------
# Policies
# ---------------------------------------------------------------------

class TestMigrationPolicy:
    def test_handoff_cost_is_serialize_plus_link(self):
        policy = MigrationPolicy()
        base = policy.serialize_s + TEN_GIG_ETHERNET.latency_s
        assert policy.handoff_s(0) == base
        bw = TEN_GIG_ETHERNET.bandwidth_bytes_per_s
        assert policy.handoff_s(1 << 20) == base + (1 << 20) / bw

    def test_validation(self):
        with pytest.raises(SimulationError):
            MigrationPolicy(serialize_s=-1e-6)
        with pytest.raises(SimulationError):
            MigrationPolicy().handoff_s(-1)

    def test_hedge_policy_validation(self):
        with pytest.raises(SimulationError):
            HedgePolicy(delay_s=0.0)
        with pytest.raises(SimulationError):
            HedgePolicy(delay_s=0.001, max_hedges=0)

    def test_hedge_from_report_reads_ttft_tail(self):
        rep = cluster().run(trace())
        policy = HedgePolicy.from_report(rep, quantile=95.0)
        assert policy.delay_s == rep.ttft_percentile_s(95.0)


# ---------------------------------------------------------------------
# Failure domains
# ---------------------------------------------------------------------

class TestFailureDomains:
    def test_domain_validation(self):
        with pytest.raises(SimulationError):
            FailureDomain("empty", ())
        with pytest.raises(SimulationError):
            FailureDomain("dup", (0, 0))
        with pytest.raises(SimulationError):
            FailureDomain("neg", (-1,))

    def test_topology_validation(self):
        with pytest.raises(SimulationError):
            FaultSchedule([], topology=(FailureDomain("a", (0, 1)),
                                        FailureDomain("b", (1, 2))))
        with pytest.raises(SimulationError):
            FaultSchedule.generate(
                2, horizon_s=0.1, topology=(FailureDomain("a", (0, 5)),))
        with pytest.raises(SimulationError):
            FaultSchedule([], topology=(FailureDomain("a", (0,)),
                                        FailureDomain("a", (1,))))

    def test_generate_correlates_domain_members(self):
        """One fault process per domain: every member sees the same
        event kinds at the same clocks (a rack outage takes the whole
        rack down at one instant)."""
        topo = (FailureDomain("rack0", (0, 1)),
                FailureDomain("rack1", (2, 3)))
        sched = FaultSchedule.generate(4, horizon_s=0.02, seed=7,
                                       mean_gap_s=0.005, topology=topo)
        by_replica = {r: [(e.kind, e.start_s, e.duration_s)
                          for e in sched.events if e.replica == r]
                      for r in range(4)}
        assert by_replica[0] == by_replica[1]
        assert by_replica[2] == by_replica[3]
        assert by_replica[0] != by_replica[2]

    def test_generate_topology_is_seed_deterministic(self):
        topo = (FailureDomain("rack0", (0, 1)),)
        a = FaultSchedule.generate(3, horizon_s=0.02, seed=3,
                                   topology=topo)
        b = FaultSchedule.generate(3, horizon_s=0.02, seed=3,
                                   topology=topo)
        assert a == b and a.topology == topo

    def test_health_tracker_domain_views(self):
        topo = (FailureDomain("rack0", (0, 1)),
                FailureDomain("rack1", (2, 3)))
        sched = FaultSchedule(
            [FaultEvent("crash", 0, 0.001, 0.002, warmup_s=0.0),
             FaultEvent("crash", 1, 0.001, 0.002, warmup_s=0.0)],
            topology=topo)
        tracker = HealthTracker(sched, 4, detection_delay_s=0.0)
        assert tracker.topology == topo
        assert tracker.domain_of(1) == "rack0"
        assert tracker.domain_of(3) == "rack1"
        health = tracker.domain_health(0.002)
        assert health["rack0"] == 0.0 and health["rack1"] == 1.0

    def test_retry_candidates_avoid_failing_domain(self):
        """Mid-outage, nothing re-dispatches into the dying rack; with
        everything healthy the dead replica's whole domain is skipped
        and the survivors interleave across racks."""
        topo = (FailureDomain("rack0", (0, 1)),
                FailureDomain("rack1", (2, 3)),
                FailureDomain("rack2", (4, 5)))
        sched = FaultSchedule(
            [FaultEvent("crash", 0, 0.001, 0.004, warmup_s=0.0),
             FaultEvent("crash", 1, 0.001, 0.004, warmup_s=0.0)],
            topology=topo)
        tracker = HealthTracker(sched, 6, detection_delay_s=0.0)
        mid = tracker.retry_candidates(0.002, died_on=0)
        assert set(mid) <= {2, 3, 4, 5}
        # Interleaved round-robin across the surviving racks.
        assert mid == (2, 4, 3, 5)
        healthy = tracker.retry_candidates(0.0005, died_on=0)
        assert set(healthy) == {2, 3, 4, 5}

    def test_drain_window_counts_as_unhealthy(self):
        sched = FaultSchedule([FaultEvent("drain", 0, 0.001, 0.002)])
        tracker = HealthTracker(sched, 2, detection_delay_s=0.0005)
        # Drains are planned: no detection delay, and no repair tail.
        assert tracker.is_healthy(0, 0.0005)
        assert not tracker.is_healthy(0, 0.001)
        assert not tracker.is_healthy(0, 0.0029)
        assert tracker.is_healthy(0, 0.003)
        assert tracker.mttr_s() is None


# ---------------------------------------------------------------------
# Drain + migration (the tentpole)
# ---------------------------------------------------------------------

class TestDrainMigration:
    @pytest.mark.parametrize("tp", (1, 2))
    def test_drain_loses_nothing_and_recomputes_nothing(self, tp):
        router = cluster(tp=tp, faults=DRAIN)
        report = router.run(trace())
        res = report.resilience
        assert res["n_drains"] == 1
        assert res["n_migrated"] > 0
        assert res["n_killed"] == 0 and res["n_failed"] == 0
        assert res["n_lost"] == 0 and res["lost_request_ids"] == ()
        # Running sequences checkpointed mid-decode: KV actually
        # shipped, and the prefix-skip resume recomputed zero tokens.
        assert res["migrated_kv_bytes"] > 0
        assert res["n_resumed"] > 0
        assert res["resume_recompute_tokens"] == 0
        assert report.n_requests == 32
        ids = [r.request_id for r in report.results]
        assert len(ids) == len(set(ids)) == 32

    @pytest.mark.parametrize("tp", (1, 2))
    def test_drain_is_tier_identical(self, tp):
        reports = [cluster(ff=ff, tp=tp, faults=DRAIN)
                   .run(trace()) for ff in FF_TIERS]
        for other in reports[1:]:
            assert reports[0].resilience == other.resilience
            assert_reports_identical(reports[0], other)

    @pytest.mark.parametrize("tp", (1, 2))
    def test_drain_is_tier_identical_paged(self, tp):
        reports = [cluster(ff=ff, kv="paged", tp=tp, faults=DRAIN)
                   .run(trace()) for ff in FF_TIERS]
        for other in reports[1:]:
            assert reports[0].resilience == other.resilience
            assert_reports_identical(reports[0], other)

    @pytest.mark.parametrize("tp", (1, 2))
    def test_migrated_tokens_match_fault_free_run(self, tp):
        """Migration changes *where* a request decodes, never *what*
        it decodes: per-request token streams are pure functions of the
        request id, so every result matches the fault-free run."""
        clean = cluster(tp=tp).run(trace())
        drained = cluster(tp=tp, faults=DRAIN).run(trace())
        clean_tokens = {r.request_id: r.tokens for r in clean.results}
        for res in drained.results:
            assert res.tokens == clean_tokens[res.request_id]

    def test_drain_beats_same_instant_crash(self):
        """The acceptance bar: a graceful drain loses zero requests and
        zero prefill work, and beats the identical-instant crash on
        tail interactive TTFT — the crash recomputes everything from
        scratch after the retry backoff."""
        drained = cluster(faults=DRAIN).run(trace())
        crashed = cluster(faults=CRASH).run(trace())
        assert drained.resilience["n_lost"] == 0
        assert drained.resilience["n_killed"] == 0
        assert crashed.resilience["n_killed"] > 0
        # Lost work: the crash threw away generated tokens and paid
        # full recompute on retry; the drain shipped its KV instead.
        assert drained.resilience["resume_recompute_tokens"] == 0
        assert drained.ttft_percentile_s(99) \
            < crashed.ttft_percentile_s(99)

    @pytest.mark.parametrize("tp", (1, 2))
    def test_drain_sketch_matches_eager_counts(self, tp):
        eager = cluster(ff=False, tp=tp, faults=DRAIN).run(trace())
        sketch = cluster(tp=tp, faults=DRAIN).run(trace(),
                                                  telemetry="sketch")
        assert sketch.resilience == eager.resilience
        assert sketch.n_requests == eager.n_requests
        assert sketch.total_new_tokens == eager.total_new_tokens
        assert sketch.total_time_s == eager.total_time_s

    def test_drain_during_folded_admissions_is_tier_identical(self):
        """Past the knee every retirement's slot refills inside a
        window; a drain landing in that churn hands queued, arriving
        and running work over at the same clocks as the eager loop —
        materialized and streamed alike."""
        kwargs = dict(n_requests=96, arrival_rate_rps=20000.0, seed=4,
                      prompt_len=(4, 16), decode_len=(8, 32),
                      tenant_mix=KNEE_MIX)
        drain = FaultSchedule([FaultEvent("drain", 1, 0.002, 0.0002)])
        eager = cluster(ff=False, faults=drain).run(
            synthetic_trace(TINY_MODEL, **kwargs))
        assert eager.resilience["n_migrated"] > 0
        assert eager.resilience["migrated_kv_bytes"] > 0
        windowed = cluster(faults=drain).run(
            synthetic_trace(TINY_MODEL, **kwargs))
        streamed = cluster(faults=drain).run(
            lambda: iter_synthetic_trace(TINY_MODEL, **kwargs),
            telemetry="windows")
        for report in (windowed, streamed):
            assert report.resilience == eager.resilience
            assert_reports_identical(report, eager)
            folded = report.window_stats["folded_admissions"]
            assert folded > 0
            assert folded == sum(r.window_stats["folded_admissions"]
                                 for r in report.replica_reports)

    @pytest.mark.parametrize("kv_mode", ("slotted", "paged"))
    def test_drain_inside_idle_gap_is_tier_identical(self, kv_mode):
        """A drain starting while the engine idles: the window leaves
        the jump onto its start (and onto its deadline) to ``step()``,
        which opens and closes the drain before any arrival is
        admitted; the arrival inside the drain hands over, and every
        level and stream form reports what the eager loop does."""
        requests = synthetic_trace(TINY_MODEL, 20, **LOW_RATE_KWARGS)
        clean = make_engine("cycle", kv_mode, ff=False).run(requests)
        gaps = idle_gaps(requests, clean)
        lo, hi = gaps[len(gaps) // 2]
        start = (lo + hi) / 2
        plan = FaultSchedule([FaultEvent("drain", 0, start, hi - lo)]) \
            .plan_for(0)

        def engine(ff):
            eng = make_engine("cycle", kv_mode, ff=ff)
            eng.fault_plan = plan
            return eng

        def check(engine, eager_engine, report, counts):
            assert engine.fault_stats() == eager_engine.fault_stats()
            assert engine.drained == eager_engine.drained
            assert counts["decode"] == counts["step"] > 0
            if report.telemetry == "windows":
                steps = [r for r in engine._recorder.records
                         if isinstance(r, StepEvent)]
                assert all(e.batch == 0 for e in steps)

        eager_engine, _ = assert_windows_match_eager(engine, requests,
                                                     check)
        assert eager_engine.fault_stats()["drains"] == 1
        assert [m.phase for m in eager_engine.drained] == ["arrival"]

    def test_drain_preemption_hands_the_victim_over(self):
        """A sequence evicted for KV pressure while a drain holds
        admission closed hands over at once, as queued work with its
        count, instead of requeueing behind the closed gate — where an
        engine with nothing else to run would record zero-batch steps
        at one clock, never reaching the deadline that reopens
        admission.  Both tiers hand over the same victims."""
        requests = synthetic_trace(TINY_MODEL, 40, arrival_rate_rps=5000.0,
                                   seed=2, eos_id=7, shared_prefix_len=6)
        span = max(r.arrival_s for r in requests)
        start, duration = 0.4 * span, 0.2 * span
        plan = FaultSchedule([FaultEvent("drain", 0, start, duration)]) \
            .plan_for(0)
        runs = []
        for ff in FF_TIERS:
            engine = ContinuousBatchScheduler(
                CycleModelBackend(TINY_MODEL, QUANT32, n_slots=4),
                max_batch=4, kv_token_budget=96, fast_forward=ff)
            engine.fault_plan = plan
            runs.append((engine, engine.run(requests, max_steps=20_000)))
        (windows, fast), (eager, slow) = runs
        assert_reports_identical(fast, slow)
        assert windows.drained == eager.drained
        assert len(slow.results) + len(eager.drained) == len(requests)
        handed = [m for m in eager.drained if m.preemptions
                  and start < m.migrate_s < start + duration]
        assert handed and all(
            m.phase == "queued" and m.n_generated and not m.kv_bytes
            for m in handed)

    def test_drain_reopens_admission_after_deadline(self):
        """Post-deadline arrivals are served by the drained replica
        again (a drain is maintenance, not decommissioning)."""
        late = [dataclasses.replace(r, arrival_s=r.arrival_s + 0.01,
                                    request_id=r.request_id + 1000)
                for r in trace(n=12, decode=(4, 8))]
        router = cluster(faults=DRAIN)
        report = router.run(trace() + late)
        assert report.resilience["n_lost"] == 0
        assert any(router.assignments[r.request_id] == 1 for r in late)

    def test_extract_state_requires_running_member(self):
        engine = make_engine("cycle", "slotted")
        with pytest.raises(SimulationError, match="not running"):
            engine.extract_state(123)

    def test_migration_instants_in_flight_recorder(self):
        from repro.obs import FlightRecorder

        engines = [make_engine("cycle", "slotted")
                   for _ in range(3)]
        for e in engines:
            e.flight = FlightRecorder()
        router = ReplicaRouter(engines, faults=DRAIN)
        router.run(trace())
        names = {ev["name"] for e in engines
                 for ev in e.flight.chrome_events()
                 if ev["ph"] == "i"}
        assert "migrate-out" in names
        assert "migrate-in" in names
        assert "drain" in names

    def test_correlated_rack_drain_is_tier_identical(self):
        topo = (FailureDomain("rack0", (0, 1)),
                FailureDomain("rack1", (2, 3)))
        sched = FaultSchedule(
            [FaultEvent("drain", 0, 0.0005, 0.0005),
             FaultEvent("drain", 1, 0.0005, 0.0005)],
            topology=topo)
        reports = [cluster(ff=ff, n=4, faults=sched)
                   .run(trace(n=48))
                   for ff in FF_TIERS]
        res = reports[0].resilience
        assert res["n_drains"] == 2 and res["n_lost"] == 0
        assert res["n_migrated"] > 0
        for other in reports[1:]:
            assert res == other.resilience
            assert_reports_identical(reports[0], other)


# ---------------------------------------------------------------------
# Retry-aware latency accounting (satellite 1)
# ---------------------------------------------------------------------

class TestRetryAwareTTFT:
    def test_retried_ttft_measures_from_original_arrival(self):
        """A killed-then-retried request's TTFT covers the whole client
        wait — arrival on the dead replica, the backoff, and the fresh
        prefill — so it must exceed the arrival->kill gap.  (Measured
        from the *retry* arrival it usually would not.)"""
        faults = FaultSchedule.single_crash(1, 0.0005, 0.001,
                                            warmup_s=0.0005)
        router = cluster(faults=faults)
        report = router.run(trace(n=48, decode=(4, 16)))
        results = {r.request_id: r for r in report.results}
        first_kill = {}
        for engine in router.engines:
            for k in engine.killed:
                rid = k.request.request_id
                first_kill[rid] = min(k.kill_s,
                                      first_kill.get(rid, k.kill_s))
        arrivals = {r.request_id: r.arrival_s
                    for r in trace(n=48, decode=(4, 16))}
        checked = 0
        for rid, kill_s in first_kill.items():
            res = results[rid]
            if res.finish_reason is FinishReason.FAILED:
                continue
            assert res.ttft_s is not None
            assert res.ttft_s > kill_s - arrivals[rid]
            assert res.e2e_s >= res.ttft_s
            checked += 1
        assert checked > 0

    def test_migrated_ttft_measures_from_original_arrival(self):
        """Same ledger rule for migration: the handoff transfer delay
        is inside the client's E2E, and a first token streamed before
        the drain keeps its original TTFT."""
        clean = cluster().run(trace())
        drained = cluster(faults=DRAIN).run(trace())
        clean_res = {r.request_id: r for r in clean.results}
        moved = slower = 0
        for res in drained.results:
            base = clean_res[res.request_id]
            assert res.ttft_s is not None and base.ttft_s is not None
            if res.e2e_s > base.e2e_s:
                moved += 1
            if res.ttft_s > base.ttft_s:
                slower += 1
        # The drain delayed somebody (the migrants), and no request got
        # a *negative* accounting artifact out of it.
        assert moved > 0
        assert slower <= moved


# ---------------------------------------------------------------------
# Hedged dispatch
# ---------------------------------------------------------------------

#: replica 0 hangs long enough that its queued work blows the hedge
#: delay; the duplicates land on healthy replicas and win.
STALL = FaultSchedule([FaultEvent("hang", 0, 0.0002, 0.004)])


class TestHedgedDispatch:
    def test_hedging_cuts_tail_ttft_vs_retry_only(self):
        base = cluster(faults=STALL).run(trace(n=48, decode=(8, 24)))
        hedged = cluster(faults=STALL, hedge=HedgePolicy(0.0005)) \
            .run(trace(n=48, decode=(8, 24)))
        res = hedged.resilience
        assert res["n_hedged"] > 0 and res["n_hedge_wins"] > 0
        assert hedged.ttft_percentile_s(99) < base.ttft_percentile_s(99)
        assert base.resilience["n_hedged"] == 0

    def test_hedged_report_has_no_duplicate_requests(self):
        hedged = cluster(faults=STALL, hedge=HedgePolicy(0.0005)) \
            .run(trace(n=48, decode=(8, 24)))
        ids = [r.request_id for r in hedged.results]
        assert len(ids) == len(set(ids)) == 48
        assert hedged.resilience["n_lost"] == 0

    def test_hedged_run_is_deterministic(self):
        runs = [cluster(faults=STALL, hedge=HedgePolicy(0.0005))
                .run(trace(n=48, decode=(8, 24)))
                for _ in range(2)]
        assert runs[0].resilience == runs[1].resilience
        assert_reports_identical(runs[0], runs[1])

    def test_hedging_agrees_across_telemetry_levels(self):
        """The router reads first-token times off report rows, which
        every level keeps: a hang plus a crash, hedged, serves the same
        run fast-forwarded and eager at windows (sketch within its
        bound)."""
        faults = FaultSchedule([
            FaultEvent("hang", 0, 0.0002, 0.004),
            FaultEvent("crash", 1, 0.0004, 0.002, warmup_s=0.0005)])

        def run(level, ff):
            return cluster(ff=ff, faults=faults, hedge=HedgePolicy(0.0005),
                           degraded=DegradedModeConfig()).run(
                lambda: iter(trace(n=48, decode=(8, 24), mix=QMIX)),
                telemetry=level)

        res = assert_levels_agree(run).resilience
        assert res["n_hedged"] > 0 and res["n_killed"] > 0, res
        assert res["n_lost"] == 0, res

    def test_loser_clamp_is_linear_in_requests(self, monkeypatch):
        """Clamping each losing contender finds it in its share by id,
        so request comparisons stay a small multiple of the request
        count; a search of the share per loser grows with its square."""
        calls = [0]
        eq = Request.__eq__

        def counted(self, other):
            calls[0] += 1
            return eq(self, other)

        monkeypatch.setattr(Request, "__eq__", counted)
        n = 300
        report = Scenario(requests=n, replicas=3, arrival_rate=36_000.0,
                          chaos=True, hedge=0.002,
                          telemetry="windows").serve()
        assert report.resilience["n_hedge_wins"] > 0
        assert calls[0] <= 40 * n, calls[0]


# ---------------------------------------------------------------------
# Simultaneous domain outages (satellite 4, hypothesis)
# ---------------------------------------------------------------------

QFG = TenantSpec("qfg", "interactive")
QBULK = TenantSpec("qbulk", "batch", kv_quota_tokens=96)
QBG = TenantSpec("qbg", "best_effort", kv_quota_tokens=64)
QMIX = ((QFG, 0.25), (QBULK, 0.5), (QBG, 0.25))


class TestSimultaneousDomainOutages:
    @settings(deadline=None, max_examples=8)
    @given(seed=st.integers(0, 10_000),
           start_frac=st.floats(0.05, 0.6),
           n_requests=st.integers(16, 40))
    def test_two_domains_crash_at_once_nothing_lost(self, seed,
                                                    start_frac,
                                                    n_requests):
        """Two whole racks crash at the same instant while a third
        survives: every request still retires or fails loudly, nothing
        is silently lost, and every replica's per-tenant cached-token
        ledger is drained afterwards."""
        rate = 3000.0
        horizon = n_requests / rate
        start = start_frac * horizon
        topo = (FailureDomain("rack0", (0, 1)),
                FailureDomain("rack1", (2, 3)),
                FailureDomain("rack2", (4, 5)))
        events = [FaultEvent("crash", r, start, 0.3 * horizon,
                             warmup_s=0.05 * horizon)
                  for r in (0, 1, 2, 3)]
        faults = FaultSchedule(events, topology=topo)
        router = cluster(n=6, faults=faults,
                         retry=RetryPolicy(budget=4))
        report = router.run(
            trace(n=n_requests, rate=rate, seed=seed,
                  decode=(4, 16), mix=QMIX))
        res = report.resilience
        assert res["n_lost"] == 0
        assert res["lost_request_ids"] == ()
        assert report.n_requests == n_requests
        ids = [r.request_id for r in report.results]
        assert len(ids) == len(set(ids)) == n_requests
        for engine in router.engines:
            assert all(v == 0
                       for v in engine._tenant_cached.values()), \
                engine._tenant_cached
