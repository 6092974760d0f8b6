"""Fault injection, health-aware routing, retry, and degraded mode.

The resilience contract (PR 9): a seeded :class:`FaultSchedule` is a
pure function of its inputs, every engine tier observes the same faults
at the same simulated clocks (bit-identical reports), killed requests
are re-dispatched to healthy replicas with backoff and never silently
lost, exhausted retry budgets surface as ``FinishReason.FAILED``, and
degraded-mode admission sheds only low classes while capacity is down.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import (
    DegradedModeConfig,
    FaultAction,
    FaultEvent,
    FaultSchedule,
    HealthTracker,
    HedgePolicy,
    ReplicaRouter,
    ReplicaFaultPlan,
    RetryPolicy,
)
from repro.config import TINY_MODEL
from repro.engine import (
    WINDOW_BREAK_REASONS,
    FinishReason,
    StepEvent,
    TenantSpec,
    synthetic_trace,
)
from repro.errors import SimulationError
from repro.obs import FlightRecorder
from repro.stats import percentile_of_sorted
from report_checks import (
    assert_levels_agree,
    assert_reports_identical,
    assert_results_match_charges,
    assert_windows_match_eager,
    record_charges,
)
from test_telemetry_equivalence import LOW_RATE_KWARGS, idle_gaps, make_engine

FF_TIERS = (True, False)
PERCENTILES = (0.0, 25.0, 50.0, 95.0, 99.0, 100.0)

FG = TenantSpec("fg", "interactive")
BULK = TenantSpec("bulk", "batch")
BG = TenantSpec("bg", "best_effort")
MIX = ((FG, 0.25), (BULK, 0.5), (BG, 0.25))


def trace(n=24, rate=3000.0, seed=0, mix=None):
    return synthetic_trace(TINY_MODEL, n_requests=n,
                           arrival_rate_rps=rate, seed=seed,
                           prompt_len=(3, 8), decode_len=(4, 16),
                           tenant_mix=mix)


def span_s(n=24, rate=3000.0):
    return n / rate


# ---------------------------------------------------------------------
# Schedules and plans
# ---------------------------------------------------------------------

class TestFaultSchedule:
    def test_event_validation(self):
        with pytest.raises(SimulationError):
            FaultEvent("meteor", 0, 0.1, 0.1)
        with pytest.raises(SimulationError):
            FaultEvent("crash", 0, -1.0, 0.1)
        with pytest.raises(SimulationError):
            FaultEvent("crash", 0, 0.1, 0.0)
        with pytest.raises(SimulationError):
            FaultEvent("slowdown", 0, 0.1, 0.1, factor=0.5)

    def test_per_replica_overlap_rejected(self):
        events = [FaultEvent("crash", 0, 0.1, 0.5),
                  FaultEvent("hang", 0, 0.3, 0.1)]
        with pytest.raises(SimulationError, match="overlap"):
            FaultSchedule(events)
        # Same times on different replicas are fine.
        FaultSchedule([FaultEvent("crash", 0, 0.1, 0.5),
                       FaultEvent("hang", 1, 0.3, 0.1)])

    def test_crash_expands_to_outage_plus_warmup(self):
        sched = FaultSchedule.single_crash(0, 0.1, 0.2, warmup_s=0.05,
                                           warmup_factor=3.0)
        plan = sched.plan_for(0)
        assert isinstance(plan, ReplicaFaultPlan)
        assert plan.actions == (
            FaultAction("crash", 0.1, 0.2),
            FaultAction("slow", 0.30000000000000004, 0.05, 3.0))
        assert sched.plan_for(1).actions == ()

    def test_generate_is_seed_deterministic(self):
        a = FaultSchedule.generate(3, horizon_s=0.5, seed=11)
        b = FaultSchedule.generate(3, horizon_s=0.5, seed=11)
        c = FaultSchedule.generate(3, horizon_s=0.5, seed=12)
        assert a == b
        assert a != c

    def test_retry_backoff_caps(self):
        retry = RetryPolicy(base_s=0.001, multiplier=2.0, cap_s=0.003,
                            budget=5)
        assert retry.delay_s(1) == 0.001
        assert retry.delay_s(2) == 0.002
        assert retry.delay_s(3) == 0.003
        assert retry.delay_s(4) == 0.003


class TestHealthTracker:
    def test_crash_outage_and_detection_delay(self):
        sched = FaultSchedule.single_crash(1, 0.1, 0.2, warmup_s=0.05)
        tracker = HealthTracker(sched, 3, detection_delay_s=0.01)
        assert tracker.is_healthy(1, 0.1)       # not yet detected
        assert not tracker.is_healthy(1, 0.11)  # detected
        assert not tracker.is_healthy(1, 0.34)  # warm-up still unhealthy
        assert tracker.is_healthy(1, 0.36)      # recovered
        assert tracker.is_healthy(0, 0.2) and tracker.is_healthy(2, 0.2)
        assert tracker.healthy_fraction(0.2) == pytest.approx(2 / 3)
        assert tracker.degraded_spans() == ((0.1, 0.35000000000000003),)
        assert tracker.mttr_s() == pytest.approx(0.25)

    def test_slowdowns_stay_healthy(self):
        sched = FaultSchedule([FaultEvent("slowdown", 0, 0.1, 0.2,
                                          factor=2.0)])
        tracker = HealthTracker(sched, 2)
        assert tracker.is_healthy(0, 0.2)
        assert tracker.degraded_spans() == ()
        assert tracker.mttr_s() is None


class TestDegradedMode:
    def test_shed_classes_by_capacity(self):
        cfg = DegradedModeConfig()
        assert cfg.shed_classes(1.0) == frozenset()
        assert "best_effort" in cfg.shed_classes(0.66)
        assert "interactive" not in cfg.shed_classes(0.0)


# ---------------------------------------------------------------------
# Engine-level fault handling: every tier sees the same faults
# ---------------------------------------------------------------------

def run_with_plan(ff, plan, n=24, rate=3000.0, seed=0, requests=None):
    eng = make_engine("cycle", "slotted", ff=ff)
    eng.fault_plan = plan
    eng.flight = FlightRecorder()
    if requests is None:
        requests = trace(n=n, rate=rate, seed=seed)
    report = eng.run(requests)
    return eng, report


def window_reasons(eng) -> list[str]:
    """The ``reason`` label of every window span the engine traced."""
    return [ev["args"]["reason"] for ev in eng.flight.chrome_events()
            if ev["name"] == "window" and ev["ph"] == "B"]


class TestEngineFaults:
    def test_crash_kills_are_tier_identical(self):
        sched = FaultSchedule.single_crash(
            0, 0.3 * span_s(), 0.25 * span_s(), warmup_s=0.1 * span_s())
        plan = sched.plan_for(0)
        eng_w, rep_w = run_with_plan(True, plan)
        eng_e, rep_e = run_with_plan(False, plan)
        assert eng_w.killed, "crash must hit in-flight work"
        assert eng_w.killed == eng_e.killed
        assert eng_w.fault_stats() == eng_e.fault_stats()
        assert_reports_identical(rep_w, rep_e)
        # Killed requests do not retire: the report only holds the
        # survivors, and every kill is attributed a phase.
        killed_ids = {k.request.request_id for k in eng_w.killed}
        retired = {r.request_id for r in rep_w.results}
        assert killed_ids and not killed_ids & retired
        assert {k.phase for k in eng_w.killed} \
            <= {"running", "queued", "arrival"}

    def test_fault_phases_do_not_depend_on_the_input_container(self):
        """A request the fault finds not running is ``"queued"`` if it
        arrived before the fault started and ``"arrival"`` otherwise,
        whether the trace is served as a list or as an iterator (both
        pulled with one look-ahead), with the not-running ones caught
        at ``max(start, arrival)``."""
        n, rate = 400, 30000.0  # past one engine's knee: queues build
        span = span_s(n, rate)
        plan = FaultSchedule([
            FaultEvent("crash", 0, 0.3 * span, 0.1 * span, warmup_s=0.0),
            FaultEvent("drain", 0, 0.6 * span, 0.1 * span),
        ]).plan_for(0)
        starts = {a.kind: a.start_s for a in plan.actions}
        requests = trace(n=n, rate=rate)
        listed, _ = run_with_plan(True, plan, requests=requests)
        streamed, _ = run_with_plan(True, plan, requests=iter(requests))
        assert listed.killed == streamed.killed
        assert listed.drained == streamed.drained
        caught = [(k, starts["crash"], k.kill_s) for k in listed.killed] \
            + [(m, starts["drain"], m.migrate_s) for m in listed.drained]
        # Each request is caught once, wherever the fault found it:
        # in the batch, in the queue, or still in the stream.
        ids = [record.request.request_id for record, _, _ in caught]
        assert len(ids) == len(set(ids))
        for record, start, at_s in caught:
            if record.phase != "running":
                assert record.phase == ("queued"
                                        if record.request.arrival_s < start
                                        else "arrival"), record
                assert at_s == max(start, record.request.arrival_s), record
        assert {r.phase for r, _, _ in caught} >= {"queued", "arrival"}

    def test_hang_and_slowdown_are_tier_identical(self):
        events = [FaultEvent("hang", 0, 0.2 * span_s(),
                             0.1 * span_s()),
                  FaultEvent("slowdown", 0, 0.5 * span_s(),
                             0.3 * span_s(), factor=3.0)]
        plan = FaultSchedule(events).plan_for(0)
        _, rep_w = run_with_plan(True, plan)
        _, rep_e = run_with_plan(False, plan)
        assert_reports_identical(rep_w, rep_e)

    def test_slowdown_extends_compute_bound_run(self):
        base = make_engine("cycle", "slotted")
        healthy = base.run(trace(rate=1e9))
        plan = FaultSchedule([FaultEvent(
            "slowdown", 0, 0.0, healthy.total_time_s * 10,
            factor=2.0)]).plan_for(0)
        _, slowed = run_with_plan(True, plan, rate=1e9)
        assert slowed.total_time_s > healthy.total_time_s

    def test_fault_window_break_reason(self):
        """A fault boundary ends fast-forward windows.  The event
        horizon *plans* its chains to end exactly there (the boundary
        is known in advance), so the cut notes no break; the flight
        recorder still labels the window ``reason="fault"``, and the
        report equals the eager loop's."""
        chaos_trace = synthetic_trace(
            TINY_MODEL, n_requests=4, arrival_rate_rps=1e9,
            prompt_len=(3, 8), decode_len=(64, 128), seed=0)
        plan = FaultSchedule([FaultEvent(
            "slowdown", 0, 0.0005, 0.001, factor=2.0)]).plan_for(0)
        eng, rep = run_with_plan(True, plan, requests=chaos_trace)
        _, eager = run_with_plan(False, plan, requests=chaos_trace)
        assert not eng.killed
        assert len(rep.results) == 4
        assert_reports_identical(rep, eager)
        assert sum(rep.window_stats["breaks"].values()) == 0
        assert "fault" in window_reasons(eng)

    def test_fault_boundary_folding_shrinks_break_histogram(self):
        """Satellite metric of the event-horizon fold: on a chaotic
        trace every fault-boundary cut (two slowdowns and a hang) is a
        planned chain end for the predictor, so it adds nothing to the
        break histogram while each cut still shows as a ``"fault"``
        window span — and the report equals the eager loop's."""
        chaos_trace = synthetic_trace(
            TINY_MODEL, n_requests=6, arrival_rate_rps=1e9,
            prompt_len=(3, 8), decode_len=(64, 128), seed=1)
        events = [FaultEvent("slowdown", 0, 0.0004, 0.0008,
                             factor=2.5),
                  FaultEvent("slowdown", 0, 0.0016, 0.0008,
                             factor=1.5),
                  FaultEvent("hang", 0, 0.003, 0.0005)]
        plan = FaultSchedule(events).plan_for(0)
        eng, rep = run_with_plan(True, plan, requests=chaos_trace)
        _, eager = run_with_plan(False, plan, requests=chaos_trace)
        assert_reports_identical(rep, eager)
        # Six requests on four slots: the idle engine's first segment
        # jumps to the burst and admits four, and the two admissions
        # that fill slots freed by retirements fold into the windows
        # instead of breaking them.
        assert rep.window_stats["breaks"] == {
            reason: 0 for reason in WINDOW_BREAK_REASONS}
        assert rep.window_stats["folded_admissions"] == 6
        assert window_reasons(eng).count("fault") >= len(events)

    @pytest.mark.parametrize("kind", ("slowdown", "hang", "crash",
                                      "drain"))
    def test_fault_inside_folded_prefill_matches_eager(self, kind):
        """A fault boundary landing inside the prefill of an admission
        the window folds: as in ``step()``, whose faults are serviced
        only at the next loop top, the admitting step still decodes
        under the old state, and the fault applies from the step after
        — in the window exactly as in the eager loop."""
        requests = synthetic_trace(
            TINY_MODEL, n_requests=48, arrival_rate_rps=20000.0, seed=3,
            prompt_len=(4, 16), decode_len=(8, 32), tenant_mix=MIX)
        clean, _ = run_with_plan(False, None, requests=requests)
        events = clean.events
        freq = clean.backend.freq_hz
        # Prefill gaps of steps that admit into a busy batch (those the
        # windows fold): the previous step's end to this step's start.
        gaps = [(events[i - 1].clock_s, e.clock_s - e.cycles / freq)
                for i, e in enumerate(events)
                if i and e.admitted and e.batch > e.admitted]
        lo, hi = gaps[len(gaps) // 2]
        start = (lo + hi) / 2
        assert lo < start < hi
        plan = FaultSchedule([FaultEvent(
            kind, 0, start, 20 * (hi - lo),
            factor=2.0 if kind == "slowdown" else 1.0)]).plan_for(0)
        eng_w, rep_w = run_with_plan(True, plan, requests=requests)
        eng_e, rep_e = run_with_plan(False, plan, requests=requests)
        assert eng_w.fault_stats() == eng_e.fault_stats()
        assert eng_w.fault_stats()[
            {"slowdown": "slowdowns", "hang": "stalls",
             "crash": "crashes", "drain": "drains"}[kind]] == 1
        assert eng_w.killed == eng_e.killed
        assert eng_w.drained == eng_e.drained
        assert_reports_identical(rep_w, rep_e)
        assert eng_w.events == eng_e.events
        assert rep_w.window_stats["folded_admissions"] > 0

    @pytest.mark.parametrize("kind", ("crash", "hang", "slowdown"))
    def test_fault_inside_idle_gap_matches_eager(self, kind):
        """A fault starting while the engine idles between arrivals:
        windows fold every other idle jump, but leave this one to
        ``step()``, which lands on the fault boundary and services it
        before the next arrival — so every level and stream form
        reports what the eager loop does.  The fault spans that
        arrival (the crash kills it)."""
        requests = synthetic_trace(TINY_MODEL, 20, **LOW_RATE_KWARGS)
        _, clean = run_with_plan(False, None, requests=requests)
        gaps = idle_gaps(requests, clean)
        lo, hi = gaps[len(gaps) // 2]
        start = (lo + hi) / 2
        plan = FaultSchedule([FaultEvent(
            kind, 0, start, hi - lo,
            factor=2.0 if kind == "slowdown" else 1.0)]).plan_for(0)

        def engine(ff):
            eng = make_engine("cycle", "slotted", ff=ff)
            eng.fault_plan = plan
            return eng

        def check(engine, eager_engine, report, counts):
            assert engine.fault_stats() == eager_engine.fault_stats()
            assert engine.killed == eager_engine.killed
            assert counts["decode"] == counts["step"] > 0
            if report.telemetry == "windows":
                # The only eager steps: zero-work jumps onto a fault
                # boundary.
                steps = [r for r in engine._recorder.records
                         if isinstance(r, StepEvent)]
                assert len(steps) == counts["step"]
                assert all(e.batch == 0 for e in steps)

        eager_engine, _ = assert_windows_match_eager(engine, requests,
                                                     check)
        stats = eager_engine.fault_stats()
        assert stats[{"crash": "crashes", "hang": "stalls",
                      "slowdown": "slowdowns"}[kind]] == 1
        assert bool(eager_engine.killed) == (kind == "crash")

    def test_fault_plan_is_inert_between_runs(self):
        """Clearing ``fault_plan`` restores healthy behavior exactly."""
        eng = make_engine("cycle", "slotted")
        baseline = eng.run(trace())
        eng.fault_plan = FaultSchedule.single_crash(
            0, 0.3 * span_s(), 0.25 * span_s()).plan_for(0)
        eng.run(trace())
        eng.fault_plan = None
        again = eng.run(trace())
        assert not eng.killed
        assert_reports_identical(baseline, again)


# ---------------------------------------------------------------------
# Router-level resilience: retry, health routing, degraded admission
# ---------------------------------------------------------------------

def cluster(ff=True, n=3, faults=None, retry=None, degraded=None,
            policy="round_robin", tp=1):
    engines = [make_engine("cycle", "slotted", tp=tp, ff=ff)
               for _ in range(n)]
    return ReplicaRouter(engines, policy=policy, faults=faults,
                         retry=retry, degraded=degraded)


def crash_schedule(n=48, rate=3000.0):
    s = n / rate
    return FaultSchedule.single_crash(1, 0.3 * s, 0.25 * s,
                                      warmup_s=0.1 * s)


#: All 48 requests arrive at ~t=0 and the crash lands mid-run, so the
#: down replica has queued + running work to kill — health-aware
#: routing cannot steer arrivals away from a backlog that already
#: exists.
SATURATED_CRASH = FaultSchedule.single_crash(1, 0.0005, 0.001,
                                             warmup_s=0.0005)


def saturated_trace(seed=0):
    return trace(n=48, rate=1e9, seed=seed)


#: Fault runs the cross-level tests replay: name -> (schedule, arrival
#: rate, resilience counter the run must make nonzero).  "shed" is the
#: degraded-mode run that sheds low classes, so its report carries
#: router verdict rows no replica served.
LEVEL_SCENARIOS = {
    "crash": (SATURATED_CRASH, 1e9, "n_killed"),
    "drain": (FaultSchedule([FaultEvent("drain", 1, 0.0005, 0.0001)]),
              1e9, "n_migrated"),
    "shed": (crash_schedule(), 3000.0, "n_shed"),
}


class TestRouterResilience:
    def test_crash_redispatch_no_lost_requests(self):
        router = cluster(faults=SATURATED_CRASH)
        report = router.run(saturated_trace())
        res = report.resilience
        assert res["n_killed"] > 0
        assert res["n_redispatched"] == res["n_killed"]
        assert res["n_failed"] == 0 and res["n_lost"] == 0
        assert res["lost_request_ids"] == ()
        assert report.n_requests == 48
        reasons = {r.finish_reason for r in report.results}
        assert FinishReason.FAILED not in reasons

    @pytest.mark.parametrize("tp", (1, 2))
    def test_resilience_is_tier_identical(self, tp):
        reports = [cluster(ff=ff, tp=tp, faults=SATURATED_CRASH)
                   .run(saturated_trace())
                   for ff in FF_TIERS]
        for other in reports[1:]:
            assert reports[0].resilience == other.resilience
            assert_reports_identical(reports[0], other)

    @pytest.mark.parametrize("tp", (1, 2))
    def test_same_seed_replay_is_bit_identical(self, tp):
        faults = FaultSchedule.generate(3, horizon_s=span_s(48),
                                        seed=9, mean_gap_s=span_s(48) / 3)
        runs = [cluster(tp=tp, faults=faults).run(trace(n=48))
                for _ in range(2)]
        assert runs[0].resilience == runs[1].resilience
        assert_reports_identical(runs[0], runs[1])

    def test_budget_exhaustion_surfaces_failed(self):
        """A cluster with no survivors fails loudly, never silently."""
        n, rate = 16, 3000.0
        s = n / rate
        faults = FaultSchedule([FaultEvent("crash", 0, 0.1 * s, 4 * s)])
        router = cluster(n=1, faults=faults,
                         retry=RetryPolicy(budget=1))
        report = router.run(trace(n=n, rate=rate))
        res = report.resilience
        assert res["n_failed"] > 0 and res["n_lost"] == 0
        failed = [r for r in report.results
                  if r.finish_reason is FinishReason.FAILED]
        assert len(failed) == res["n_failed"]
        for r in failed:
            assert not r.tokens and r.ttft_s is None and r.e2e_s > 0
        assert report.n_requests == n

    def test_degraded_mode_sheds_only_low_classes(self):
        router = cluster(faults=crash_schedule(),
                         degraded=DegradedModeConfig())
        report = router.run(trace(n=48, mix=MIX))
        res = report.resilience
        assert res["n_shed"] > 0 and res["n_lost"] == 0
        stats = report.tenant_stats
        assert stats["interactive"]["n_rejected"] == 0
        shed = sum(s["n_rejected"] for s in stats.values())
        assert shed == res["n_shed"]
        assert report.n_requests == 48

    def test_routing_avoids_down_replica(self):
        """During the outage, new arrivals land on healthy replicas."""
        faults = crash_schedule()
        router = cluster(faults=faults)
        router.run(trace(n=48))
        start, end = faults.events[0].start_s, faults.events[0].end_s
        tr = trace(n=48)
        detect = router._health.detection_delay_s
        routed_down = [r.request_id for r in tr
                       if start + detect < r.arrival_s < end
                       and router.assignments[r.request_id] == 1]
        assert not routed_down

    @pytest.mark.parametrize("tp", (1, 2))
    def test_streamed_chaos_matches_eager_counts(self, tp):
        """Fast-forward agrees with the eager oracle under faults, and
        telemetry levels agree.  Crash and drain runs record the
        identical run-store metrics, tenant stats, latency percentiles
        and results fast-forwarded and eager at windows, and sketch
        lands within its digest's rank-error bound: token latency is
        the board's decode-step stream at every level, so the decodes
        of a request a crash later kills count everywhere.  The shed
        scenario checks the router's verdict rows at every level."""
        for name, (faults, rate, kind) in LEVEL_SCENARIOS.items():
            def run(level, ff):
                return cluster(ff=ff, tp=tp, faults=faults,
                               degraded=DegradedModeConfig()) \
                    .run(lambda: iter(trace(n=48, rate=rate, mix=MIX)),
                         telemetry=level)

            assert assert_levels_agree(run).resilience[kind] > 0, name

    def test_hedged_report_uses_the_step_stream(self):
        """A hedged report collapses each hedge set to one row, so
        tokens and tenant stats count each client request once, while
        token latency stays the raw decode-step stream of every
        replica, losing copies included.  The hedged run is served eager
        (its results checked against what the engines really charged)
        and fast-forwarded, with identical reports."""
        def hedged(ff):
            return ReplicaRouter(
                [make_engine("cycle", "slotted", ff=ff) for _ in range(3)],
                faults=FaultSchedule([FaultEvent("hang", 0, 0.0002,
                                                 0.004)]),
                hedge=HedgePolicy(0.0005))

        router = hedged(False)
        logs = [record_charges(engine) for engine in router.engines]
        report = router.run(trace(n=48, rate=1e9, mix=MIX))
        assert_reports_identical(
            hedged(True).run(trace(n=48, rate=1e9, mix=MIX)), report)
        res = report.resilience
        assert res["n_hedged"] > 0 and res["n_hedge_wins"] > 0
        assert [r.request_id for r in report.results] == list(range(48))
        stats = report.tenant_stats
        assert sum(c["n_requests"] for c in stats.values()) == 48
        assert sum(c["new_tokens"] for c in stats.values()) \
            == report.total_new_tokens \
            == sum(len(r.tokens) for r in report.results)
        stream = sorted(step for rep in report.replica_reports
                        for r in rep.results for step in r.decode_step_s)
        for p in PERCENTILES:
            assert report.latency_percentile_s(p) \
                == percentile_of_sorted(stream, p), p
        served_as = assert_results_match_charges(report, logs)
        # Some rows are a winning copy's, re-keyed to the primary id.
        assert served_as != report.rows["request_id"].tolist()

    @pytest.mark.parametrize("tp", (1, 2))
    @pytest.mark.parametrize("name", sorted(LEVEL_SCENARIOS))
    def test_results_are_the_engines_own(self, name, tp):
        """``results`` are built from spans over the decode-latency
        stream and token replay; on eager engines they must equal what
        the engines really generated and charged, through crash kills,
        drain migrations and router sheds, and the fast-forwarded run
        must report the same."""
        faults, rate, kind = LEVEL_SCENARIOS[name]

        def serve(ff):
            router = cluster(ff=ff, tp=tp, faults=faults,
                             degraded=DegradedModeConfig())
            logs = None if ff else [record_charges(engine)
                                    for engine in router.engines]
            return router.run(trace(n=48, rate=rate, mix=MIX)), logs

        report, logs = serve(False)
        assert report.resilience[kind] > 0
        assert_results_match_charges(report, logs)
        for replica, log in zip(report.replica_reports, logs):
            assert len(replica.results) == len(log)
            assert_results_match_charges(replica, [log])
        windowed, _ = serve(True)
        assert_reports_identical(windowed, report)
        for replica, eager in zip(windowed.replica_reports,
                                  report.replica_reports):
            assert_reports_identical(replica, eager)


# ---------------------------------------------------------------------
# Quota accounting under fault churn (hypothesis)
# ---------------------------------------------------------------------

QFG = TenantSpec("qfg", "interactive")
QBULK = TenantSpec("qbulk", "batch", kv_quota_tokens=96)
QBG = TenantSpec("qbg", "best_effort", kv_quota_tokens=64)
QMIX = ((QFG, 0.25), (QBULK, 0.5), (QBG, 0.25))


class TestQuotaLedgerUnderFaults:
    @settings(deadline=None, max_examples=10)
    @given(seed=st.integers(0, 10_000),
           fault_seed=st.integers(0, 100),
           n_requests=st.integers(12, 40))
    def test_no_double_count_across_kill_retry_churn(self, seed,
                                                     fault_seed,
                                                     n_requests):
        """Evict -> crash-kill -> retry -> re-admit churn must leave
        every replica's per-tenant cached-token ledger drained: a
        re-dispatched request is charged on exactly one replica at a
        time, never twice."""
        rate = 3000.0
        horizon = n_requests / rate
        faults = FaultSchedule.generate(
            3, horizon_s=horizon, seed=fault_seed,
            mean_gap_s=horizon / 2,
            downtime_s=(0.1 * horizon, 0.3 * horizon),
            hang_s=(0.05 * horizon, 0.1 * horizon),
            slow_s=(0.1 * horizon, 0.2 * horizon),
            warmup_s=0.05 * horizon)
        router = cluster(faults=faults, degraded=DegradedModeConfig())
        report = router.run(
            trace(n=n_requests, rate=rate, seed=seed, mix=QMIX))
        for engine in router.engines:
            assert all(v == 0 for v in engine._tenant_cached.values()), \
                engine._tenant_cached
        res = report.resilience
        assert res["n_lost"] == 0
        assert report.n_requests == n_requests
        # Conservation: every request retires exactly once across the
        # cluster (or is shed/failed), with no duplicate ids.
        ids = [r.request_id for r in report.results]
        assert len(ids) == len(set(ids)) == n_requests
