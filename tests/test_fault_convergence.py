"""Fault-run convergence: pure replays and the dirty-replica worklist.

The router converges crash re-dispatch and drain migration by replaying
replica engines until every replica's last run used the share the
dispatch plan gives it.  Re-running only the replicas whose share
changed is sound because a replay is a pure function of (share, fault
plan, degraded spans): the engine resets its KV pool at every run start
and a crash drops the cached prefixes with the rest of the board's KV.
The all-replicas-every-round (Jacobi) loop survives here only as the
oracle the worklist is pinned against.
"""

import pytest
from hypothesis import event, example, given, settings, strategies as st

from repro.cluster import (
    FailureDomain,
    FaultAction,
    FaultSchedule,
    HedgePolicy,
    LinkSpec,
    MigrationPolicy,
    ReplicaFaultPlan,
    ReplicaRouter,
)
from repro.config import TINY_MODEL, QuantConfig
from repro.engine import (
    ContinuousBatchScheduler,
    CycleModelBackend,
    FunctionalBackend,
    Request,
    build_backend,
    kv_discipline_kwargs,
    synthetic_trace,
)
from repro.errors import SimulationError
from repro.obs import FlightRecorder
from report_checks import assert_reports_identical
from test_telemetry_equivalence import (
    BLOCK_SIZE,
    MAX_BATCH,
    QUANT32,
    make_engine,
)

RATE = 36_000.0
#: kind weights of the generated schedules (the drawn kinds keep theirs)
WEIGHTS = {"crash": 0.4, "hang": 0.2, "slowdown": 0.2, "drain": 0.3}
ZERO_LINK = LinkSpec("zero-latency", 1.25e9, 0.0)


class JacobiRouter(ReplicaRouter):
    """The previous convergence loop: every round replays every replica
    and re-plans once, until a round reproduces the plan it ran with."""

    def _converge(self, run):
        while True:
            run.begin_round()
            for idx in range(self.n_replicas):
                run.run_replica(idx)
            if not run.replan():
                return


def fault_run(router_cls, *, n_replicas, n_requests, seed, kinds, kv,
              domain=False, hedge=False, zero_handoff=False,
              shared_prefix=0):
    """Serve one generated fault schedule; returns (report, router)."""
    h = n_requests / RATE
    topology = (FailureDomain("rack", (0, 1)),) if domain else None
    faults = FaultSchedule.generate(
        n_replicas, h, seed=seed, mean_gap_s=h / 4,
        kind_weights={k: WEIGHTS[k] for k in kinds},
        downtime_s=(h / 20, h / 8), drain_s=(0, h / 50),
        topology=topology)
    engines = []
    for idx in range(n_replicas):
        # serve-sim's engine: max batch 8 and its default KV sizing
        backend_kv, scheduler_kv = kv_discipline_kwargs(kv)
        engine = ContinuousBatchScheduler(
            build_backend("cycle", TINY_MODEL, QuantConfig(), **backend_kv),
            max_batch=8, **scheduler_kv)
        engine.flight = FlightRecorder(replica=idx)
        engines.append(engine)
    migration = MigrationPolicy(serialize_s=0.0, link=ZERO_LINK) \
        if zero_handoff else None
    router = router_cls(
        engines, faults=faults, migration=migration,
        hedge=HedgePolicy(delay_s=h / 8) if hedge else None)
    trace = synthetic_trace(TINY_MODEL, n_requests=n_requests,
                            arrival_rate_rps=RATE, seed=seed,
                            shared_prefix_len=shared_prefix)
    return router.run(trace, telemetry="full"), router


def assert_same_fixed_point(a, router_a, b, router_b):
    assert a.rows.keys() == b.rows.keys()
    for name, column in a.rows.items():
        other = b.rows[name]
        assert column.dtype == other.dtype, name
        assert column.tobytes() == other.tobytes(), name
    assert_reports_identical(a, b)
    ra, rb = dict(a.resilience), dict(b.resilience)
    assert ra.pop("retry_rounds") <= rb.pop("retry_rounds")
    assert ra == rb
    for ea, eb in zip(router_a.engines, router_b.engines):
        assert ea.killed == eb.killed
        assert ea.drained == eb.drained
        assert ea.fault_stats() == eb.fault_stats()
        assert ea.flight.chrome_events() == eb.flight.chrome_events()


class TestWorklistMatchesJacobi:

    @settings(deadline=None, max_examples=10)
    @given(seed=st.integers(0, 999),
           kinds=st.sets(st.sampled_from(sorted(WEIGHTS)), min_size=1),
           domain=st.booleans(), hedge=st.booleans(),
           kv=st.sampled_from(("slotted", "paged")),
           zero_handoff=st.booleans(),
           n_replicas=st.sampled_from((3, 4)), n_requests=st.just(120),
           shared_prefix=st.sampled_from((0, 20)))
    # The case that exposed the KV leak: without the run-start reset, a
    # converged Jacobi replay inherits prefix-cache blocks its earlier
    # rounds registered (replica 2 checkpoints request 432 `running` at
    # its drain deadline instead of `queued` at the drain start).
    @example(seed=29, kinds=set(WEIGHTS), domain=False, hedge=False,
             kv="paged", zero_handoff=False, n_replicas=4,
             n_requests=600, shared_prefix=0)
    # A shared system prompt makes the leak show on every replica that
    # Jacobi re-runs: its first request hits last round's prefix block.
    @example(seed=638, kinds={"crash", "slowdown"}, domain=False,
             hedge=False, kv="paged", zero_handoff=True, n_replicas=3,
             n_requests=120, shared_prefix=20)
    def test_bit_identical_to_the_jacobi_oracle(
            self, seed, kinds, domain, hedge, kv, zero_handoff,
            n_replicas, n_requests, shared_prefix):
        case = dict(n_replicas=n_replicas, n_requests=n_requests,
                    seed=seed, kinds=kinds, kv=kv, domain=domain,
                    hedge=hedge, zero_handoff=zero_handoff,
                    shared_prefix=shared_prefix)
        try:
            oracle, oracle_router = fault_run(JacobiRouter, **case)
        except SimulationError as err:
            # Open defect (ROADMAP item 3): a few drain schedules make
            # the Jacobi rounds oscillate between two plans; the cap
            # turns that into a clear error, never a silent result.
            assert "did not converge" in str(err)
            event("Jacobi oracle did not converge")
            return
        report, router = fault_run(ReplicaRouter, **case)
        assert_same_fixed_point(report, router, oracle, oracle_router)

    def test_reruns_only_changed_shares(self):
        """The drain replica runs first in causal order; the replicas
        its handoffs land on run after it in the same sweep, so the
        worklist needs fewer sweeps than Jacobi needs rounds."""
        case = dict(n_replicas=4, n_requests=600, seed=29,
                    kinds=set(WEIGHTS), kv="paged")
        report, _ = fault_run(ReplicaRouter, **case)
        oracle, _ = fault_run(JacobiRouter, **case)
        assert report.resilience["n_migrated"] > 0
        assert report.resilience["retry_rounds"] \
            < oracle.resilience["retry_rounds"]


class _RestlessRouter(ReplicaRouter):
    """A plan that changes on every evaluation: one extra retry whose
    arrival moves each time, so its target's share never settles."""

    evaluations = 0

    def _retry_plan(self, kills):
        self.evaluations += 1
        return super()._retry_plan(kills) \
            + ((0, 99, "retry", 1e-4 * self.evaluations, 1),)


def test_sweep_cap_raises_and_names_the_cap():
    trace = synthetic_trace(TINY_MODEL, n_requests=24,
                            arrival_rate_rps=3000.0, seed=0,
                            prompt_len=(3, 8), decode_len=(4, 16))
    router = _RestlessRouter(
        [make_engine("cycle", "slotted") for _ in range(3)],
        faults=FaultSchedule.single_crash(0, 0.002, 0.001))
    cap = router.retry.budget + 6
    with pytest.raises(SimulationError,
                       match=f"did not converge within {cap} sweeps"):
        router.run(trace)
    assert router.evaluations > cap


#: Generated schedules the worklist does not converge on (the open
#: defect above): seed 35 cycles through six plans with period four, as
#: a replay moves a hop-1 drain checkpoint between two requests and so
#: renumbers a later hop's target.  Fixing the defect turns these into
#: passing tests.
NON_CONVERGING = {35: {"drain", "slowdown"}, 45: {"drain", "slowdown"},
                  885: {"drain", "slowdown"}, 710: set(WEIGHTS)}


@pytest.mark.xfail(strict=True, raises=SimulationError,
                   reason="known drain-schedule limit cycle")
@pytest.mark.parametrize("seed", sorted(NON_CONVERGING))
def test_known_non_converging_schedules(seed):
    try:
        fault_run(ReplicaRouter, n_replicas=4, n_requests=120, seed=seed,
                  kinds=NON_CONVERGING[seed], kv="slotted")
    except SimulationError as err:
        assert "did not converge" in str(err)
        raise


# ---------------------------------------------------------------------
# Pure replays: KV state never leaks across runs or survives a crash
# ---------------------------------------------------------------------

def paged_trace(seed, n=80):
    return synthetic_trace(TINY_MODEL, n_requests=n, arrival_rate_rps=1e9,
                           seed=seed, prompt_len=(8, 24),
                           decode_len=(40, 80), shared_prefix_len=12)


def tight_paged_engine():
    """A 16-block pool: four sequences of this trace outgrow it."""
    backend = CycleModelBackend(TINY_MODEL, QUANT32, n_slots=MAX_BATCH,
                                kv_mode="paged", block_size=BLOCK_SIZE,
                                n_kv_blocks=16)
    return ContinuousBatchScheduler(backend, max_batch=MAX_BATCH)


def prefix_counters(engine):
    kv = engine.paged_kv
    return (kv.prefix_reused_tokens, kv.prefix.hits, kv.prefix.misses,
            kv.prefix.evictions)


def test_run_starts_from_a_cold_prefix_cache():
    used = tight_paged_engine()
    first = used.run(paged_trace(seed=1))
    # The warm-up run preempted (re-prefills register their own token
    # streams' blocks) and left cached prefixes behind.
    assert first.preemptions > 0
    assert len(used.paged_kv.prefix) > 0
    fresh = tight_paged_engine()
    trace = paged_trace(seed=2)
    assert_reports_identical(used.run(trace), fresh.run(trace))
    assert prefix_counters(used) == prefix_counters(fresh)
    assert prefix_counters(fresh)[0] > 0


def test_crash_drops_the_prefix_cache():
    n = 400
    trace = synthetic_trace(TINY_MODEL, n_requests=n,
                            arrival_rate_rps=RATE, seed=3,
                            shared_prefix_len=20)
    h = n / RATE
    start, down = 0.4 * h, 0.1 * h
    engine = make_engine("cycle", "paged")
    engine.fault_plan = ReplicaFaultPlan(
        0, (FaultAction("crash", start, down),))
    kv = engine.paged_kv
    admissions = []
    allocate = kv.allocate

    def logged(tokens=None):
        seq = allocate(tokens)
        admissions.append((engine.clock_s, kv.cached_length(seq)))
        return seq

    kv.allocate = logged
    engine.run(trace)
    assert engine.fault_stats()["crashes"] == 1
    before = [hit for t, hit in admissions if t < start]
    after = [hit for t, hit in admissions if t >= start + down]
    assert max(before) > 0 and after
    # Every request shares the 20-token prefix, but the board lost it:
    # the first admission after recovery prefills it from scratch, and
    # the next ones hit the blocks that admission registered.
    assert after[0] == 0
    assert max(after) > 0


class TestTPGroupPrefixCacheCools:
    """A functional TP group's paged KV pool matches cached prefixes
    like any other; a run start or a crash must cool it, so a replay
    reuses exactly what a cold board would."""

    SYSTEM = tuple(range(1, 17))

    def requests(self, arrival_s=0.0, first_id=0):
        return [Request(first_id + i, self.SYSTEM + (40 + i,),
                        max_new_tokens=3, arrival_s=arrival_s)
                for i in range(3)]

    def engine(self, tiny_qweights):
        backend = FunctionalBackend(tiny_qweights, tp=2, kv_mode="paged",
                                    block_size=8, n_kv_blocks=32)
        return ContinuousBatchScheduler(backend, max_batch=2)

    def test_second_run_starts_cold(self, tiny_qweights):
        engine = self.engine(tiny_qweights)
        first = engine.run(self.requests())
        reused = engine.paged_kv.prefix_reused_tokens
        assert reused > 0
        second = engine.run(self.requests())
        assert_reports_identical(first, second)
        assert engine.paged_kv.prefix_reused_tokens == reused
        engine.paged_kv.audit()

    def test_crash_drops_cached_prefixes(self, tiny_qweights):
        probe = self.engine(tiny_qweights)
        end = max(r.e2e_s for r in probe.run(self.requests()).results)
        wave = probe.paged_kv.prefix_reused_tokens
        assert wave > 0
        engine = self.engine(tiny_qweights)
        # The board goes down idle, with the system prompt cached, and
        # a second wave sharing it arrives after recovery: it reuses
        # only what it re-prefills itself, as the first wave did.
        engine.fault_plan = ReplicaFaultPlan(
            0, (FaultAction("crash", 2 * end, end),))
        engine.run(self.requests() + self.requests(4 * end, first_id=3))
        assert engine.fault_stats()["crashes"] == 1
        assert engine.paged_kv.prefix_reused_tokens == 2 * wave
        engine.paged_kv.audit()
