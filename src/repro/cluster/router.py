"""Data-parallel replica routing over independent serving engines.

A replica is one :class:`repro.engine.ContinuousBatchScheduler` (whose
backend may itself be a tensor-parallel group, giving a TP x DP grid).
The router assigns every incoming request to exactly one replica before
the replay starts — the moment a real front-end would make the same
decision — then runs each replica's engine over its share of the trace
and merges the per-replica :class:`ServeReport` objects into one
cluster report of the same class (:meth:`ServeReport.merge`).

Policies:

* ``round_robin``   — strict rotation; uniform and stateless.
* ``least_loaded``  — join the replica with the least outstanding work
  (queued prompt + decode-budget tokens), the classic join-shortest-
  queue approximation.  The load ledger is a running counter updated
  in O(1) per routed request; it always equals what re-summing every
  assignment would give (pinned in the router tests).
* ``prefix_affinity`` — hash the leading prompt window so requests
  sharing a system prompt land on the replica whose
  :class:`repro.kv.PrefixCache` already holds those blocks; requests
  with no shareable prefix fall back to least-loaded.

Streaming: :meth:`ReplicaRouter.run` also accepts a zero-argument
*trace factory* returning a fresh request iterator.  Routing is a
deterministic state machine over the arrival sequence, so each replica
replays the factory once and keeps only its own share — a
million-request cluster sweep never materializes the trace, and the
per-replica reports merge column by column, without per-token lists.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Iterable, Iterator

import numpy as np

from ..engine.request import FinishReason, Request, ResumeSpec
from ..engine.scheduler import (ContinuousBatchScheduler, KilledRequest,
                                MigratedRequest)
from ..engine.telemetry import REASON_CODES, ServeReport
from ..errors import SimulationError
from .faults import (DegradedModeConfig, FaultSchedule, HealthTracker,
                     RetryPolicy)
from .migration import HedgePolicy, MigrationPolicy

POLICIES = ("round_robin", "least_loaded", "prefix_affinity")

#: Leading prompt tokens hashed by ``prefix_affinity``.  At or below the
#: shared system-prompt length (it matches the default KV block size):
#: a wider window mixes per-request tail tokens into the key and
#: scatters sharers across replicas.
AFFINITY_WINDOW = 16

#: a materialized trace or a factory yielding a fresh iterator per call.
TraceLike = Iterable[Request] | Callable[[], Iterable[Request]]


def _affinity_key(prompt: tuple, window: int) -> int:
    """Stable hash of the leading ``window`` prompt tokens.

    Never covers the final prompt token, mirroring the prefix cache's
    sharing rule — a 2-token prompt has no shareable prefix at all.
    """
    head = prompt[:min(window, len(prompt) - 1)]
    h = 0
    for token in head:
        h = (h * 1000003 + 1 + token) & 0xFFFFFFFFFFFF
    return h


class _RoutingState:
    """The pure routing state machine: policy + O(1) load ledger.

    Deterministic over the request sequence, which is what lets a
    streamed run rebuild identical assignments on every replica's
    private pass over the trace factory.
    """

    def __init__(self, n_replicas: int, policy: str,
                 health: HealthTracker | None = None) -> None:
        self.n_replicas = n_replicas
        self.policy = policy
        #: router's health view (fault runs only): requests route away
        #: from replicas known-unhealthy at their arrival.  None keeps
        #: the fault-free fast path byte-identical.
        self.health = health
        self.rr_next = 0
        #: outstanding routed work per replica (prompt + decode budget
        #: tokens), maintained incrementally — never re-summed.
        self.loads = [0] * n_replicas

    def _least_loaded(self,
                      candidates: "tuple[int, ...] | None" = None) -> int:
        pool = range(self.n_replicas) if candidates is None \
            else candidates
        return min(pool, key=lambda i: (self.loads[i], i))

    def route(self, request: Request) -> int:
        healthy: tuple[int, ...] | None = None
        if self.health is not None:
            healthy = self.health.healthy_replicas(request.arrival_s)
            if not healthy or len(healthy) == self.n_replicas:
                # Nobody healthy routes like everybody healthy: the
                # request lands somewhere, dies there, and comes back
                # through the retry machinery.
                healthy = None
        if self.policy == "round_robin":
            replica = self.rr_next
            if healthy is not None:
                up = set(healthy)
                for off in range(self.n_replicas):
                    cand = (self.rr_next + off) % self.n_replicas
                    if cand in up:
                        replica = cand
                        break
            self.rr_next = (replica + 1) % self.n_replicas
        elif self.policy == "least_loaded":
            replica = self._least_loaded(healthy)
        else:  # prefix_affinity
            if len(request.prompt) > 1:
                replica = _affinity_key(request.prompt, AFFINITY_WINDOW) \
                    % self.n_replicas
                if healthy is not None and replica not in healthy:
                    # The affinity target is down: land on the least
                    # loaded survivor (its prefix cache warms there),
                    # preferring one outside the target's failure
                    # domain — a rack-level fault is likely to take the
                    # target's neighbours down next.
                    pool = healthy
                    bad = self.health.domain_of(replica)
                    if bad is not None:
                        outside = tuple(
                            r for r in healthy
                            if self.health.domain_of(r) != bad)
                        if outside:
                            pool = outside
                    replica = self._least_loaded(pool)
            else:
                replica = self._least_loaded(healthy)
        self.loads[replica] += len(request.prompt) \
            + request.max_new_tokens
        return replica


class ReplicaRouter:
    """Routes requests across replicas and drives their engines."""

    def __init__(self, engines: list[ContinuousBatchScheduler],
                 policy: str = "round_robin",
                 faults: FaultSchedule | None = None,
                 retry: RetryPolicy | None = None,
                 degraded: DegradedModeConfig | None = None,
                 migration: MigrationPolicy | None = None,
                 hedge: HedgePolicy | None = None) -> None:
        if not engines:
            raise SimulationError("router needs at least one replica")
        if policy not in POLICIES:
            raise SimulationError(
                f"unknown routing policy {policy!r}; choose from "
                f"{POLICIES}")
        self.engines = engines
        self.policy = policy
        #: fault injection: a schedule switches :meth:`run` onto the
        #: resilient path — health-aware routing, crash re-dispatch
        #: with capped-backoff retries, degraded-mode shedding.  None
        #: keeps the fault-free path untouched.
        self.faults = faults
        self.retry = retry or RetryPolicy()
        self.degraded = degraded
        #: prices drain-time KV handoffs; always present so a schedule
        #: containing ``"drain"`` events works out of the box.
        self.migration = migration if migration is not None \
            else MigrationPolicy()
        #: optional first-token-wins duplicate dispatch (tail
        #: tolerance); reads first-token times off the report rows, so
        #: it works at every telemetry level.
        self.hedge = hedge
        self._health = HealthTracker(faults, len(engines)) \
            if faults is not None else None
        self._routing = _RoutingState(len(engines), policy)
        self.assignments: dict[int, int] = {}

    @property
    def n_replicas(self) -> int:
        return len(self.engines)

    @property
    def loads(self) -> list[int]:
        """Outstanding routed work per replica (running counters)."""
        return list(self._routing.loads)

    def recompute_loads(self, requests: Iterable[Request]) -> list[int]:
        """The load ledger re-derived from scratch: sum every routed
        request's cost under its recorded assignment.  Exists to pin
        the running counters in tests — never used on the hot path."""
        loads = [0] * self.n_replicas
        for request in requests:
            replica = self.assignments.get(request.request_id)
            if replica is not None:
                loads[replica] += len(request.prompt) \
                    + request.max_new_tokens
        return loads

    def route(self, request: Request) -> int:
        """Pick a replica for ``request`` and record the assignment."""
        if request.request_id in self.assignments:
            raise SimulationError(
                f"request {request.request_id} was already routed")
        replica = self._routing.route(request)
        self.assignments[request.request_id] = replica
        return replica

    def _replica_share(self, factory: Callable[[], Iterable[Request]],
                       replica: int) -> Iterator[Request]:
        """This replica's share of a streamed trace: replay the
        deterministic routing state machine over a fresh iterator and
        keep only the matching requests.

        Neither ``assignments`` nor the load ledger is written, and no
        duplicate guard runs: streaming skips the O(trace) id map by
        design — duplicate-free traces are the caller's contract.
        """
        route = _RoutingState(self.n_replicas, self.policy).route
        for request in factory():
            if route(request) == replica:
                yield request

    def run(self, requests: TraceLike, telemetry: str = "windows",
            max_steps: int = 1_000_000) -> ServeReport:
        """Route every request, run each replica's engine, merge.

        Like :meth:`ContinuousBatchScheduler.run`, each call is a fresh
        replay: routing state from earlier calls (or manual
        :meth:`route` invocations) is discarded.

        A *callable* ``requests`` is treated as a trace factory: each
        replica replays a fresh iterator through the routing state
        machine and consumes only its own share, so nothing is
        materialized, and ``assignments`` stays empty.  A materialized
        trace is routed up front and records ``assignments``.
        ``telemetry`` is the engines' recording level (``"windows"`` or
        ``"sketch"``).

        With a :class:`FaultSchedule` installed the run goes through
        the resilient path instead (see :meth:`_run_with_faults`) —
        the trace is materialized there, since crash re-dispatch needs
        the whole arrival sequence to converge on a retry plan.
        """
        if self.faults is not None:
            return self._run_with_faults(requests, telemetry, max_steps)
        self._routing = _RoutingState(self.n_replicas, self.policy)
        self.assignments = {}
        if callable(requests):
            reports = [
                engine.run(self._replica_share(requests, idx),
                           telemetry=telemetry, max_steps=max_steps)
                for idx, engine in enumerate(self.engines)]
        else:
            shares: list[list[Request]] = [[] for _ in
                                           range(self.n_replicas)]
            for request in sorted(requests, key=lambda r: r.arrival_s):
                shares[self.route(request)].append(request)
            reports = [engine.run(share, telemetry=telemetry,
                                  max_steps=max_steps)
                       for engine, share in zip(self.engines, shares)]
        return ServeReport.merge(reports, self.assignments)

    # -- fault-tolerant serving ---------------------------------------------

    def _route_retry(self, rid: int, attempt: int, arrival_s: float,
                     died_on: int) -> int:
        """Deterministic retry/handoff target: a healthy survivor
        (never the replica the attempt just died on or drained from,
        unless it is the only replica), rotated by ``rid + attempt`` so
        retry storms spread instead of piling onto one survivor.  With
        a failure-domain topology the candidate list comes domain-aware
        from :meth:`HealthTracker.retry_candidates` — never into the
        failing domain, interleaved across domains so consecutive
        retries spread over racks rather than filling one."""
        assert self._health is not None
        candidates = [r for r in
                      self._health.retry_candidates(arrival_s, died_on)
                      if r != died_on]
        if not candidates:
            candidates = [r for r in range(self.n_replicas)
                          if r != died_on] or [died_on]
        return candidates[(rid + attempt) % len(candidates)]

    def _retry_plan(
            self, kills: "list[tuple[KilledRequest, ...]]",
    ) -> tuple:
        """The re-dispatch plan implied by the replicas' kills: for each
        killed request, its kill chain in time order maps to retry
        dispatches (attempt ``j`` re-arrives ``delay_s(j)`` after kill
        ``j-1``) until the budget is spent, then a terminal failure.
        Pure function of the kills, so the fixed point is reached
        exactly when the kills reproduce the dispatches they ran with."""
        by_rid: dict[int, list] = {}
        for replica, replica_kills in enumerate(kills):
            for k in replica_kills:
                by_rid.setdefault(k.request.request_id, []).append(
                    (k.kill_s, replica))
        entries = []
        for rid in sorted(by_rid):
            chain = sorted(by_rid[rid])
            for j, (kill_s, died_on) in enumerate(chain):
                attempt = j + 1
                if attempt > self.retry.budget:
                    entries.append((rid, attempt, "failed", kill_s, -1))
                    break
                arrival = kill_s + self.retry.delay_s(attempt)
                entries.append((rid, attempt, "retry", arrival,
                                self._route_retry(rid, attempt, arrival,
                                                  died_on)))
        return tuple(entries)

    def _migration_plan(
            self, drains: "list[tuple[MigratedRequest, ...]]") -> tuple:
        """The handoff dispatches implied by the replicas' drain
        checkpoints: each checkpoint re-admits its request on a healthy
        replica after the migration cost model's transfer delay, with a
        :class:`ResumeSpec` so the target's first prefill skips the
        shipped KV positions.  Checkpoint times are pure functions of
        fault + request (like kill times), so this plan composes with
        the retry plan in the same fixed-point iteration."""
        by_rid: dict[int, list] = {}
        for replica, checkpoints in enumerate(drains):
            for ckpt in checkpoints:
                by_rid.setdefault(ckpt.request.request_id, []).append(
                    (ckpt.migrate_s, replica, ckpt))
        entries = []
        for rid in sorted(by_rid):
            chain = sorted(by_rid[rid], key=lambda e: (e[0], e[1]))
            for hop, (migrate_s, source, ckpt) in enumerate(chain, 1):
                arrival = migrate_s \
                    + self.migration.handoff_s(ckpt.kv_bytes)
                target = self._route_retry(rid, hop, arrival, source)
                entries.append((rid, hop, arrival, target, ckpt.position,
                                ckpt.n_generated, ckpt.first_token_s))
        return tuple(entries)

    def _converge(self, run: "_FaultRun") -> None:
        """Re-run replicas until every one last ran with the share the
        current dispatch plan gives it: a dirty-replica worklist swept
        in causal order.

        Each sweep visits the replicas in ``run.order`` and re-runs only
        those whose share differs from the one they last ran with,
        re-planning after each run — so a dispatch emitted early in a
        sweep reaches its target later in the same sweep.  A sweep that
        re-runs nothing ends the loop.  Skipping a clean replica is
        sound because a replay is a pure function of its share (see
        :class:`_FaultRun`).  That this order reaches the same fixed
        point as re-running every replica every round is a tested
        property, not a theorem: ``tests/test_fault_convergence.py``
        pins it bit for bit against that loop on hypothesis-drawn fault
        runs.  Positive dispatch lookahead (a handoff or retry lands
        strictly after the fault that emits it) is the condition under
        which the fixed point is expected to be unique; with
        zero-latency handoffs several could exist in principle.
        """
        while True:
            swept = False
            for idx in run.order:
                if run.ran_with[idx] == run.share(idx):
                    continue
                if not swept:
                    run.begin_round()
                    swept = True
                run.run_replica(idx)
                run.replan()
            if not swept:
                return

    def _run_with_faults(self, requests: TraceLike, telemetry: str,
                         max_steps: int) -> ServeReport:
        """Serve a trace through the fault schedule: shed, route
        health-aware, then converge crash re-dispatch to a fixed point.

        Each replica replays its share — its routed requests plus the
        retry and migration dispatches that land on it — from scratch;
        the kills and drain checkpoints observed imply the next
        dispatch plan (:meth:`_converge` re-runs only the replicas
        whose share changed).  The plan converges when every replica's
        last run reproduces exactly the dispatches it ran with — the
        simulated-time analogue of a real router reacting to failures
        as they happen, kept deterministic (and tier-independent)
        because every kill time is a pure function of fault + request.
        ``resilience["retry_rounds"]`` counts the sweeps that re-ran at
        least one replica.
        """
        tracker = self._health
        assert tracker is not None
        trace = sorted(requests() if callable(requests) else requests,
                       key=lambda r: r.arrival_s)
        # Degraded-mode admission: while crashes reduce healthy
        # capacity, low classes are shed cluster-wide *before* routing
        # (the verdict is a pure function of arrival time and class, so
        # it consumes no routing state).
        shed: list[tuple[Request, FinishReason, float]] = []
        admitted: list[Request] = []
        for request in trace:
            if self.degraded is not None and request.tenant.priority \
                    in self.degraded.shed_classes(
                        tracker.healthy_fraction(request.arrival_s)):
                shed.append((request, FinishReason.REJECTED, 0.0))
            else:
                admitted.append(request)
        self._routing = _RoutingState(self.n_replicas, self.policy,
                                      health=tracker)
        self.assignments = {}
        base_shares: list[list[Request]] = \
            [[] for _ in range(self.n_replicas)]
        for request in admitted:
            base_shares[self.route(request)].append(request)
        plans = [self.faults.plan_for(idx)
                 for idx in range(self.n_replicas)]
        dspans = tracker.degraded_spans()
        for engine, plan in zip(self.engines, plans):
            engine.fault_plan = plan
            engine.degraded_spans = dspans
        originals = {r.request_id: r for r in admitted}

        n_drain_events = sum(1 for e in self.faults.events
                             if e.kind == "drain")
        max_rounds = (self.retry.budget + 6 + 2 * n_drain_events) \
            * (3 if self.hedge is not None else 1)
        run = _FaultRun(self, base_shares, originals, _causal_order(plans),
                        max_rounds, telemetry, max_steps)
        self._converge(run)

        # -- hedged dispatch: first-token-wins duplicates -------------------
        hedge_copies: dict[int, tuple[int, ...]] = {}
        winner_of: dict[int, int] = {}
        copy_ids: set[int] = set()
        if self.hedge is not None:
            delay = self.hedge.delay_s
            candidates = set(run.failed)
            for rep in run.reports:
                rows = rep.rows
                slow = rows["ttft_valid"] & (rows["ttft_s"] > delay) \
                    & (rows["reason"] != REASON_CODES[FinishReason.REJECTED])
                candidates.update(rows["request_id"][slow].tolist())
            hedge_base = max(originals, default=0) + 1
            serial = 0
            for rid in sorted(candidates):
                ids = []
                for j in range(1, self.hedge.max_hedges + 1):
                    copy_id = hedge_base + serial
                    serial += 1
                    arrival = originals[rid].arrival_s + j * delay
                    target = self._route_retry(
                        rid, j, arrival, self.assignments[rid])
                    copy = replace(
                        originals[rid], request_id=copy_id,
                        arrival_s=arrival,
                        accounted_arrival_s=originals[rid].arrival_s)
                    originals[copy_id] = copy
                    base_shares[target].append(copy)
                    self.assignments[copy_id] = target
                    ids.append(copy_id)
                hedge_copies[rid] = tuple(ids)
            copy_ids = {c for ids in hedge_copies.values() for c in ids}
        if hedge_copies:
            self._converge(run)
            # First token wins.  Every contender's ledger TTFT measures
            # from the primary's original arrival, so the TTFTs compare
            # directly as absolute first-token order; ties keep the
            # primary (no pointless cancellation).
            first_token = _first_token_times(run.reports)

            def first_token_rank(cid: int) -> tuple:
                ttft = first_token.get(cid)
                return (1, 0.0) if ttft is None else (0, ttft)

            # Every routed request and hedge copy sits in exactly one
            # share under its own id, so one map finds each loser.
            slot_of = {req.request_id: (share, i) for share in base_shares
                       for i, req in enumerate(share)}
            clamped = False
            for rid, ids in sorted(hedge_copies.items()):
                contenders = [rid, *ids]
                winner = min(contenders,
                             key=lambda c: (*first_token_rank(c),
                                            contenders.index(c)))
                winner_of[rid] = winner
                for loser in contenders:
                    if loser == winner:
                        continue
                    old = originals[loser]
                    if old.max_new_tokens == 1:
                        continue
                    # Cancellation at the loser's own first token,
                    # modeled as a one-token generation budget (the
                    # engine frees its slot right after that token).
                    new = replace(old, max_new_tokens=1)
                    originals[loser] = new
                    share, i = slot_of[loser]
                    share[i] = new
                    clamped = True
            if clamped:
                run.build_dispatches()
                self._converge(run)

        stats = [engine.fault_stats() for engine in self.engines]
        for engine in self.engines:
            engine.fault_plan = None
            engine.degraded_spans = ()
        for (rid, attempt), (target, req) in sorted(run.retries.items()):
            flight = self.engines[target].flight
            if flight is not None:
                flight.instant("redispatch", req.arrival_s, rid,
                               attempt=attempt)
        for (rid, hop), (target, req) in sorted(run.handoffs.items()):
            flight = self.engines[target].flight
            if flight is not None:
                flight.instant(
                    "migrate-in", req.arrival_s, rid, hop=hop,
                    kv_position=req.resume.kv_position
                    if req.resume is not None else 0)
        for rid, ids in sorted(hedge_copies.items()):
            for j, cid in enumerate(ids, 1):
                flight = self.engines[self.assignments[cid]].flight
                if flight is not None:
                    flight.instant("hedge", originals[cid].arrival_s,
                                   cid, primary=rid, attempt=j)

        # A request past its budget surfaces as FAILED at its final
        # kill — never a silent loss.  E2E runs from the *original*
        # arrival: the client has been waiting since then.  Hedge
        # copies are router-internal (their failure is not a client
        # verdict), and a primary whose hedge set retired (a winner
        # wiped out by a post-clamp fault shift falls back to the
        # primary's own verdict) did not fail.
        retired_ids = {rid for rep in run.reports
                       for rid in rep.rows["request_id"].tolist()}
        recovered = {rid for rid, winner in winner_of.items()
                     if rid in run.failed and (winner in retired_ids
                                           or rid in retired_ids)}
        failed_verdicts = [
            (originals[rid], FinishReason.FAILED,
             kill_s - originals[rid].arrival_s)
            for rid, kill_s in sorted(run.failed.items())
            if rid not in copy_ids and rid not in recovered]
        lost = {r.request_id for r in admitted} \
            - retired_ids - set(run.failed)
        degraded_time = tracker.degraded_time_s()
        degraded_tokens = sum(s["degraded_tokens"] for s in stats)
        resilience = {
            "n_crashes": sum(s["crashes"] for s in stats),
            "n_hangs": sum(s["stalls"] for s in stats),
            "n_slowdowns": sum(s["slowdowns"] for s in stats),
            "n_drains": sum(s["drains"] for s in stats),
            "n_killed": sum(len(k) for k in run.kills),
            "n_redispatched": len(run.retries),
            "n_migrated": sum(len(d) for d in run.drains),
            "migrated_kv_bytes": sum(m.kv_bytes
                                     for d in run.drains for m in d),
            "n_resumed": sum(s["n_resumed"] for s in stats),
            "resume_recompute_tokens":
                sum(s["resume_recompute_tokens"] for s in stats),
            "n_failed": len(failed_verdicts),
            "n_shed": len(shed),
            "n_lost": len(lost),
            "lost_request_ids": tuple(sorted(lost)),
            "n_hedged": len(hedge_copies),
            "n_hedge_wins": sum(1 for rid, w in winner_of.items()
                                if w != rid),
            "retry_rounds": run.rounds,
            "mttr_s": tracker.mttr_s(),
            "downtime_s": sum(s["downtime_s"] for s in stats),
            "degraded_time_s": degraded_time,
            "goodput_degraded_tokens_per_s":
                degraded_tokens / degraded_time
                if degraded_time > 0 else None,
        }
        report = ServeReport.merge(run.reports, self.assignments,
                                   verdicts=shed + failed_verdicts,
                                   resilience=resilience)
        if winner_of:
            report = _collapse_hedges(report, winner_of, copy_ids)
        return report


def _causal_order(plans: list) -> list[int]:
    """Sweep order of the fixed point: replicas by the start of their
    first crash or drain — the only actions that emit dispatches — so a
    sweep runs each emitter before the replicas its dispatches land on.
    Replicas with neither go last; ties go by index."""
    def key(idx: int) -> tuple:
        starts = [a.start_s for a in plans[idx].actions
                  if a.kind in ("crash", "drain")]
        return (not starts, min(starts, default=0.0), idx)
    return sorted(range(len(plans)), key=key)


class _FaultRun:
    """One fault run's fixed-point state: the replicas' routed shares,
    the dispatch plan their latest replays imply, and those replays.

    A replay is a pure function of (share, fault plan, degraded spans):
    the engine resets its clocks, recorder, fault state and KV pool at
    every run start, and a crash drops the board's cached prefixes.
    So a replica whose share has not changed since its last run needs
    no re-run.
    """

    def __init__(self, router: ReplicaRouter,
                 base_shares: list[list[Request]],
                 originals: dict[int, Request], order: list[int],
                 max_rounds: int, telemetry: str, max_steps: int) -> None:
        n = router.n_replicas
        self.router = router
        #: routed requests (and hedge copies) per replica; the hedge
        #: phase appends and clamps in place.
        self.base_shares = base_shares
        self.originals = originals
        self.order = order
        self.max_rounds = max_rounds
        self.telemetry = telemetry
        self.max_steps = max_steps
        #: (retry plan, migration plan) the dispatches were built from.
        self.plan: tuple = ((), ())
        self.retries: dict[tuple[int, int], tuple[int, Request]] = {}
        self.handoffs: dict[tuple[int, int], tuple[int, Request]] = {}
        self.failed: dict[int, float] = {}
        self._dispatched: list[list[Request]] = [[] for _ in range(n)]
        self.reports: list[ServeReport | None] = [None] * n
        self.kills: list[tuple[KilledRequest, ...]] = [()] * n
        self.drains: list[tuple[MigratedRequest, ...]] = [()] * n
        #: the share each replica's latest report was run with.
        self.ran_with: list[list[Request] | None] = [None] * n
        self.rounds = 0

    def share(self, idx: int) -> list[Request]:
        """Replica ``idx``'s current share: its routed requests, then
        the retries and handoffs the plan dispatches to it."""
        return self.base_shares[idx] + self._dispatched[idx]

    def begin_round(self) -> None:
        self.rounds += 1
        if self.rounds > self.max_rounds:
            raise SimulationError(
                f"crash re-dispatch did not converge within "
                f"{self.max_rounds} sweeps — the retry/migration plan "
                "keeps perturbing which requests later faults hit")

    def run_replica(self, idx: int) -> None:
        """Replay replica ``idx`` on its current share."""
        engine = self.router.engines[idx]
        if engine.flight is not None:
            # Recorders would otherwise accumulate every replay's
            # events; only the converged replay's timeline is the run.
            engine.flight.reset()
        share = self.share(idx)
        self.reports[idx] = engine.run(share, telemetry=self.telemetry,
                                       max_steps=self.max_steps)
        self.ran_with[idx] = share
        self.kills[idx] = tuple(engine.killed)
        self.drains[idx] = tuple(engine.drained)

    def replan(self) -> bool:
        """Re-derive the plan from every replica's latest kills and
        checkpoints; rebuild the dispatches when it moved (True)."""
        plan = (self.router._retry_plan(self.kills),
                self.router._migration_plan(self.drains))
        if plan == self.plan:
            return False
        self.plan = plan
        self.build_dispatches()
        return True

    def build_dispatches(self) -> None:
        """Materialize the plan into dispatch requests.  Retries restart
        from the pristine original (the crash destroyed the KV);
        migrations re-admit with a resume spec so the target's prefill
        skips the shipped positions.  Both keep the client's ledger
        anchored at the *original* arrival — the client has been
        waiting since then, so TTFT/E2E must say so."""
        retry_plan, migration_plan = self.plan
        originals = self.originals
        self.retries, self.handoffs, self.failed = {}, {}, {}
        for rid, attempt, verdict, t_s, target in retry_plan:
            if verdict == "failed":
                self.failed[rid] = t_s
            else:
                self.retries[(rid, attempt)] = (target, replace(
                    originals[rid], arrival_s=t_s,
                    accounted_arrival_s=originals[rid].ledger_arrival_s))
        for rid, hop, t_s, target, position, n_gen, first_s \
                in migration_plan:
            resume = ResumeSpec(
                kv_position=position, n_generated=n_gen,
                first_token_s=first_s) \
                if position or n_gen or first_s is not None else None
            self.handoffs[(rid, hop)] = (target, replace(
                originals[rid], arrival_s=t_s,
                accounted_arrival_s=originals[rid].ledger_arrival_s,
                resume=resume))
        dispatched: list[list[Request]] = [[] for _ in self._dispatched]
        for table in (self.retries, self.handoffs):
            for _, (target, req) in sorted(table.items()):
                dispatched[target].append(req)
        self._dispatched = dispatched


def _first_token_times(reports: list[ServeReport]) -> dict:
    """Request id -> TTFT (None without a first token) of every request
    the replicas retired."""
    out: dict[int, float | None] = {}
    for rep in reports:
        rows = rep.rows
        out.update(
            (rid, ttft if valid else None) for rid, ttft, valid in zip(
                rows["request_id"].tolist(), rows["ttft_s"].tolist(),
                rows["ttft_valid"].tolist()))
    return out


def _collapse_hedges(report: ServeReport, winner_of: dict[int, int],
                     copy_ids: set[int]) -> ServeReport:
    """Each hedge set collapsed to one row under the primary request id:
    copy rows drop out, and the winner's row — the primary's own when
    the winner retired nothing — is re-keyed to the primary.  The
    replica reports and the token-latency sample keep the raw duplicate
    work (hedging is not free, and the throughput columns must say
    so)."""
    rows = report.rows
    ids = rows["request_id"].copy()
    retired = np.flatnonzero(rows["source"] >= 0)
    row_of = dict(zip(ids[retired].tolist(), retired.tolist()))
    keep = ~np.isin(ids, list(copy_ids))
    for rid, winner in winner_of.items():
        i = row_of.get(winner, row_of.get(rid))
        if i is None:
            continue
        if rid in row_of:
            keep[row_of[rid]] = False
        keep[i] = True
        ids[i] = rid
    return report.with_rows(keep, ids)
