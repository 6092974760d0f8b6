"""Continuous batching over one embedded accelerator.

The scheduler is iteration-level (Orca-style): every :meth:`step` first
admits waiting requests against the bare-metal capacity report, runs
their prefills, then executes ONE batched decode step over every running
sequence.  Sequences join and leave the batch at token granularity —
no waiting for stragglers, which is what makes the weight-stream
amortization of :meth:`CycleModel.batched_decode_step` reachable under
real traffic.

Capacity discipline (the paper's Sec. VII-A carried to serving): the
KV budget is derived from what the platform's DRAM holds beyond the
quantized weights and the bare-metal reservation.  Admission is
optimistic (a request needs room for its prompt plus one token); when
decode growth would overflow the budget, the youngest running sequence
is preempted — its slot freed, its tokens kept — and it re-enters the
queue to be recomputed when pressure clears.

Two capacity disciplines, chosen by the backend's KV mode:

* slotted — admission against a worst-case *token* budget: every
  sequence is charged its full length, shared or not.
* paged — admission against free *blocks* of the backend's
  :class:`repro.kv.PagedKVCache`: prefix-shared blocks are charged
  once, so identical system prompts stop competing for budget, and
  preemption triggers on block pressure instead of token counts.
"""

from __future__ import annotations

import bisect
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from ..errors import CapacityError, SimulationError
from .backends import EngineBackend, derive_kv_token_budget
from .request import FinishReason, Request, RequestState, RequestStatus
from .tenancy import PRIORITY_CLASSES
from .telemetry import (  # noqa: F401  (re-exported: public API lives here)
    TELEMETRY_LEVELS,
    RequestResult,
    ServeReport,
    StepEvent,
    StepWindow,
    TelemetryRecorder,
)

if TYPE_CHECKING:  # avoids the runtime<->engine package-import cycle
    from ..runtime.baremetal import BareMetalSystem

#: rank of the lowest (droppable) priority class.
_LOWEST_RANK = len(PRIORITY_CLASSES) - 1
#: best-effort work evicted more than this many times in favour of
#: higher classes is dropped (REJECTED) instead of requeued, so it
#: cannot thrash the pool while interactive traffic waits.
_BEST_EFFORT_EVICTION_LIMIT = 3


def _fault_phase(request: Request, start_s: float) -> str:
    """Where a crash or drain starting at ``start_s`` caught a request
    that was not running: ``"queued"`` if it had arrived by then,
    ``"arrival"`` if it arrived inside the fault window."""
    return "queued" if request.arrival_s < start_s else "arrival"


@dataclass(frozen=True)
class KilledRequest:
    """One request instance lost to an injected replica crash.

    ``phase`` records where the fault caught it: ``"running"`` (in the
    batch — KV and generated tokens lost), ``"queued"`` (not running,
    arrived before the crash), or ``"arrival"`` (not running, arrived
    during the outage, nobody listening).  Kill times and phases are
    pure functions of the fault and the request — never of the
    discovering clock or of how the trace was fed (list or iterator) —
    so fault replay stays bit-identical with fast-forward on or off.
    """

    request: Request
    kill_s: float
    phase: str
    tokens_lost: int = 0


@dataclass(frozen=True)
class MigratedRequest:
    """One request checkpointed off a draining replica.

    ``phase`` records where the drain caught it: ``"running"`` (in the
    batch — its KV checkpoint of ``kv_bytes`` ships over the
    interconnect), ``"queued"`` (not running, arrived before the drain
    — nothing resident, a zero-byte handoff), or ``"arrival"`` (not
    running, arrived mid-drain, admission closed).  Migration times and
    phases are pure functions of the fault and the request, like kill
    times, so the router's re-dispatch plan is bit-identical with
    fast-forward on or off and with the trace fed as a list or an
    iterator.
    """

    request: Request
    migrate_s: float
    phase: str
    #: KV-resident tokens at checkpoint time (prompt + forwarded
    #: generated) — what the target's resume prefill may skip.
    position: int = 0
    n_generated: int = 0
    tokens: tuple[int, ...] = ()
    first_token_s: float | None = None
    preemptions: int = 0
    #: checkpoint payload: the *logical* sequence KV — the target
    #: shares none of the source's blocks, so prefix-shared residency
    #: earns no transfer discount.
    kv_bytes: int = 0
    blocks: int = 0


class _ClassQueues:
    """The waiting queue: one FIFO deque per priority class.

    Admission scans classes highest-first; within a class the order is
    FIFO with preempted re-entries (already arrived) at the head —
    exactly the old single-deque discipline, applied per class.  A
    streamed run appends in arrival order, but direct ``submit()`` calls
    may not: the idle jump therefore targets the minimum over the class
    heads (see :meth:`min_head_arrival`), which needs no sortedness.
    """

    __slots__ = ("queues", "_n")

    def __init__(self) -> None:
        self.queues: tuple[deque[RequestState], ...] = \
            tuple(deque() for _ in PRIORITY_CLASSES)
        self._n = 0

    def __len__(self) -> int:
        return self._n

    def __bool__(self) -> bool:
        return self._n > 0

    def __iter__(self):
        for q in self.queues:
            yield from q

    def append(self, state: RequestState) -> None:
        self.queues[state.request.tenant.rank].append(state)
        self._n += 1

    def appendleft(self, state: RequestState) -> None:
        self.queues[state.request.tenant.rank].appendleft(state)
        self._n += 1

    def popleft(self, rank: int) -> RequestState:
        state = self.queues[rank].popleft()
        self._n -= 1
        return state

    def min_head_arrival(self) -> float | None:
        """Earliest arrival among class heads: the earliest moment
        anything waiting can be admitted.  Admission is FIFO within a
        class, so nothing behind a head is admitted before it — an
        earlier arrival queued behind a later head waits for that head
        either way, sorted queue or not."""
        best: float | None = None
        for q in self.queues:
            if q:
                arrival = q[0].request.arrival_s
                if best is None or arrival < best:
                    best = arrival
        return best

    def remove_if(self, predicate) -> list[RequestState]:
        """Remove and return every member matching ``predicate``,
        preserving per-class queue order (the crash and drain
        paths)."""
        removed: list[RequestState] = []
        for q in self.queues:
            if not q:
                continue
            doomed = [s for s in q if predicate(s)]
            if doomed:
                kept = [s for s in q if not predicate(s)]
                q.clear()
                q.extend(kept)
                removed.extend(doomed)
        self._n -= len(removed)
        return removed

    def next_future_arrival(self, clock_s: float) -> float | None:
        """Earliest class-head arrival strictly after ``clock_s``.
        An already-arrived head hides its successors, matching the
        in-class FIFO rule: nothing behind it can be admitted first."""
        best: float | None = None
        for q in self.queues:
            if q:
                arrival = q[0].request.arrival_s
                if arrival > clock_s and (best is None or arrival < best):
                    best = arrival
        return best


class ContinuousBatchScheduler:
    """Admits, batches, preempts, and retires requests on one backend."""

    def __init__(self, backend: EngineBackend,
                 system: "BareMetalSystem | None" = None,
                 max_batch: int = 8,
                 kv_token_budget: int | None = None,
                 fast_forward: bool = True) -> None:
        if max_batch <= 0:
            raise SimulationError(f"max_batch must be positive: {max_batch}")
        if not isinstance(fast_forward, bool):
            raise SimulationError(
                "fast_forward must be True (event-horizon windows) or "
                f"False (eager step loop): {fast_forward!r}")
        self.backend = backend
        self.max_batch = max_batch
        #: timing-only backends may advance event-horizon windows in one
        #: call: multi-segment windows that span predicted retirements
        #: and block frontiers.  ``False`` forces the eager step loop,
        #: the oracle the differential tests pin the windows to.
        self.fast_forward = fast_forward \
            and bool(getattr(backend, "supports_fast_forward", False))
        model = backend.model_config
        self.paged_kv = getattr(backend, "paged_kv", None)
        if self.paged_kv is not None:
            # Block discipline: the backend's pool is the capacity
            # authority; a token budget on top would double-account.
            if kv_token_budget is not None:
                raise SimulationError(
                    "kv_token_budget does not apply to a paged backend; "
                    "size the pool with n_kv_blocks instead")
            kv_token_budget = self.paged_kv.n_total_blocks \
                * self.paged_kv.block_size
        elif kv_token_budget is None:
            kv_token_budget = derive_kv_token_budget(
                model, backend.quant, backend.platform,
                cap_tokens=max_batch * model.max_context, system=system,
                tp=backend.tp)
        if kv_token_budget <= 0:
            raise CapacityError("KV token budget must be positive")
        self.kv_token_budget = int(kv_token_budget)

        self.clock_s = 0.0
        self.waiting = _ClassQueues()
        self.running: list[RequestState] = []
        self._recorder = TelemetryRecorder(
            "windows", backend.freq_hz,
            token_replay=getattr(backend, "replay_tokens", None))
        #: optional request-lifecycle trace recorder
        #: (:class:`repro.obs.FlightRecorder`).  Off by default; when
        #: None every hook site is a single attribute check, so
        #: untraced runs pay nothing.
        self.flight = None
        self._preemptions = 0
        self._n_finished = 0
        #: global decode-step counter — the index space request spans
        #: point into.
        self._decode_steps = 0
        #: the run's arrival source (an arrival-sorted Request
        #: iterator), pulled by :meth:`_refill`; None once exhausted.
        self._stream: Iterator[Request] | None = None
        self._stream_head: Request | None = None
        self._last_stream_arrival = 0.0
        #: running sum of cached tokens across the running set, kept in
        #: lockstep by admit/retire/preempt/decode instead of re-summed
        #: every scheduler step.
        self._cached_total = 0
        #: per-tenant quota discipline — resolved token quotas and the
        #: per-tenant cached-token counters, populated only for tenants
        #: that declare a quota so the default path pays nothing.
        self._quota_specs: dict[str, int] = {}
        self._tenant_cached: dict[str, int] = {}
        #: deterministic fault plan for this replica — any object with
        #: a sorted ``actions`` tuple of ``(kind, start_s, duration_s,
        #: factor)`` entries (see :class:`repro.cluster.faults.
        #: ReplicaFaultPlan`), typically set by the router before
        #: :meth:`run`.  None = fault-free; the hot path then pays one
        #: falsy check per loop iteration.
        self.fault_plan = None
        #: cluster-wide capacity-reduced intervals (sorted, disjoint)
        #: for goodput-during-recovery accounting — set by the router
        #: alongside the plan.
        self.degraded_spans: tuple[tuple[float, float], ...] = ()
        #: requests lost to crashes in the current/last run
        #: (:class:`KilledRequest`, in kill order) — what the router
        #: re-dispatches to surviving replicas or fails.
        self.killed: list[KilledRequest] = []
        #: requests checkpointed off this replica by drain events
        #: (:class:`MigratedRequest`, in migration order) — what the
        #: router re-admits on a healthy replica after a handoff charge.
        self.drained: list[MigratedRequest] = []
        self._fault_actions: tuple = ()
        self._fault_next = 0
        self._slow_factor = 1.0
        self._slow_until: float | None = None
        self._down_start = 0.0
        self._down_until: float | None = None
        self._drain_start = 0.0
        self._drain_until: float | None = None
        self._n_resumed = 0
        self._resume_recompute_tokens = 0
        self._fault_counts = {"crash": 0, "stall": 0, "slow": 0,
                              "drain": 0}
        self._downtime_s = 0.0
        self._degraded_tokens = 0
        self._degraded_starts: list[float] = []
        self._degraded_ends: list[float] = []

    @property
    def events(self) -> list[StepEvent]:
        """Per-step events of the current/last run: the run-length
        records expanded lazily to one event per step, paid only when
        read."""
        return self._recorder.expanded_events()

    @property
    def telemetry(self) -> str:
        return self._recorder.level

    # -- submission --------------------------------------------------------

    def submit(self, request: Request) -> RequestState:
        """Queue one request; raises if it could never be served."""
        model = self.backend.model_config
        if len(request.prompt) >= model.max_context:
            raise SimulationError(
                f"request {request.request_id}: prompt of "
                f"{len(request.prompt)} tokens fills the "
                f"{model.max_context}-token context")
        if len(request.prompt) + 1 > self.kv_token_budget:
            raise CapacityError(
                f"request {request.request_id}: prompt alone exceeds the "
                f"KV budget of {self.kv_token_budget} tokens")
        self._register_tenant(request)
        state = RequestState(request=request)
        resume = request.resume
        if resume is not None:
            # Migration handoff: re-seed the generated suffix from the
            # deterministic token stream and mark the transferred KV as
            # skippable by the first prefill.
            replay = getattr(self.backend, "replay_tokens", None)
            if replay is None:
                raise SimulationError(
                    f"request {request.request_id}: migration resume "
                    "needs a replayable token stream; this backend "
                    "computes real logits and cannot re-seed one")
            if resume.n_generated:
                state.generated = list(replay(
                    request.request_id, resume.n_generated,
                    request.eos_id))
            state.first_token_s = resume.first_token_s
            state.resume_skip = min(
                resume.kv_position,
                len(request.prompt) + resume.n_generated)
        self.waiting.append(state)
        if self.flight is not None:
            self.flight.request_phase(
                request.request_id, "queued", request.arrival_s,
                tenant=request.tenant.name,
                priority=request.tenant.priority)
        return state

    def _register_tenant(self, request: Request) -> None:
        """Resolve and pin the tenant's KV quota (tokens either way:
        a block quota converts through the paged pool's block size)."""
        tenant = request.tenant
        if not tenant.has_quota:
            return
        if tenant.kv_quota_blocks is not None:
            if self.paged_kv is None:
                raise SimulationError(
                    f"tenant {tenant.name!r}: kv_quota_blocks needs a "
                    "paged backend; use kv_quota_tokens")
            quota = tenant.kv_quota_blocks * self.paged_kv.block_size
        else:
            assert tenant.kv_quota_tokens is not None
            quota = tenant.kv_quota_tokens
        known = self._quota_specs.get(tenant.name)
        if known is not None and known != quota:
            raise SimulationError(
                f"tenant {tenant.name!r}: conflicting KV quotas "
                f"({known} vs {quota} tokens)")
        self._quota_specs[tenant.name] = quota
        self._tenant_cached.setdefault(tenant.name, 0)
        if len(request.prompt) + 1 > quota:
            raise CapacityError(
                f"request {request.request_id}: prompt alone exceeds "
                f"tenant {tenant.name!r}'s KV quota of {quota} tokens")

    # -- internals ---------------------------------------------------------

    def _cached_tokens(self) -> int:
        return self._cached_total

    def _growth_blocks(self, states: Iterable[RequestState]) -> int:
        """Fresh blocks the coming one-token appends would claim."""
        assert self.paged_kv is not None
        return sum(1 for s in states
                   if s.slot is not None
                   and self.paged_kv.append_needs_block(s.slot))

    def _admit_fits(self, state: RequestState) -> bool:
        """Room for this request's prompt + first decode token, *and* the
        one-token growth every running sequence makes this step —
        otherwise the admit would be preempted right back out after
        paying its whole prefill.  Every running member owes a forward
        here: admission samples (or retires) each admit at once, each
        decode step samples or retires each member it charges, and every
        eviction leaves ``running``."""
        if self.paged_kv is not None:
            fresh, claimable = self.paged_kv.admission_plan(
                state.sequence_tokens())
            return fresh + self._growth_blocks(self.running) <= claimable
        needed = state.prompt_len + state.n_generated + 1
        return self._cached_tokens() + len(self.running) + needed \
            <= self.kv_token_budget

    def _growth_overflows(self, pending: list[RequestState]) -> bool:
        """Would appending one token per pending sequence burst the KV?"""
        if self.paged_kv is not None:
            return self._growth_blocks(pending) \
                > self.paged_kv.n_available_blocks
        return self._cached_tokens() + len(pending) > self.kv_token_budget

    # -- tenant quota discipline -------------------------------------------
    #
    # A quota counts a tenant's *cached tokens* (sum of member
    # positions) under both KV disciplines — paged prefix sharing is a
    # pool-level economy, deliberately not credited against quotas.
    # Every mutation mirrors ``_cached_total`` and is gated on
    # ``_quota_specs`` so quota-free runs skip all of it.

    def _cache_tenant(self, state: RequestState) -> None:
        name = state.request.tenant.name
        if name in self._tenant_cached:
            self._tenant_cached[name] += state.position

    def _uncache_tenant(self, state: RequestState) -> None:
        name = state.request.tenant.name
        if name in self._tenant_cached:
            self._tenant_cached[name] -= state.position

    def _grow_tenants(self, pending: list[RequestState], n: int) -> None:
        """Charge ``n`` appended tokens per pending member."""
        for s in pending:
            name = s.request.tenant.name
            if name in self._tenant_cached:
                self._tenant_cached[name] += n

    def _quota_blocked(self, state: RequestState) -> bool:
        """Admission gate: would this admit (prompt + first token, plus
        the coming one-token growth of the tenant's running members)
        push its tenant past quota?  Mirrors ``_admit_fits``, scoped to
        one tenant."""
        if not self._quota_specs:
            return False
        name = state.request.tenant.name
        quota = self._quota_specs.get(name)
        if quota is None:
            return False
        needed = state.prompt_len + state.n_generated + 1
        growth = sum(1 for s in self.running
                     if s.request.tenant.name == name)
        return self._tenant_cached[name] + growth + needed > quota

    def _quota_overflow(
            self, pending: list[RequestState],
    ) -> tuple[list[RequestState], list[RequestState]] | None:
        """First tenant whose coming one-token growth bursts its quota:
        ``(running members, pending members)``; None when all fit."""
        if not self._quota_specs:
            return None
        for name, quota in self._quota_specs.items():
            growing = [s for s in pending
                       if s.request.tenant.name == name]
            if growing and \
                    self._tenant_cached[name] + len(growing) > quota:
                members = [s for s in self.running
                           if s.request.tenant.name == name]
                return members, growing
        return None

    def _advance(self, cycles: float) -> None:
        self.clock_s += cycles / self.backend.freq_hz

    # -- fault injection ----------------------------------------------------
    #
    # Faults are serviced only at decision points (run-loop top and the
    # idle-jump clamp in step()), never mid-window: the window machinery
    # instead *cuts* at the next fault boundary with the same
    # ``searchsorted`` discipline as arrival cuts, so fast-forward
    # windows observe every fault at the identical clock and stay
    # bit-identical to the eager loop.

    def _fault_boundary(self) -> float | None:
        """Next simulated time a fault changes scheduler behaviour: the
        start of the next unserviced action, the expiry of an active
        slowdown (cycles charged after it must stop being scaled), or
        an active drain's deadline (survivors checkpoint there)."""
        nxt = self._slow_until
        if self._drain_until is not None \
                and (nxt is None or self._drain_until < nxt):
            nxt = self._drain_until
        if self._fault_next < len(self._fault_actions):
            start = self._fault_actions[self._fault_next].start_s
            if nxt is None or start < nxt:
                nxt = start
        return nxt

    def _boundary_reason(self, boundary: float) -> str:
        """Flight-recorder label of a window that ends at ``boundary``:
        ``"drain"`` when the binding boundary is a drain transition
        (the active drain's deadline, or the start of the next drain
        action), ``"fault"`` for everything else."""
        if self._drain_until is not None \
                and boundary == self._drain_until:
            return "drain"
        if self._fault_next < len(self._fault_actions):
            action = self._fault_actions[self._fault_next]
            if action.kind == "drain" and action.start_s == boundary:
                return "drain"
        return "fault"

    def _service_faults(self) -> None:
        """Apply every fault action due at the current clock."""
        while True:
            if self._slow_until is not None \
                    and self.clock_s >= self._slow_until:
                self._slow_factor, self._slow_until = 1.0, None
            if self._drain_until is not None \
                    and self.clock_s >= self._drain_until:
                self._finish_drain()
            if self._fault_next >= len(self._fault_actions):
                return
            action = self._fault_actions[self._fault_next]
            if self.clock_s < action.start_s:
                return
            self._fault_next += 1
            if action.kind == "crash":
                self._apply_crash(action)
            elif action.kind == "drain":
                self._begin_drain(action)
            elif action.kind == "stall":
                # A hang freezes the replica: nothing is scheduled
                # until it ends, modelled as a clock jump at this
                # decision point.
                self._fault_counts["stall"] += 1
                self._downtime_s += action.duration_s
                end = action.start_s + action.duration_s
                if self.flight is not None:
                    self.flight.marker("hang", action.start_s,
                                       stall_s=action.duration_s)
                if end > self.clock_s:
                    self.clock_s = end
            else:  # "slow"
                self._fault_counts["slow"] += 1
                self._slow_factor = action.factor
                self._slow_until = action.start_s + action.duration_s
                if self.flight is not None:
                    self.flight.marker("slowdown", action.start_s,
                                       factor=action.factor,
                                       slow_s=action.duration_s)

    def _apply_crash(self, action) -> None:
        """Kill the replica for ``[start, start + duration)``: running
        work loses its KV and tokens, queued work and arrivals during
        the outage find nobody listening.  Every kill time is a pure
        function of the fault and the request — ``max(start,
        arrival)`` — never of the discovering clock, so the router's
        re-dispatch plan does not depend on fast-forward."""
        self._fault_counts["crash"] += 1
        self._downtime_s += action.duration_s
        down_until = action.start_s + action.duration_s
        self._down_start = action.start_s
        self._down_until = down_until
        if self.flight is not None:
            self.flight.marker("crash", action.start_s,
                               down_s=action.duration_s)
            self.flight.marker("recover", down_until)
        for state in list(self.running):
            self._leave_batch(state)
            self._log_kill(state.request, action.start_s, "running",
                           len(state.generated))
        # The board lost all KV, cached prefixes included.
        self.backend.lose_kv()
        for state in self.waiting.remove_if(
                lambda s: s.request.arrival_s < down_until):
            self._log_kill(state.request,
                           max(action.start_s, state.request.arrival_s),
                           _fault_phase(state.request, action.start_s),
                           len(state.generated))
        # Outage arrivals still in the stream die in _refill, with the
        # same kill time and phase.  The clock stays put: the replica
        # itself resumes scheduling surviving arrivals the moment the
        # outage ends (the idle jump lands on the first post-outage
        # arrival).

    def _log_kill(self, request: Request, kill_s: float, phase: str,
                  tokens_lost: int) -> None:
        if self.flight is not None:
            rid = request.request_id
            self.flight.instant("crash-kill", kill_s, rid, phase=phase,
                                tokens_lost=tokens_lost)
            self.flight.request_phase(rid, None, kill_s)
        self.killed.append(
            KilledRequest(request, kill_s, phase, tokens_lost))

    # -- graceful drain ------------------------------------------------------
    #
    # A drain is the planned counterpart of a crash: admission closes
    # at the action start, running sequences keep decoding until the
    # deadline, and whatever is still in flight then checkpoints into
    # ``drained`` instead of dying.  Like kill times, every migration
    # time is a pure function of the fault and the request, so the
    # router's handoff plan is identical with fast-forward on or off.

    def _begin_drain(self, action) -> None:
        """Close admission for ``[start, start + duration)``: queued
        work and mid-drain arrivals hand over immediately (nothing of
        theirs is KV-resident), running work decodes on toward the
        deadline."""
        self._fault_counts["drain"] += 1
        deadline = action.start_s + action.duration_s
        self._drain_start = action.start_s
        self._drain_until = deadline
        if self.flight is not None:
            self.flight.marker("drain", action.start_s,
                               drain_s=action.duration_s)
        for state in self.waiting.remove_if(
                lambda s: s.request.arrival_s < deadline):
            self._log_migration(MigratedRequest(
                request=state.request,
                migrate_s=max(action.start_s, state.request.arrival_s),
                phase=_fault_phase(state.request, action.start_s),
                n_generated=state.n_generated,
                tokens=tuple(state.generated),
                first_token_s=state.first_token_s,
                preemptions=state.preemptions))
        # Mid-drain arrivals still in the stream hand over in _refill,
        # with the same migration time and phase.

    def _finish_drain(self) -> None:
        """Drain deadline reached: checkpoint every still-running
        sequence at the deadline instant and reopen admission."""
        deadline = self._drain_until
        assert deadline is not None
        self._drain_start = 0.0
        self._drain_until = None
        for state in list(self.running):
            self._extract_running(state, deadline)

    def extract_state(self, request_id: int,
                      migrate_s: float | None = None) -> MigratedRequest:
        """Checkpoint one running sequence off this replica: its KV
        payload size, position, and generated suffix, ready for a
        handoff.  The sequence leaves the batch and its KV accounting
        unwinds; ``migrate_s`` defaults to the current clock."""
        for state in self.running:
            if state.request_id == request_id:
                return self._extract_running(
                    state,
                    self.clock_s if migrate_s is None else migrate_s)
        raise SimulationError(
            f"request {request_id} is not running on this replica")

    def _extract_running(self, state: RequestState,
                         migrate_s: float) -> MigratedRequest:
        kv_bytes, blocks = self._kv_payload(state)
        self._leave_batch(state)
        ckpt = MigratedRequest(
            request=state.request, migrate_s=migrate_s, phase="running",
            position=state.position, n_generated=state.n_generated,
            tokens=tuple(state.generated),
            first_token_s=state.first_token_s,
            preemptions=state.preemptions,
            kv_bytes=kv_bytes, blocks=blocks)
        self._log_migration(ckpt)
        return ckpt

    def _kv_payload(self, state: RequestState) -> tuple[int, int]:
        """``(bytes, blocks)`` a checkpoint of this sequence ships —
        the logical sequence KV; the target holds none of the source's
        blocks, so prefix-shared residency earns no discount."""
        if state.slot is None or state.position == 0:
            return 0, 0
        if self.paged_kv is not None:
            return (self.paged_kv.sequence_payload_bytes(state.slot),
                    len(self.paged_kv.block_table(state.slot)))
        model = self.backend.model_config
        kv_bits = self.backend.quant.kv_bits
        return (2 * model.num_layers * state.position * model.kv_dim
                * kv_bits // 8, 0)

    def _log_migration(self, ckpt: MigratedRequest) -> None:
        if self.flight is not None:
            rid = ckpt.request.request_id
            self.flight.instant("migrate-out", ckpt.migrate_s, rid,
                                phase=ckpt.phase,
                                kv_bytes=ckpt.kv_bytes,
                                tokens=ckpt.n_generated)
            self.flight.request_phase(rid, None, ckpt.migrate_s)
        self.drained.append(ckpt)

    def fault_stats(self) -> dict[str, float]:
        """Per-replica fault tally of the current/last run."""
        return {
            "crashes": self._fault_counts["crash"],
            "stalls": self._fault_counts["stall"],
            "slowdowns": self._fault_counts["slow"],
            "drains": self._fault_counts["drain"],
            "n_killed": len(self.killed),
            "n_drained": len(self.drained),
            "n_resumed": self._n_resumed,
            "resume_recompute_tokens": self._resume_recompute_tokens,
            "downtime_s": self._downtime_s,
            "degraded_tokens": self._degraded_tokens,
        }

    def _note_sampled(self, state: RequestState, token: int) -> None:
        """Record a sampled token; retire on EOS or when the budget is hit
        with nothing left to forward."""
        state.generated.append(token)
        if state.first_token_s is None:
            state.first_token_s = self.clock_s
        if state.request.eos_id is not None \
                and token == state.request.eos_id:
            # The EOS itself is never forwarded: retire right away.
            self._retire(state, FinishReason.EOS)

    def _finalize(self, state: RequestState, reason: FinishReason) -> None:
        """Close the request out and hand it to telemetry."""
        state.status = RequestStatus.FINISHED
        state.finish_reason = reason
        self._n_finished += 1
        if self._degraded_ends and state.generated:
            # Goodput-during-recovery: tokens of work retired while the
            # cluster ran at reduced capacity.
            t = state.finish_s
            i = bisect.bisect_right(self._degraded_starts, t) - 1
            if i >= 0 and t < self._degraded_ends[i]:
                self._degraded_tokens += len(state.generated)
        if self.flight is not None:
            rid = state.request_id
            self.flight.request_phase(rid, None, state.finish_s)
            self.flight.instant(
                "rejected" if reason is FinishReason.REJECTED
                else "retired",
                state.finish_s, rid, reason=reason.name.lower(),
                tokens=len(state.generated),
                tenant=state.request.tenant.name)
        # The request folds into the report columns; retired work must
        # not grow with the trace.
        self._recorder.fold_result(state)

    def _leave_batch(self, state: RequestState) -> None:
        """Take a running sequence out of the batch — retired, evicted,
        checkpointed or killed alike: its cached tokens leave the pool
        and tenant ledgers, its slot is released, its decode span
        closes."""
        self.running.remove(state)
        self._cached_total -= state.position
        if self._quota_specs:
            self._uncache_tenant(state)
        self.backend.release(state)
        state.spans.append((state._span_start, self._decode_steps))

    def _retire(self, state: RequestState, reason: FinishReason) -> None:
        self._leave_batch(state)
        state.finish_s = self.clock_s
        self._finalize(state, reason)

    @staticmethod
    def _drop_pending_token(state: RequestState) -> None:
        """Drop a running sequence's sampled-but-never-forwarded tail
        token before it leaves unfinished, keeping the invariant that
        every reported non-EOS token was charged one decode step — and
        when that token was the *first*, the TTFT goes with it: a
        request retired with zero reported tokens must not carry a
        first-token time."""
        if state.has_pending_forward:
            state.generated.pop()
            if not state.generated:
                state.first_token_s = None

    def _retire_overgrown(self, state: RequestState) -> None:
        """Retire a sequence that cannot be preempted in its own favour
        (it alone outgrew the pool or its tenant's quota), its pending
        tail token dropped."""
        self._drop_pending_token(state)
        if self.flight is not None:
            self.flight.instant("quota-retire", self.clock_s,
                                state.request_id,
                                tenant=state.request.tenant.name)
        self._retire(state, FinishReason.LENGTH)

    def _reject(self, request: Request) -> None:
        """Refuse a request at admission control: it still produces a
        result (``FinishReason.REJECTED``, zero tokens, no TTFT) so a
        streamed run drains and reports instead of aborting mid-trace.
        Rejection is instantaneous at arrival — ``finish_s`` is pinned
        to the arrival time so the verdict does not depend on
        fast-forward."""
        state = RequestState(request=request)
        state.finish_s = request.arrival_s
        self._finalize(state, FinishReason.REJECTED)

    def _pick_victim(self, pool: list[RequestState]) -> RequestState:
        """Youngest member of the lowest class present.  Scanned from
        the youngest so a single-class pool picks the last element —
        the pre-tenancy victim, bit for bit."""
        victim = pool[-1]
        worst = victim.request.tenant.rank
        if worst == _LOWEST_RANK:
            return victim
        for s in reversed(pool):
            rank = s.request.tenant.rank
            if rank > worst:
                victim, worst = s, rank
                if worst == _LOWEST_RANK:
                    break
        return victim

    def _evict(self, state: RequestState) -> None:
        """Push one running sequence out of the batch: slot freed,
        tokens kept, KV accounting unwound."""
        self._leave_batch(state)
        state.status = RequestStatus.PREEMPTED
        state.position = 0
        state.logits = None
        state.resume_skip = 0  # transferred KV does not survive eviction
        state.preemptions += 1
        self._preemptions += 1
        if self.flight is not None:
            rid = state.request_id
            self.flight.instant("preempt", self.clock_s, rid,
                                tenant=state.request.tenant.name)
            self.flight.request_phase(rid, "queued", self.clock_s)

    def _outgrew_quota(self, state: RequestState) -> bool:
        """True when this sequence's recompute could never fit its
        tenant's quota again, even against an empty pool.  Such a
        sequence must not re-enter the waiting queue: its class head
        would stay quota-blocked forever and wedge the drain loop."""
        if not self._quota_specs:
            return False
        quota = self._quota_specs.get(state.request.tenant.name)
        return quota is not None \
            and state.prompt_len + state.n_generated + 1 > quota

    def _preempt_one(self,
                     candidates: list[RequestState] | None = None,
                     ) -> str | None:
        """Evict the youngest lowest-class running sequence back to its
        class queue's head.  ``candidates`` narrows the pool (quota
        pressure evicts within the offending tenant only).  A victim
        that has outgrown its own quota retires instead of requeueing
        (``"retired"`` vs ``"preempted"``; None when the pool holds no
        evictable member)."""
        pool = self.running if candidates is None else candidates
        if len(pool) <= 1:
            return None
        victim = self._pick_victim(pool)
        if self._outgrew_quota(victim):
            self._retire_overgrown(victim)
            return "retired"
        self._evict(victim)
        self.waiting.appendleft(victim)
        return "preempted"

    def _preempt_for(self, rank: int) -> bool:
        """Evict one strictly-lower-class victim so an arrived
        class-``rank`` head can be admitted; never touches work of the
        head's own class or higher.  A best-effort victim past the
        eviction limit is dropped (REJECTED) instead of requeued."""
        victims = [s for s in self.running
                   if s.request.tenant.rank > rank]
        if not victims:
            return False
        victim = self._pick_victim(victims)
        if self._outgrew_quota(victim):
            # Requeueing would wedge the victim's class queue (it can
            # never fit its quota again); retiring frees capacity for
            # the head just the same.
            self._retire_overgrown(victim)
            return True
        # Does this eviction take it past the limit?
        drop = victim.request.tenant.rank == _LOWEST_RANK \
            and victim.preemptions >= _BEST_EFFORT_EVICTION_LIMIT
        if drop:
            self._drop_pending_token(victim)
        self._evict(victim)
        if drop:
            victim.finish_s = self.clock_s
            self._finalize(victim, FinishReason.REJECTED)
        else:
            self.waiting.appendleft(victim)
        return True

    def _admission_scan(
            self) -> tuple[int, RequestState | None, bool, bool]:
        """Next admissible head under strict priority:
        ``(rank, head, fits, pool_blocked)``.

        Classes are scanned highest-first.  A head that has not arrived
        or is over its tenant's quota yields to lower classes (a tenant
        at quota queues even when the pool has room); the first head
        past those gates is *the* candidate: ``fits`` when the pool
        admits it now, ``fits=False`` when admission needs lower-class
        evictions first.  A pool-blocked head with nothing to evict
        blocks every class below it — strict priority, no bypass —
        returned with ``pool_blocked`` so window gates know which
        arrived head is waiting on capacity."""
        if self._drain_until is not None:
            # Draining: admission is closed outright.  Arrivals inside
            # the drain window were already handed over, so nothing an
            # open scan would admit can be waiting anyway.
            return -1, None, False, False
        for rank, queue in enumerate(self.waiting.queues):
            if not queue:
                continue
            head = queue[0]
            if head.request.arrival_s > self.clock_s:
                continue
            if self._quota_blocked(head):
                continue
            if self._admit_fits(head):
                return rank, head, True, False
            pool_blocked = not any(s.request.tenant.rank > rank
                                   for s in self.running)
            return rank, head, False, pool_blocked
        return -1, None, False, False

    def _admit_ready(self) -> int:
        """Admit arrived heads in priority order until none fits (or the
        batch is full), prefilling each and sampling its first token;
        returns how many were admitted.  The eager step and the window's
        segment starts both admit through here, so admissions happen in
        one order either way."""
        admitted = 0
        while len(self.running) < self.max_batch:
            # Streamed runs: each admission advances the clock through
            # its prefill, so requests may arrive mid-loop — pull them
            # in before looking at the heads, exactly like a
            # materialized queue would already hold them.
            self._refill()
            rank, state, fits, pool_blocked = \
                self._admission_scan()
            if state is None or pool_blocked:
                break
            if not fits:
                # An arrived higher-class head: evict strictly-lower
                # -class work until it fits (or nothing is left to
                # evict, in which case it waits like everyone else).
                while self._preempt_for(rank):
                    if self._admit_fits(state):
                        fits = True
                        break
                if not fits:
                    break
            try:
                self.backend.admit(state)
            except SimulationError:
                break  # no free KV slot
            self.waiting.popleft(rank)
            if self.flight is not None:
                self.flight.request_phase(state.request_id, "prefill",
                                          self.clock_s)
            cycles = self.backend.prefill(state)
            if self._slow_factor != 1.0:
                # Slowdown faults scale cycles, not time: the identical
                # IEEE multiply is applied per element by the
                # fast-forward windows, keeping clocks bit-identical.
                cycles = cycles * self._slow_factor
            state.prefill_cycles += cycles
            self._advance(cycles)
            req = state.request
            if req.resume is not None:
                if state.preemptions == 0:
                    # First prefill on the handoff target: the shipped
                    # KV (``resume_skip``) was free, zero recompute.
                    self._n_resumed += 1
                else:
                    # Evicted after resuming: the shipped KV is gone
                    # and this re-prefill recomputes the source's work.
                    self._resume_recompute_tokens += min(
                        req.resume.kv_position, state.position)
                state.resume_skip = 0
            state.status = RequestStatus.RUNNING
            state._span_start = self._decode_steps
            self.running.append(state)
            self._cached_total += state.position
            if self._quota_specs:
                self._cache_tenant(state)
            if self.flight is not None:
                self.flight.request_phase(state.request_id, "decode",
                                          self.clock_s)
            admitted += 1
            # First token (or, after preemption, the next token) samples
            # the moment prefill ends.
            if state.n_generated < state.request.max_new_tokens \
                    and state.position < self.backend.model_config.max_context:
                self._note_sampled(state, self.backend.sample(state))
            else:
                self._retire(state, FinishReason.LENGTH)
        return admitted

    # -- fast forward --------------------------------------------------------

    def _next_admission_arrival(self) -> float | None:
        """Earliest future arrival that could flip the admission
        verdict mid-window: a not-yet-arrived class head, or the
        unsubmitted stream look-ahead.  The look-ahead binds even behind
        waiting same-class siblings: the stream is arrival-sorted, so
        it bounds every request still unseen behind it — any of which
        may head another class."""
        nxt = self.waiting.next_future_arrival(self.clock_s)
        head = self._stream_head
        if head is not None and head.arrival_s > self.clock_s \
                and (nxt is None or head.arrival_s < nxt):
            nxt = head.arrival_s
        return nxt

    def _fast_forward(self) -> int:
        """Advance a multi-segment window: piecewise-static segments
        separated by *predicted* retirements, block-frontier crossings
        and admissions, all charged before control returns to the eager
        loop.  Returns the total steps applied.

        Retirement steps are pure functions of each member's planned
        token stream — the length budget is arithmetic and the EOS
        position comes from the backend's pure ``planned_token_grid``
        replay — and paged block allocation is arithmetic on context
        length, so the event horizon (the next *unavoidable* scheduler
        state change) is computable without stepping.  Each segment is
        charged in one ``fast_forward_cycles`` call; between segments
        the batch shrink and block-table growth are folded in the same
        member order as the eager loop (commit, then retire in pending
        order), so every clock, event, latency, and token stream stays
        bit-identical.

        A segment that starts with an empty batch first makes the eager
        idle jump to the next arrival (unless a fault boundary lies
        inside the gap: that jump is left to ``step()``, which lands on
        the fault).  A segment then admits, through the eager
        ``_admit_ready``, whenever an arrived head fits without
        preemption: its prefill advances the clock between segments,
        and the eager step that admits always charges one decode step
        next, so a segment that admitted applies its first step even
        past an arrival or fault boundary (cuts bind from its second
        step on).  Should that step need what a window cannot fold (a
        pressure eviction, or an empty batch), the window ends and the
        eager step's decode half charges it.  Windows break only when
        an admission needs a preemption, at arrival cuts, and at
        genuine preemption risk.  The flight recorder draws one
        ``window`` span per busy stretch: an idle gap is no window work.
        """
        rec = self._recorder
        freq = self.backend.freq_hz
        max_context = self.backend.model_config.max_context
        end_s = self.clock_s
        n_segments = total_applied = 0
        #: the busy stretch traced as one window span: its start clock,
        #: first batch, segments and steps
        stretch = [self.clock_s, 0, 0, 0]
        break_reason: str | None = None
        #: fault boundaries are part of the event horizon: a chain that
        #: ends exactly AT a known fault start (or drain deadline) is a
        #: planned termination, not a mid-window break — it leaves
        #: ``break_reason`` driving the loop but records no break note.
        note_break = True
        #: the segment start admitted but cannot fold the step the eager
        #: loop charges right after; the eager decode half owes it.
        owed = False

        while True:
            # Re-gate at every segment start: folded retirements free
            # capacity (and slots), so the admission verdict and the
            # stream head must be re-read exactly where the eager loop
            # would next check them.
            self._refill()
            if self._fault_actions:
                fault_boundary = self._fault_boundary()
                if fault_boundary is not None \
                        and self.clock_s >= fault_boundary:
                    # A folded segment's final step (or an admitting
                    # segment's first) crossed the fault boundary
                    # (cut == n_seg): stop the window so the
                    # run loop services the fault before any new
                    # segment.  Never binds on the first iteration —
                    # loop-top servicing guarantees clock < boundary.
                    break_reason = self._boundary_reason(fault_boundary)
                    note_break = False
                    break
            # Members of a charged segment sampled at every step (or
            # retired), so only the window's first segment can meet one
            # that owes no forward.
            if not n_segments and any(not s.has_pending_forward
                                      for s in self.running):
                break_reason = "retirement-unpredicted"
                break
            idle = not self.running and bool(self.waiting)
            if idle:
                next_arrival = self.waiting.min_head_arrival()
                if next_arrival > self.clock_s:
                    boundary = self._fault_in_gap(next_arrival)
                    if boundary is not None:
                        # step() lands on the fault, not the arrival.
                        break_reason = self._boundary_reason(boundary)
                        note_break = False
                        break
                    if self.flight is not None and stretch[3]:
                        self._flight_window(stretch, end_s, "idle")
                    self.clock_s = next_arrival
                    stretch = [next_arrival, 0, 0, 0]
            admitted = 0
            forced = head_waiting = False
            #: the arrived head waiting on pool capacity, if any
            blocker: RequestState | None = None
            step_start_s = self.clock_s
            if len(self.running) < self.max_batch and self.waiting:
                _, head, fits, pool_blocked = \
                    self._admission_scan()
                if head is not None and not pool_blocked:
                    if not fits:
                        break_reason = "admission"
                        break
                    admitted = self._admit_ready()
                    forced = True
                    head, pool_blocked = None, False
                    if len(self.running) < self.max_batch \
                            and self.waiting:
                        _, head, _, pool_blocked = \
                            self._admission_scan()
                        # A head still admissible (its admit found no
                        # free slot) is retried after one step.
                        head_waiting = head is not None \
                            and not pool_blocked
                # Quota-blocked heads stay blocked within a segment
                # (tenant usage only grows until the re-gate after the
                # next folded retirement); a *pool*-blocked head's
                # verdict can flip at paged block frontiers, which the
                # static-shape rule below guards, and at its own quota,
                # which the quota caps below guard.
                if pool_blocked:
                    blocker = head
            pending = list(self.running)
            if not pending:
                # Nothing is left waiting, or an admission retired at
                # its first sample, or the idle jump found nothing it
                # can admit: the eager step records that zero-batch
                # step.
                owed = forced or idle
                break
            can_admit = len(pending) < self.max_batch
            batch = len(pending)
            # Event horizon: L_i is the 0-based step index at which
            # member i forwards its final pending token and retires at
            # the length/context budget — unless a planned EOS retires
            # it earlier.
            length_caps = [
                min(s.request.max_new_tokens - len(s.generated),
                    max_context - 1 - s.position)
                for s in pending]
            horizon = min(length_caps)
            # Static capacity cap: how many steps are provably free of
            # preemption and eviction.
            if self.paged_kv is not None:
                cap = self.paged_kv.window_advance_cap(
                    [s.slot for s in pending], horizon + 1)
                cap_reason = "block-frontier"
                if blocker is not None:
                    # Paged admission fitness can flip as frontiers
                    # cross (freed growth, shrunk claimable supply), and
                    # the eager loop re-checks it every step — so while
                    # an arrived head waits, segments keep the static
                    # no-crossing shape under which "unfit" provably
                    # holds to the segment end.
                    block = self.paged_kv.block_size
                    for s in pending:
                        assert s.slot is not None
                        if self.paged_kv.append_needs_block(s.slot):
                            cap = 0
                            break
                        room = s.position % block
                        cap = min(cap, block - room if room else block)
            else:
                cap = (self.kv_token_budget - self._cached_total) // batch
                cap_reason = "preemption-risk"
            if self._quota_specs:
                for name, quota in self._quota_specs.items():
                    members = sum(1 for s in pending
                                  if s.request.tenant.name == name)
                    if not members:
                        continue
                    qcap = (quota - self._tenant_cached[name]) // members
                    if qcap < cap:
                        cap, cap_reason = qcap, "quota"
                if blocker is not None:
                    # Strict priority holds lower classes back only
                    # while the blocker is under its tenant's quota.
                    # Its tenant's growth makes it quota-blocked after
                    # ``k`` steps, and from then on the scan moves on
                    # to the lower classes it was holding back.
                    name = blocker.request.tenant.name
                    quota = self._quota_specs.get(name)
                    members = sum(1 for s in pending
                                  if s.request.tenant.name == name)
                    if quota is not None and members:
                        needed = blocker.prompt_len \
                            + blocker.n_generated + 1
                        k = (quota - self._tenant_cached[name] - members
                             - needed) // members + 1
                        if k < cap:
                            cap, cap_reason = k, "quota"
            seg_cap = min(horizon + 1, cap)
            if head_waiting:
                seg_cap = min(seg_cap, 1)
            if seg_cap <= 0:
                break_reason = cap_reason
                owed = forced
                break
            if not forced and not total_applied and seg_cap == 1 \
                    and horizon >= 1:
                # A lone static step with no boundary to fold is not
                # worth a window; the eager loop takes it.
                break_reason = cap_reason
                break
            # Planned tokens up to each member's own horizon — never
            # past it: a recorded oracle stream ends at the retirement.
            planned = self.backend.planned_token_grid(
                pending, [min(c, seg_cap) for c in length_caps])
            bounds = list(length_caps)
            kinds = [FinishReason.LENGTH] * batch
            for i, s in enumerate(pending):
                eos = s.request.eos_id
                if eos is not None and eos in planned[i]:
                    hit = planned[i].index(eos)
                    if hit < bounds[i]:
                        bounds[i] = hit
                        kinds[i] = FinishReason.EOS
            boundary = min(bounds)
            n_seg = min(boundary + 1, seg_cap)
            seg_cycles = self.backend.fast_forward_cycles(pending, n_seg)
            if self._slow_factor != 1.0:
                seg_cycles = [c * self._slow_factor for c in seg_cycles]
            seg_deltas = [c / freq for c in seg_cycles]
            # Sequential prefix fold seeded with the running clock — the
            # same IEEE adds as stepping ``clock += cycles / freq``,
            # chained across segments.
            clock = self.clock_s
            clocks = [clock]
            for delta in seg_deltas:
                clock += delta
                clocks.append(clock)
            applied = n_seg
            if can_admit:
                next_arrival = self._next_admission_arrival()
                if next_arrival is not None:
                    # Steps apply while the clock has not reached the
                    # next arrival; step() admits the head right after.
                    cut = bisect.bisect_left(clocks, next_arrival, 0, n_seg)
                    if cut < applied:
                        applied, break_reason = cut, "arrival"
            if self._fault_actions:
                fault_boundary = self._fault_boundary()
                if fault_boundary is not None:
                    cut = bisect.bisect_left(clocks, fault_boundary, 0,
                                             n_seg)
                    if cut < applied:
                        # The chain ends exactly at the boundary (the
                        # first unapplied step's pre-step clock has
                        # reached it) — a planned, note-free chain end.
                        applied = cut
                        break_reason = \
                            self._boundary_reason(fault_boundary)
                        note_break = False
            if forced:
                # The admitting step decodes whatever its prefills
                # crossed, exactly as step() would.
                applied = max(applied, 1)
            if applied <= 0:
                break  # the first possible step already crosses a cut
            at_boundary = applied == n_seg and boundary < seg_cap
            self.clock_s = end_s = clocks[applied]
            self._decode_steps += applied
            for i, s in enumerate(pending):
                if at_boundary and bounds[i] == boundary \
                        and kinds[i] is FinishReason.LENGTH:
                    # The boundary step forwards the retiree's final
                    # pending token but samples nothing.
                    s.generated.extend(planned[i][:applied - 1])
                else:
                    s.generated.extend(planned[i][:applied])
            self.backend.commit_fast_forward(pending, applied)
            self._cached_total += applied * batch
            if self._quota_specs:
                self._grow_tenants(pending, applied)
            retired = 0
            if at_boundary:
                for i, s in enumerate(pending):
                    if bounds[i] == boundary:
                        self._retire(s, kinds[i])
                        retired += 1
            # Into the recorder as charged: a window may span a whole
            # run, so its steps are never buffered here.
            rec.record_segment(clocks[0], seg_cycles[:applied],
                               seg_deltas[:applied], batch, admitted,
                               retired)
            if not stretch[2]:
                stretch[1] = batch
            stretch[2] += 1
            stretch[3] += applied
            n_segments += 1
            total_applied += applied
            if break_reason is not None:
                break

        if total_applied:
            # Only a recorded window notes why it ended: a pass that
            # applied nothing leaves no window for a break to belong to.
            if break_reason is not None and note_break:
                rec.note_break(break_reason)
            rec.record_window()
            if self.flight is not None and stretch[3]:
                self._flight_window(stretch, end_s,
                                    break_reason or "drained")
        if owed:
            self._decode_step(admitted, step_start_s)
            total_applied += 1
        return total_applied

    def _flight_window(self, stretch: list, end_s: float,
                       reason: str) -> None:
        """Trace one busy stretch of a window, ``[start clock, first
        batch, segments, steps]``, as a window span ending at
        ``end_s``."""
        assert self.flight is not None
        start_s, batch, segments, steps = stretch
        self.flight.span("window", start_s, end_s, batch=batch,
                         steps=steps, segments=segments, reason=reason)

    def _fault_in_gap(self, arrival: float) -> float | None:
        """The fault boundary strictly between the clock and an idle
        engine's next ``arrival``, if any: the jump must land there so
        the fault is serviced before anything arrives."""
        if not self._fault_actions:
            return None
        boundary = self._fault_boundary()
        if boundary is not None and self.clock_s < boundary < arrival:
            return boundary
        return None

    # -- the scheduling loop -------------------------------------------------

    def step(self) -> StepEvent:
        """One engine iteration: admit -> prefill -> one batched decode."""
        if not self.waiting and not self.running:
            raise SimulationError("nothing to schedule")

        # Idle engine: jump to the next arrival — but never past a
        # fault: land on its boundary, service it (run-loop top), then
        # resume.  The zero-work step this produces is identical with
        # fast-forward on or off, since the window leaves exactly this
        # jump to step().
        if not self.running and self.waiting:
            next_arrival = self.waiting.min_head_arrival()
            if next_arrival > self.clock_s:
                boundary = self._fault_in_gap(next_arrival)
                self.clock_s = next_arrival if boundary is None \
                    else boundary
        step_start_s = self.clock_s
        return self._decode_step(self._admit_ready(), step_start_s)

    def _decode_step(self, admitted: int,
                     step_start_s: float) -> StepEvent:
        """The rest of one eager iteration once its ``admitted``
        admissions are in: resolve KV pressure, charge ONE batched
        decode step, and record the step's event."""
        # KV pressure: the coming step appends one token per forwarding
        # sequence; evict until the growth fits every tenant quota and
        # the pool budget.  Quota pressure is resolved first and within
        # the offending tenant only — one tenant's long decodes evict
        # its own youngest sequence, never another tenant's.
        preempted = 0
        retired = 0
        pending = [s for s in self.running if s.has_pending_forward]
        while pending:
            over = self._quota_overflow(pending)
            if over is not None:
                members, growing = over
                verdict = self._preempt_one(members)
                lone = growing[0]
            elif self._growth_overflows(pending):
                verdict = self._preempt_one()
                lone = pending[0]
            else:
                break
            if verdict == "preempted":
                preempted += 1
            else:
                if verdict is None:
                    # A lone sequence has outgrown its quota or the
                    # budget: it cannot be preempted in its own favour,
                    # so it retires where it is.
                    self._retire_overgrown(lone)
                retired += 1
            pending = [s for s in self.running if s.has_pending_forward]

        cycles = 0.0
        if pending:
            cycles = self.backend.decode_batch(pending)
            if self._slow_factor != 1.0:
                cycles = cycles * self._slow_factor
            self._cached_total += len(pending)
            if self._quota_specs:
                self._grow_tenants(pending, 1)
            self._advance(cycles)
            self._decode_steps += 1
            for state in pending:
                if state.n_generated < state.request.max_new_tokens \
                        and state.position \
                        < self.backend.model_config.max_context:
                    before = self._n_finished
                    self._note_sampled(state, self.backend.sample(state))
                    retired += self._n_finished - before
                else:
                    # Budget (or context) reached and the final token's
                    # forward was just charged: retire at the length limit.
                    self._retire(state, FinishReason.LENGTH)
                    retired += 1

        event = StepEvent(clock_s=self.clock_s, batch=len(pending),
                          cycles=cycles, admitted=admitted,
                          preempted=preempted, retired=retired)
        self._recorder.record_event(event)
        if self.flight is not None:
            self.flight.span("step", step_start_s, self.clock_s,
                             batch=len(pending), admitted=admitted,
                             preempted=preempted, retired=retired)
        return event

    def _refill(self) -> None:
        """Pull the stream into the waiting queue: every request that
        has already arrived, plus one look-ahead so the admission gate,
        the window arrival cut, and the idle jump always see the true
        next arrival.  Keeps the queue O(in-flight), not O(trace).

        The one way a run's trace enters the engine: each arrival is
        queued, rejected (admission control), killed (replica outage)
        or handed over (drain) here, list or iterator alike."""
        while self._stream is not None:
            if self._stream_head is None:
                try:
                    head = next(self._stream)
                except StopIteration:
                    self._stream = None
                    return
                if head.arrival_s < self._last_stream_arrival:
                    raise SimulationError(
                        f"streamed traces must be sorted by arrival: "
                        f"request {head.request_id} arrives at "
                        f"{head.arrival_s:.6f}s after one at "
                        f"{self._last_stream_arrival:.6f}s")
                self._last_stream_arrival = head.arrival_s
                self._stream_head = head
            head = self._stream_head
            if self._down_until is not None:
                # Replica outage: arrivals during the downtime find
                # nobody listening.  Kill them here so the stream keeps
                # draining; the first survivor clears the outage.
                if head.arrival_s < self._down_until:
                    self._stream_head = None
                    self._log_kill(
                        head, max(head.arrival_s, self._down_start),
                        _fault_phase(head, self._down_start), 0)
                    continue
                self._down_until = None
            if self._drain_until is not None \
                    and head.arrival_s < self._drain_until:
                # Draining: in-window arrivals hand over immediately
                # instead of queueing behind a closed admission gate.
                # The flag itself clears at the deadline, not here.
                self._stream_head = None
                self._log_migration(MigratedRequest(
                    request=head,
                    migrate_s=max(head.arrival_s, self._drain_start),
                    phase=_fault_phase(head, self._drain_start)))
                continue
            if self.waiting and head.arrival_s > self.clock_s:
                return
            self._stream_head = None
            try:
                self.submit(head)
            except (CapacityError, SimulationError):
                # Admission control: an unservable request becomes a
                # REJECTED result instead of an exception escaping
                # mid-run with the engine half-drained.
                self._reject(head)

    def run(self, requests: Iterable[Request] | None = None,
            max_steps: int = 1_000_000,
            telemetry: str = "windows") -> ServeReport:
        """Drive the engine until every submitted request retires.

        ``requests`` is consumed *incrementally* in arrival order: an
        *iterator* (e.g. an :func:`iter_synthetic_trace` generator) must
        already be arrival-sorted, and a million-request trace never
        exists in memory at once; a materialized collection (list,
        tuple, deque, any non-iterator iterable) is sorted and then
        streamed the same way.  Requests queued by direct
        :meth:`submit` calls before the run are served alongside.

        ``telemetry`` picks the recording level: ``"windows"`` (the
        exact record) keeps columnar run-length records that expand
        lazily to one event per decode step, ``"sketch"`` drops
        per-request tokens and per-token latencies and replaces the
        exact latency sample with a bounded-memory t-digest
        (percentiles within its documented rank-error bound).  Both
        levels return the same :class:`ServeReport`.
        """
        if self.running:
            raise SimulationError("engine is already mid-run")
        self.clock_s = 0.0
        self.backend.reset_kv()
        self._preemptions = 0
        self._n_finished = 0
        self._decode_steps = 0
        self._recorder = TelemetryRecorder(
            telemetry, self.backend.freq_hz,
            token_replay=getattr(self.backend, "replay_tokens", None))
        self._stream = None
        self._stream_head = None
        self._last_stream_arrival = 0.0
        self._tenant_cached = {name: 0 for name in self._quota_specs}
        self.killed = []
        self.drained = []
        self._fault_actions = tuple(self.fault_plan.actions) \
            if self.fault_plan is not None else ()
        self._fault_next = 0
        self._slow_factor = 1.0
        self._slow_until = None
        self._down_start = 0.0
        self._down_until = None
        self._drain_start = 0.0
        self._drain_until = None
        self._n_resumed = 0
        self._resume_recompute_tokens = 0
        self._fault_counts = {"crash": 0, "stall": 0, "slow": 0,
                              "drain": 0}
        self._downtime_s = 0.0
        self._degraded_tokens = 0
        spans = sorted(self.degraded_spans)
        self._degraded_starts = [s for s, _ in spans]
        self._degraded_ends = [e for _, e in spans]
        if requests is not None:
            if not isinstance(requests, Iterator):
                requests = iter(sorted(requests, key=lambda r: r.arrival_s))
            self._stream = requests
        self._refill()
        steps = 0
        while self.waiting or self.running or self._stream is not None:
            if self._fault_actions:
                self._service_faults()
                # A crash may have emptied the engine; _refill kills
                # outage arrivals until the next survivor shows up.
                self._refill()
                if not (self.waiting or self.running
                        or self._stream is not None):
                    break
            applied = self._fast_forward() if self.fast_forward else 0
            if not applied:
                self.step()
                applied = 1
            steps += applied
            if steps > max_steps:
                raise SimulationError(
                    f"engine did not drain within {max_steps} steps")
            self._refill()
        return self._report()

    def _report(self) -> ServeReport:
        return ServeReport.from_recorder(self._recorder,
                                         total_time_s=self.clock_s,
                                         preemptions=self._preemptions)
