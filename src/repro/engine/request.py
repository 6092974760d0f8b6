"""Request model of the execution engine.

A :class:`Request` is what a client submits: a prompt, a generation
budget, an arrival time, and (for functional backends) a sampler.  A
:class:`RequestState` is the engine's mutable view of one request as it
moves through admission, prefill, batched decode, possible preemption,
and retirement.

The decode state machine mirrors the bare-metal loop exactly so that a
single-request engine reproduces ``Accelerator.decode`` step for step:

* prefill feeds the prompt and yields logits; the first new token is
  sampled the moment prefill ends (TTFT = prefill latency),
* every sampled non-EOS token is then *forwarded* through the model in a
  later batched step (charged one step of decode time), producing the
  logits for the next sample,
* a sampled EOS retires the request immediately — the EOS token itself
  is never forwarded, so no decode step is charged for it.
"""

from __future__ import annotations

import enum
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

from ..errors import SimulationError
from ..model.sampler import Sampler
from .tenancy import DEFAULT_TENANT, TenantSpec


class RequestStatus(enum.Enum):
    """Lifecycle of a request inside the engine."""

    QUEUED = "queued"
    RUNNING = "running"
    PREEMPTED = "preempted"
    FINISHED = "finished"


class FinishReason(enum.Enum):
    """Why a request retired."""

    EOS = "eos"
    LENGTH = "length"
    #: refused by admission control — oversized for the budget or its
    #: tenant's quota, or best-effort work dropped under pressure.  A
    #: rejected request still produces a :class:`RequestResult`, so a
    #: streamed run drains and reports instead of aborting mid-trace.
    REJECTED = "rejected"
    #: lost to replica faults after exhausting its retry budget — the
    #: router surfaces the loss as a result (zero tokens, no TTFT)
    #: instead of silently dropping the request.  Appended last so the
    #: columnar small-int reason codes of earlier members stay stable.
    FAILED = "failed"


@dataclass(frozen=True)
class ResumeSpec:
    """Handoff state a migrated request carries to its target replica.

    ``kv_position`` leading sequence tokens arrive with the checkpoint
    (their KV was computed on the source and shipped over the
    interconnect), so the target's first prefill skips them — zero
    recompute.  ``n_generated`` tokens of the generated suffix are
    replayed from the deterministic token stream, and
    ``first_token_s`` carries the instant the source already streamed
    the first token, so TTFT stays the client-visible one.
    """

    kv_position: int
    n_generated: int = 0
    first_token_s: float | None = None

    def __post_init__(self) -> None:
        if self.kv_position < 0 or self.n_generated < 0:
            raise SimulationError(
                "resume spec needs kv_position >= 0 and n_generated >= 0")


@dataclass(frozen=True)
class Request:
    """One client generation request."""

    request_id: int
    prompt: tuple[int, ...]
    max_new_tokens: int
    arrival_s: float = 0.0
    sampler: Sampler | None = None
    eos_id: int | None = None
    tenant: TenantSpec = DEFAULT_TENANT
    #: latency-ledger origin: the client-visible arrival TTFT and e2e
    #: are measured from.  A retry or migration re-dispatch schedules
    #: at its new ``arrival_s`` but keeps the original arrival here —
    #: the client has been waiting since then.  None = ``arrival_s``.
    accounted_arrival_s: float | None = None
    #: KV-checkpoint handoff state (migration re-dispatch); None for a
    #: fresh request.
    resume: ResumeSpec | None = None

    def __post_init__(self) -> None:
        if not self.prompt:
            raise SimulationError(
                f"request {self.request_id}: prompt must not be empty")
        if self.max_new_tokens <= 0:
            raise SimulationError(
                f"request {self.request_id}: max_new_tokens must be positive")
        if self.arrival_s < 0:
            raise SimulationError(
                f"request {self.request_id}: arrival time must be >= 0")
        if not isinstance(self.tenant, TenantSpec):
            raise SimulationError(
                f"request {self.request_id}: tenant must be a TenantSpec")
        object.__setattr__(self, "prompt", tuple(self.prompt))

    @property
    def ledger_arrival_s(self) -> float:
        """The arrival latency metrics run from (see
        ``accounted_arrival_s``)."""
        return self.arrival_s if self.accounted_arrival_s is None \
            else self.accounted_arrival_s


@dataclass(eq=False)
class RequestState:
    """Mutable engine-side state of one request.

    Compared by identity (``eq=False``): each state is one live request
    instance, so ``state in running`` and ``running.remove(state)`` find
    it by reference instead of comparing every field of every member
    ahead of it, down to the nested :class:`Request`.
    """

    request: Request
    status: RequestStatus = RequestStatus.QUEUED
    #: tokens sampled so far: the one count every length, position,
    #: cap, quota and ledger path reads.
    n_generated: int = 0
    #: ``replay(request_id, n, eos_id)`` of a backend whose token stream
    #: is a pure function of request and step; None when the backend
    #: samples from logits, and the values are kept in ``generated``.
    replay: Callable[[int, int, int | None], Sequence[int]] | None = \
        field(default=None, repr=False)
    generated: list[int] | None = field(default=None, init=False)
    #: tokens this request may sample in all: its length budget or its
    #: context room, whichever binds first (set at submission).
    sample_cap: int = 0
    #: tokens fed through the model so far (prompt + forwarded generated);
    #: equals the KV-cache occupancy of this sequence.
    position: int = 0
    slot: int | None = None
    logits: object | None = None
    prefill_cycles: float = 0.0
    first_token_s: float | None = None
    finish_s: float | None = None
    finish_reason: FinishReason | None = None
    preemptions: int = 0
    #: leading sequence tokens the next prefill may skip because their
    #: KV arrived with a migration checkpoint; cleared after that
    #: prefill (an eviction on this replica loses the transferred KV,
    #: so any later re-prefill recomputes in full).
    resume_skip: int = 0
    #: half-open ranges of global decode-step indices this request was
    #: batched into — one per admission (preemption closes a span).
    #: ``decode_step_s`` is exactly the scheduler's per-step latency
    #: stream gathered over these spans, which is what lets windowed
    #: telemetry drop the per-request latency lists.
    spans: list[tuple[int, int]] = field(default_factory=list)
    _span_start: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if self.replay is None:
            self.generated = []

    # -- identity ---------------------------------------------------------

    @property
    def request_id(self) -> int:
        return self.request.request_id

    @property
    def prompt_len(self) -> int:
        return len(self.request.prompt)

    # -- decode state machine ----------------------------------------------

    @property
    def context(self) -> int:
        """Cached tokens this sequence's next forward attends over."""
        return self.position

    @property
    def pending_token(self) -> int:
        """The sampled-but-not-yet-forwarded token (next forward input)."""
        if not self.has_pending_forward:
            raise SimulationError(
                f"request {self.request_id}: no pending forward")
        return self.generated_tokens()[self.position - self.prompt_len]

    @property
    def has_pending_forward(self) -> bool:
        """A sampled token still owes its decode step."""
        # Hot path (checked per running sequence per scheduler step):
        # reads lengths directly instead of through sibling properties.
        return (self.status == RequestStatus.RUNNING
                and self.position < len(self.request.prompt)
                + self.n_generated)

    def generated_tokens(self) -> Sequence[int]:
        """The tokens sampled so far — the one read of token values:
        the kept ones, or the replayed stream of a replayable backend."""
        if self.generated is not None:
            return self.generated
        return self.replay(self.request.request_id, self.n_generated,
                           self.request.eos_id)

    def sequence_tokens(self) -> list[int]:
        """Prompt plus everything generated so far (recompute input)."""
        return [*self.request.prompt, *self.generated_tokens()]

    # -- timing -----------------------------------------------------------

    @property
    def ttft_s(self) -> float:
        """Client-visible arrival to first sampled token (queueing +
        prefill; a re-dispatch measures from the original arrival)."""
        if self.first_token_s is None:
            raise SimulationError(
                f"request {self.request_id}: no token produced yet")
        return self.first_token_s - self.request.ledger_arrival_s

    @property
    def e2e_s(self) -> float:
        """Client-visible arrival to retirement."""
        if self.finish_s is None:
            raise SimulationError(
                f"request {self.request_id}: not finished")
        return self.finish_s - self.request.ledger_arrival_s
