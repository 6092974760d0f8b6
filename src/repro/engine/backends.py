"""Execution backends of the engine: who actually runs a batched step.

Two implementations of one protocol, at the repo's two fidelity
levels:

* :class:`FunctionalBackend` — the hardware-equivalent functional
  pipeline (:class:`repro.model.quantized.QuantizedModel`) over multi-
  sequence KV storage, timed by the batched cycle model.  Exact tokens
  *and* exact timing; only for models small enough to run in numpy.
* :class:`CycleModelBackend` — timing-only.  Tokens are a deterministic
  synthetic stream (no EOS), so requests retire at their length limit;
  the per-step cost comes from
  :meth:`repro.core.cyclemodel.CycleModel.batched_decode_step`.  Works
  for any model size, including LLaMA2-7B.

Both share the batch cost split of the paper's Fig. 2: the
quantized weight stream is charged once per step; KV traffic and misc
work are charged per batch member.

Every backend takes a tensor-parallel degree ``tp`` and the
``interconnect`` that links the group's boards, and prices the whole
group: one shard's cycles plus the partial-sum collectives
(:class:`repro.cluster.interconnect.TPCommModel`), with the KV budget
of one board's DRAM after its shard of the weights.  ``tp = 1`` is one
board and charges no collective.  The functional group stays bit-exact:
TP changes its math only in the row-parallel O and down projections,
whose per-board partial sums meet in an FP16 tree that reproduces one
DOT engine's adder tree (``QuantizedModel(tp=)``); everything else is
an exact slice of the single-device result, so one model and one
full-width KV store serve the whole group.

Every backend also supports both KV disciplines (``kv_mode``):

* ``"slotted"`` — one contiguous max-length reservation per sequence
  (:class:`repro.model.kvcache.SlottedKVCache` or a slot counter).
* ``"paged"`` — block-granular allocation with shared-prefix reuse
  (:class:`repro.kv.PagedKVCache`).  Prefill skips prefix tokens whose
  blocks are already resident, and batched decode charges each physical
  block's DRAM stream once per step.  The timing-only backend runs the
  same accounting (``store_data=False``), so both make identical
  admission and reuse decisions — which is what the cross-backend
  differential test harness checks.
"""

from __future__ import annotations

import heapq
from array import array
from typing import Callable, Protocol, Sequence, runtime_checkable

import numpy as np

from ..config import KV260, ModelConfig, PlatformConfig, QuantConfig
from ..core.cyclemodel import CycleModel
from ..errors import CapacityError, SimulationError
from ..kv import PagedKVCache, blocks_for_budget
from ..model.kvcache import SlottedKVCache
from ..model.quantized import QuantizedModel
from .request import RequestState

KV_MODES = ("slotted", "paged")
BACKEND_KINDS = ("cycle", "functional")

#: Windows of at least this many steps fold their cycles with numpy
#: (whole-window member adds, then one row-wise accumulate of the layer
#: fold); shorter ones take the scalar loop.  Measured per call at batch
#: 1-16: the numpy fold wins from ~16-20 steps on tiny-test (2 layers)
#: and from ~8-12 on LLaMA2-7B (32 layers); 20 is the tiny-model tie.
_FF_VECTOR_MIN_STEPS = 20

#: maps (request_id, step index) to the token that step must produce —
#: lets timing-only backends replay an exact recorded stream.
TokenOracle = Callable[[int, int], int]


@runtime_checkable
class EngineBackend(Protocol):
    """What the continuous-batching scheduler needs from an executor."""

    model_config: ModelConfig
    quant: QuantConfig
    platform: PlatformConfig
    #: boards of the tensor-parallel group one step is priced over
    tp: int

    @property
    def freq_hz(self) -> float:
        """Clock that converts charged cycles into seconds."""
        ...

    def admit(self, state: RequestState) -> None:
        """Claim per-sequence resources (a KV slot) for ``state``."""
        ...

    def release(self, state: RequestState) -> None:
        """Free ``state``'s per-sequence resources (retire or preempt)."""
        ...

    def lose_kv(self) -> None:
        """Forget every cached prefix: the board crashed and lost its KV."""
        ...

    def reset_kv(self) -> None:
        """Cold KV at run start: no cached prefix, reuse counters zero."""
        ...

    def prefill(self, state: RequestState) -> float:
        """Feed prompt (+ any recomputed tokens); return cycles spent."""
        ...

    def sample(self, state: RequestState) -> int:
        """Produce the next token for ``state`` from its current logits."""
        ...

    def decode_batch(self, states: Sequence[RequestState]) -> float:
        """Forward each state's pending token in one shared step; return cycles."""
        ...


def derive_kv_token_budget(model: ModelConfig, quant: QuantConfig,
                           platform: PlatformConfig, cap_tokens: int,
                           system=None, tp: int = 1) -> int:
    """KV tokens the platform's DRAM holds beyond weights + reservation.

    The capacity discipline of the paper's Sec. VII-A carried to serving:
    whatever DRAM remains after the quantized weights and the bare-metal
    reservation is the KV budget, clamped to ``cap_tokens`` (typically
    ``max_batch * max_context`` — more can never be resident at once).

    In a ``tp`` group each board stores ``1/tp`` of the projections, the
    full embedding table and norm weights (replicated), and ``1/tp`` of
    every resident token's KV — so the per-board budget in tokens grows
    faster than linearly with ``tp``.
    """
    if system is None:
        from ..runtime.baremetal import BareMetalSystem

        system = BareMetalSystem(platform)
    report = system.capacity_report(model, quant, 1)
    weights, per_token = report.weight_bytes, report.kv_bytes
    if tp != 1:
        from ..cluster.sharding import validate_tp

        validate_tp(model, tp)
        replicated = (model.embedding_params() + model.norm_params()) * 2
        weights = (weights - replicated) / tp + replicated
        per_token = per_token / tp
    free = report.dram_bytes - weights - report.reserved_bytes
    if free < per_token:
        raise CapacityError(
            f"{model.name} weights leave no KV room on {platform.name}"
            f" at tp={tp}")
    return int(min(free // per_token, cap_tokens))


def _collectives(model_config: ModelConfig, quant: QuantConfig, tp: int,
                 interconnect, freq_hz: float):
    """The interconnect model of a ``tp``-board group, or None for one
    board.  ``interconnect`` defaults to the 10GbE ring; the cluster
    layer sits above the engine, so it is imported lazily."""
    if tp == 1:
        return None
    from ..cluster.interconnect import TEN_GIG_ETHERNET, TPCommModel
    from ..cluster.sharding import validate_tp

    validate_tp(model_config, tp)
    return TPCommModel(model_config, quant,
                       interconnect if interconnect is not None
                       else TEN_GIG_ETHERNET, tp, freq_hz)


def kv_discipline_kwargs(kv_mode: str, budget_tokens: int | None = None,
                         block_size: int = 16,
                         n_kv_blocks: int | None = None,
                         ) -> tuple[dict, dict]:
    """``(backend_kwargs, scheduler_kwargs)`` for one KV discipline.

    The single encoding of the equal-DRAM rule every slotted-vs-paged
    comparison relies on: a token budget caps the *scheduler* in slotted
    mode but sizes the backend's block *pool* (via
    :func:`repro.kv.blocks_for_budget`) in paged mode, so the two
    disciplines always compete over the same storage.
    """
    backend = dict(kv_mode=kv_mode, block_size=block_size,
                   n_kv_blocks=n_kv_blocks)
    scheduler: dict = {}
    if kv_mode == "paged":
        if n_kv_blocks is None and budget_tokens:
            backend["n_kv_blocks"] = blocks_for_budget(budget_tokens,
                                                       block_size)
    elif budget_tokens:
        scheduler["kv_token_budget"] = budget_tokens
    return backend, scheduler


def build_backend(kind: str, model_config: ModelConfig, quant: QuantConfig,
                  platform: PlatformConfig = KV260, *, mode: str = "fused",
                  n_slots: int = 8, tp: int = 1, interconnect=None,
                  qweights=None, token_oracle: TokenOracle | None = None,
                  kv_mode: str = "slotted", block_size: int = 16,
                  n_kv_blocks: int | None = None) -> "EngineBackend":
    """One constructor for every backend kind, single-device or sharded.

    ``interconnect`` is a :class:`repro.cluster.interconnect.LinkSpec`
    and defaults to the 10GbE ring.  The functional kind needs
    ``qweights``.
    """
    if kind not in BACKEND_KINDS:
        raise SimulationError(
            f"unknown backend kind {kind!r}; choose from {BACKEND_KINDS}")
    group = dict(tp=tp, interconnect=interconnect, kv_mode=kv_mode,
                 block_size=block_size, n_kv_blocks=n_kv_blocks)
    if kind == "functional":
        if qweights is None:
            raise SimulationError(
                "functional backend needs quantized weights")
        return FunctionalBackend(qweights, platform, mode=mode,
                                 n_slots=n_slots, **group)
    return CycleModelBackend(model_config, quant, platform, mode=mode,
                             n_slots=n_slots, token_oracle=token_oracle,
                             **group)


class _SlotCounter:
    """Slot accounting for timing-only backends (no real storage).

    A min-heap free list: allocation pops the lowest free slot in
    O(log n) instead of scanning every slot, in the same lowest-free-
    first order as the functional backend's slotted storage.
    """

    def __init__(self, n_slots: int) -> None:
        self.n_slots = n_slots
        self._free = list(range(n_slots))  # ascending == already a heap
        self._used: set[int] = set()

    def allocate(self) -> int:
        if not self._free:
            raise SimulationError(
                f"all {self.n_slots} KV slots are allocated")
        slot = heapq.heappop(self._free)
        self._used.add(slot)
        return slot

    def free(self, slot: int) -> None:
        if slot not in self._used:
            raise SimulationError(f"slot {slot} is not allocated")
        self._used.discard(slot)
        heapq.heappush(self._free, slot)


def _validate_batch(contexts: Sequence[int],
                    fetched: Sequence[int] | None) -> None:
    """The batch validations of the full schedule/traffic builders,
    applied before the decomposed step computation takes their place."""
    if not contexts:
        raise SimulationError(
            "batched schedule needs at least one context")
    if any(c < 0 for c in contexts):
        raise SimulationError(f"negative context in batch: {list(contexts)}")
    if fetched is not None:
        if len(fetched) != len(contexts):
            raise SimulationError(
                f"fetched has {len(fetched)} entries for "
                f"{len(contexts)} contexts")
        for ctx, fetch in zip(contexts, fetched):
            if not 0 <= fetch <= ctx:
                raise SimulationError(
                    f"fetched tokens {fetch} outside [0, {ctx}]")


def _stream_token(request_id: int, step: int, vocab_size: int,
                  eos_id: int | None) -> int:
    """Deterministic pseudo-token stream for timing-only backends.

    Knuth-style multiplicative hash of (request, step); never returns the
    EOS id, so timing-only requests always run to their length limit.
    A pure function of its arguments, which is what lets the fast-forward
    path pre-compute a whole window of samples in one call.
    """
    token = (2654435761 * (request_id + 1) + 40503 * (step + 1)) % vocab_size
    if eos_id is not None and token == eos_id:
        token = (token + 1) % vocab_size
    return token


def _stream_tokens(request_id: int, base: int, n: int, vocab_size: int,
                   eos_id: int | None) -> list[int]:
    """``n`` consecutive :func:`_stream_token` values of one request,
    from its step ``base`` on, in plain ints: the request's hash term is
    fixed, so each step adds 40503 before the same modulo and EOS skip.
    Exact, and cheaper than a numpy call at a few steps."""
    h = 2654435761 * (request_id + 1) + 40503 * base
    tokens = []
    for _ in range(n):
        h += 40503
        tokens.append(h % vocab_size)
    if eos_id is not None and eos_id in tokens:
        skip = (eos_id + 1) % vocab_size
        tokens = [skip if t == eos_id else t for t in tokens]
    return tokens


def _synthetic_token(state: RequestState, vocab_size: int,
                     eos_id: int | None) -> int:
    """The next :func:`_stream_token` of one request state."""
    return _stream_token(state.request_id, state.n_generated, vocab_size,
                         eos_id)


def _build_paged_kv(model_config: ModelConfig, quant: QuantConfig,
                    platform: PlatformConfig, n_slots: int,
                    block_size: int, n_kv_blocks: int | None,
                    store_data: bool, tp: int) -> PagedKVCache:
    """Size and build the paged pool; default capacity mirrors the
    token budget the scheduler would derive for slotted KV, so the two
    modes compete over the same DRAM bytes."""
    if n_kv_blocks is None:
        budget = derive_kv_token_budget(
            model_config, quant, platform,
            cap_tokens=n_slots * model_config.max_context, tp=tp)
        n_kv_blocks = blocks_for_budget(budget, block_size)
    return PagedKVCache(model_config, n_kv_blocks, block_size,
                        kv_bits=quant.kv_bits, store_data=store_data)


class _KVMixin:
    """Shared KV discipline plumbing over slotted or paged accounting.

    :meth:`_init_kv` sets exactly one of ``_slots`` (slotted) or
    ``paged_kv`` (paged); ``state.slot`` holds a slot index or a paged
    sequence id.  Keeping this logic in one place is what guarantees
    both backends make identical admission and reuse decisions — the
    property the differential harness checks.  Its one user is
    :class:`_CycleTimedBackend`; it stays a class of its own because
    ``perfbench/tracer.py`` wraps its methods by class name.
    """

    paged_kv: PagedKVCache | None = None
    #: slot authority: a counter for timing backends, or the slotted
    #: storage itself (same allocate/free surface) for the functional one.
    _slots: _SlotCounter | SlottedKVCache | None = None

    def _init_kv(self, model_config: ModelConfig, quant: QuantConfig,
                 platform: PlatformConfig, kv_mode: str, n_slots: int,
                 block_size: int, n_kv_blocks: int | None,
                 store_data: bool, tp: int) -> None:
        if kv_mode not in KV_MODES:
            raise SimulationError(
                f"unknown kv_mode {kv_mode!r}; choose from {KV_MODES}")
        self.kv_mode = kv_mode
        self._n_slots = n_slots
        if kv_mode == "paged":
            self.paged_kv = _build_paged_kv(
                model_config, quant, platform, n_slots, block_size,
                n_kv_blocks, store_data, tp)
        else:
            self._slots = _SlotCounter(n_slots)

    @property
    def n_slots(self) -> int:
        return self._n_slots

    def lose_kv(self) -> None:
        """The board lost its KV (a crash): forget every cached prefix.
        Live sequences must be released first."""
        if self.paged_kv is not None:
            self.paged_kv.prefix.clear()

    def reset_kv(self) -> None:
        """Start a run from a cold pool: drop every cached prefix and
        zero the reuse counters, so a run's prefix hits (and what it
        reports of them) never depend on an earlier run's blocks."""
        kv = self.paged_kv
        if kv is not None:
            kv.prefix.clear()
            kv.prefix_reused_tokens = kv.cow_copies = 0
            kv.prefix.hits = kv.prefix.misses = kv.prefix.evictions = 0

    def admit(self, state: RequestState) -> None:
        if self.paged_kv is not None:
            # The paged pool opens unlimited sequences; the slot count
            # stays the concurrency authority so both KV disciplines
            # enforce the same admission cap.
            if self.paged_kv.n_sequences >= self._n_slots:
                raise SimulationError(
                    f"all {self._n_slots} KV slots are allocated")
            state.slot = self.paged_kv.allocate(state.sequence_tokens())
        else:
            assert self._slots is not None
            state.slot = self._slots.allocate()

    def release(self, state: RequestState) -> None:
        if state.slot is None:
            raise SimulationError(
                f"request {state.request_id} holds no slot")
        if self.paged_kv is not None:
            self.paged_kv.free(state.slot)
        else:
            assert self._slots is not None
            self._slots.free(state.slot)
        state.slot = None

    def _cached_prefix(self, state: RequestState) -> int:
        """Prompt tokens whose KV the paged cache already holds."""
        if self.paged_kv is None or state.slot is None:
            return 0
        return self.paged_kv.cached_length(state.slot)

    def _fetch_plan(self, states: Sequence[RequestState],
                    contexts: Sequence[int]) -> list[int] | None:
        """Per-member KV fetch counts for a batched step (paged only)."""
        if self.paged_kv is None:
            return None
        return self.paged_kv.fetch_plan([s.slot for s in states], contexts)


class _TimingStreamMixin:
    """Token stream + fast-forward plumbing of the timing-only backend
    (:class:`CycleModelBackend`, its one user; a class of its own
    because ``perfbench/tracer.py`` hooks ``fast_forward_cycles`` and
    ``planned_tokens`` under this class name).

    Tokens come from the recorded oracle or the synthetic hash stream —
    both pure functions of ``(request_id, step)`` — so a whole window of
    future samples can be produced without running any model, which is
    what lets the scheduler's fast-forward path spot an upcoming EOS
    before it commits a window.
    """

    #: the scheduler only fast-forwards backends that opt in; the
    #: functional backends never do (their decode computes real logits).
    supports_fast_forward = True

    token_oracle: TokenOracle | None = None

    def sample(self, state: RequestState) -> int:
        if self.token_oracle is not None:
            return self.token_oracle(state.request_id, state.n_generated)
        return _synthetic_token(state, self.model_config.vocab_size,
                                state.request.eos_id)

    def planned_tokens(self, state: RequestState,
                       n: int) -> list[int]:
        """The next up-to-``n`` tokens :meth:`sample` would return for
        ``state`` (index ``j`` is the sample of fast-forward step ``j``).

        Stops at the first EOS: a recorded oracle stream ends there, so
        probing past it would read positions the recording never had.
        """
        base = state.n_generated
        eos = state.request.eos_id
        if self.token_oracle is not None:
            tokens: list[int] = []
            for j in range(n):
                token = self.token_oracle(state.request_id, base + j)
                tokens.append(token)
                if eos is not None and token == eos:
                    break
            return tokens
        return _stream_tokens(state.request_id, base, n,
                              self.model_config.vocab_size, eos)

    def planned_token_grid(self, states: Sequence[RequestState],
                           ns: Sequence[int]) -> list[list[int]]:
        """:meth:`planned_tokens` of every state at once: row ``i``
        starts with the next up-to-``ns[i]`` samples of ``states[i]``.
        Synthetic rows run ``max(ns)`` wide, past which no caller may
        read; a recorded oracle's row stops at its EOS."""
        if self.token_oracle is not None:
            return [self.planned_tokens(state, n)
                    for state, n in zip(states, ns)]
        width = max(ns, default=0)
        vocab = self.model_config.vocab_size
        return [_stream_tokens(s.request.request_id, len(s.generated),
                               width, vocab, s.request.eos_id)
                for s in states]

    def replay_tokens(self, request_id: int, n: int,
                      eos_id: int | None = None) -> tuple[int, ...]:
        """The first ``n`` tokens request ``request_id`` generated —
        the stream is a pure function of its arguments, so windowed
        telemetry stores only the count and replays tokens on demand."""
        if self.token_oracle is not None:
            return tuple(self.token_oracle(request_id, j)
                         for j in range(n))
        return tuple(_stream_tokens(request_id, 0, n,
                                    self.model_config.vocab_size, eos_id))

    def fast_forward_cycles(self, states: Sequence[RequestState],
                            n_steps: int) -> list[float]:
        """Per-step cycles of the next ``n_steps`` static-batch decode
        steps (contexts advancing by one each step), bit-identical to
        calling :meth:`decode_batch` that many times.  Pure — commit the
        window with :meth:`commit_fast_forward` afterwards."""
        contexts = [s.position for s in states]
        cycles = self._fast_forward_cycles(
            contexts, self._fetch_plan(states, contexts), n_steps)
        if self.comm is None:
            return cycles
        # The (batch-constant) collective time, added per step in the
        # same order as step_cycles adds it.
        comm = self.comm.decode_step_cycles(len(contexts))
        return [c + comm for c in cycles]

    def commit_fast_forward(self, states: Sequence[RequestState],
                            n_steps: int) -> None:
        """Apply ``n_steps`` fast-forwarded decode steps' KV accounting."""
        for state in states:
            if self.paged_kv is not None:
                assert state.slot is not None
                self.paged_kv.advance(state.slot, n_steps)
            state.position += n_steps


class _CycleTimedBackend(_KVMixin):
    """Shared plumbing: batched cycle-model timing + KV bookkeeping.

    ``tp > 1`` prices a tensor-parallel group: the cycle model accounts
    ONE shard (1/tp of the weight and KV streams), and ``comm`` adds the
    partial-sum collectives over ``interconnect`` to every step and
    prompt.
    """

    supports_fast_forward = False

    def __init__(self, model_config: ModelConfig, quant: QuantConfig,
                 platform: PlatformConfig, mode: str, n_slots: int,
                 kv_mode: str = "slotted", block_size: int = 16,
                 n_kv_blocks: int | None = None,
                 store_kv_data: bool = False, tp: int = 1,
                 interconnect=None) -> None:
        self.model_config = model_config
        self.quant = quant
        self.platform = platform
        self.mode = mode
        self.tp = tp
        self.comm = _collectives(model_config, quant, tp, interconnect,
                                 self.freq_hz)
        self.cycles = CycleModel(model_config, quant, platform, tp=tp)
        self._init_kv(model_config, quant, platform, kv_mode, n_slots,
                      block_size, n_kv_blocks, store_kv_data, tp)
        # Fast-forward memos: deterministic sub-results of the batched
        # token schedule, keyed so a window of growing contexts reuses
        # every segment it has seen before.
        self._ff_stream: dict[float, float] = {}
        self._ff_const: dict[tuple[int, str], tuple] = {}
        self._ff_prefill: dict[int, float] = {}
        # The per-context terms, filled densely from index 0: entry
        # ``i`` holds the exposed-misc cycles at context ``i``, and a
        # member's two attention candidates, ``2 * heads`` times the KV
        # stream cycles of fetching ``i`` tokens and times the compute
        # cycles at context ``i``.  The scalar loop indexes them
        # directly, the numpy fold gathers through zero-copy views.
        self._ff_exp = array("d")
        self._ff_kv = array("d")
        self._ff_cmp = array("d")

    @property
    def freq_hz(self) -> float:
        return self.platform.pl_freq_hz

    def step_cycles(self, contexts: Sequence[int],
                    fetched: Sequence[int] | None = None) -> float:
        # The decomposed window computation with a one-step window: the
        # identical floats as self.cycles.batched_decode_step (pinned by
        # the kernel property tests), minus the per-call schedule build.
        _validate_batch(contexts, fetched)
        cycles = self._fast_forward_cycles(contexts, fetched, 1)[0]
        if self.comm is None:
            return cycles
        return cycles + self.comm.decode_step_cycles(len(contexts))

    def prefill_cycles(self, n_tokens: int, start: int = 0) -> float:
        """Memoized :meth:`CycleModel.prefill_cycles`: one decode-step
        schedule per *distinct* prompt position ever seen, then pure
        float sums — the same value, since the per-position totals are
        deterministic and the sum order is unchanged."""
        if n_tokens <= 0:
            raise SimulationError("prompt_len must be positive")
        if not 0 <= start < n_tokens:
            raise SimulationError(
                f"prefill start {start} outside prompt of {n_tokens}")
        total = 0
        for pos in range(start, n_tokens):
            tok = self._ff_prefill.get(pos)
            if tok is None:
                tok = self.cycles.token_schedule(pos, "fused").total_cycles
                self._ff_prefill[pos] = tok
            total = total + tok
        if self.comm is None:
            return total
        return total + self.comm.prefill_cycles(n_tokens - start)

    # -- fast-forward decomposition -----------------------------------------
    #
    # One decode step's schedule (TokenScheduler.build_batched) is, in
    # segment order: embedding, then per layer attention + MLP, then the
    # final norm and LM head.  Only the attention segment depends on the
    # contexts, and only through (a) a per-member KV stream-vs-compute
    # max and (b) the per-member exposed-misc cycles of the pipeline
    # schedule.  The helpers below recompute exactly those terms with the
    # identical accumulation order while memoizing every deterministic
    # sub-result, so a K-step window costs O(K * (batch + layers)) float
    # adds instead of K full schedule builds.  ``_ff_stream`` stays on top
    # of the MCU's own stream memo so these probes skip the method call,
    # the report's ``cycles`` property and the ``bytes_moved`` diagnostic
    # counter (which they bypass).

    def _ff_stream_cycles(self, n_bytes: float) -> float:
        val = self._ff_stream.get(n_bytes)
        if val is None:
            sch = self.cycles.scheduler
            val = sch.mcu.stream_transfer(n_bytes).cycles
            self._ff_stream[n_bytes] = val
        return val

    def _ff_exposed(self, ctx: int) -> float:
        return self.cycles.scheduler.pipeline.exposed_misc_cycles(
            ctx, self.mode)

    def _ff_step_constants(self, batch: int) -> tuple:
        """Context-independent segment cycles of one batched step."""
        key = (batch, self.mode)
        val = self._ff_const.get(key)
        if val is not None:
            return val
        sch = self.cycles.scheduler
        m, q = sch.model, sch.quant
        d = m.head_dim
        row_bytes = m.hidden_size * q.activation_bits / 8
        emb = batch * self._ff_stream_cycles(row_bytes)
        mlp = tuple(s.cycles
                    for s in sch.mlp_segments(0, self.mode, batch=batch))
        final = batch * sch.spu.rmsnorm_cycles(m.hidden_size,
                                               square_sum_free=True)
        lm = sch._proj_segment("lm_head", m.vocab_size // sch.tp,
                               m.hidden_size, mode=self.mode,
                               batch=batch).cycles

        def weight_stage(out_rows: int, copies: int,
                         in_cols: int | None = None) -> float:
            if in_cols is None:
                in_cols = m.hidden_size
            n_bytes = out_rows * in_cols * q.effective_weight_bits / 8
            transfer = self._ff_stream_cycles(n_bytes)
            compute = batch * out_rows * sch._tiles(in_cols)
            return copies * max(transfer, compute)

        wsum = 0.0
        if self.mode == "fused":
            wsum += weight_stage(d, m.num_heads // sch.tp)
            wsum += 2 * weight_stage(d, m.kv_heads // sch.tp)
            wsum += weight_stage(m.hidden_size, 1,
                                 in_cols=m.hidden_size // sch.tp)
        else:
            wsum += weight_stage(m.hidden_size // sch.tp, 1)
            wsum += 2 * weight_stage(m.kv_dim // sch.tp, 1)
            wsum += weight_stage(m.hidden_size, 1,
                                 in_cols=m.hidden_size // sch.tp)
        val = (emb, mlp, final, lm, wsum)
        self._ff_const[key] = val
        return val

    def _ff_kv_tx(self, fetch: int) -> float:
        """Per-head-group KV stream-transfer cycles of one member
        fetching ``fetch`` tokens (zero tokens stream nothing)."""
        if fetch <= 0:
            return 0.0
        sch = self.cycles.scheduler
        m, q = sch.model, sch.quant
        payload = fetch * m.head_dim * q.kv_bits / 8
        packs = fetch * q.kv_pack_bits / 8
        group = m.num_heads // m.kv_heads
        return self._ff_stream_cycles(payload + packs) / group

    def _ff_fill(self, top: int) -> None:
        """Extend the per-context memos through index ``top``.  The fill
        is dense from 0, but a sequence reaches context ``c`` only by
        prefilling or decoding through the positions below it, whose
        schedules the prefill memo builds anyway."""
        if top < len(self._ff_exp):
            return
        sch = self.cycles.scheduler
        heads2 = 2 * (sch.model.num_heads // sch.tp)
        tiles_d = sch._tiles(sch.model.head_dim)
        for i in range(len(self._ff_exp), top + 1):
            self._ff_exp.append(self._ff_exposed(i))
            self._ff_kv.append(heads2 * self._ff_kv_tx(i))
            self._ff_cmp.append(heads2 * ((i + 1) * tiles_d))

    def _fast_forward_cycles(self, contexts: Sequence[int],
                             fetched: Sequence[int] | None,
                             n_steps: int) -> list[float]:
        m = self.cycles.scheduler.model
        emb, mlp, final, lm, wsum = self._ff_step_constants(len(contexts))
        if fetched is None:
            fetched = contexts
        # A member fetches at most its context.
        self._ff_fill(max(contexts) + n_steps - 1)
        if n_steps >= _FF_VECTOR_MIN_STEPS:
            # Vectorized window: per-member terms gather from the memos
            # and fold in the same member order, the layer fold runs as
            # whole-window adds — every elementwise IEEE op pairs the
            # same operands as the scalar loop below, so the floats are
            # bit-identical (pinned by the telemetry property tests).
            exp_tab = np.frombuffer(self._ff_exp, dtype=np.float64)
            kv_tab = np.frombuffer(self._ff_kv, dtype=np.float64)
            cmp_tab = np.frombuffer(self._ff_cmp, dtype=np.float64)
            steps = np.arange(n_steps, dtype=np.int64)
            cycles = np.full(n_steps, wsum)
            exposed = np.zeros(n_steps)
            for c0, f0 in zip(contexts, fetched):
                ctxs = c0 + steps
                cycles = cycles + np.maximum(kv_tab[f0 + steps],
                                             cmp_tab[ctxs])
                exposed = exposed + exp_tab[ctxs]
            # The layer fold as one row per step — embedding, then per
            # layer the attention and MLP segments, then the final norm
            # and LM head — accumulated along the row: np.add.accumulate
            # is strictly sequential, so each row's last entry is the
            # scalar loop's running total.
            per_layer = 1 + len(mlp)
            terms = np.empty((n_steps, 3 + m.num_layers * per_layer))
            terms[:, 0] = emb
            layers = terms[:, 1:-2].reshape(n_steps, m.num_layers,
                                            per_layer)
            layers[:, :, 0] = (cycles + exposed)[:, None]
            layers[:, :, 1:] = mlp
            terms[:, -2] = final
            terms[:, -1] = lm
            return np.add.accumulate(terms, axis=1)[:, -1].tolist()
        # ``2 * heads`` times a max is the max of the two products:
        # rounding is monotone, so the tables give the identical floats.
        exp, kv, cmp = self._ff_exp, self._ff_kv, self._ff_cmp
        out = []
        for j in range(n_steps):
            cycles = wsum
            exposed = 0.0
            for c0, f0 in zip(contexts, fetched):
                kv_j, cmp_j = kv[f0 + j], cmp[c0 + j]
                cycles += cmp_j if cmp_j > kv_j else kv_j
                exposed += exp[c0 + j]
            attn = cycles + exposed
            total = 0.0
            total += emb
            for _ in range(m.num_layers):
                total += attn
                for seg in mlp:
                    total += seg
            total += final
            total += lm
            out.append(total)
        return out


class CycleModelBackend(_TimingStreamMixin, _CycleTimedBackend):
    """Timing-only backend: exact cycle model, synthetic token stream."""

    def __init__(self, model_config: ModelConfig, quant: QuantConfig,
                 platform: PlatformConfig = KV260, mode: str = "fused",
                 n_slots: int = 8, kv_mode: str = "slotted",
                 block_size: int = 16, n_kv_blocks: int | None = None,
                 token_oracle: TokenOracle | None = None,
                 tp: int = 1, interconnect=None) -> None:
        super().__init__(model_config, quant, platform, mode, n_slots,
                         kv_mode=kv_mode, block_size=block_size,
                         n_kv_blocks=n_kv_blocks, tp=tp,
                         interconnect=interconnect)
        self.token_oracle = token_oracle

    def prefill(self, state: RequestState) -> float:
        tokens = state.sequence_tokens()
        cached = self._cached_prefix(state)
        if self.paged_kv is not None:
            assert state.slot is not None
            self.paged_kv.advance(state.slot, len(tokens) - cached)
            self.paged_kv.commit_prefix(state.slot, tokens)
        state.position = len(tokens)
        state.logits = None
        # Migration resume: KV that arrived with the checkpoint costs
        # link transfer (charged by the router), never compute here.
        start = min(max(cached, state.resume_skip), len(tokens))
        return self.prefill_cycles(len(tokens), start=start)

    def decode_batch(self, states: Sequence[RequestState]) -> float:
        contexts = [s.context for s in states]
        cycles = self.step_cycles(contexts, self._fetch_plan(states,
                                                             contexts))
        for state in states:
            state.pending_token  # validates the step is owed
            if self.paged_kv is not None:
                assert state.slot is not None
                self.paged_kv.advance(state.slot)
            state.position += 1
        return cycles


class FunctionalBackend(_CycleTimedBackend):
    """Functional pipeline + batched cycle model over real KV storage.

    ``tp > 1`` runs a bit-exact tensor-parallel group: the functional
    model all-reduces its row-parallel partial sums in an FP16 tree
    (``QuantizedModel(tp=)``), and the group is timed and sized like
    :class:`CycleModelBackend` with the same ``tp`` and
    ``interconnect``.  One full-width KV store holds exactly what the
    shards' caches would (KV8 quantizes per token and head).
    """

    def __init__(self, qweights, platform: PlatformConfig = KV260,
                 mode: str = "fused", n_slots: int = 8,
                 functional: QuantizedModel | None = None,
                 kv_mode: str = "slotted", block_size: int = 16,
                 n_kv_blocks: int | None = None, tp: int = 1,
                 interconnect=None) -> None:
        from ..cluster.sharding import functional_reduction_is_exact

        model = qweights.config
        # Validates ``tp`` against the model's shapes first.
        super().__init__(model, qweights.quant, platform, mode,
                         n_slots, kv_mode=kv_mode, block_size=block_size,
                         n_kv_blocks=n_kv_blocks, store_kv_data=True,
                         tp=tp, interconnect=interconnect)
        if functional is None:
            functional = QuantizedModel(qweights, tp=tp)
        if functional.tp != tp:
            raise SimulationError(
                f"functional model runs at tp={functional.tp}, the "
                f"backend at tp={tp}")
        if not functional_reduction_is_exact(model, tp, functional.lanes):
            raise SimulationError(
                f"{model.name} at tp={tp} does not align with the "
                f"{functional.lanes}-lane FP16 accumulation tree, so "
                "sharded partial sums would not be bit-identical to one "
                "device")
        self.functional = functional
        if kv_mode == "slotted":
            # Real storage replaces the mixin's slot counter: the
            # slotted cache has the same allocate()/free(slot) surface.
            self.kv = SlottedKVCache(model, n_slots, qweights.quant.kv_bits)
            self._slots = self.kv
        else:
            assert self.paged_kv is not None
            self.kv = self.paged_kv

    def prefill(self, state: RequestState) -> float:
        if state.slot is None:
            raise SimulationError(
                f"request {state.request_id} not admitted")
        tokens = state.sequence_tokens()
        if len(tokens) > self.model_config.max_context:
            raise SimulationError(
                f"request {state.request_id}: {len(tokens)} tokens exceed "
                f"the {self.model_config.max_context}-token context")
        cached = self._cached_prefix(state)
        logits, _ = self.functional.prefill(tokens,
                                            self.kv.view(state.slot),
                                            start=cached)
        if self.paged_kv is not None:
            self.paged_kv.commit_prefix(state.slot, tokens)
        state.logits = logits
        state.position = len(tokens)
        return self.prefill_cycles(len(tokens), start=cached)

    def sample(self, state: RequestState) -> int:
        if state.logits is None:
            raise SimulationError(
                f"request {state.request_id} has no logits to sample")
        sampler = state.request.sampler
        if sampler is None:
            return int(np.argmax(state.logits))
        return sampler.sample(state.logits)

    def decode_batch(self, states: Sequence[RequestState]) -> float:
        contexts = [s.context for s in states]
        cycles = self.step_cycles(contexts, self._fetch_plan(states,
                                                             contexts))
        for state in states:
            if state.slot is None:
                raise SimulationError(
                    f"request {state.request_id} not admitted")
        # One stacked forward for the whole batch: every weight matrix
        # multiplies all pending tokens at once (bit-identical to the
        # per-state decode_step loop — the schedule is per column).
        logits = self.functional.forward_batch(
            [s.pending_token for s in states],
            [self.kv.view(s.slot) for s in states],
            [s.position for s in states])
        for i, state in enumerate(states):
            state.logits = logits[i]
            state.position += 1
        return cycles
