"""Serving telemetry: per-step records, run-length windows, reports.

The scheduler can record what happened at four levels of detail
(``telemetry=`` on :meth:`ContinuousBatchScheduler.run`):

* ``"full"`` — every decode step materializes a :class:`StepEvent`,
  every request keeps its per-token latencies and tokens, and the run
  returns the eager :class:`ServeReport`.  This is the reference
  representation the differential harness compares against.
* ``"windows"`` — a fast-forwarded window is stored as ONE
  :class:`StepWindow` (per-segment batch sizes + one per-step cycle
  array shared by every batch member) and per-request detail collapses
  to columnar scalars plus *span* indices into the global decode-step
  stream.  The step stream itself lives in
  :class:`repro.obs.ColumnarRecords` — typed columns, a few dozen
  bytes per record instead of a Python object — so million-request
  runs fit in bounded memory.  The existing APIs —
  ``events``, ``step_batches``, ``results`` with ``decode_step_s`` and
  ``tokens`` — are served by lazy exact expansion, so every value is
  bit-identical to ``"full"``.
* ``"summary"`` — only aggregate counters and the run-length latency
  sample survive; percentiles stay exact, per-request results are
  gone.
* ``"sketch"`` — like ``"summary"``, but the O(decode-steps)
  run-length latency sample is replaced by a :class:`repro.stats.
  TDigest` percentile sketch: O(compression) memory, latency
  percentiles approximate within the digest's documented rank-error
  bound.  Counters, TTFT aggregates, window stats, and tenant stats
  stay exact.  The cheapest level, for million-request sweeps.

Percentiles never need the expansion: the multiset of all requests'
per-token latencies is exactly "each decode step's latency, once per
batch member", so a run-length sample over the step stream
(:func:`repro.stats.percentile_of_runs`) answers identically.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field

import numpy as np

from ..errors import SimulationError
from ..obs.columns import ColumnarRecords, StepEvent, StepWindow
from .request import FinishReason, RequestState
from .tenancy import PRIORITY_CLASSES

TELEMETRY_LEVELS = ("full", "windows", "summary", "sketch")

#: Levels that keep the step-record stream (events + windows).
_RECORDING_LEVELS = ("full", "windows")

#: Why a fast-forward window ended (or could not start).  Fixed key set
#: so histograms from different runs/replicas merge by plain addition.
#: ``"quota"`` marks windows capped where a tenant's KV quota could
#: force a preemption decision the window must not fold over.  EOS
#: retirements and fault/drain boundaries are planned window ends, not
#: breaks: the event horizon folds the first and ends its chains
#: exactly at the second.
WINDOW_BREAK_REASONS = ("admission", "arrival", "retirement-unpredicted",
                        "preemption-risk", "block-frontier", "quota")

#: FinishReason <-> small-int codes for the columnar result store.
_REASON_LIST = list(FinishReason)
_REASON_CODES = {reason: i for i, reason in enumerate(_REASON_LIST)}


@dataclass(frozen=True)
class RequestResult:
    """Summary of one retired request.

    ``ttft_s`` is None for a request that never produced a first token
    (rejected at admission, or retired with zero reported tokens) —
    such requests are excluded from every TTFT aggregate.
    """

    request_id: int
    tokens: tuple[int, ...]
    prompt_len: int
    ttft_s: float | None
    e2e_s: float
    finish_reason: FinishReason
    preemptions: int
    decode_step_s: tuple[float, ...]
    tenant_class: str = "batch"


@dataclass
class ServeReport:
    """Aggregate serving metrics of one engine run."""

    results: list[RequestResult] = field(default_factory=list)
    total_time_s: float = 0.0
    n_steps: int = 0
    preemptions: int = 0
    max_batch_observed: int = 0
    step_batches: list[int] = field(default_factory=list)
    #: fast-forward window accounting (window/segment counts plus a
    #: break-reason histogram) — empty when fast-forward never ran.
    window_stats: dict = field(default_factory=dict)
    #: per-priority-class serving stats (see :class:`TenantStats`) —
    #: one summary dict per class that retired at least one request.
    tenant_stats: dict = field(default_factory=dict)
    #: lazy percentile caches — reports are built once and then queried;
    #: mutate ``results`` and these go stale.
    _decode_lat_sorted: list[float] | None = field(
        default=None, init=False, repr=False, compare=False)
    _ttft_sorted: list[float] | None = field(
        default=None, init=False, repr=False, compare=False)

    @property
    def n_requests(self) -> int:
        return len(self.results)

    @property
    def total_new_tokens(self) -> int:
        return sum(len(r.tokens) for r in self.results)

    @property
    def aggregate_tokens_per_s(self) -> float:
        if self.total_time_s <= 0:
            raise SimulationError("report covers no simulated time")
        return self.total_new_tokens / self.total_time_s

    @property
    def mean_ttft_s(self) -> float:
        ttfts = [r.ttft_s for r in self.results if r.ttft_s is not None]
        if not ttfts:
            raise SimulationError("no retired requests")
        return sum(ttfts) / len(ttfts)

    @property
    def mean_batch(self) -> float:
        if not self.step_batches:
            raise SimulationError("no decode steps recorded")
        return sum(self.step_batches) / len(self.step_batches)

    def _sorted_decode_latencies(self) -> list[float]:
        """Decode latencies flattened and sorted once, then reused by
        every percentile query (serve-sim asks for three per report)."""
        if self._decode_lat_sorted is None:
            self._decode_lat_sorted = sorted(
                s for r in self.results for s in r.decode_step_s)
        return self._decode_lat_sorted

    def _sorted_ttfts(self) -> list[float]:
        if self._ttft_sorted is None:
            self._ttft_sorted = sorted(
                r.ttft_s for r in self.results if r.ttft_s is not None)
        return self._ttft_sorted

    def latency_percentile_s(self, percentile: float) -> float:
        """Per-token decode latency percentile across all requests."""
        from ..stats import percentile_of_sorted

        lats = self._sorted_decode_latencies()
        if not lats:
            raise SimulationError("no decode steps recorded")
        return percentile_of_sorted(lats, percentile)

    def ttft_percentile_s(self, percentile: float) -> float:
        """Time-to-first-token percentile across retired requests."""
        from ..stats import percentile_of_sorted

        ttfts = self._sorted_ttfts()
        if not ttfts:
            raise SimulationError("no retired requests")
        return percentile_of_sorted(ttfts, percentile)


def merge_window_stats(stats: "list[dict]") -> dict:
    """Sum fast-forward window stats across replica reports.

    Every counter is additive and the break histogram has a fixed key
    set, so a cluster merge is plain addition; empty dicts (a replica
    that never fast-forwarded) contribute nothing.
    """
    merged = {
        "n_windows": 0,
        "n_segments": 0,
        "folded_retirements": 0,
        "breaks": {reason: 0 for reason in WINDOW_BREAK_REASONS},
    }
    for s in stats:
        if not s:
            continue
        merged["n_windows"] += s.get("n_windows", 0)
        merged["n_segments"] += s.get("n_segments", 0)
        merged["folded_retirements"] += s.get("folded_retirements", 0)
        for reason, count in s.get("breaks", {}).items():
            merged["breaks"][reason] = \
                merged["breaks"].get(reason, 0) + count
    return merged


class TenantStats:
    """Per-priority-class serving accumulator.

    Counts are plain integers; the TTFT and end-to-end latency samples
    are per-request columns (one value each, so run-length encoding
    buys nothing here).  Rejected requests count toward ``n_rejected``
    only, and requests lost to faults past their retry budget toward
    ``n_failed`` only — their tokens and timings never enter the
    goodput or the latency samples (a FAILED request's wasted service
    shows up in throughput, not as a fake latency sample).  Requests
    that finished without producing a first token contribute e2e but no
    TTFT.

    Accumulators from different runs or replicas merge by column
    concatenation (:func:`merge_tenant_accumulators`); every summary
    statistic is computed over the *sorted* sample, so the summary is a
    pure function of the multiset and identical across scheduler tiers
    and merge orders.
    """

    __slots__ = ("n_requests", "n_rejected", "n_failed", "new_tokens",
                 "ttfts", "e2es")

    def __init__(self) -> None:
        self.n_requests = 0
        self.n_rejected = 0
        self.n_failed = 0
        self.new_tokens = 0
        self.ttfts = array("d")
        self.e2es = array("d")

    def fold(self, state: RequestState) -> None:
        self.n_requests += 1
        if state.finish_reason is FinishReason.REJECTED:
            self.n_rejected += 1
            return
        if state.finish_reason is FinishReason.FAILED:
            self.n_failed += 1
            return
        self.new_tokens += len(state.generated)
        if state.first_token_s is not None:
            self.ttfts.append(state.ttft_s)
        self.e2es.append(state.e2e_s)

    def absorb(self, other: "TenantStats") -> None:
        self.n_requests += other.n_requests
        self.n_rejected += other.n_rejected
        self.n_failed += other.n_failed
        self.new_tokens += other.new_tokens
        self.ttfts.extend(other.ttfts)
        self.e2es.extend(other.e2es)

    def summary(self, total_time_s: float) -> dict:
        from ..stats import percentile_of_sorted

        ttfts = sorted(self.ttfts)
        e2es = sorted(self.e2es)
        out = {
            "n_requests": self.n_requests,
            "n_rejected": self.n_rejected,
            "n_failed": self.n_failed,
            "new_tokens": self.new_tokens,
            "goodput_tokens_per_s": self.new_tokens / total_time_s
            if total_time_s > 0 else 0.0,
            "mean_ttft_s": sum(ttfts) / len(ttfts) if ttfts else None,
        }
        for p in (50, 99):
            out[f"p{p}_ttft_s"] = percentile_of_sorted(ttfts, p) \
                if ttfts else None
            out[f"p{p}_e2e_s"] = percentile_of_sorted(e2es, p) \
                if e2es else None
        return out


def summarize_tenants(accs: "dict[str, TenantStats]",
                      total_time_s: float) -> dict:
    """Per-class summary dicts, in priority order."""
    return {name: accs[name].summary(total_time_s)
            for name in PRIORITY_CLASSES if name in accs}


def merge_tenant_accumulators(
        accs: "list[dict[str, TenantStats]]") -> "dict[str, TenantStats]":
    """Additive cluster merge of per-replica tenant accumulators."""
    merged: dict[str, TenantStats] = {}
    for one in accs:
        for name, acc in one.items():
            merged.setdefault(name, TenantStats()).absorb(acc)
    return merged


def tenant_stats_from_results(results: "list[RequestResult]",
                              total_time_s: float) -> dict:
    """Per-class summaries recomputed from eager per-request results —
    the cluster merge path at ``telemetry="full"``, where the merged
    result list already carries every per-request fact."""
    accs: dict[str, TenantStats] = {}
    for r in results:
        acc = accs.setdefault(r.tenant_class, TenantStats())
        acc.n_requests += 1
        if r.finish_reason is FinishReason.REJECTED:
            acc.n_rejected += 1
            continue
        if r.finish_reason is FinishReason.FAILED:
            acc.n_failed += 1
            continue
        acc.new_tokens += len(r.tokens)
        if r.ttft_s is not None:
            acc.ttfts.append(r.ttft_s)
        acc.e2es.append(r.e2e_s)
    return summarize_tenants(accs, total_time_s)


class RunLengthSample:
    """Run-length-encoded latency sample: values with multiplicities.

    One decode step contributes its latency once per batch member, so
    a window of K steps at batch B adds K runs of count B — O(K)
    storage for K x B samples.  Queries sort the runs once (stable)
    and select by cumulative count, matching
    :func:`repro.stats.percentile_of_sorted` over the expanded sample
    exactly.
    """

    def __init__(self) -> None:
        # One flat (value, count) pair per decode step, packed into
        # growable typed arrays — 16 bytes per run, no per-window
        # object overhead, so a million-request sweep stays lean.
        self._vals = array("d")
        self._cnts = array("q")
        self._sorted: tuple[np.ndarray, np.ndarray] | None = None

    def add_single(self, value: float, count: int) -> None:
        self._vals.append(value)
        self._cnts.append(count)
        self._sorted = None

    def add_run(self, values: np.ndarray, count: int) -> None:
        """``count`` occurrences of every entry of ``values``."""
        if len(values):
            self._vals.frombytes(np.ascontiguousarray(values).tobytes())
            self._cnts.frombytes(
                np.full(len(values), count, dtype=np.int64).tobytes())
            self._sorted = None

    @property
    def n_samples(self) -> int:
        return int(sum(self._cnts))

    def sorted_runs(self) -> tuple[np.ndarray, np.ndarray]:
        """``(values, counts)`` with values ascending."""
        if self._sorted is None:
            values = np.frombuffer(self._vals, dtype=np.float64) \
                if len(self._vals) else np.empty(0, dtype=np.float64)
            counts = np.frombuffer(self._cnts, dtype=np.int64) \
                if len(self._cnts) else np.empty(0, dtype=np.int64)
            order = np.argsort(values, kind="stable")
            self._sorted = (values[order], counts[order])
        return self._sorted

    def percentile(self, percentile: float) -> float:
        from ..stats import percentile_of_runs

        values, counts = self.sorted_runs()
        if not len(values):
            raise SimulationError("no decode steps recorded")
        return percentile_of_runs(values, counts, percentile)


class TelemetryRecorder:
    """Accumulates one run's step records and retired-request columns.

    The scheduler drives it level-agnostically: every eager step calls
    :meth:`record_event`, every fast-forwarded window calls
    :meth:`record_window`, every retirement at a streaming level calls
    :meth:`fold_result` (at ``"full"`` the scheduler keeps the state
    object instead).
    """

    def __init__(self, level: str, freq_hz: float,
                 token_replay=None) -> None:
        if level not in TELEMETRY_LEVELS:
            raise SimulationError(
                f"unknown telemetry level {level!r}; choose from "
                f"{TELEMETRY_LEVELS}")
        self.level = level
        self.freq_hz = freq_hz
        #: ``replay(request_id, n, eos_id) -> tuple`` for backends whose
        #: token stream is a pure function; None stores tokens eagerly.
        self.token_replay = token_replay
        #: the step-record stream — a plain list at ``"full"`` (the
        #: eager oracle materializes anyway), typed columns at
        #: ``"windows"`` so million-record streams stay O(bytes), and
        #: unused (empty list) at the aggregate-only levels.
        self.records: "ColumnarRecords | list[StepEvent]" = \
            ColumnarRecords(freq_hz) if level == "windows" else []
        self.n_steps = 0
        self.n_decode_steps = 0
        self.batch_sum = 0
        self.max_batch = 0
        self.runs = RunLengthSample()
        #: percentile sketch replacing ``runs`` at ``"sketch"`` level.
        self.digest = None
        if level == "sketch":
            from ..stats import TDigest
            self.digest = TDigest()
        # Fast-forward window accounting (all levels; O(1) state).
        self.n_windows = 0
        self.n_window_segments = 0
        self.n_folded_retirements = 0
        self.window_breaks = {reason: 0 for reason in WINDOW_BREAK_REASONS}
        # Per-priority-class accumulators (all levels).
        self.tenants: dict[str, TenantStats] = {}
        # Columnar per-request results (streaming levels).
        self.ids = array("q")
        self.prompt_lens = array("q")
        self.n_tokens = array("q")
        self.ttfts = array("d")
        #: 1 where the aligned ``ttfts`` entry is a real first-token
        #: time, 0 for requests that never produced one (the stored
        #: 0.0 is a placeholder excluded from every TTFT aggregate).
        self.ttft_valid = array("b")
        self.e2es = array("d")
        self.reasons = array("b")
        self.n_preempts = array("q")
        self.eos_ids = array("q")
        self.tenant_ranks = array("b")
        # Request decode spans, flattened: request i's spans are the
        # ``(lo, hi)`` pairs at ``span_bounds[2k:2k+2]`` for ``k`` in
        # ``[span_starts[i], span_starts[i] + span_counts[i])``.
        self.span_bounds = array("q")
        self.span_starts = array("q")
        self.span_counts = array("q")
        self.stored_tokens: list[tuple[int, ...]] | None = \
            None if token_replay is not None else []
        self.total_new_tokens = 0
        self._events_cache: tuple[int, list[StepEvent]] | None = None
        self._lat_stream: tuple[int, np.ndarray] | None = None

    # -- recording ---------------------------------------------------------

    def record_event(self, event: StepEvent) -> None:
        self.n_steps += 1
        if event.batch:
            self.n_decode_steps += 1
            self.batch_sum += event.batch
            if event.batch > self.max_batch:
                self.max_batch = event.batch
            if self.level == "sketch":
                self.digest.add(event.cycles / self.freq_hz, event.batch)
            elif self.level != "full":
                self.runs.add_single(event.cycles / self.freq_hz,
                                     event.batch)
        if self.level in _RECORDING_LEVELS:
            self.records.append(event)

    def note_break(self, reason: str) -> None:
        """Count why the current fast-forward window ended."""
        self.window_breaks[reason] += 1

    def window_stats(self) -> dict:
        """Window/segment counts and break-reason histogram (a fresh
        dict; safe to stash on a report)."""
        return {
            "n_windows": self.n_windows,
            "n_segments": self.n_window_segments,
            "folded_retirements": self.n_folded_retirements,
            "breaks": dict(self.window_breaks),
        }

    def record_window(self, clock0_s: float, clocks_after: np.ndarray,
                      batch: int, cycles: np.ndarray,
                      latencies: np.ndarray,
                      segments: tuple[tuple[int, int, int], ...]) -> None:
        """One fast-forwarded window of ``len(cycles)`` decode steps.

        ``clocks_after[j]`` is the engine clock after step ``j`` and
        ``latencies`` is ``cycles / freq_hz`` — both already computed
        by the scheduler's closed-form charge, so recording reuses the
        exact floats instead of re-deriving them.  ``segments`` holds
        one ``(count, batch, retired)`` triple per piecewise-static
        segment: the batch shrinks at predicted retirements, and
        ``batch`` is the first segment's.
        """
        count = len(cycles)
        self.n_steps += count
        self.n_decode_steps += count
        self.n_windows += 1
        self.n_window_segments += len(segments)
        for seg_count, seg_batch, seg_retired in segments:
            self.batch_sum += seg_batch * seg_count
            if seg_batch > self.max_batch:
                self.max_batch = seg_batch
            self.n_folded_retirements += seg_retired
        if self.level == "full":
            clock_list = clocks_after.tolist()
            cycle_list = cycles.tolist()
            pos = 0
            for seg_count, seg_batch, seg_retired in segments:
                for j in range(seg_count):
                    self.records.append(StepEvent(
                        clock_s=clock_list[pos], batch=seg_batch,
                        cycles=cycle_list[pos], admitted=0, preempted=0,
                        retired=seg_retired if j == seg_count - 1 else 0))
                    pos += 1
            return
        pos = 0
        for seg_count, seg_batch, _ in segments:
            if self.level == "sketch":
                self.digest.add_array(latencies[pos:pos + seg_count],
                                      seg_batch)
            else:
                self.runs.add_run(latencies[pos:pos + seg_count],
                                  seg_batch)
            pos += seg_count
        if self.level == "windows":
            self.records.append_window(clock0_s, batch, cycles, segments)

    def fold_tenant(self, state: RequestState) -> None:
        """Absorb one retired request into its class's accumulator
        (every level — the scheduler calls this on every retirement)."""
        priority = state.request.tenant.priority
        acc = self.tenants.get(priority)
        if acc is None:
            acc = self.tenants[priority] = TenantStats()
        acc.fold(state)

    def tenant_summaries(self, total_time_s: float) -> dict:
        return summarize_tenants(self.tenants, total_time_s)

    def fold_result(self, state: RequestState) -> None:
        """Absorb one retired request into the columns and drop it."""
        self.total_new_tokens += len(state.generated)
        has_ttft = state.first_token_s is not None
        self.ttfts.append(state.ttft_s if has_ttft else 0.0)
        self.ttft_valid.append(1 if has_ttft else 0)
        self.ids.append(state.request_id)  # n_requests + result ordering
        if self.level in ("summary", "sketch"):
            return
        self.prompt_lens.append(state.prompt_len)
        self.n_tokens.append(len(state.generated))
        self.e2es.append(state.e2e_s)
        assert state.finish_reason is not None
        self.reasons.append(_REASON_CODES[state.finish_reason])
        self.n_preempts.append(state.preemptions)
        eos = state.request.eos_id
        self.eos_ids.append(-1 if eos is None else eos)
        self.tenant_ranks.append(state.request.tenant.rank)
        self.span_starts.append(len(self.span_bounds) >> 1)
        self.span_counts.append(len(state.spans))
        for lo, hi in state.spans:
            self.span_bounds.append(lo)
            self.span_bounds.append(hi)
        if self.stored_tokens is not None:
            self.stored_tokens.append(tuple(state.generated))

    def request_spans(self, i: int) -> list[tuple[int, int]]:
        """Request ``i``'s (retire-order) decode spans — ``(lo, hi)``
        half-open index pairs into :meth:`latency_stream`."""
        start = self.span_starts[i]
        bounds = self.span_bounds
        return [(bounds[2 * k], bounds[2 * k + 1])
                for k in range(start, start + self.span_counts[i])]

    # -- lazy exact expansion ----------------------------------------------

    def expanded_events(self) -> list[StepEvent]:
        """The eager per-step event list (windows expanded, cached)."""
        if self.level not in _RECORDING_LEVELS:
            raise SimulationError(
                f"telemetry='{self.level}' records no step events")
        if self.level == "full":
            return self.records  # type: ignore[return-value]
        if self._events_cache is None \
                or self._events_cache[0] != len(self.records):
            events: list[StepEvent] = []
            for record in self.records:
                if isinstance(record, StepWindow):
                    events.extend(record.expand())
                else:
                    events.append(record)
            self._events_cache = (len(self.records), events)
        return self._events_cache[1]

    def step_batches(self) -> list[int]:
        if self.level not in _RECORDING_LEVELS:
            raise SimulationError(
                f"telemetry='{self.level}' records no step batches")
        out: list[int] = []
        for record in self.records:
            if isinstance(record, StepWindow):
                for seg_count, seg_batch, _ in record.segments:
                    out.extend([seg_batch] * seg_count)
            elif record.batch:
                out.append(record.batch)
        return out

    def latency_stream(self) -> np.ndarray:
        """Latency of every decode step, in global decode-step order —
        the array request spans index into."""
        if self.level not in _RECORDING_LEVELS:
            raise SimulationError(
                f"telemetry='{self.level}' records no decode latencies")
        if self._lat_stream is None \
                or self._lat_stream[0] != len(self.records):
            parts: list[np.ndarray] = []
            for record in self.records:
                if isinstance(record, StepWindow):
                    parts.append(record.latencies())
                elif record.batch:
                    parts.append(np.array([record.cycles / self.freq_hz]))
            stream = np.concatenate(parts) if parts \
                else np.empty(0, dtype=np.float64)
            self._lat_stream = (len(self.records), stream)
        return self._lat_stream[1]


class StreamedServeReport:
    """:class:`ServeReport`-compatible view over run-length telemetry.

    Scalar aggregates are exact by construction; ``results``,
    ``events``-style expansions and per-request ``decode_step_s`` /
    ``tokens`` are materialized lazily (``"windows"`` level) from the
    window records, the span columns, and the backend's pure token
    replay — bit-identical to the eager report, paid only when asked.
    """

    def __init__(self, recorder: TelemetryRecorder, total_time_s: float,
                 preemptions: int) -> None:
        self._rec = recorder
        self.telemetry = recorder.level
        self.total_time_s = total_time_s
        self.n_steps = recorder.n_steps
        self.preemptions = preemptions
        self.max_batch_observed = recorder.max_batch
        self.window_stats = recorder.window_stats()
        #: retire-order -> request-id order, fixed once at build time so
        #: every materialization walks requests the way the eager report
        #: does (results are sorted by request id).
        self._order = np.argsort(
            np.frombuffer(recorder.ids, dtype=np.int64)
            if len(recorder.ids) else np.empty(0, dtype=np.int64),
            kind="stable")
        self._results: list[RequestResult] | None = None

    # -- aggregate metrics --------------------------------------------------

    @property
    def n_requests(self) -> int:
        return len(self._rec.ids)

    @property
    def total_new_tokens(self) -> int:
        return self._rec.total_new_tokens

    @property
    def aggregate_tokens_per_s(self) -> float:
        if self.total_time_s <= 0:
            raise SimulationError("report covers no simulated time")
        return self.total_new_tokens / self.total_time_s

    @property
    def mean_ttft_s(self) -> float:
        valid = self._ttft_valid_mask()
        n_valid = int(valid.sum())
        if not n_valid:
            raise SimulationError("no retired requests")
        # Sum in request-id order — the accumulation order of the eager
        # report's mean, so the float matches bit for bit.
        ttfts = np.frombuffer(self._rec.ttfts, dtype=np.float64)
        ordered = ttfts[self._order]
        mask = valid[self._order]
        return sum(ordered[mask].tolist()) / n_valid

    @property
    def mean_batch(self) -> float:
        if not self._rec.n_decode_steps:
            raise SimulationError("no decode steps recorded")
        return self._rec.batch_sum / self._rec.n_decode_steps

    # -- percentiles --------------------------------------------------------

    def latency_percentile_s(self, percentile: float) -> float:
        if self.telemetry == "sketch":
            return self._rec.digest.percentile(percentile)
        return self._rec.runs.percentile(percentile)

    def ttft_percentile_s(self, percentile: float) -> float:
        from ..stats import percentile_of_sorted

        ttfts = self.sorted_ttfts()
        if not len(ttfts):
            raise SimulationError("no retired requests")
        return percentile_of_sorted(ttfts, percentile)

    def _ttft_valid_mask(self) -> np.ndarray:
        if not len(self._rec.ttft_valid):
            return np.empty(0, dtype=bool)
        return np.frombuffer(self._rec.ttft_valid,
                             dtype=np.int8).astype(bool)

    def sorted_ttfts(self) -> np.ndarray:
        if getattr(self, "_ttft_sorted", None) is None:
            ttfts = np.frombuffer(self._rec.ttfts, dtype=np.float64) \
                if len(self._rec.ttfts) else np.empty(0, dtype=np.float64)
            self._ttft_sorted = np.sort(ttfts[self._ttft_valid_mask()])
        return self._ttft_sorted

    def latency_runs(self) -> tuple[np.ndarray, np.ndarray]:
        """Sorted ``(values, counts)`` of the decode-latency sample."""
        if self.telemetry == "sketch":
            raise SimulationError(
                "telemetry='sketch' keeps a percentile sketch, not the "
                "exact latency sample; use latency_digest()")
        return self._rec.runs.sorted_runs()

    def latency_digest(self):
        """The decode-latency :class:`repro.stats.TDigest` (``"sketch"``
        level only) — what a cluster merge combines across replicas."""
        if self.telemetry != "sketch":
            raise SimulationError(
                f"telemetry='{self.telemetry}' keeps the exact latency "
                "sample, not a sketch; use latency_runs()")
        return self._rec.digest

    # -- merge accessors (cluster aggregation without expansion) ------------

    def ttft_columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(request_ids, ttfts, valid)`` in retire order — what a
        cluster merge needs to re-establish global request-id summation
        order without touching the recorder's storage layout.  Entries
        with ``valid`` False are placeholders (no first token) and must
        be excluded from TTFT aggregates."""
        if not len(self._rec.ids):
            return (np.empty(0, dtype=np.int64),
                    np.empty(0, dtype=np.float64),
                    np.empty(0, dtype=bool))
        return (np.frombuffer(self._rec.ids, dtype=np.int64),
                np.frombuffer(self._rec.ttfts, dtype=np.float64),
                self._ttft_valid_mask())

    def tenant_accumulators(self) -> "dict[str, TenantStats]":
        """The live per-class accumulators — the cluster merge path."""
        return self._rec.tenants

    @property
    def tenant_stats(self) -> dict:
        return self._rec.tenant_summaries(self.total_time_s)

    @property
    def batch_sum(self) -> int:
        """Sum of batch sizes over all decode steps."""
        return self._rec.batch_sum

    @property
    def n_decode_steps(self) -> int:
        return self._rec.n_decode_steps

    # -- lazy per-step / per-request detail ---------------------------------

    @property
    def step_batches(self) -> list[int]:
        return self._rec.step_batches()

    @property
    def events(self) -> list[StepEvent]:
        return self._rec.expanded_events()

    @property
    def results(self) -> list[RequestResult]:
        if self.telemetry in ("summary", "sketch"):
            raise SimulationError(
                f"telemetry='{self.telemetry}' keeps no per-request "
                "results; use 'windows' or 'full'")
        if self._results is None:
            rec = self._rec
            stream = rec.latency_stream()
            ids = np.frombuffer(rec.ids, dtype=np.int64)
            out: list[RequestResult] = []
            for i in self._order.tolist():
                n = rec.n_tokens[i]
                if rec.stored_tokens is not None:
                    tokens = rec.stored_tokens[i]
                else:
                    eos = rec.eos_ids[i]
                    tokens = rec.token_replay(
                        int(ids[i]), int(n), None if eos < 0 else int(eos))
                lats: list[float] = []
                for lo, hi in rec.request_spans(i):
                    lats.extend(stream[lo:hi].tolist())
                out.append(RequestResult(
                    request_id=int(ids[i]),
                    tokens=tokens,
                    prompt_len=int(rec.prompt_lens[i]),
                    ttft_s=rec.ttfts[i] if rec.ttft_valid[i] else None,
                    e2e_s=rec.e2es[i],
                    finish_reason=_REASON_LIST[rec.reasons[i]],
                    preemptions=int(rec.n_preempts[i]),
                    decode_step_s=tuple(lats),
                    tenant_class=PRIORITY_CLASSES[rec.tenant_ranks[i]],
                ))
            self._results = out
        return self._results
