"""Serving telemetry: run-length step records and one report.

The scheduler records what happened at one of two levels of detail
(``telemetry=`` on :meth:`ContinuousBatchScheduler.run`):

* ``"windows"`` (the default) — the exact record.  An eager step is
  stored as one :class:`StepEvent`, a fast-forwarded window as ONE
  :class:`StepWindow` (per-segment start clocks, batch sizes and
  admission/retirement counts + one per-step cycle array shared by
  every batch member).  The step stream lives in
  :class:`repro.obs.ColumnarRecords` — typed columns, a few dozen
  bytes per record instead of a Python object — so million-request
  runs fit in bounded memory, and expands lazily to one single-step
  event per decode step.  The eager loop (``fast_forward=False``)
  records only single-step events, so comparing a fast-forwarded run
  against it at this level checks every window's expansion.
* ``"sketch"`` — no step records, so per-request tokens and
  per-token latencies are gone, and the run-length latency sample is
  replaced by a :class:`repro.stats.TDigest` percentile sketch:
  O(compression) memory, latency percentiles within the digest's
  documented rank-error bound.  Every other observable stays exact.
  The cheapest level, for million-request sweeps.

Both levels, and every cluster merge, return the same
:class:`ServeReport`.  Its per-request scalar columns (id, prompt
length, token count, TTFT, e2e, finish reason, preemptions, tenant
class) are kept at every level, so counts, TTFT aggregates, and tenant
stats are exact everywhere.  ``results`` (tokens and per-token
latencies included) expand lazily at ``"windows"`` from the step
records, each request's decode *spans* (index ranges into the global
decode-step stream), and the backend's pure token replay.  A cluster
report is the same class: :meth:`ServeReport.merge` concatenates the
replicas' columns and latency samples, merges their t-digests, and
sums their counters.

**Token latency** is the board's decode-step stream: each decode
step's latency, counted once per batch member.  Both levels keep it —
as a :class:`RunLengthSample` at ``"windows"`` (exact percentiles
through :func:`repro.stats.percentile_of_runs`), as the t-digest at
``"sketch"`` — so the levels agree by construction.
Steps whose work never reaches a result still count, because they
occupied the board: decodes of a request later killed by a crash, or of
a hedge copy that lost.  A result's own ``decode_step_s`` is that stream
gathered over its spans.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Sequence

import numpy as np

from ..errors import SimulationError
from ..obs.columns import ColumnarRecords, StepEvent, StepWindow
from ..stats import TDigest, percentile_of_runs, percentile_of_sorted
from .request import FinishReason, Request, RequestState
from .tenancy import PRIORITY_CLASSES

#: ``"windows"`` keeps the step-record stream (events + windows) and
#: the exact latency sample; ``"sketch"`` keeps neither.
TELEMETRY_LEVELS = ("windows", "sketch")

#: Why a fast-forward window ended.  Fixed key set so histograms from
#: different runs/replicas merge by plain addition; only a window that
#: recorded steps notes one.  ``"admission"`` marks an arrived head
#: whose admission needs a preemption (admissions that fit fold into
#: the window); ``"quota"`` marks windows capped where a tenant's KV
#: quota could force a preemption decision the window must not fold
#: over.  EOS retirements and fault/drain boundaries are planned window
#: ends, not breaks: the event horizon folds the first and ends its
#: chains exactly at the second.
WINDOW_BREAK_REASONS = ("admission", "arrival", "retirement-unpredicted",
                        "preemption-risk", "block-frontier", "quota")

#: FinishReason <-> small-int codes of the ``reason`` columns.
_REASON_LIST = list(FinishReason)
REASON_CODES = {reason: i for i, reason in enumerate(_REASON_LIST)}
#: requests that were never served: no tokens, timings, or goodput.
_UNSERVED = [REASON_CODES[FinishReason.REJECTED],
             REASON_CODES[FinishReason.FAILED]]

#: Per-request scalar columns every recorder keeps, with their
#: ``array`` typecodes; numpy reads the same codes, and the report
#: reads the one-byte ``ttft_valid`` as bool.  ``ttft_s`` holds a 0.0
#: placeholder where ``ttft_valid`` is 0 (no first token); ``eos_id``
#: is -1 for a request without one.
RECORDER_COLUMNS = (("request_id", "q"), ("prompt_len", "i"),
                    ("n_tokens", "i"), ("ttft_s", "d"), ("ttft_valid", "b"),
                    ("e2e_s", "d"), ("reason", "b"), ("preemptions", "i"),
                    ("eos_id", "i"), ("tenant_rank", "b"))

#: A report's per-request columns and their dtypes, in request-id
#: order: the recorder's, less ``eos_id`` (only token replay needs it),
#: plus ``source``, which indexes the report's recorders (-1 for a
#: router verdict that no engine served), and ``row``, the request's
#: row in that recorder.
ROW_COLUMNS = {**{name: np.dtype(bool if name == "ttft_valid" else code)
                  for name, code in RECORDER_COLUMNS if name != "eos_id"},
               "source": np.dtype("i"), "row": np.dtype("q")}


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
        "folded_admissions": 0,
        "breaks": {reason: 0 for reason in WINDOW_BREAK_REASONS},
    }
    for s in stats:
        if not s:
            continue
        merged["n_windows"] += s.get("n_windows", 0)
        merged["n_segments"] += s.get("n_segments", 0)
        merged["folded_retirements"] += s.get("folded_retirements", 0)
        merged["folded_admissions"] += s.get("folded_admissions", 0)
        for reason, count in s.get("breaks", {}).items():
            merged["breaks"][reason] = \
                merged["breaks"].get(reason, 0) + count
    return merged


class RunLengthSample:
    """Run-length-encoded latency sample: values with multiplicities.

    One decode step contributes its latency once per batch member, so
    a window of K steps at batch B adds K runs of count B — O(K)
    storage for K x B samples.  :meth:`sorted_runs` sorts once
    (stable), and :func:`repro.stats.percentile_of_runs` selects by
    cumulative count, matching :func:`repro.stats.percentile_of_sorted`
    over the expanded sample exactly.  ``add``/``add_array`` mirror :class:`repro.stats.TDigest`,
    so the recorder feeds either one the same way.
    """

    def __init__(self) -> None:
        # One flat (value, count) pair per decode step, packed into
        # growable typed arrays — 16 bytes per run, no per-window
        # object overhead, so a million-request sweep stays lean.
        self._vals = array("d")
        self._cnts = array("q")
        self._sorted: tuple[np.ndarray, np.ndarray] | None = None

    def add(self, value: float, count: int) -> None:
        self._vals.append(value)
        self._cnts.append(count)
        self._sorted = None

    def add_array(self, values: Sequence[float], count: int) -> None:
        """``count`` occurrences of every entry of ``values``."""
        if len(values):
            self._vals.extend(values)
            self._cnts.extend([count] * len(values))
            self._sorted = None

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


class TelemetryRecorder:
    """Accumulates one run's step records and retired-request columns.

    The scheduler drives it level-agnostically: every eager step calls
    :meth:`record_event`, every segment of a fast-forwarded window calls
    :meth:`record_segment` as it is charged and the window's end calls
    :meth:`record_window`, and every retirement calls
    :meth:`fold_result`.
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
        #: the step-record stream in typed columns, so million-record
        #: streams stay O(bytes); None at ``"sketch"``.
        self.records: ColumnarRecords | None = \
            ColumnarRecords(freq_hz) if level == "windows" else None
        self.n_steps = 0
        self.n_decode_steps = 0
        self.batch_sum = 0
        self.max_batch = 0
        #: the decode-latency sample (see the module doc).
        self.latency: "RunLengthSample | TDigest" = \
            TDigest() if level == "sketch" else RunLengthSample()
        # Fast-forward window accounting (all levels; O(1) state).
        self.n_windows = 0
        self.n_window_segments = 0
        self.n_folded_retirements = 0
        self.n_folded_admissions = 0
        #: a window has recorded segments and not yet been closed
        self._window_open = False
        self.window_breaks = {reason: 0 for reason in WINDOW_BREAK_REASONS}
        #: per-request scalar columns in retire order (all levels).
        self.columns = {name: array(code)
                        for name, code in RECORDER_COLUMNS}
        # Request decode spans, flattened (all levels but sketch):
        # request i's spans are the ``(lo, hi)`` pairs at
        # ``span_bounds[2k:2k+2]`` for ``k`` in
        # ``[span_starts[i], span_starts[i] + span_counts[i])``.
        self.span_bounds = array("q")
        self.span_starts = array("q")
        self.span_counts = array("q")
        self.stored_tokens: list[tuple[int, ...]] | None = \
            None if token_replay is not None else []
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
            self.latency.add(event.cycles / self.freq_hz, event.batch)
        if self.records is not None:
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
            "folded_admissions": self.n_folded_admissions,
            "breaks": dict(self.window_breaks),
        }

    def record_segment(self, start_s: float,
                       cycles: Sequence[float],
                       latencies: Sequence[float],
                       batch: int, admitted: int, retired: int) -> None:
        """One piecewise-static segment of the open fast-forward window:
        ``len(cycles)`` decode steps at ``batch`` members, starting at
        clock ``start_s`` once the segment's ``admitted`` admissions
        are in, with ``retired`` members leaving at its last step.

        ``latencies`` is ``cycles / freq_hz``, already computed by the
        scheduler's closed-form charge, so recording reuses the exact
        floats instead of re-deriving them.
        """
        count = len(cycles)
        self.n_steps += count
        self.n_decode_steps += count
        self.n_window_segments += 1
        self.batch_sum += batch * count
        if batch > self.max_batch:
            self.max_batch = batch
        self.n_folded_admissions += admitted
        self.n_folded_retirements += retired
        self.latency.add_array(latencies, batch)
        if self.records is not None:
            self.records.append_segment(start_s, cycles, batch, admitted,
                                        retired,
                                        new_window=not self._window_open)
        self._window_open = True

    def record_window(self) -> None:
        """Close the window whose segments were just recorded."""
        self.n_windows += 1
        self._window_open = False

    def fold_result(self, state: RequestState) -> None:
        """Absorb one retired request into the columns (the scheduler
        keeps no retired state object)."""
        assert state.finish_reason is not None
        has_ttft = state.first_token_s is not None
        eos = state.request.eos_id
        c = self.columns
        c["request_id"].append(state.request_id)
        c["prompt_len"].append(state.prompt_len)
        c["n_tokens"].append(state.n_generated)
        c["ttft_s"].append(state.ttft_s if has_ttft else 0.0)
        c["ttft_valid"].append(has_ttft)
        c["e2e_s"].append(state.e2e_s)
        c["reason"].append(REASON_CODES[state.finish_reason])
        c["preemptions"].append(state.preemptions)
        c["eos_id"].append(-1 if eos is None else eos)
        c["tenant_rank"].append(state.request.tenant.rank)
        if self.level == "sketch":
            return
        self.span_starts.append(len(self.span_bounds) >> 1)
        self.span_counts.append(len(state.spans))
        for lo, hi in state.spans:
            self.span_bounds.append(lo)
            self.span_bounds.append(hi)
        if self.stored_tokens is not None:
            self.stored_tokens.append(tuple(state.generated_tokens()))

    def request_spans(self, i: int) -> list[tuple[int, int]]:
        """Request ``i``'s (retire-order) decode spans — ``(lo, hi)``
        half-open index pairs into :meth:`latency_stream`."""
        start = self.span_starts[i]
        bounds = self.span_bounds
        return [(bounds[2 * k], bounds[2 * k + 1])
                for k in range(start, start + self.span_counts[i])]

    def request_tokens(self, i: int) -> tuple[int, ...]:
        """Request ``i``'s generated tokens: stored, or replayed under
        the id the engine served it as."""
        if self.stored_tokens is not None:
            return self.stored_tokens[i]
        c = self.columns
        eos = c["eos_id"][i]
        return self.token_replay(c["request_id"][i], c["n_tokens"][i],
                                 None if eos < 0 else eos)

    # -- lazy exact expansion ----------------------------------------------

    def expanded_events(self) -> list[StepEvent]:
        """The eager per-step event list (windows expanded, cached)."""
        if self.level == "sketch":
            raise SimulationError(
                f"telemetry='{self.level}' records no step events")
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
        if self.level == "sketch":
            raise SimulationError(
                f"telemetry='{self.level}' records no step batches")
        out: list[int] = []
        for record in self.records:
            if isinstance(record, StepWindow):
                for seg_count, seg_batch, _, _ in record.segments:
                    out.extend([seg_batch] * seg_count)
            elif record.batch:
                out.append(record.batch)
        return out

    def latency_stream(self) -> np.ndarray:
        """Latency of every decode step, in global decode-step order —
        the array request spans index into."""
        if self.level == "sketch":
            raise SimulationError(
                f"telemetry='{self.level}' records no decode latencies")
        if self._lat_stream is None \
                or self._lat_stream[0] != len(self.records):
            parts: list[np.ndarray] = []
            singles: list[float] = []
            for record in self.records:
                if isinstance(record, StepWindow):
                    if singles:
                        parts.append(np.array(singles))
                        singles = []
                    parts.append(record.latencies())
                elif record.batch:
                    singles.append(record.cycles / self.freq_hz)
            if singles:
                parts.append(np.array(singles))
            stream = np.concatenate(parts) if parts \
                else np.empty(0, dtype=np.float64)
            self._lat_stream = (len(self.records), stream)
        return self._lat_stream[1]


def _no_rows() -> dict[str, np.ndarray]:
    return {name: np.empty(0, dtype=dtype)
            for name, dtype in ROW_COLUMNS.items()}


def _by_request_id(rows: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Rows reordered by request id; ties keep their order, as a stable
    sort of the eager result list would."""
    order = np.argsort(rows["request_id"], kind="stable")
    return {name: col[order] for name, col in rows.items()}


@dataclass(eq=False)
class ServeReport:
    """Serving metrics of one engine run or of a merged cluster run, at
    any telemetry level (see the module doc).

    Scalars and per-request columns are exact at every level; every
    aggregate is computed from them once, on first query.  A cluster
    report's ``total_time_s`` is the makespan (the slowest replica), so
    ``aggregate_tokens_per_s`` is genuine cluster throughput;
    ``replica_reports``, ``assignments`` (request id -> replica, as
    routed) and ``resilience`` (the fault-run metrics; None on a
    fault-free run) stay empty on an engine report.
    """

    telemetry: str = "windows"
    total_time_s: float = 0.0
    n_steps: int = 0
    preemptions: int = 0
    max_batch_observed: int = 0
    n_decode_steps: int = 0
    #: sum of batch sizes over all decode steps
    batch_sum: int = 0
    #: fast-forward window accounting (window/segment counts plus a
    #: break-reason histogram) — empty when no engine ran.
    window_stats: dict = field(default_factory=dict)
    #: per-request columns (:data:`ROW_COLUMNS`) in request-id order.
    rows: dict = field(default_factory=_no_rows, repr=False)
    #: the recorders per-request detail and the latency sample come from.
    recorders: tuple = field(default=(), repr=False)
    replica_reports: list = field(default_factory=list, repr=False)
    assignments: dict = field(default_factory=dict, repr=False)
    resilience: dict | None = None

    @classmethod
    def from_recorder(cls, rec: TelemetryRecorder, total_time_s: float,
                      preemptions: int) -> "ServeReport":
        """One engine run's report."""
        n = len(rec.columns["request_id"])
        rows = {name: np.frombuffer(rec.columns[name], dtype=dtype)
                if n else np.empty(0, dtype=dtype)
                for name, dtype in ROW_COLUMNS.items()
                if name in rec.columns}
        rows["source"] = np.zeros(n, dtype=ROW_COLUMNS["source"])
        rows["row"] = np.arange(n, dtype=ROW_COLUMNS["row"])
        return cls(telemetry=rec.level, total_time_s=total_time_s,
                   n_steps=rec.n_steps, preemptions=preemptions,
                   max_batch_observed=rec.max_batch,
                   n_decode_steps=rec.n_decode_steps,
                   batch_sum=rec.batch_sum,
                   window_stats=rec.window_stats(),
                   rows=_by_request_id(rows), recorders=(rec,))

    @classmethod
    def merge(cls, reports: "Sequence[ServeReport]",
              assignments: dict[int, int] | None = None,
              verdicts: "Sequence[tuple[Request, FinishReason, float]]"
              = (),
              resilience: dict | None = None) -> "ServeReport":
        """Fold replica reports into one cluster report: rows
        concatenate (then re-sort by request id), latency samples and
        t-digests combine on query, counters add.  ``verdicts`` are
        router-decided outcomes no replica served — ``(request,
        reason, e2e_s)`` for degraded-mode sheds and retry-budget
        failures; they get rows with zero tokens and no TTFT.  Each
        request reaches exactly one verdict, so a request id on two
        rows (a trace that repeats an id) raises."""
        if not reports:
            raise SimulationError("no replica reports to merge")
        parts = []
        recorders: list[TelemetryRecorder] = []
        for report in reports:
            part = dict(report.rows)
            part["source"] = np.where(part["source"] >= 0,
                                      part["source"] + len(recorders), -1)
            parts.append(part)
            recorders.extend(report.recorders)
        if verdicts:
            made = [(r.request_id, len(r.prompt), 0, 0.0, False, e2e_s,
                     REASON_CODES[reason], 0, r.tenant.rank, -1, -1)
                    for r, reason, e2e_s in verdicts]
            parts.append({name: np.array(col, dtype=dtype)
                          for (name, dtype), col
                          in zip(ROW_COLUMNS.items(), zip(*made))})
        rows = _by_request_id({name: np.concatenate([p[name] for p in parts])
                               for name in ROW_COLUMNS})
        ids = rows["request_id"]
        twice = np.flatnonzero(ids[1:] == ids[:-1])
        if len(twice):
            raise SimulationError(
                f"request {ids[twice[0]]} was served twice")
        return cls(
            telemetry=reports[0].telemetry,
            total_time_s=max(r.total_time_s for r in reports),
            n_steps=sum(r.n_steps for r in reports),
            preemptions=sum(r.preemptions for r in reports),
            max_batch_observed=max(r.max_batch_observed for r in reports),
            n_decode_steps=sum(r.n_decode_steps for r in reports),
            batch_sum=sum(r.batch_sum for r in reports),
            window_stats=merge_window_stats(
                [r.window_stats for r in reports]),
            rows=rows, recorders=tuple(recorders),
            replica_reports=list(reports),
            assignments=dict(assignments or {}), resilience=resilience)

    def with_rows(self, keep: np.ndarray,
                  request_id: np.ndarray) -> "ServeReport":
        """This report with only the ``keep`` rows, re-keyed to
        ``request_id`` (aligned with the current rows): every
        row-derived aggregate follows, counters and the latency sample
        do not."""
        rows = dict(self.rows, request_id=request_id)
        return replace(self, rows=_by_request_id(
            {name: col[keep] for name, col in rows.items()}))

    # -- aggregate metrics --------------------------------------------------

    @property
    def n_requests(self) -> int:
        return len(self.rows["request_id"])

    @property
    def total_new_tokens(self) -> int:
        return int(self.rows["n_tokens"].sum(dtype=np.int64))

    @property
    def n_served(self) -> int:
        """Requests that were served: neither rejected nor failed."""
        return int((~np.isin(self.rows["reason"], _UNSERVED)).sum())

    @property
    def aggregate_tokens_per_s(self) -> float:
        """Generated tokens per simulated second; zero for a run that
        served nothing (every request rejected on arrival leaves no
        simulated time behind)."""
        if self.total_time_s > 0:
            return self.total_new_tokens / self.total_time_s
        if self.total_new_tokens:
            raise SimulationError("report covers no simulated time")
        return 0.0

    @property
    def mean_ttft_s(self) -> float:
        valid = self.rows["ttft_valid"]
        n_valid = int(valid.sum())
        if not n_valid:
            raise SimulationError("no retired requests")
        # A sequential sum in request-id order (numpy's pairwise sum
        # would round differently).
        return sum(self.rows["ttft_s"][valid].tolist()) / n_valid

    @property
    def mean_batch(self) -> float:
        if not self.n_decode_steps:
            raise SimulationError("no decode steps recorded")
        return self.batch_sum / self.n_decode_steps

    @cached_property
    def tenant_stats(self) -> dict:
        """Per-priority-class serving stats, in priority order, for every
        class with at least one request.

        Rejected requests count toward ``n_rejected`` only, and requests
        lost to faults past their retry budget toward ``n_failed`` only
        — their rows never enter the goodput or the latency samples.
        Requests that finished without a first token contribute e2e but
        no TTFT.  Every statistic is computed over the *sorted* sample,
        so it is a pure function of the multiset: identical across
        levels, tiers, and merge orders.
        """
        rows = self.rows
        served = ~np.isin(rows["reason"], _UNSERVED)
        out = {}
        for rank, name in enumerate(PRIORITY_CLASSES):
            mine = rows["tenant_rank"] == rank
            n = int(mine.sum())
            if not n:
                continue
            ok = mine & served
            ttfts = np.sort(rows["ttft_s"][ok & rows["ttft_valid"]]).tolist()
            e2es = np.sort(rows["e2e_s"][ok]).tolist()
            new_tokens = int(rows["n_tokens"][ok].sum(dtype=np.int64))
            unserved = rows["reason"][mine & ~served]
            stats = {
                "n_requests": n,
                "n_rejected": int((unserved == _UNSERVED[0]).sum()),
                "n_failed": int((unserved == _UNSERVED[1]).sum()),
                "new_tokens": new_tokens,
                "goodput_tokens_per_s": new_tokens / self.total_time_s
                if self.total_time_s > 0 else 0.0,
                "mean_ttft_s": sum(ttfts) / len(ttfts) if ttfts else None,
            }
            for p in (50, 99):
                stats[f"p{p}_ttft_s"] = percentile_of_sorted(ttfts, p) \
                    if ttfts else None
                stats[f"p{p}_e2e_s"] = percentile_of_sorted(e2es, p) \
                    if e2es else None
            out[name] = stats
        return out

    # -- percentiles --------------------------------------------------------

    def latency_percentile_s(self, percentile: float) -> float:
        """Per-token decode latency percentile (see the module doc)."""
        if self.telemetry == "sketch":
            return self.latency_digest().percentile(percentile)
        values, counts = self.latency_runs()
        if not len(values):
            raise SimulationError("no decode steps recorded")
        return percentile_of_runs(values, counts, percentile)

    def ttft_percentile_s(self, percentile: float) -> float:
        """Time-to-first-token percentile across retired requests."""
        ttfts = self._sorted_ttfts
        if not len(ttfts):
            raise SimulationError("no retired requests")
        return float(percentile_of_sorted(ttfts, percentile))

    @cached_property
    def _sorted_ttfts(self) -> np.ndarray:
        return np.sort(self.rows["ttft_s"][self.rows["ttft_valid"]])

    @cached_property
    def _latency(self) -> "tuple[np.ndarray, np.ndarray] | TDigest":
        samples = [rec.latency for rec in self.recorders] \
            or [TDigest() if self.telemetry == "sketch"
                else RunLengthSample()]
        if self.telemetry == "sketch":
            if len(samples) == 1:
                return samples[0]
            merged = TDigest()
            for digest in samples:
                merged.merge(digest)
            return merged
        if len(samples) == 1:
            return samples[0].sorted_runs()
        runs = [s.sorted_runs() for s in samples]
        values = np.concatenate([v for v, _ in runs])
        counts = np.concatenate([c for _, c in runs])
        order = np.argsort(values, kind="stable")
        return values[order], counts[order]

    def latency_runs(self) -> tuple[np.ndarray, np.ndarray]:
        """Sorted ``(values, counts)`` of the decode-latency sample."""
        if self.telemetry == "sketch":
            raise SimulationError(
                "telemetry='sketch' keeps a percentile sketch, not the "
                "exact latency sample; use latency_digest()")
        return self._latency

    def latency_digest(self) -> TDigest:
        """The decode-latency :class:`repro.stats.TDigest` (``"sketch"``
        level only; a cluster's is the replicas' digests merged)."""
        if self.telemetry != "sketch":
            raise SimulationError(
                f"telemetry='{self.telemetry}' keeps the exact latency "
                "sample, not a sketch; use latency_runs() or "
                "latency_percentile_s()")
        return self._latency

    # -- lazy per-step / per-request detail ---------------------------------

    @property
    def step_batches(self) -> list[int]:
        return [b for rec in self.recorders for b in rec.step_batches()]

    @cached_property
    def results(self) -> list[RequestResult]:
        """Per-request results in request-id order (``"windows"``
        only)."""
        if self.telemetry == "sketch":
            raise SimulationError(
                f"telemetry='{self.telemetry}' keeps no per-request "
                "results; use 'windows'")
        streams = [rec.latency_stream() for rec in self.recorders]
        out: list[RequestResult] = []
        for (rid, prompt_len, _, ttft, valid, e2e, reason, pre, rank,
             src, i) in zip(*(self.rows[name].tolist()
                              for name in ROW_COLUMNS)):
            tokens: tuple[int, ...] = ()
            lats: list[float] = []
            if src >= 0:
                rec = self.recorders[src]
                tokens = rec.request_tokens(i)
                for lo, hi in rec.request_spans(i):
                    lats.extend(streams[src][lo:hi].tolist())
            out.append(RequestResult(
                request_id=rid, tokens=tokens, prompt_len=prompt_len,
                ttft_s=ttft if valid else None, e2e_s=e2e,
                finish_reason=_REASON_LIST[reason], preemptions=pre,
                decode_step_s=tuple(lats),
                tenant_class=PRIORITY_CLASSES[rank]))
        return out


#: ``perfbench/tracer.py`` wraps the report's public methods under this
#: name; kept so that benchmark runs unchanged.  Not exported.
StreamedServeReport = ServeReport
