"""The PR 8 observability layer: percentile sketches, columnar step
storage, flight-recorder trace export, and the diffable run store.

The contracts under test:

* :class:`repro.stats.TDigest` answers every percentile query within
  its documented ``rank_error_bound`` of the exact sample (pinned by
  hypothesis against :func:`percentile_of_sorted` and
  :func:`percentile_of_runs`), and merging preserves the bound
  regardless of merge order;
* :class:`repro.obs.ColumnarRecords` is a pure representation — events
  and windows come back out exactly as they went in;
* :class:`repro.obs.FlightRecorder` exports valid Chrome trace-event
  JSON with monotone clocks and balanced B/E spans, by construction,
  including truncated runs and cluster merges;
* the run store round-trips schema-versioned records and
  :func:`diff_records` flags seeded regressions in the right direction.
"""

from __future__ import annotations

import bisect
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import TINY_MODEL, QuantConfig
from repro.engine import (
    ContinuousBatchScheduler,
    CycleModelBackend,
    Request,
    StepEvent,
    StepWindow,
    iter_synthetic_trace,
    synthetic_trace,
)
from repro.errors import ReproError, SimulationError
from repro.obs import (
    ColumnarRecords,
    FlightRecorder,
    RunRecord,
    RunStore,
    diff_records,
    export_chrome_trace,
    median_record,
    merge_chrome_events,
    metric_direction,
    report_metrics,
)
from repro.stats import TDigest, percentile_of_runs, percentile_of_sorted

QUANT32 = QuantConfig(weight_group_size=32)
PERCENTILES = (0.0, 1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0)


def make_engine(max_batch=4, budget=256, **kwargs):
    backend = CycleModelBackend(TINY_MODEL, QUANT32, n_slots=max_batch)
    return ContinuousBatchScheduler(backend, max_batch=max_batch,
                                    kv_token_budget=budget, **kwargs)


# ---------------------------------------------------------------------------
# t-digest: the documented rank-error bound
# ---------------------------------------------------------------------------


def assert_within_rank_bound(digest, sorted_vals, percentile):
    """The class-docstring contract: some rank consistent with the
    returned value sits within ``rank_error_bound`` of the target.

    A value interpolated strictly between adjacent order statistics has
    a point rank window, so the window is widened by one sample on each
    side — interpolation granularity, not sketch error.  Weighted-mean
    arithmetic can drift a centroid an ulp off its inputs, hence the
    relative tolerance on the bisect keys.
    """
    n = len(sorted_vals)
    value = digest.percentile(percentile)
    tol = 1e-9 * abs(value)
    lo = bisect.bisect_left(sorted_vals, value - tol) - 1
    hi = bisect.bisect_right(sorted_vals, value + tol) + 1
    target = percentile / 100.0 * n
    err = 0.0 if lo <= target <= hi \
        else min(abs(lo - target), abs(hi - target)) / n
    assert err <= digest.rank_error_bound, (
        f"p{percentile}: value {value} has rank window [{lo}, {hi}] "
        f"of {n}, target {target}, err {err} > "
        f"{digest.rank_error_bound}")


class TestTDigestBound:
    @settings(deadline=None, max_examples=40)
    @given(values=st.lists(st.floats(min_value=-1e6, max_value=1e6,
                                     allow_nan=False),
                           min_size=1, max_size=400),
           compression=st.sampled_from((20, 50, 200, 1000)))
    def test_percentiles_within_documented_bound(self, values,
                                                 compression):
        digest = TDigest(compression=compression)
        for v in values:
            digest.add(v)
        ordered = sorted(values)
        for p in PERCENTILES:
            assert_within_rank_bound(digest, ordered, p)

    @settings(deadline=None, max_examples=25)
    @given(runs=st.lists(st.tuples(
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        st.integers(1, 50)), min_size=1, max_size=60))
    def test_weighted_runs_match_percentile_of_runs(self, runs):
        """add_run ingests a run-length sample; queries stay within the
        bound of the exact run-length selection."""
        digest = TDigest(compression=500)
        digest.add_run([v for v, _ in runs], [c for _, c in runs])
        expanded = sorted(v for v, c in runs for _ in range(c))
        order = np.argsort([v for v, _ in runs], kind="stable")
        vals = np.asarray([runs[i][0] for i in order])
        cnts = np.asarray([runs[i][1] for i in order])
        for p in PERCENTILES:
            assert_within_rank_bound(digest, expanded, p)
            # percentile_of_runs is the exact oracle the sketch
            # approximates: same answer as expanding the runs.
            assert percentile_of_runs(vals, cnts, p) \
                == percentile_of_sorted(expanded, p)

    def test_min_max_exact(self):
        digest = TDigest(compression=50)
        rng = np.random.default_rng(3)
        sample = rng.normal(size=5000)
        digest.add_array(sample)
        assert digest.percentile(0) == sample.min()
        assert digest.percentile(100) == sample.max()
        assert digest.n == 5000

    def test_bulk_add_array_matches_scalar_adds(self):
        """add_array is only a faster ingestion path: same multiset,
        same bound — and on identical input order, the same centroids."""
        rng = np.random.default_rng(7)
        sample = rng.exponential(size=3000)
        bulk = TDigest(compression=200)
        bulk.add_array(sample, weight=2.0)
        scalar = TDigest(compression=200)
        for v in sample:
            scalar.add(float(v), weight=2.0)
        assert bulk.n == scalar.n == 6000
        ordered = sorted(np.repeat(sample, 2).tolist())
        for p in PERCENTILES:
            assert_within_rank_bound(bulk, ordered, p)
            assert_within_rank_bound(scalar, ordered, p)

    def test_centroid_count_stays_bounded(self):
        """The whole point: memory is O(compression), not O(n)."""
        digest = TDigest(compression=100)
        rng = np.random.default_rng(11)
        digest.add_array(rng.normal(size=100_000))
        assert digest.n_centroids <= 2 * digest.compression

    def test_rank_error_bound_value(self):
        assert TDigest(compression=1000).rank_error_bound \
            == pytest.approx(4 * math.pi / 1000)

    def test_validation_errors(self):
        with pytest.raises(SimulationError):
            TDigest(compression=10)
        digest = TDigest(compression=50)
        with pytest.raises(SimulationError):
            digest.add(1.0, weight=0.0)
        with pytest.raises(SimulationError):
            digest.add_array([1.0], weight=-1.0)
        with pytest.raises(SimulationError):
            digest.percentile(50)  # empty
        digest.add(1.0)
        with pytest.raises(SimulationError):
            digest.percentile(101)


class TestTDigestMerge:
    @settings(deadline=None, max_examples=20)
    @given(parts=st.lists(
        st.lists(st.floats(min_value=-1e4, max_value=1e4,
                           allow_nan=False), max_size=200),
        min_size=3, max_size=3),
        compression=st.sampled_from((50, 300)))
    def test_merge_associative_within_bound(self, parts, compression):
        """(a+b)+c and a+(b+c) need not hold identical centroids, but
        both must answer every query within the bound of the combined
        multiset, and agree exactly on the total weight."""
        combined = sorted(v for part in parts for v in part)
        if not combined:
            return

        def digest_of(values):
            d = TDigest(compression=compression)
            for v in values:
                d.add(v)
            return d

        left = digest_of(parts[0])
        left.merge(digest_of(parts[1]))
        left.merge(digest_of(parts[2]))

        tail = digest_of(parts[1])
        tail.merge(digest_of(parts[2]))
        right = digest_of(parts[0])
        right.merge(tail)

        assert left.n == right.n == len(combined)
        for p in PERCENTILES:
            assert_within_rank_bound(left, combined, p)
            assert_within_rank_bound(right, combined, p)

    def test_merge_empty_is_noop(self):
        digest = TDigest(compression=50)
        digest.add(5.0)
        digest.merge(TDigest(compression=50))
        assert digest.n == 1
        assert digest.percentile(50) == 5.0


# ---------------------------------------------------------------------------
# columnar step storage
# ---------------------------------------------------------------------------


class TestColumnarRecords:
    FREQ = 250e6

    def _mixed_stream(self):
        events = [
            StepEvent(clock_s=0.1, batch=2, cycles=100, admitted=2,
                      preempted=0, retired=0),
            StepEvent(clock_s=0.2, batch=3, cycles=120, admitted=1,
                      preempted=1, retired=0),
        ]
        win_a = StepWindow(freq_hz=self.FREQ, count=4,
                           cycles=np.array([10., 11., 12., 13.]),
                           segments=((4, 3, 0, 0),), starts=(0.2,))
        # Segments that admit: each starts at its own clock, past the
        # previous segment's end by the folded prefills.
        win_b = StepWindow(freq_hz=self.FREQ, count=6,
                           cycles=np.array([20., 21., 22., 23., 24., 25.]),
                           segments=((2, 3, 1, 1), (1, 2, 0, 0),
                                     (3, 4, 2, 1)),
                           starts=(0.9, 1.0, 1.25))
        tail = StepEvent(clock_s=1.5, batch=1, cycles=90, admitted=0,
                         preempted=0, retired=1)
        return [events[0], events[1], win_a, win_b, tail]

    @staticmethod
    def _append_window(records, window):
        pos = 0
        for i, (start, (count, batch, admitted, retired)) in enumerate(
                zip(window.starts, window.segments)):
            records.append_segment(start, window.cycles[pos:pos + count],
                                   batch, admitted, retired,
                                   new_window=i == 0)
            pos += count

    def _filled(self):
        records = ColumnarRecords(self.FREQ)
        for item in self._mixed_stream():
            if isinstance(item, StepEvent):
                records.append(item)
            else:
                self._append_window(records, item)
        return records

    def test_round_trip_identity(self):
        """Everything appended comes back out unchanged, in order,
        through iteration and random access alike."""
        records = self._filled()
        reference = self._mixed_stream()
        assert len(records) == len(reference)
        assert records.n_events == 3
        assert records.n_windows == 2
        for got, want in zip(records, reference):
            assert type(got) is type(want)
            if isinstance(want, StepEvent):
                assert got == want
            else:
                assert got.freq_hz == want.freq_hz
                assert got.count == want.count
                assert got.cycles.tolist() == want.cycles.tolist()
                assert got.segments == want.segments
                assert got.starts == want.starts
                assert got.expand() == want.expand()
        for i in range(len(records)):
            got = records[i]
            want = reference[i]
            if isinstance(want, StepEvent):
                assert got == want
            else:
                assert got.cycles.tolist() == want.cycles.tolist()

    def test_admitting_window_expands_per_segment(self):
        """Each segment's clocks restart from its own start clock;
        ``admitted`` lands on a segment's first event and ``retired``
        on its last, as on the eager steps that did them."""
        window = self._mixed_stream()[3]
        events = window.expand()
        lat = window.latencies()
        assert [e.batch for e in events] == [3, 3, 2, 4, 4, 4]
        assert [e.admitted for e in events] == [1, 0, 0, 2, 0, 0]
        assert [e.retired for e in events] == [0, 1, 0, 0, 0, 1]
        assert [e.clock_s for e in events] == [
            0.9 + lat[0], 0.9 + lat[0] + lat[1], 1.0 + lat[2],
            1.25 + lat[3], 1.25 + lat[3] + lat[4],
            1.25 + lat[3] + lat[4] + lat[5]]

    def test_window_cycles_are_copies(self):
        """Materialized windows must not pin the underlying buffers —
        appending after a read would otherwise raise BufferError."""
        records = self._filled()
        window = next(r for r in records if isinstance(r, StepWindow))
        _ = window.cycles
        records.append_segment(2.0, np.array([5.0]), 1, 0, 0,
                               new_window=True)  # no raise
        assert records.n_windows == 3

    def test_n_bytes_tracks_columns(self):
        records = ColumnarRecords(self.FREQ)
        base = records.n_bytes
        records.append_segment(0.0, np.arange(100, dtype=np.float64),
                               4, 0, 0, new_window=True)
        assert records.n_bytes > base

    def test_engine_windows_level_uses_columns(self):
        """telemetry='windows' stores records columnar, and the stream
        expands to the identical events of a list-backed full run."""
        kwargs = dict(arrival_rate_rps=800.0, seed=5, prompt_len=(3, 8),
                      decode_len=(4, 24))
        eng_win = make_engine()
        eng_win.run(iter_synthetic_trace(TINY_MODEL, 20, **kwargs),
                    telemetry="windows")
        assert isinstance(eng_win._recorder.records, ColumnarRecords)
        eng_full = make_engine()
        eng_full.run(synthetic_trace(TINY_MODEL, 20, **kwargs))
        assert isinstance(eng_full._recorder.records, list)
        assert eng_win.events == eng_full.events


# ---------------------------------------------------------------------------
# flight recorder + Chrome trace export
# ---------------------------------------------------------------------------


def assert_valid_chrome_trace(payload):
    """Structural validity: parseable, monotone clocks, balanced and
    properly nested B/E per (pid, tid) lane."""
    events = payload["traceEvents"]
    body = [e for e in events if e["ph"] != "M"]
    clocks = [e["ts"] for e in body]
    assert clocks == sorted(clocks), "clocks not monotone"
    stacks: dict = {}
    for event in body:
        lane = (event["pid"], event["tid"])
        stack = stacks.setdefault(lane, [])
        if event["ph"] == "B":
            stack.append(event["name"])
        elif event["ph"] == "E":
            assert stack, f"E without B on lane {lane}: {event}"
            stack.pop()
        else:
            assert event["ph"] == "i"
            assert event["s"] == "t"
    for lane, stack in stacks.items():
        assert not stack, f"unbalanced spans on lane {lane}: {stack}"


class TestFlightRecorder:
    def _traced_run(self, n_requests=40, arrival_rate_rps=2000.0,
                    **engine_kwargs):
        engine = make_engine(**engine_kwargs)
        recorder = FlightRecorder()
        engine.flight = recorder
        report = engine.run(
            iter_synthetic_trace(TINY_MODEL, n_requests,
                                 arrival_rate_rps=arrival_rate_rps,
                                 seed=9, prompt_len=(3, 8),
                                 decode_len=(4, 20)),
            telemetry="sketch")
        return report, recorder

    def _exported_names(self, tmp_path, **engine_kwargs) -> set:
        _, recorder = self._traced_run(**engine_kwargs)
        path = tmp_path / "trace.json"
        export_chrome_trace(path, recorder)
        payload = json.loads(path.read_text())
        assert payload["displayTimeUnit"] == "ms"
        assert_valid_chrome_trace(payload)
        return {e["name"] for e in payload["traceEvents"]}

    def test_export_round_trip(self, tmp_path):
        """The windowed run traces window spans; its idle starts fold
        into them, so it takes no eager step."""
        names = self._exported_names(tmp_path)
        assert {"queued", "prefill", "decode", "retired",
                "window"} <= names
        assert "step" not in names

    def test_export_round_trip_eager_steps(self, tmp_path):
        """The eager loop traces one step span per iteration."""
        names = self._exported_names(tmp_path, fast_forward=False)
        assert {"queued", "prefill", "decode", "retired",
                "step"} <= names

    def test_window_spans_skip_idle_gaps(self):
        """A window folds the idle jumps between bursts, but its trace
        draws only the busy stretches: every window span lies inside
        the union of the requests' prefill and decode spans."""
        report, recorder = self._traced_run(n_requests=12,
                                            arrival_rate_rps=200.0)
        assert report.window_stats["n_windows"] \
            < report.window_stats["folded_admissions"]
        events = recorder.chrome_events()
        busy, windows, opened = [], [], {}
        for e in events:
            lane = (e["tid"], e["name"])
            if e["ph"] == "B" and e["name"] in ("prefill", "decode",
                                                "window"):
                opened[lane] = e["ts"]
            elif e["ph"] == "E" and lane in opened:
                interval = (opened.pop(lane), e["ts"])
                (windows if e["name"] == "window" else busy) \
                    .append(interval)
        merged: list[list[float]] = []
        for lo, hi in sorted(busy):
            if merged and lo <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], hi)
            else:
                merged.append([lo, hi])
        assert len(merged) > 1, "the trace must have idle gaps"
        assert len(windows) >= len(merged)
        for lo, hi in windows:
            assert any(m_lo <= lo and hi <= m_hi
                       for m_lo, m_hi in merged), (lo, hi)

    def test_every_request_retires_once(self):
        report, recorder = self._traced_run(n_requests=25)
        retired = [e for e in recorder.chrome_events()
                   if e["ph"] == "i" and e["name"] == "retired"]
        assert len(retired) == report.n_requests
        # One lane per request, none colliding with the scheduler tid.
        lanes = {e["tid"] for e in retired}
        assert len(lanes) == report.n_requests
        assert 0 not in lanes

    def test_preemption_emits_instant_and_requeue(self):
        """A preempted request drops back to queued: the trace shows
        the preempt instant and a second queued span on its lane."""
        engine = make_engine(max_batch=4, budget=48)
        recorder = FlightRecorder()
        engine.flight = recorder
        report = engine.run(
            synthetic_trace(TINY_MODEL, 8, arrival_rate_rps=1e9, seed=3,
                            prompt_len=(4, 8), decode_len=(16, 32)),
            telemetry="sketch")
        assert report.preemptions > 0
        events = recorder.chrome_events()
        preempts = [e for e in events
                    if e["ph"] == "i" and e["name"] == "preempt"]
        assert len(preempts) == report.preemptions
        lane = preempts[0]["tid"]
        queued = [e for e in events if e["tid"] == lane
                  and e["ph"] == "B" and e["name"] == "queued"]
        assert len(queued) >= 2

    def test_open_spans_auto_close(self):
        recorder = FlightRecorder()
        recorder.request_phase(0, "queued", 1.0)
        recorder.request_phase(0, "decode", 2.0)
        recorder.span("step", 2.0, 3.0)
        assert_valid_chrome_trace({"traceEvents":
                                   recorder.chrome_events()})

    def test_abort_emits_terminal_instant_and_balances(self):
        """A request still in flight at export (truncated or aborted
        run) must show up as aborted, not vanish: its open span closes
        at the latest clock and a terminal instant names the phase it
        died in, keeping every lane B/E-balanced."""
        recorder = FlightRecorder()
        recorder.request_phase(0, "queued", 1.0)
        recorder.request_phase(0, "decode", 2.0)
        recorder.request_phase(1, "queued", 2.5)
        recorder.span("step", 2.0, 4.0)
        events = recorder.chrome_events()
        aborted = [e for e in events
                   if e["ph"] == "i" and e["name"] == "aborted"]
        assert {(e["tid"], e["args"]["phase"]) for e in aborted} \
            == {(1, "decode"), (2, "queued")}
        # All terminal events land at the latest observed clock.
        assert {e["ts"] for e in aborted} == {4.0 * 1e6}
        for lane in (1, 2):
            opens = sum(1 for e in events
                        if e["tid"] == lane and e["ph"] == "B")
            closes = sum(1 for e in events
                         if e["tid"] == lane and e["ph"] == "E")
            assert opens == closes
        assert_valid_chrome_trace({"traceEvents": events})

    def test_marker_lands_on_scheduler_track(self):
        recorder = FlightRecorder()
        recorder.marker("crash", 0.5, downtime_s=0.1)
        (event,) = [e for e in recorder.chrome_events()
                    if e["ph"] == "i"]
        assert event["name"] == "crash"
        assert event["tid"] == 0
        assert event["args"] == {"downtime_s": 0.1}

    def test_reset_drops_everything(self):
        recorder = FlightRecorder()
        recorder.request_phase(0, "queued", 1.0)
        recorder.marker("crash", 2.0)
        recorder.reset()
        assert len(recorder) == 0
        assert [e for e in recorder.chrome_events()
                if e["ph"] != "M"] == []

    def test_cluster_merge_keeps_replicas_apart(self, tmp_path):
        recorders = []
        for replica in range(2):
            engine = make_engine()
            recorder = FlightRecorder(replica=replica)
            engine.flight = recorder
            engine.run(synthetic_trace(TINY_MODEL, 10,
                                       arrival_rate_rps=500.0,
                                       seed=replica, prompt_len=(3, 6),
                                       decode_len=(4, 12)),
                       telemetry="sketch")
            recorders.append(recorder)
        payload = export_chrome_trace(tmp_path / "cluster.json",
                                      recorders)
        assert_valid_chrome_trace(payload)
        pids = {e["pid"] for e in payload["traceEvents"]}
        assert pids == {0, 1}
        merged = merge_chrome_events(recorders)
        assert len(merged) == len(payload["traceEvents"])
        process_names = {e["args"]["name"]
                         for e in payload["traceEvents"]
                         if e["name"] == "process_name"}
        assert process_names == {"replica 0", "replica 1"}

    def test_tracing_off_records_nothing(self):
        engine = make_engine()
        assert engine.flight is None
        engine.run([Request(0, (1, 2), max_new_tokens=4)],
                   telemetry="sketch")

    def test_traced_run_leaves_report_unchanged(self):
        """Tracing is pure observation: attaching a recorder must not
        perturb a single simulated observable."""
        kwargs = dict(arrival_rate_rps=900.0, seed=13, prompt_len=(3, 8),
                      decode_len=(4, 20))
        plain = make_engine().run(
            synthetic_trace(TINY_MODEL, 15, **kwargs))
        traced_engine = make_engine()
        traced_engine.flight = FlightRecorder()
        traced = traced_engine.run(
            synthetic_trace(TINY_MODEL, 15, **kwargs))
        assert traced.total_time_s == plain.total_time_s
        assert traced.n_steps == plain.n_steps
        assert traced.total_new_tokens == plain.total_new_tokens
        for ra, rb in zip(traced.results, plain.results):
            assert ra.tokens == rb.tokens
            assert ra.ttft_s == rb.ttft_s


# ---------------------------------------------------------------------------
# run store + diff
# ---------------------------------------------------------------------------


def _report(seed=1, n=12):
    return make_engine().run(
        synthetic_trace(TINY_MODEL, n, arrival_rate_rps=1000.0,
                        seed=seed, prompt_len=(3, 8),
                        decode_len=(4, 16)))


class TestRunStore:
    def test_record_report_round_trip(self, tmp_path):
        store = RunStore(tmp_path)
        saved = store.record_report("nightly", _report(),
                                    config={"seed": 1})
        assert saved.run_id == "nightly#0"
        loaded = store.load("nightly")
        assert loaded.run_id == saved.run_id
        assert loaded.metrics == saved.metrics
        assert loaded.config == {"seed": 1}
        assert loaded.schema == "obsrun-v1"
        assert "aggregate_tokens_per_s" in loaded.metrics
        assert "p99_ttft_s" in loaded.metrics

    def test_sequence_ids_and_selectors(self, tmp_path):
        store = RunStore(tmp_path)
        first = store.record_report("lbl", _report(seed=1))
        second = store.record_report("lbl", _report(seed=2))
        assert [r.run_id for r in store.list_runs()] \
            == ["lbl#0", "lbl#1"]
        assert store.load("lbl").run_id == second.run_id
        assert store.load("lbl#0").metrics == first.metrics
        assert store.load(str(tmp_path / "lbl.jsonl")).run_id \
            == second.run_id
        with pytest.raises(ReproError):
            store.load("lbl#7")
        with pytest.raises(ReproError):
            store.load("missing-label")
        with pytest.raises(ReproError):
            store.load(str(tmp_path / "nothing.jsonl"))

    def test_bad_labels_rejected(self, tmp_path):
        store = RunStore(tmp_path)
        for label in ("", "../escape", ".hidden", "a/b"):
            with pytest.raises(ReproError):
                store.record(label, {}, {})

    def test_schema_mismatch_rejected(self):
        with pytest.raises(ReproError, match="schema"):
            RunRecord.from_json({"schema": "obsrun-v99", "run_id": "x#0",
                                 "label": "x"})

    def test_corrupt_lines_skipped_with_warning(self, tmp_path):
        """A poisoned store file — truncated tail, mangled JSON, stale
        schema — must not take ``obs list|show|diff`` down: bad lines
        are skipped with a warning naming the file and line, and every
        intact record still loads."""
        store = RunStore(tmp_path)
        first = store.record_report("lbl", _report(seed=1))
        path = tmp_path / "lbl.jsonl"
        with path.open("a") as fh:
            fh.write("{not json at all\n")                 # mangled
            fh.write(json.dumps({"schema": "obsrun-v99",
                                 "run_id": "lbl#9",
                                 "label": "lbl"}) + "\n")  # stale schema
            fh.write(json.dumps({"schema": "obsrun-v1"}) + "\n")  # short
            fh.write('{"schema": "obsrun-v1", "run_id"\n')  # truncated
        with pytest.warns(RuntimeWarning):
            second = store.record_report("lbl", _report(seed=2))
        with pytest.warns(RuntimeWarning) as caught:
            records = store.list_runs()
        assert [r.run_id for r in records] \
            == [first.run_id, second.run_id]
        assert len(caught) == 4
        assert all("lbl.jsonl" in str(w.message) for w in caught)
        assert any(":2:" in str(w.message) for w in caught)
        # Selectors keep working over the poisoned file too.
        with pytest.warns(RuntimeWarning):
            assert store.load("lbl").run_id == second.run_id

    def test_report_metrics_flattens_tenant_stats(self):
        from repro.engine import TenantSpec

        mix = ((TenantSpec("fg", "interactive"), 0.5),
               (TenantSpec("bg", "best_effort"), 0.5))
        report = make_engine().run(
            synthetic_trace(TINY_MODEL, 16, arrival_rate_rps=1000.0,
                            seed=4, prompt_len=(3, 8),
                            decode_len=(4, 16), tenant_mix=mix))
        metrics, sections = report_metrics(report)
        assert "tenant.interactive.goodput_tokens_per_s" in metrics
        assert "tenant_stats" in sections
        assert "window_stats" in sections


class TestDiffRecords:
    def _pair(self, **overrides):
        base = RunRecord(run_id="a#0", label="a", created_unix=0.0,
                         config={}, metrics={
                             "aggregate_tokens_per_s": 1000.0,
                             "p99_ttft_s": 0.010,
                             "n_requests": 100})
        new_metrics = dict(base.metrics, **overrides)
        new = RunRecord(run_id="a#1", label="a", created_unix=1.0,
                        config={}, metrics=new_metrics)
        return base, new

    def test_identical_records_have_no_flags(self):
        deltas = diff_records(*self._pair())
        assert all(not d.regressed and not d.improved for d in deltas)

    def test_throughput_drop_regresses(self):
        base, new = self._pair(aggregate_tokens_per_s=900.0)
        deltas = {d.key: d for d in diff_records(base, new)}
        assert deltas["aggregate_tokens_per_s"].regressed
        assert not deltas["aggregate_tokens_per_s"].improved

    def test_latency_rise_regresses_and_drop_improves(self):
        base, new = self._pair(p99_ttft_s=0.012)
        assert {d.key: d.regressed
                for d in diff_records(base, new)}["p99_ttft_s"]
        base, new = self._pair(p99_ttft_s=0.008)
        assert {d.key: d.improved
                for d in diff_records(base, new)}["p99_ttft_s"]

    def test_threshold_gates_flagging(self):
        base, new = self._pair(aggregate_tokens_per_s=960.0)  # -4%
        deltas = {d.key: d for d in diff_records(base, new)}
        assert not deltas["aggregate_tokens_per_s"].regressed
        deltas = {d.key: d
                  for d in diff_records(base, new, threshold=0.02)}
        assert deltas["aggregate_tokens_per_s"].regressed

    def test_neutral_metrics_never_flag(self):
        base, new = self._pair(n_requests=1)  # -99%, but undirected
        deltas = {d.key: d for d in diff_records(base, new)}
        assert deltas["n_requests"].direction == 0
        assert not deltas["n_requests"].regressed

    def test_disjoint_metrics_raise(self):
        base = RunRecord("a#0", "a", 0.0, {}, {"x": 1.0})
        new = RunRecord("a#1", "a", 0.0, {}, {"y": 1.0})
        with pytest.raises(ReproError, match="share no"):
            diff_records(base, new)

    def test_direction_registry(self):
        assert metric_direction("aggregate_tokens_per_s") == 1
        assert metric_direction("tenant.fg.goodput_tokens_per_s") == 1
        assert metric_direction("p99_ttft_s") == -1
        assert metric_direction("windows_peak_rss_mb") == -1
        assert metric_direction("n_requests") == 0


class TestBaselineWindow:
    """Satellite: ``obs diff --baseline-window k`` compares against the
    per-metric median of the last ``k`` baseline runs, so a single
    unlucky run in the history cannot decide a regression verdict."""

    def _rec(self, seq, **metrics):
        return RunRecord(run_id=f"b#{seq}", label="b",
                         created_unix=float(seq), config={},
                         metrics=metrics)

    def test_load_window_returns_last_k_oldest_first(self, tmp_path):
        store = RunStore(tmp_path)
        for seed in range(4):
            store.record_report("lbl", _report(seed=seed))
        window = store.load_window("lbl", 3)
        assert [r.run_id for r in window] == ["lbl#1", "lbl#2", "lbl#3"]
        # Oversized windows clamp to what exists; bad k raises.
        assert len(store.load_window("lbl", 99)) == 4
        assert [r.run_id for r in store.load_window("lbl", 1)] \
            == ["lbl#3"]
        with pytest.raises(ReproError):
            store.load_window("lbl", 0)
        with pytest.raises(ReproError):
            store.load_window("missing", 3)
        # A .jsonl path selects the same file as its label.
        assert [r.run_id for r in
                store.load_window(str(tmp_path / "lbl.jsonl"), 2)] \
            == ["lbl#2", "lbl#3"]

    def test_median_record_odd_and_even(self):
        recs = [self._rec(0, x=1.0, n=10), self._rec(1, x=5.0, n=10),
                self._rec(2, x=2.0, n=10)]
        med = median_record(recs)
        assert med.run_id == "b#median[3]"
        assert med.metrics == {"x": 2.0, "n": 10}
        assert med.config["median_of"] == ["b#0", "b#1", "b#2"]
        even = median_record(recs + [self._rec(3, x=4.0, n=10)])
        assert even.metrics["x"] == 3.0  # mean of middle pair (2, 4)

    def test_median_record_drops_partial_metrics(self):
        # A metric missing (or non-numeric) in any record is dropped:
        # medians over mixed telemetry levels would lie.
        recs = [self._rec(0, x=1.0, y=2.0), self._rec(1, x=3.0),
                self._rec(2, x=2.0, y="full")]
        assert set(median_record(recs).metrics) == {"x"}

    def test_median_record_edge_sizes(self):
        single = self._rec(0, x=1.0)
        assert median_record([single]) is single
        with pytest.raises(ReproError):
            median_record([])

    def test_diff_tolerates_one_outlier_baseline(self):
        # Runs 0 and 2 agree; run 1 is a 2x outlier.  The median
        # baseline sides with the majority, so the steady candidate
        # does not regress.
        window = [self._rec(0, aggregate_tokens_per_s=1000.0),
                  self._rec(1, aggregate_tokens_per_s=2000.0),
                  self._rec(2, aggregate_tokens_per_s=1010.0)]
        cand = self._rec(9, aggregate_tokens_per_s=990.0)
        against_outlier = {d.key: d
                           for d in diff_records(window[1], cand)}
        assert against_outlier["aggregate_tokens_per_s"].regressed
        against_median = {d.key: d for d in
                          diff_records(median_record(window), cand)}
        assert not against_median["aggregate_tokens_per_s"].regressed


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------


class TestObsCli:
    def run(self, capsys, *argv):
        from repro.cli import main

        code = main(list(argv))
        return code, capsys.readouterr().out

    def test_serve_record_trace_then_diff(self, capsys, tmp_path):
        """The whole loop: record two runs and a trace via serve-sim,
        list and show them, then diff — including a seeded regression
        that must flip the exit code."""
        runs = str(tmp_path / "runs")
        trace = tmp_path / "trace.json"
        for _ in range(2):  # same seed: the diff below must be clean
            code, out = self.run(
                capsys, "serve-sim", "--requests", "30", "--seed", "0",
                "--telemetry", "sketch", "--record", "ci",
                "--runs-dir", runs, "--trace-out", str(trace))
            assert code == 0
            assert "run record" in out
        assert_valid_chrome_trace(json.loads(trace.read_text()))

        code, out = self.run(capsys, "obs", "list", "--runs-dir", runs)
        assert code == 0
        assert "ci#0" in out and "ci#1" in out

        code, out = self.run(capsys, "obs", "show", "ci#0",
                             "--runs-dir", runs)
        assert code == 0
        assert "aggregate_tokens_per_s" in out

        code, out = self.run(capsys, "obs", "diff", "ci#0", "ci#1",
                             "--runs-dir", runs)
        assert code == 0
        assert "no regressions" in out

        # Seed a >5% goodput drop into a copy of the latest record.
        path = tmp_path / "runs" / "ci.jsonl"
        record = json.loads(path.read_text().splitlines()[-1])
        record["run_id"] = "ci#2"
        record["metrics"]["aggregate_tokens_per_s"] *= 0.9
        with path.open("a") as fh:
            fh.write(json.dumps(record) + "\n")
        code, out = self.run(capsys, "obs", "diff", "ci#0", "ci#2",
                             "--runs-dir", runs)
        assert code == 1
        assert "REGRESSED" in out
        assert "aggregate_tokens_per_s" in out

    def test_diff_baseline_window_cli(self, capsys, tmp_path):
        runs = str(tmp_path / "runs")
        for seed in ("0", "1", "2"):
            code, _ = self.run(
                capsys, "serve-sim", "--requests", "20", "--seed",
                seed, "--record", "base", "--runs-dir", runs)
            assert code == 0
        code, _ = self.run(
            capsys, "serve-sim", "--requests", "20", "--seed", "3",
            "--record", "cand", "--runs-dir", runs)
        assert code == 0
        code, out = self.run(capsys, "obs", "diff", "base", "cand",
                             "--baseline-window", "3", "--threshold",
                             "5", "--runs-dir", runs)
        assert code == 0
        assert "base#median[3]" in out

    def test_sketch_telemetry_level(self, capsys):
        code, out = self.run(capsys, "serve-sim", "--requests", "12",
                             "--telemetry", "sketch")
        assert code == 0
        assert "token lat p99" in out

    def test_per_request_rejects_sketch(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["serve-sim", "--requests", "4", "--telemetry",
                  "sketch", "--per-request"])
