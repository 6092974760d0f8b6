"""The one report-equality helper the differential tests share.

A plain module rather than ``conftest.py``: ``benchmarks/conftest.py``
shares that module name, so ``from conftest import ...`` is ambiguous
when both directories are collected.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError
from repro.obs import report_metrics

#: percentiles the helper compares
REPORT_PERCENTILES = (0.0, 50.0, 99.0, 100.0)
#: percentiles the telemetry-level check compares
LEVEL_PERCENTILES = (0.0, 25.0, 50.0, 95.0, 99.0, 100.0)


def _answer(query):
    """A report query's value, or the error it raises (a report without
    decode steps has no latency percentile; both sides must agree)."""
    try:
        return query()
    except SimulationError as exc:
        return ("raises", str(exc))


def assert_reports_identical(a, b):
    """Every observable two serving reports can answer is bit-identical:
    the scalars, step batches, tenant stats, latency and TTFT
    percentiles, and every field of every per-request result.  Window
    stats are left out: they count how the run was fast-forwarded, not
    what it served."""
    for name in ("total_time_s", "n_steps", "preemptions",
                 "max_batch_observed", "n_requests", "total_new_tokens",
                 "tenant_stats"):
        assert getattr(a, name) == getattr(b, name), name
    assert _answer(lambda: a.step_batches) \
        == _answer(lambda: b.step_batches)
    for p in REPORT_PERCENTILES:
        assert _answer(lambda: a.latency_percentile_s(p)) \
            == _answer(lambda: b.latency_percentile_s(p)), p
        assert _answer(lambda: a.ttft_percentile_s(p)) \
            == _answer(lambda: b.ttft_percentile_s(p)), p
    assert _answer(lambda: a.results) == _answer(lambda: b.results)


def assert_levels_agree(run):
    """``run(level, fast_forward)`` serves one scenario at a telemetry
    level on fast-forwarding or eager engines.  Windows fast-forward
    must report exactly what the eager oracle does at windows: the
    run-store metrics (resilience included), tenant stats, TTFT and
    token-latency percentiles, and every per-request result.  Sketch
    matches every metric but token latency, which lands within its
    t-digest's rank-error bound.  Returns the fast-forward windows
    report."""
    eager = run("windows", False)
    windows = run("windows", True)
    assert_reports_identical(windows, eager)
    assert windows.resilience == eager.resilience
    (metrics, sections), (want, want_sections) = \
        report_metrics(windows), report_metrics(eager)
    assert metrics == want
    # Window stats count how the run was fast-forwarded, not what it
    # served.
    sections.pop("window_stats")
    want_sections.pop("window_stats")
    assert sections == want_sections
    for p in LEVEL_PERCENTILES:
        assert windows.latency_percentile_s(p) \
            == eager.latency_percentile_s(p), p

    sketch = run("sketch", True)
    exact, sketched = report_metrics(windows), report_metrics(sketch)
    for key, value in exact[0].items():
        if "token_lat" not in key:
            assert sketched[0][key] == value, key
    assert sketched[1] == exact[1]
    ordered = np.repeat(*windows.latency_runs())
    digest = sketch.latency_digest()
    assert digest.n == len(ordered)
    for p in LEVEL_PERCENTILES:
        value = sketch.latency_percentile_s(p)
        lo = np.searchsorted(ordered, value, side="left")
        hi = np.searchsorted(ordered, value, side="right")
        target = p / 100 * (len(ordered) - 1)
        gap = max(lo - 1 - target, target - hi, 0) / len(ordered)
        assert gap <= digest.rank_error_bound, p
    return windows


def record_charges(engine) -> list:
    """Log what an eager ``engine`` really generated and charged: one
    ``(request_id, tokens, decode cycles, finish reason)`` entry per
    retirement of its latest run, in retire order — the row order of
    that run's report.  Tokens are logged as the backend samples them,
    and each decode step's cycles as the scheduler charges them (after
    any slowdown factor)."""
    assert not engine.fast_forward, "only eager steps call decode_batch"
    log: list = []
    charged: dict = {}
    sampled: dict = {}
    backend = engine.backend
    decode, sample, drop, finalize, run = (
        backend.decode_batch, backend.sample, engine._drop_pending_token,
        engine._finalize, engine.run)

    def logged_decode(states):
        cycles = decode(states)
        # The scheduler's own slowdown arithmetic, on the same floats.
        step = cycles * engine._slow_factor \
            if engine._slow_factor != 1.0 else cycles
        for state in states:
            charged.setdefault(state, []).append(step)
        return cycles

    def logged_sample(state):
        token = sample(state)
        sampled.setdefault(state, []).append(token)
        return token

    def logged_drop(state):
        if state.has_pending_forward:
            sampled[state].pop()
        drop(state)

    def logged_finalize(state, reason):
        finalize(state, reason)
        # A migration resume re-seeds its head from the token stream,
        # as the source generated it; every later token is a sample.
        resume = state.request.resume
        head = () if resume is None else backend.replay_tokens(
            state.request_id, resume.n_generated, state.request.eos_id)
        log.append((state.request_id,
                    tuple(head) + tuple(sampled.pop(state, ())),
                    tuple(charged.pop(state, ())), state.finish_reason))

    def logged_run(*args, **kwargs):
        log.clear()
        charged.clear()
        sampled.clear()
        return run(*args, **kwargs)

    backend.decode_batch, backend.sample = logged_decode, logged_sample
    engine._drop_pending_token = logged_drop
    engine._finalize, engine.run = logged_finalize, logged_run
    return log


def count_steps(engine) -> dict:
    """Count ``engine``'s eager steps and decode halves: a decode half
    a window runs after admitting shows as one more decode than
    steps."""
    counts = {"step": 0, "decode": 0}
    step, decode = engine.step, engine._decode_step

    def counted_step():
        counts["step"] += 1
        return step()

    def counted_decode(*args):
        counts["decode"] += 1
        return decode(*args)

    engine.step, engine._decode_step = counted_step, counted_decode
    return counts


def assert_results_match_charges(report, logs):
    """A report's per-request tokens and per-token latencies, built from
    spans over the decode-latency stream and token replay, are what
    the serving engines really generated and charged: row ``i`` of
    recorder ``source`` is entry ``i`` of ``logs[source]`` (a
    :func:`record_charges` log), and an unserved row (a router verdict)
    has no tokens.  Returns the id each row was served as."""
    served_as = []
    for result, source, row in zip(report.results,
                                   report.rows["source"].tolist(),
                                   report.rows["row"].tolist()):
        if source < 0:
            assert result.tokens == () and result.decode_step_s == ()
            served_as.append(result.request_id)
            continue
        rid, tokens, cycles, reason = logs[source][row]
        freq = report.recorders[source].freq_hz
        assert result.tokens == tokens, result.request_id
        assert result.decode_step_s == tuple(c / freq for c in cycles), \
            result.request_id
        assert result.finish_reason is reason
        served_as.append(rid)
    return served_as


def assert_windows_match_eager(make_engine, requests, check=None):
    """Serve ``requests`` on fresh ``make_engine(fast_forward)`` engines:
    the eager oracle at windows telemetry, then event-horizon windows
    at windows and sketch telemetry, each materialized and
    streamed.  Every windowed run reports what the eager one does (at
    sketch, which keeps no per-request tokens: every run-store metric
    but token latency, which its t-digest approximates, and every TTFT
    percentile).  ``check(engine, eager_engine, report, counts)``
    then inspects each windowed run with its :func:`count_steps`
    tally.  Returns the eager engine and report."""
    eager_engine = make_engine(False)
    eager = eager_engine.run(list(requests))
    ordered = sorted(requests, key=lambda r: r.arrival_s)
    for level in ("windows", "sketch"):
        for streamed in (False, True):
            engine = make_engine(True)
            counts = count_steps(engine)
            report = engine.run(iter(ordered) if streamed
                                else list(requests), telemetry=level)
            where = (level, "streamed" if streamed else "materialized")
            if level == "sketch":
                metrics, sections = report_metrics(report)
                want, want_sections = report_metrics(eager)
                assert metrics.keys() == want.keys(), where
                for key, value in want.items():
                    if "token_lat" not in key:
                        assert metrics[key] == value, (where, key)
                assert report.latency_digest().n \
                    == eager.latency_runs()[1].sum(), where
                # Window stats count how the run was fast-forwarded.
                sections.pop("window_stats", None)
                want_sections.pop("window_stats", None)
                assert sections == want_sections, where
                for p in LEVEL_PERCENTILES:
                    assert report.ttft_percentile_s(p) \
                        == eager.ttft_percentile_s(p), (where, p)
            else:
                assert_reports_identical(report, eager)
            if check is not None:
                check(engine, eager_engine, report, counts)
    return eager_engine, eager
