"""The one report-equality helper the differential tests share.

A plain module rather than ``conftest.py``: ``benchmarks/conftest.py``
shares that module name, so ``from conftest import ...`` is ambiguous
when both directories are collected.
"""

from __future__ import annotations

from repro.errors import SimulationError

#: percentiles the helper compares
REPORT_PERCENTILES = (0.0, 50.0, 99.0, 100.0)


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
