"""repro.engine — the unified execution-engine layer.

One request/scheduling model over the repo's three execution paths:

* the functional pipeline (exact tokens + exact timing, small models),
* the cycle model (exact timing, any model size),
* the closed-form analytical roofline (instant estimates).

The entry point is :class:`ContinuousBatchScheduler`: submit
:class:`Request` objects (or a synthetic trace), call :meth:`run`, and
read the :class:`ServeReport` — aggregate tokens/s, per-request TTFT,
and tail latency under weight-stream amortization.

Quickstart::

    from repro import LLAMA2_7B, W4A16_KV8
    from repro.engine import (CycleModelBackend, ContinuousBatchScheduler,
                              synthetic_trace)
    backend = CycleModelBackend(LLAMA2_7B, W4A16_KV8)
    engine = ContinuousBatchScheduler(backend, max_batch=8)
    report = engine.run(synthetic_trace(LLAMA2_7B, n_requests=16))
    print(report.aggregate_tokens_per_s, report.latency_percentile_s(95))

At scale, stream instead of materializing — a generator trace is
submitted incrementally and ``telemetry=`` picks how much detail the
report keeps (``"windows"`` is exact but run-length-encoded,
``"sketch"`` keeps a bounded percentile sketch; every level returns the
same :class:`ServeReport`; see :mod:`repro.engine.telemetry`)::

    report = engine.run(
        iter_synthetic_trace(LLAMA2_7B, n_requests=1_000_000),
        max_steps=100_000_000, telemetry="sketch")

A whole serving run — backend, engine, trace, telemetry level — is one
:class:`repro.scenario.Scenario`; ``serve()`` builds the stack and
streams the scenario's trace through it::

    from repro.scenario import Scenario

    report = Scenario(model=LLAMA2_7B, quant=W4A16_KV8, kv="paged",
                      requests=16, arrival_rate=0.5).serve()
"""

from .backends import (
    AnalyticalBackend,
    CycleModelBackend,
    EngineBackend,
    FunctionalBackend,
    build_backend,
    derive_kv_token_budget,
    kv_discipline_kwargs,
)
from .request import (FinishReason, Request, RequestState, RequestStatus,
                      ResumeSpec)
from .scheduler import (ContinuousBatchScheduler, KilledRequest,
                        MigratedRequest)
from .telemetry import (
    TELEMETRY_LEVELS,
    WINDOW_BREAK_REASONS,
    RequestResult,
    ServeReport,
    StepEvent,
    StepWindow,
    merge_window_stats,
)
from .tenancy import DEFAULT_TENANT, PRIORITY_CLASSES, TenantSpec
from .trace import iter_synthetic_trace, synthetic_trace

__all__ = [
    "AnalyticalBackend",
    "ContinuousBatchScheduler",
    "CycleModelBackend",
    "DEFAULT_TENANT",
    "EngineBackend",
    "FinishReason",
    "FunctionalBackend",
    "KilledRequest",
    "MigratedRequest",
    "PRIORITY_CLASSES",
    "Request",
    "RequestResult",
    "RequestState",
    "RequestStatus",
    "ResumeSpec",
    "ServeReport",
    "StepEvent",
    "StepWindow",
    "TELEMETRY_LEVELS",
    "TenantSpec",
    "WINDOW_BREAK_REASONS",
    "build_backend",
    "derive_kv_token_budget",
    "iter_synthetic_trace",
    "kv_discipline_kwargs",
    "merge_window_stats",
    "synthetic_trace",
]
